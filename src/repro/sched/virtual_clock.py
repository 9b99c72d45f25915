"""VirtualClock scheduling (Zhang, 1989/1991) — a Section 11 baseline.

VirtualClock stamps each packet with a per-flow virtual transmission time
advanced by ``size / rate`` per packet, anchored to *real* time when the
flow has been idle:

    VC = max(now, VC_prev) + size / r

and serves packets in stamp order.  It is "extremely similar" (the paper's
words) to WFQ in the underlying packet ordering but was designed for a
preallocated-rate context; its anchor to real time rather than GPS virtual
time means an idle flow does not accumulate credit.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.net.packet import Packet
from repro.sched.base import Scheduler


class VirtualClockScheduler(Scheduler):
    """VirtualClock with per-flow rates in bits/s.

    Args:
        rates_bps: clock rate per flow id.
        auto_register_rate: rate to assume for unknown flows (None refuses
            them, as with WFQ).
    """

    def __init__(
        self,
        rates_bps: Optional[Dict[str, float]] = None,
        auto_register_rate: Optional[float] = None,
    ):
        self._rates: Dict[str, float] = dict(rates_bps or {})
        for flow, rate in self._rates.items():
            if rate <= 0:
                raise ValueError(f"rate of {flow} must be positive")
        self.auto_register_rate = auto_register_rate
        self._vc: Dict[str, float] = {}
        self._heap: List[Tuple[float, int, Packet]] = []
        self._seq = 0
        self.refused = 0

    def register_flow(self, flow_id: str, rate_bps: float) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self._rates[flow_id] = rate_bps

    supports_guaranteed = True

    def install_guaranteed(
        self, flow_id: str, rate_bps: float, now: Optional[float] = None
    ) -> None:
        """Capability interface: VirtualClock rates are bits/s natively."""
        self.register_flow(flow_id, rate_bps)

    def enqueue(self, packet: Packet, now: float) -> bool:
        rate = self._rates.get(packet.flow_id)
        if rate is None:
            if self.auto_register_rate is None:
                self.refused += 1
                return False
            rate = self.auto_register_rate
            self._rates[packet.flow_id] = rate
        stamp = max(now, self._vc.get(packet.flow_id, 0.0)) + packet.size_bits / rate
        self._vc[packet.flow_id] = stamp
        heapq.heappush(self._heap, (stamp, self._seq, packet))
        self._seq += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._heap:
            return None
        __, __, packet = heapq.heappop(self._heap)
        return packet

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<VirtualClockScheduler qlen={len(self._heap)}>"
