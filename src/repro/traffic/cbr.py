"""Constant-bit-rate source.

Models the non-bursty real-time devices the paper contrasts with (fixed-rate
codecs); used by examples and by tests that need perfectly predictable load.
"""

from __future__ import annotations

from typing import Optional

from repro.net.node import Host
from repro.net.packet import ServiceClass
from repro.sim.engine import Simulator
from repro.traffic.source import PacketSource
from repro.traffic.token_bucket import TokenBucketFilter


class CbrSource(PacketSource):
    """Emits one packet every ``1/rate_pps`` seconds.

    Args:
        rate_pps: packet rate.
        start_offset: delay before the first packet (stagger CBR sources to
            avoid phase artifacts).
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: str,
        destination: str,
        rate_pps: float,
        packet_size_bits: int = 1000,
        service_class: ServiceClass = ServiceClass.DATAGRAM,
        priority_class: int = 0,
        source_filter: Optional[TokenBucketFilter] = None,
        start_offset: float = 0.0,
    ):
        if rate_pps <= 0:
            raise ValueError("rate must be positive")
        super().__init__(
            sim,
            host,
            flow_id,
            destination,
            packet_size_bits,
            service_class,
            priority_class,
            source_filter,
        )
        self.rate_pps = rate_pps
        self._interval = 1.0 / rate_pps
        sim.schedule(start_offset, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self.emit()
        self.sim.schedule(self._interval, self._tick)
