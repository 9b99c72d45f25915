"""Delay-recording sinks.

The measurement endpoint behind every table in the paper: records, per
delivered packet, the accumulated *queueing* delay (the paper's metric,
excluding transmission and propagation) and the end-to-end delay, plus
counts for conservation checks.
"""

from __future__ import annotations

from typing import Optional

from repro.net.node import Host
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.stats.percentile import PercentileTracker
from repro.stats.summary import SummaryStats


class DelayRecordingSink:
    """Registers as the flow handler on a host and records delays.

    Args:
        warmup: samples arriving before this simulation time are counted
            but excluded from the statistics (transient removal; the
            experiments discard the first seconds of each run).
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: str,
        warmup: float = 0.0,
    ):
        self.sim = sim
        self.flow_id = flow_id
        self.warmup = warmup
        self.received = 0
        self.recorded = 0
        self.queueing = SummaryStats()
        self.queueing_pct = PercentileTracker()
        self.end_to_end = SummaryStats()
        self.last_arrival: Optional[float] = None
        host.register_flow_handler(flow_id, self.on_packet)

    def on_packet(self, packet: Packet) -> None:
        now = self.sim.now
        self.received += 1
        self.last_arrival = now
        if now < self.warmup:
            return
        self.recorded += 1
        # One recording step per delivery: ``SummaryStats.add`` written
        # out for both accumulators (same expressions, same order) and
        # the keep-everything percentile append.
        value = packet.queueing_delay
        stats = self.queueing
        count = stats.count + 1
        stats.count = count
        stats.total += value
        delta = value - stats._mean
        stats._mean += delta / count
        stats._m2 += delta * (value - stats._mean)
        if value < stats.min:
            stats.min = value
        if value > stats.max:
            stats.max = value
        tracker = self.queueing_pct
        if tracker._reservoir_size is None:
            tracker._count += 1
            tracker._samples.append(value)
            tracker._sorted = False
        else:
            tracker.add(value)
        value = now - packet.created_at
        stats = self.end_to_end
        count = stats.count + 1
        stats.count = count
        stats.total += value
        delta = value - stats._mean
        stats._mean += delta / count
        stats._m2 += delta * (value - stats._mean)
        if value < stats.min:
            stats.min = value
        if value > stats.max:
            stats.max = value

    # Convenience accessors in the paper's reporting unit --------------
    def mean_queueing(self, unit_seconds: float = 1.0) -> float:
        """Mean queueing delay, expressed in multiples of ``unit_seconds``
        (the paper uses the 1 ms packet transmission time as the unit)."""
        return self.queueing.mean / unit_seconds

    def percentile_queueing(self, pct: float, unit_seconds: float = 1.0) -> float:
        return self.queueing_pct.percentile(pct) / unit_seconds

    def max_queueing(self, unit_seconds: float = 1.0) -> float:
        return self.queueing.max / unit_seconds

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DelayRecordingSink {self.flow_id} n={self.recorded}>"
