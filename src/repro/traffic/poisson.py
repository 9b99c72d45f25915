"""Poisson packet source.

Classic datagram background traffic: exponential inter-arrival times.  Used
for best-effort load in examples and in tests of the datagram service class.
"""

from __future__ import annotations

from typing import Optional

from repro.net.node import Host
from repro.net.packet import ServiceClass
from repro.sim.engine import Simulator
from repro.sim.randomness import StreamRandom
from repro.traffic.source import PacketSource
from repro.traffic.token_bucket import TokenBucketFilter


class PoissonSource(PacketSource):
    """Emits packets with exponential gaps at mean rate ``rate_pps``."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: str,
        destination: str,
        rate_pps: float,
        rng: StreamRandom,
        packet_size_bits: int = 1000,
        service_class: ServiceClass = ServiceClass.DATAGRAM,
        priority_class: int = 0,
        source_filter: Optional[TokenBucketFilter] = None,
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
        self.rng = rng
        sim.schedule(rng.exponential(1.0 / rate_pps), self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self.emit()
        self.sim.schedule(self.rng.exponential(1.0 / self.rate_pps), self._tick)
