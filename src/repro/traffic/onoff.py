"""The paper's two-state Markov on/off source (Appendix).

In each burst period a geometrically distributed number of packets (mean B)
is generated at peak rate P packets/s; the source then idles for an
exponentially distributed period with mean I.  The average rate A satisfies

    1/A = I/B + 1/P.

All experiments in the paper use B = 5 and P = 2A (hence I = B/(2A)), with
A = 85 packets/s, and push the output through an (A, 50-packet) token
bucket that drops about 2 % of packets at the source.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.net.node import Host
from repro.net.packet import ServiceClass
from repro.sim.engine import Simulator
from repro.sim.randomness import StreamRandom
from repro.traffic.source import PacketSource
from repro.traffic.token_bucket import TokenBucketFilter


@dataclasses.dataclass(frozen=True)
class OnOffParams:
    """Parameters of the two-state Markov process, in packets and seconds.

    Attributes:
        average_rate_pps: A, the long-run packet rate.
        mean_burst_packets: B, mean packets per burst (geometric).
        peak_rate_pps: P, the in-burst generation rate.
    """

    average_rate_pps: float
    mean_burst_packets: float = 5.0
    peak_rate_pps: Optional[float] = None  # defaults to 2A, as in the paper

    def __post_init__(self):
        if self.average_rate_pps <= 0:
            raise ValueError("average rate must be positive")
        if self.mean_burst_packets < 1:
            raise ValueError("mean burst must be at least one packet")
        peak = self.resolved_peak_rate
        if peak <= self.average_rate_pps:
            raise ValueError(
                "peak rate must exceed the average rate "
                f"(P={peak}, A={self.average_rate_pps})"
            )

    @property
    def resolved_peak_rate(self) -> float:
        return (
            self.peak_rate_pps
            if self.peak_rate_pps is not None
            else 2.0 * self.average_rate_pps
        )

    @property
    def mean_idle_seconds(self) -> float:
        """I from 1/A = I/B + 1/P  =>  I = B * (1/A - 1/P)."""
        return self.mean_burst_packets * (
            1.0 / self.average_rate_pps - 1.0 / self.resolved_peak_rate
        )

    @classmethod
    def paper_workload(cls, average_rate_pps: float = 85.0) -> "OnOffParams":
        """The Appendix configuration: B = 5, P = 2A."""
        return cls(average_rate_pps=average_rate_pps, mean_burst_packets=5.0)


class OnOffMarkovSource(PacketSource):
    """Two-state Markov source driving a host.

    Args:
        params: the (A, B, P) process parameters.
        rng: seeded stream; one per source for reproducibility.
        start_delay: emission begins after an initial idle period drawn from
            the idle distribution (desynchronizes sources) unless an
            explicit value is given here.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: str,
        destination: str,
        params: OnOffParams,
        rng: StreamRandom,
        packet_size_bits: int = 1000,
        service_class: ServiceClass = ServiceClass.DATAGRAM,
        priority_class: int = 0,
        source_filter: Optional[TokenBucketFilter] = None,
        start_delay: Optional[float] = None,
    ):
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
        self.params = params
        self.rng = rng
        self._burst_remaining = 0
        self.bursts_started = 0
        # Hoist the per-packet constants out of the emission loop: both are
        # properties that recompute a formula on every access.
        self._spacing = 1.0 / params.resolved_peak_rate
        self._mean_idle_seconds = params.mean_idle_seconds
        delay = (
            start_delay
            if start_delay is not None
            else rng.exponential(self._mean_idle_seconds)
        )
        sim.schedule(delay, self._begin_burst)

    def _begin_burst(self) -> None:
        if self._stopped:
            return
        self._burst_remaining = self.rng.geometric(self.params.mean_burst_packets)
        self.bursts_started += 1
        self._emit_next()

    def _emit_next(self) -> None:
        if self._stopped:
            return
        self.emit()
        self._burst_remaining -= 1
        spacing = self._spacing
        if self._burst_remaining > 0:
            self.sim.schedule(spacing, self._emit_next)
        else:
            # The idle period starts after the last packet's 1/P slot: the
            # paper's rate formula 1/A = I/B + 1/P counts a burst of B
            # packets as occupying B/P seconds, so the gap to the next
            # burst is 1/P + idle.  This also keeps the emission process
            # conforming to a (P, one-packet) token bucket, which is what
            # makes the clock-rate-equals-peak-rate P-G bound of Table 3
            # equal b(P)/P = one packet time per hop.
            idle = self.rng.exponential(self._mean_idle_seconds)
            self.sim.schedule(spacing + idle, self._begin_burst)

    @classmethod
    def paper_source(
        cls,
        sim: Simulator,
        host: Host,
        flow_id: str,
        destination: str,
        rng: StreamRandom,
        average_rate_pps: float = 85.0,
        bucket_packets: float = 50.0,
        packet_size_bits: int = 1000,
        service_class: ServiceClass = ServiceClass.DATAGRAM,
        priority_class: int = 0,
    ) -> "OnOffMarkovSource":
        """Build the exact Appendix source: B=5, P=2A, (A, 50) bucket, drop.

        The token bucket's units are bits: rate A*size bits/s, depth
        50*size bits.
        """
        params = OnOffParams.paper_workload(average_rate_pps)
        bucket = TokenBucketFilter(
            rate_bps=average_rate_pps * packet_size_bits,
            depth_bits=bucket_packets * packet_size_bits,
        )
        return cls(
            sim,
            host,
            flow_id,
            destination,
            params,
            rng,
            packet_size_bits=packet_size_bits,
            service_class=service_class,
            priority_class=priority_class,
            source_filter=bucket,
        )
