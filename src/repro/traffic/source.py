"""Base machinery shared by packet sources.

A source owns a flow identity (flow id, destination, service class,
predicted priority class), stamps sequence numbers, optionally pushes each
packet through a source-side token bucket filter (the Appendix drops
nonconforming packets *at the source*), and injects survivors into its host.
"""

from __future__ import annotations

from typing import Optional

from repro.net.node import Host
from repro.net.packet import Packet, ServiceClass, next_packet_id
from repro.sim.engine import Simulator
from repro.traffic.token_bucket import TokenBucketFilter


class PacketSource:
    """Common state and emission path for all traffic sources."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: str,
        destination: str,
        packet_size_bits: int = 1000,
        service_class: ServiceClass = ServiceClass.DATAGRAM,
        priority_class: int = 0,
        source_filter: Optional[TokenBucketFilter] = None,
    ):
        if packet_size_bits <= 0:
            raise ValueError("packet size must be positive")
        self.sim = sim
        self.host = host
        self.flow_id = flow_id
        self.destination = destination
        self.packet_size_bits = packet_size_bits
        self.service_class = service_class
        self.priority_class = priority_class
        self.source_filter = source_filter
        self.generated = 0
        self.sent = 0
        self.filtered = 0
        self._next_seq = 0
        self._stopped = False

    def stop(self) -> None:
        """Stop emitting (pending timer events become no-ops)."""
        self._stopped = True

    @property
    def stopped(self) -> bool:
        return self._stopped

    def emit(self) -> Optional[Packet]:
        """Generate one packet now; filter, stamp, and send it.

        Returns the packet if it entered the network, None if the source
        filter dropped it.
        """
        now = self.sim.now
        # Positional, in ``Packet`` field order, with the id drawn here:
        # one constructor frame per packet instead of keyword matching
        # plus the ``packet_id`` default factory.
        packet = Packet(
            self.flow_id,
            self.packet_size_bits,
            now,
            self.host.name,
            self.destination,
            self.service_class,
            self.priority_class,
            0.0,  # jitter_offset
            0,  # drop_preference
            False,  # tagged
            self._next_seq,
            0.0,  # enqueued_at
            0.0,  # queueing_delay
            None,  # payload
            next_packet_id(),
        )
        self._next_seq += 1
        self.generated += 1
        if self.source_filter is not None and not self.source_filter.check(packet, now):
            self.filtered += 1
            return None
        self.sent += 1
        self.host.send(packet)
        return packet
