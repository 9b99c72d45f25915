"""Packets and service classes.

The packet header carries exactly the scheduling state the paper calls for:

* the flow id (so switches can map a packet to its WFQ flow / priority class),
* the service class (guaranteed / predicted / datagram),
* the **FIFO+ jitter offset** field (Section 6): the accumulated difference
  between this packet's per-hop delays and its class's average delay.  The
  paper proposes this field become part of the packet header architecture
  (Section 12); here it literally is one.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import Any, Dict, Optional

#: Draws the next globally unique packet id.
next_packet_id = itertools.count().__next__


class ServiceClass(enum.Enum):
    """The three levels of service commitment (Section 3)."""

    GUARANTEED = "guaranteed"
    PREDICTED = "predicted"
    DATAGRAM = "datagram"

    @property
    def is_realtime(self) -> bool:
        return self is not ServiceClass.DATAGRAM


@dataclasses.dataclass(slots=True)
class Packet:
    """A network packet.

    Attributes:
        packet_id: globally unique id (diagnostics, conservation checks).
        flow_id: id of the flow this packet belongs to.
        size_bits: packet size in bits (the paper uses 1000 everywhere).
        created_at: source generation timestamp (end-to-end delay baseline).
        source: name of the originating host.
        destination: name of the destination host.
        service_class: guaranteed / predicted / datagram.
        priority_class: predicted-service priority level (0 = highest); for
            datagram traffic this is the lowest level by construction in the
            unified scheduler, and it is unused for guaranteed flows.
        jitter_offset: FIFO+ accumulated (delay - class average) in seconds.
        drop_preference: Section 10 extension; higher = drop/queue-behind
            first within the same delay class.
        tagged: set when an edge conformance check found the packet
            non-conforming but policy was TAG rather than DROP.
        sequence: per-flow sequence number (playback and TCP use it).
        enqueued_at: timestamp of arrival into the current output port; the
            port sets it, schedulers read it; it is per-hop scratch state.
        queueing_delay: accumulated time spent *waiting* in queues across all
            hops so far (excludes transmission and propagation) — the
            quantity the paper's tables report.
        payload: opaque per-protocol data (TCP segments ride here).
    """

    flow_id: str
    size_bits: int
    created_at: float
    source: str
    destination: str
    service_class: ServiceClass = ServiceClass.DATAGRAM
    priority_class: int = 0
    jitter_offset: float = 0.0
    drop_preference: int = 0
    tagged: bool = False
    sequence: int = 0
    enqueued_at: float = 0.0
    queueing_delay: float = 0.0
    payload: Optional[Dict[str, Any]] = None
    packet_id: int = dataclasses.field(default_factory=next_packet_id)
    hops: int = 0

    def queueing_key(self) -> float:
        """FIFO+ ordering key: the *expected* arrival time at this hop.

        A packet that has so far been delayed more than its class average
        (positive offset) is treated as if it arrived earlier, so it is
        scheduled sooner; a packet that has been lucky is pushed back.
        """
        return self.enqueued_at - self.jitter_offset

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Packet #{self.packet_id} flow={self.flow_id} "
            f"{self.source}->{self.destination} {self.service_class.value} "
            f"seq={self.sequence}>"
        )
