"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.net.packet import Packet, ServiceClass
from repro.sim.engine import Simulator

# One deterministic profile for every property test: the same examples
# locally and in every CI leg, no wall-clock deadline.  Loaded here, before
# test modules import, so per-test ``@settings(max_examples=...)`` inherit
# it and keep their own counts.
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")


def make_packet(
    flow_id: str = "f",
    size_bits: int = 1000,
    created_at: float = 0.0,
    source: str = "src",
    destination: str = "dst",
    service_class: ServiceClass = ServiceClass.DATAGRAM,
    priority_class: int = 0,
    sequence: int = 0,
    enqueued_at: float = 0.0,
) -> Packet:
    """Construct a packet with test-friendly defaults."""
    packet = Packet(
        flow_id=flow_id,
        size_bits=size_bits,
        created_at=created_at,
        source=source,
        destination=destination,
        service_class=service_class,
        priority_class=priority_class,
        sequence=sequence,
    )
    packet.enqueued_at = enqueued_at
    return packet


@pytest.fixture
def sim() -> Simulator:
    return Simulator()
