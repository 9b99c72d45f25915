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


def plan_replay_spec():
    """A small ECMP fabric under admission whose two outages reach every
    branch of the shared reroute policy on the fluid engine.

    ``h-src`` reaches ``h-dst`` over two equal-cost paths, via S-B
    (1 Mb/s) or via the thin S-D (500 kb/s); ``h-far`` has one link.
    Four guaranteed holders and three best-effort followers ride the
    diamond; ``S-A->S-B`` fails at 4 s for 6 s, so the followers and
    holders on it move to S-D, where one holder is re-admitted and one
    is refused and torn down.  ``S-E->S-C`` fails at 6 s for 2 s, so
    ``far`` has no route and then heals.  Predicted service has no
    flow, so two of CSZ's four tiers are empty.
    """
    import dataclasses

    from repro.scenario import DisciplineSpec, ScenarioBuilder
    from repro.scenario.spec import (
        GuaranteedRequest,
        OutageEvent,
        OutageSpec,
        TopologySpec,
    )

    def link(src, dst, bps=None):
        spec = {"src": src, "dst": dst}
        return spec if bps is None else {**spec, "rate_bps": bps}

    topology = TopologySpec.graph(
        nodes=("S-A", "S-B", "S-C", "S-D", "S-E"),
        links=[
            link("S-A", "S-B"), link("S-B", "S-C"),
            link("S-A", "S-D", 5e5), link("S-D", "S-C", 5e5),
            link("S-E", "S-C"),
        ],
        host_attachments=(
            ("h-src", "S-A"), ("h-dst", "S-C"), ("h-far", "S-E"),
        ),
    )
    builder = (
        ScenarioBuilder("plan-replay")
        .topology(topology)
        .duration(12.0)
        .warmup(0.0)
        .seed(1)
        .admission(realtime_quota=0.9)
        .disciplines(DisciplineSpec.unified(name="CSZ"))
    )
    for i in range(4):
        builder.add_flow(
            f"g{i}", "h-src", "h-dst",
            average_rate_pps=150, peak_rate_pps=150,
            request=GuaranteedRequest(clock_rate_bps=1.5e5),
        )
    for i in range(3):
        builder.add_flow(
            f"b{i}", "h-src", "h-dst",
            average_rate_pps=200, peak_rate_pps=400,
        )
    builder.add_flow(
        "far", "h-far", "h-dst", average_rate_pps=200, peak_rate_pps=400
    )
    spec = builder.build().replace(engine="fluid", ecmp_seed=3)
    return dataclasses.replace(spec, outages=OutageSpec(events=(
        OutageEvent(link="S-A->S-B", at=4.0, duration=6.0),
        OutageEvent(link="S-E->S-C", at=6.0, duration=2.0),
    )))
