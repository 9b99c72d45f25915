"""Guaranteed flows through link failures, on both rate-reserving disciplines.

With admission on, a link failure makes the control plane tear down the
flows it can no longer carry and re-establish the ones it reroutes, so
clock rates are released and installed again while the ports still hold
those flows' packets:

* the unified CSZ scheduler must release a rate while the flow is still
  backlogged (its queued packets leave on the tags they already hold);
* WFQ must re-install a rate while the flow is still GPS-active (the rate
  change goes through ``VirtualTime.set_rate`` at ``now``).

Each run must complete with every invariant clean — the Parekh–Gallager
``guaranteed-delay-bound`` among them — and give the same payload with
batched link service on and off.
"""

import pytest

from repro.scenario import (
    AdmissionSpec,
    DisciplineSpec,
    OutageEvent,
    OutageSpec,
    ScenarioRunner,
    registry,
)
from repro.scenario import generators


def wan_guaranteed():
    """A one-way WAN chain: failing its first link strands every flow that
    crosses it, so their rates are released while they are backlogged."""
    spec = registry.build(
        "gen:wan-guaranteed", gen_seed=3, duration=4.0, warmup=1.0, seed=1,
        target_utilization=0.95,
    )
    return spec.replace(
        disciplines=(spec.discipline("CSZ"),),
        admission=AdmissionSpec(),
        outages=OutageSpec(events=(OutageEvent("W-1->W-2", 1.5, 0.5),)),
    )


def random_graph(gen_seed):
    """A repaired random graph under a sampled outage process: flows are
    rerouted and re-admitted, often onto ports they still occupy."""
    topology = generators.random_graph_topology(
        gen_seed, num_switches=8, edge_prob=0.3
    )
    flows = generators.generate_flows(
        topology, gen_seed, target_utilization=0.9, with_requests=True,
        mix=(("guaranteed", 0.3), ("predicted_high", 0.35), ("datagram", 0.35)),
    )
    disciplines = (
        DisciplineSpec.unified(name="CSZ"),
        DisciplineSpec.wfq(
            auto_register_rate_bps=generators.wfq_auto_rate(topology, flows)
        ),
    )
    spec = generators._assemble(
        f"guaranteed-failover-g{gen_seed}", topology, flows, disciplines,
        duration=6.0, seed=1, warmup=1.0, validate=True,
    )
    return spec.replace(
        admission=AdmissionSpec(),
        outages=OutageSpec(
            rate_per_second=2.0, mean_duration_seconds=0.5, start_after=1.0
        ),
    )


# The runs that crashed before teardown and re-admission followed the
# reservation rule of the shared PGPS core.
CASES = [
    ("wan-guaranteed", wan_guaranteed, "CSZ"),
    ("random-graph-g2", lambda: random_graph(2), "WFQ"),
    ("random-graph-g3", lambda: random_graph(3), "WFQ"),
    ("random-graph-g5", lambda: random_graph(5), "CSZ"),
    ("random-graph-g5", lambda: random_graph(5), "WFQ"),
]


@pytest.mark.parametrize(
    "make_spec,discipline",
    [case[1:] for case in CASES],
    ids=[f"{name}-{discipline}" for name, __, discipline in CASES],
)
def test_failover_completes_clean_and_batching_is_invisible(make_spec, discipline):
    spec = make_spec()
    runner = ScenarioRunner(spec)
    on, off = (
        runner.build(spec.discipline(discipline), batching=batching).run().collect()
        for batching in (True, False)
    )
    assert on.comparable_dict() == off.comparable_dict()
    assert on.invariants_clean, [c for c in on.invariants if not c.ok]
    bound = [c for c in on.invariants if c.name == "guaranteed-delay-bound"]
    assert bound and bound[0].checked > 0
    assert on.control.outages > 0
    assert any(f.torn_down or f.readmissions for f in on.control.flows)
