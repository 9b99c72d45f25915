"""Property-grid bit-identity: engine fronts must be invisible to physics.

Generated scenarios (``gen:random-graph``, ``gen:wan-path``,
``gen:outage`` — the last one exercising control-plane failovers) are run
with batched link service on and off, with validation invariants
enabled.  Both configurations must produce an *identical*
``DisciplineRunResult`` payload: the batched link service is pure
hot-path mechanics, and any observable divergence — a delay percentile,
a drop count, an invariant verdict — is a correctness bug, not a tuning
difference.
"""

import pytest

from repro.scenario import ScenarioRunner, registry

# Short but non-trivial windows: long enough for queue buildup, outages
# (gen:outage schedules them after warmup), and multi-hop jitter.
DURATION = 3.0
WARMUP = 1.0

# gen:wan-guaranteed pins the WFQ batch drain: it compares CSZ against a
# WFQ discipline with installed guaranteed clock rates, so any divergence
# introduced by serving WFQ bursts arithmetically (virtual-time
# bookkeeping, tag assignment, P-G bound invariants) breaks the grid.
SCENARIOS = [
    "gen:random-graph",
    "gen:wan-path",
    "gen:outage",
    "gen:wan-guaranteed",
]

CONFIGS = {"batched": True, "perpacket": False}


def _run_grid_point(spec, batching):
    runner = ScenarioRunner(spec)
    return [
        runner.build(d, batching=batching).run().collect().comparable_dict()
        for d in spec.disciplines
    ]


@pytest.fixture(scope="module", params=SCENARIOS)
def scenario_payloads(request):
    """Run one generated scenario across the whole config grid."""
    kwargs = {"gen_seed": 3, "duration": DURATION, "warmup": WARMUP, "seed": 1}
    if request.param == "gen:outage":
        # Enough failures in the short post-warmup window that the grid
        # point really crosses batching with control-plane reroutes.
        kwargs.update(outage_rate_per_second=2.0, mean_outage_seconds=0.5)
    # Link accounting on, so the grid also crosses batching with the
    # port ledger's real-time share and datagram drop count.
    spec = registry.build(request.param, **kwargs).replace(
        link_accounting=True
    )
    assert spec.validate, "generated scenarios must run with invariants on"
    payloads = {
        config_id: _run_grid_point(spec, batching)
        for config_id, batching in CONFIGS.items()
    }
    return request.param, spec, payloads


class TestBitIdentityGrid:
    def test_all_configs_identical(self, scenario_payloads):
        name, spec, payloads = scenario_payloads
        reference_id = "perpacket"  # the pre-batching ground truth
        reference = payloads[reference_id]
        assert all(any(run["realtime_fraction"].values()) for run in reference)
        for config_id, payload in payloads.items():
            assert payload == reference, (
                f"{name}: engine config {config_id} diverged from "
                f"{reference_id}"
            )

    def test_invariants_present_and_clean(self, scenario_payloads):
        name, spec, payloads = scenario_payloads
        for config_id, payload in payloads.items():
            for run in payload:
                checks = run.get("invariants")
                assert checks, f"{name}/{config_id}: no invariant checks ran"
                bad = [c for c in checks if not c.get("ok", False)]
                assert not bad, f"{name}/{config_id}: {bad}"

    def test_outage_scenario_exercised_failover(self, scenario_payloads):
        """The outage grid point only means something if reroutes really
        happened under batching: assert the control-plane block is there."""
        name, spec, payloads = scenario_payloads
        if name != "gen:outage":
            pytest.skip("control-plane block only expected for gen:outage")
        for config_id, payload in payloads.items():
            for run in payload:
                control = run.get("control")
                assert control is not None, f"{config_id}: no control stats"
                assert control.get("outages", 0) > 0, (
                    f"{config_id}: outage scenario saw no outages"
                )
