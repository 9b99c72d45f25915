"""Claim: guaranteed-only vs mixed-service link utilization (Sections
4 and 12).

The paper's economic argument: if every real-time client demanded
guaranteed service at a clock rate giving a reasonable delay bound, the
reservable real-time load would sit near ~50 % of the link; offering
predicted service lets the same link carry the full 83.5 % real-time load
of the experiments (and >99 % total with datagram filler).

Guaranteed-only: each paper source needs r = 2A (peak) for a tight bound,
so a 1 Mbit/s link under the 90 % quota admits floor(900k/170k) = 5 flows
-> ~42.5 % of the link carrying real-time bits.  Predicted: all 10 flows
fit, ~85 %.  Both arms are declarative scenarios — the guaranteed arm's
clock-rate reservations ride each flow's :class:`GuaranteedRequest`.
"""

from repro.net.packet import ServiceClass
from repro.scenario import (
    DisciplineSpec,
    GuaranteedRequest,
    ScenarioBuilder,
    ScenarioRunner,
)
from repro.scenario.paper import (
    AVERAGE_RATE_PPS,
    LINK_RATE_BPS,
    PACKET_BITS,
    TX_TIME_SECONDS,
)

PEAK_CLOCK_BPS = 2 * AVERAGE_RATE_PPS * PACKET_BITS
QUOTA = 0.9
DURATION = 45.0
WARMUP = 5.0
SEED = 1


def scenario_for(scenario: str, seed: int):
    builder = (
        ScenarioBuilder(f"ablation-utilization-{scenario}")
        .single_link()
        .discipline(DisciplineSpec.unified(num_predicted_classes=1))
        .duration(DURATION)
        .warmup(WARMUP)
        .seed(seed)
    )
    if scenario == "guaranteed-only":
        # Admit guaranteed flows at their peak clock rate until the 90 %
        # quota refuses the next one — the paper's "clock rate equal to
        # peak generation rate" sizing.
        num_flows = int(QUOTA * LINK_RATE_BPS // PEAK_CLOCK_BPS)
        builder.paper_flows(
            num_flows,
            request=GuaranteedRequest(clock_rate_bps=PEAK_CLOCK_BPS),
        )
    else:
        num_flows = 10  # the Table-1 population, all predicted.
        builder.paper_flows(num_flows, service_class=ServiceClass.PREDICTED)
    return builder.build(), num_flows


def run_scenario(scenario, seed):
    """Returns (num_flows, realtime utilization, sample p999 in tx units)."""
    spec, num_flows = scenario_for(scenario, seed)
    run = ScenarioRunner(spec).run_discipline()
    utilization = run.utilization("A->B")
    p999 = run.flow("flow-0").percentile_in(99.9, TX_TIME_SECONDS)
    return num_flows, utilization, p999


def run_comparison(seed: int = SEED):
    return {
        name: run_scenario(name, seed)
        for name in ("guaranteed-only", "predicted")
    }


def test_utilization():
    results = run_comparison()
    g_flows, g_util, __ = results["guaranteed-only"]
    p_flows, p_util, __ = results["predicted"]
    # The paper's ~50 %-vs-full claim: guaranteed-at-peak strands roughly
    # half the link; predicted service doubles the carried real-time load.
    assert g_flows == 5, results
    assert g_util < 0.55, results
    assert p_util > 1.5 * g_util, results
