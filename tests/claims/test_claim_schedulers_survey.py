"""Claim: the Section 11 related-work disciplines on one workload.

Runs the Table-1 single-link workload under every scheduler in the library
(FIFO, WFQ, FIFO+, VirtualClock, round robin, deficit round robin, EDF)
and measures the sample flow's mean / 99.9 %ile under each.  Shapes to
expect: the isolating schedulers (WFQ, VirtualClock, round-robins) cluster
together with large tails; the sharing schedulers (FIFO, FIFO+ — identical
on one hop — and EDF with uniform targets, which *is* FIFO per Section 5)
cluster with small tails.

One declarative scenario, seven disciplines: the whole survey is a single
:class:`~repro.scenario.ScenarioSpec` fed to the runner.
"""

from repro.scenario import DisciplineSpec, ScenarioBuilder, ScenarioRunner
from repro.scenario.paper import TX_TIME_SECONDS

NUM_FLOWS = 10
DURATION = 45.0
WARMUP = 5.0
SEED = 1

DISCIPLINES = (
    DisciplineSpec.fifo(),
    DisciplineSpec.fifoplus(),
    DisciplineSpec.wfq(equal_share_flows=NUM_FLOWS),
    DisciplineSpec.virtual_clock(equal_share_flows=NUM_FLOWS),
    DisciplineSpec.round_robin(),
    DisciplineSpec.drr(quantum_bits=1000),
    DisciplineSpec.edf(default_target=0.1),
)


def survey_spec(seed: int = SEED):
    return (
        ScenarioBuilder("schedulers-survey")
        .single_link()
        .paper_flows(NUM_FLOWS)
        .disciplines(*DISCIPLINES)
        .duration(DURATION)
        .warmup(WARMUP)
        .seed(seed)
        .build()
    )


def run_survey(seed: int = SEED):
    """(mean, p999) of the sample flow per discipline, tx units."""
    result = ScenarioRunner(survey_spec(seed)).run()
    return {
        run.discipline: (
            run.flow("flow-0").mean_in(TX_TIME_SECONDS),
            run.flow("flow-0").percentile_in(99.9, TX_TIME_SECONDS),
        )
        for run in result.runs
    }


def test_schedulers_survey():
    results = run_survey()
    # Sharing vs isolation clusters (Section 5 / Section 11).
    assert results["FIFO"][1] < results["WFQ"][1], results
    assert results["FIFO"][1] < results["VirtualClock"][1], results
    # EDF with a uniform target degenerates to FIFO (identical ordering).
    assert abs(results["EDF"][1] - results["FIFO"][1]) < 1e-6, results
    # FIFO+ on a single hop behaves like FIFO (offsets are zero on hop 1).
    assert abs(results["FIFO+"][0] - results["FIFO"][0]) < 0.5, results
    # Work conservation: every discipline sees a similar mean.
    means = [mean for mean, __ in results.values()]
    assert max(means) < 1.6 * min(means), results
