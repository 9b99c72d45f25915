"""Claim: FIFO+ sensitivity to the class-average EWMA gain (Section 6).

FIFO+ orders packets by expected arrival, computed against each switch's
*average* class delay.  The gain of that average's EWMA trades adaptation
speed against estimate noise.  This test sweeps the gain on the Table-2
workload and measures the 4-hop tail delay: the mechanism should help (vs
plain FIFO) across a wide band of gains — i.e. the paper's scheme is not a
knife-edge tuning artifact.

One declarative scenario, one discipline per sweep point: the scenario
runner's paired-arrival guarantee feeds FIFO and every FIFO+ gain the
identical clumped arrival process, so the sweep isolates the gain alone.
"""

from repro.scenario import DisciplineSpec, ScenarioBuilder, ScenarioRunner
from repro.scenario.paper import TX_TIME_SECONDS

GAINS = (0.001, 0.01, 0.1, 0.5)
DURATION = 45.0
WARMUP = 5.0
FOUR_HOP_FLOW = "i1"
SEED = 1


def sweep_spec(seed: int = SEED):
    return (
        ScenarioBuilder("fifoplus-gain-sweep")
        .paper_chain()
        .figure1_flows()
        .disciplines(
            DisciplineSpec.fifo(),
            *(
                DisciplineSpec.fifoplus(name=f"gain={gain}", ewma_gain=gain)
                for gain in GAINS
            ),
        )
        .duration(DURATION)
        .warmup(WARMUP)
        .seed(seed)
        .build()
    )


def run_sweep(seed: int = SEED):
    """The 4-hop flow's 99.9 %ile (tx units) per variant."""
    result = ScenarioRunner(sweep_spec(seed)).run()
    return {
        run.discipline: run.flow(FOUR_HOP_FLOW).percentile_in(
            99.9, TX_TIME_SECONDS
        )
        for run in result.runs
    }


def test_fifoplus_gain():
    results = run_sweep()
    fifo = results["FIFO"]
    # Every gain in the sweep should beat (or at worst match) plain FIFO on
    # the long path — the mechanism is robust, not a tuned constant.
    for gain in GAINS:
        assert results[f"gain={gain}"] < 1.05 * fifo, results
