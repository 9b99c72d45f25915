"""Claim: jitter shifting between priority classes (Section 7).

The paper: a higher predicted class "steals bandwidth from the lower
classes" during its bursts, so its jitter exports downward, and if the
target bounds D_i are widely spaced the classes "should usually operate
more or less independently".  This test splits the Table-1 workload
between two strict priority classes, sweeping how many of the 10 flows
ride the high class, and measures both classes' tails.

Each split is one declarative scenario (class membership is per-flow
``priority_class`` in the spec); the sweep rides the
:class:`~repro.scenario.SweepExecutor` engine via :func:`sweep` with
whole-spec overrides, one run per split.  Streams are keyed by flow name,
so every split sees the same arrivals.
"""

from repro.net.packet import ServiceClass
from repro.scenario import DisciplineSpec, ScenarioBuilder, sweep
from repro.scenario.paper import AVERAGE_RATE_PPS, TX_TIME_SECONDS

NUM_FLOWS = 10
HIGH_COUNTS = (2, 5, 8)
DURATION = 45.0
WARMUP = 5.0
SEED = 1


def spacing_spec(num_high: int, seed: int):
    """Table-1's population, split across two strict priority classes."""
    builder = (
        ScenarioBuilder(f"priority-spacing-{num_high}")
        .single_link()
        .discipline(DisciplineSpec.priority(num_classes=2))
        .duration(DURATION)
        .warmup(WARMUP)
        .seed(seed)
    )
    for i in range(NUM_FLOWS):
        builder.add_flow(
            f"flow-{i}",
            "src-host",
            "dst-host",
            average_rate_pps=AVERAGE_RATE_PPS,
            service_class=ServiceClass.PREDICTED,
            priority_class=0 if i < num_high else 1,
        )
    return builder.build()


def run_sweep(seed: int = SEED):
    """(high-class mean p999, low-class mean p999) per split, tx units."""
    results = sweep(
        spacing_spec(HIGH_COUNTS[0], seed),
        over=[spacing_spec(count, seed) for count in HIGH_COUNTS],
    )
    out = {}
    for count, result in zip(HIGH_COUNTS, results):
        run = result.runs[0]
        high = [
            run.flow(f"flow-{i}").percentile_in(99.9, TX_TIME_SECONDS)
            for i in range(count)
        ]
        low = [
            run.flow(f"flow-{i}").percentile_in(99.9, TX_TIME_SECONDS)
            for i in range(count, NUM_FLOWS)
        ]
        out[count] = (sum(high) / len(high), sum(low) / len(low))
    return out


def test_priority_spacing():
    results = run_sweep()
    for count, (high, low) in results.items():
        # Jitter shifts strictly downward: the high class always sees a
        # smaller tail than the low class it exports to.
        assert high < low, (count, results)
    # The more load rides the high class, the worse the low class gets
    # relative to the high class's own growth.
    __, low_small = results[HIGH_COUNTS[0]]
    __, low_big = results[HIGH_COUNTS[-1]]
    assert low_big > low_small, results
