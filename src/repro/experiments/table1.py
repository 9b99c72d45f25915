"""Table 1: WFQ vs FIFO queueing delay on a single shared link.

The paper: one 1 Mbit/s link, 10 identical on/off flows (A = 85 pkt/s,
(A, 50) token bucket), 83.5 % utilized, 10 simulated minutes.  It reports
the mean and 99.9th-percentile queueing delay of a sample flow, in
packet transmission times, per scheduler: :data:`PAPER_VALUES`.

Shape criterion: means statistically indistinguishable, FIFO's tail far
below WFQ's — sharing beats isolation for homogeneous adaptive clients.
The WFQ run gives every flow an equal clock rate (link/10), matching the
paper's "equal clock rates" note for these comparisons.

The workload is declared once as a :class:`repro.scenario.ScenarioSpec`;
``run()`` selects the table's rows from the
:class:`repro.scenario.ScenarioResult` (numbers bit-identical to the
pre-scenario implementation at the same seed).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.experiments.result import ExperimentResult
from repro.scenario import (
    registry,
    DisciplineRunResult,
    DisciplineSpec,
    ScenarioBuilder,
    ScenarioRunner,
    ScenarioSpec,
    paper,
)

NUM_FLOWS = 10
PAPER_VALUES = {
    "WFQ": {"mean": 3.16, "p999": 53.86},
    "FIFO": {"mean": 3.17, "p999": 34.72},
}
COLUMNS = (
    ("scheduling", "{0.scheduling}".format),
    ("mean", "{0.mean:.2f}".format),
    ("99.9 %ile", "{0.p999:.2f}".format),
)


@dataclasses.dataclass(frozen=True)
class Table1Row:
    scheduling: str
    mean: float
    p999: float
    flow_means: List[float]
    flow_p999s: List[float]


def discipline_specs() -> Dict[str, DisciplineSpec]:
    """The two Table-1 disciplines, keyed by the paper's row label."""
    return {
        "WFQ": DisciplineSpec.wfq(equal_share_flows=NUM_FLOWS),
        "FIFO": DisciplineSpec.fifo(),
    }


def scenario_spec(
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
    disciplines: tuple = ("WFQ", "FIFO"),
) -> ScenarioSpec:
    """The full Table-1 experiment as one declarative spec."""
    specs = discipline_specs()
    return (
        ScenarioBuilder("table1")
        .single_link()
        .paper_flows(NUM_FLOWS)
        .disciplines(*(specs[name] for name in disciplines))
        .duration(duration)
        .seed(seed)
        .warmup(warmup)
        .build()
    )


def _row_from(run: DisciplineRunResult) -> Table1Row:
    unit = paper.TX_TIME_SECONDS
    flows = [run.flow(f"flow-{i}") for i in range(NUM_FLOWS)]
    return Table1Row(
        scheduling=run.discipline,
        mean=flows[0].mean_in(unit),
        p999=flows[0].percentile_in(99.9, unit),
        flow_means=[f.mean_in(unit) for f in flows],
        flow_p999s=[f.percentile_in(99.9, unit) for f in flows],
    )


def run_single(
    scheduling: str,
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
) -> Table1Row:
    """One scheduling discipline on the Table-1 workload.

    The same seed produces the identical packet arrival process for every
    discipline (sources draw from streams named only by flow), so the
    comparison is paired exactly as in the paper's simulator.
    """
    spec = scenario_spec(duration, seed, warmup, disciplines=(scheduling,))
    return _row_from(ScenarioRunner(spec).run_discipline())


def run(
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Reproduce Table 1 (both rows) with paired arrivals.

    Utilization comes from the FIFO run directly (work conservation makes
    it scheduler-independent; the sink layer never perturbs the link).
    """
    result = ScenarioRunner(scenario_spec(duration, seed, warmup)).run(
        workers=workers
    )
    utilization = result.run("FIFO").utilization("A->B")
    paper_values = "   ".join(
        f"{name} {cell['mean']:.2f} / {cell['p999']:.2f}"
        for name, cell in PAPER_VALUES.items()
    )
    return ExperimentResult(
        rows=tuple(_row_from(result.run(name)) for name in ("WFQ", "FIFO")),
        columns=COLUMNS,
        summary={"utilization": utilization, "duration": duration, "seed": seed},
        head=(
            "Table 1 — queueing delay of a sample flow "
            "(packet transmission times)",
        ),
        foot=(
            f"link utilization: {utilization:.1%}  "
            f"(paper: {paper.LINK_UTILIZATION:.1%})   "
            f"duration: {duration:.0f}s  seed: {seed}",
            f"paper values:   {paper_values}",
        ),
        scenario=result,
    )


registry.register("table1", scenario_spec)
