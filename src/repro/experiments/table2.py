"""Table 2: WFQ vs FIFO vs FIFO+ on the Figure-1 chain, by path length.

22 identical on/off flows over 5 switches / 4 links (10 flows per link,
83.5 % utilized each).  The paper reports mean and 99.9th-percentile
queueing delays of one sample flow per path length, per scheduler:
:data:`PAPER_VALUES` (``hops -> (mean, p99.9)``, transmission times).

Shape criteria: means comparable across disciplines and growing ~linearly
with hops; the 99.9 %ile grows with hops everywhere but much more slowly
under FIFO+ (multi-hop sharing), with FIFO between FIFO+ and WFQ.

Declared once as a :class:`repro.scenario.ScenarioSpec` (the Figure-1
placement lives in :mod:`repro.scenario.paper`); ``run()`` selects the
table's rows with numbers bit-identical to the pre-scenario
implementation at the same seed.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

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

FLOWS_PER_LINK = 10

# Sample flow per path length (one of each; the paper notes "the data from
# the other flows are similar", which tests verify).
SAMPLE_BY_HOPS = {1: "a2", 2: "e1", 3: "g1", 4: "i1"}

PAPER_VALUES = {
    "WFQ": {1: (2.65, 45.31), 2: (4.74, 60.31), 3: (7.51, 65.86), 4: (9.64, 80.59)},
    "FIFO": {1: (2.54, 30.49), 2: (4.73, 41.22), 3: (7.97, 52.36), 4: (10.33, 58.13)},
    "FIFO+": {1: (2.71, 33.59), 2: (4.69, 38.15), 3: (7.76, 43.30), 4: (10.11, 45.25)},
}
COLUMNS = (
    ("scheduling", "{0.scheduling}".format),
    *(
        (f"{hops}h {label}", f"{{0.by_hops[{hops}].{field}:.2f}}".format)
        for hops in SAMPLE_BY_HOPS
        for label, field in (("mean", "mean"), ("99.9%", "p999"))
    ),
)


@dataclasses.dataclass(frozen=True)
class Table2Cell:
    mean: float
    p999: float


@dataclasses.dataclass(frozen=True)
class Table2Row:
    scheduling: str
    by_hops: Dict[int, Table2Cell]
    # Per-flow data for the similarity checks.
    all_means: Dict[str, float]
    all_p999s: Dict[str, float]


def discipline_specs() -> Dict[str, DisciplineSpec]:
    """Table 2 disciplines.  WFQ uses equal clock rates (paper's note)."""
    return {
        "WFQ": DisciplineSpec.wfq(equal_share_flows=FLOWS_PER_LINK),
        "FIFO": DisciplineSpec.fifo(),
        "FIFO+": DisciplineSpec.fifoplus(),
    }


def scenario_spec(
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
) -> ScenarioSpec:
    """The full Table-2 experiment as one declarative spec."""
    return (
        ScenarioBuilder("table2")
        .paper_chain()
        .figure1_flows()
        .disciplines(*discipline_specs().values())
        .duration(duration)
        .seed(seed)
        .warmup(warmup)
        .build()
    )


def _row_from(run: DisciplineRunResult) -> Table2Row:
    unit = paper.TX_TIME_SECONDS
    return Table2Row(
        scheduling=run.discipline,
        by_hops={
            hops: Table2Cell(
                mean=run.flow(flow).mean_in(unit),
                p999=run.flow(flow).percentile_in(99.9, unit),
            )
            for hops, flow in SAMPLE_BY_HOPS.items()
        },
        all_means={f.name: f.mean_in(unit) for f in run.flows},
        all_p999s={f.name: f.percentile_in(99.9, unit) for f in run.flows},
    )


def run(
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Reproduce Table 2 with paired arrivals across disciplines.

    Utilization comes from the FIFO run (work conservation makes it
    scheduler-independent up to end effects).
    """
    result = ScenarioRunner(scenario_spec(duration, seed, warmup)).run(
        workers=workers
    )
    utilizations = dict(result.run("FIFO").link_utilizations)
    util = ", ".join(
        f"{name}={u:.1%}" for name, u in sorted(utilizations.items())
    )
    return ExperimentResult(
        rows=tuple(_row_from(run) for run in result.runs),
        columns=COLUMNS,
        summary={
            "link_utilizations": utilizations,
            "duration": duration,
            "seed": seed,
        },
        head=(
            "Table 2 — queueing delay by path length "
            "(packet transmission times)",
        ),
        foot=(
            f"link utilization: {util}  "
            f"(paper: {paper.LINK_UTILIZATION:.1%} each)",
            f"duration: {duration:.0f}s  seed: {seed}",
        ),
        scenario=result,
    )


registry.register("table2", scenario_spec)
