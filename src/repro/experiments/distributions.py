"""Delay-distribution views of the Table 1 comparison.

The paper summarizes each discipline with two numbers (mean, 99.9 %ile);
this module exposes the whole curve behind them: the per-flow queueing
delay CDF under each scheduler on the Table-1 workload, rendered as an
ASCII plot, plus Jain's fairness index over the per-flow 99.9th
percentiles — a compact statement of §5's isolation/sharing contrast
(FIFO: jitter shared evenly, high fairness; WFQ: jitter pinned on the
flows that caused it).

Runs the same :class:`~repro.scenario.ScenarioSpec` as Table 1 — only the
collected percentile points differ.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.experiments import table1
from repro.experiments.result import ExperimentResult
from repro.scenario import ScenarioRunner, paper
from repro.stats.fairness import jain_index

CDF_POINTS = (50.0, 90.0, 99.0, 99.9, 99.99)
COLUMNS = (
    ("scheduling", "{0.scheduling}".format),
    *(
        (f"p{pct:g}", lambda row, pct=pct: f"{row.percentiles[pct]:.2f}")
        for pct in CDF_POINTS
    ),
    ("tail fairness", "{0.tail_fairness:.3f}".format),
)


@dataclasses.dataclass(frozen=True)
class DistributionRow:
    scheduling: str
    percentiles: Dict[float, float]  # pct -> delay (tx units), sample flow
    flow_p999s: List[float]

    @property
    def tail_fairness(self) -> float:
        """Jain's index over per-flow 99.9 %ile delays."""
        return jain_index(self.flow_p999s)


def _ascii_cdf(rows: Sequence[DistributionRow], width: int = 52) -> str:
    """A log-ish tail plot: one bar per (discipline, percentile)."""
    peak = max(value for row in rows for value in row.percentiles.values())
    if peak <= 0:
        return ""
    lines = ["tail profile (each bar spans 0..max):"]
    for row in rows:
        for pct in CDF_POINTS:
            value = row.percentiles[pct]
            bar = "#" * max(1, round(width * value / peak))
            lines.append(
                f"  {row.scheduling:>5} p{pct:<5g} |{bar:<{width}}| {value:.2f}"
            )
    return "\n".join(lines)


def run(
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Run the Table-1 workload once per discipline and expose the full
    delay distributions (paired arrivals across disciplines, same seed)."""
    spec = table1.scenario_spec(duration, seed).replace(
        percentile_points=CDF_POINTS
    )
    result = ScenarioRunner(spec).run(workers=workers)
    unit = paper.TX_TIME_SECONDS
    rows = tuple(
        DistributionRow(
            scheduling=run.discipline,
            percentiles={
                pct: run.flow("flow-0").percentile_in(pct, unit)
                for pct in CDF_POINTS
            },
            flow_p999s=[
                run.flow(f"flow-{i}").percentile_in(99.9, unit)
                for i in range(table1.NUM_FLOWS)
            ],
        )
        for run in result.runs
    )
    return ExperimentResult(
        rows=rows,
        columns=COLUMNS,
        summary={"duration": duration, "seed": seed},
        head=(
            "Queueing-delay distribution, Table-1 workload "
            "(tx times; sample flow)",
        ),
        foot=(_ascii_cdf(rows), f"duration: {duration:.0f}s  seed: {seed}"),
        scenario=result,
    )
