"""Parking-lot merge network: FIFO+'s multi-hop jitter story, end to end.

The paper's FIFO+ argument (Section 6) is about *multi-hop sharing*: a
long-haul flow crossing many switches accumulates jitter at every hop, and
FIFO+ lets the switches absorb part of that jitter on behalf of the flow by
serving packets that are behind their class average ahead of locally young
cross traffic.  Figure 1's chain shares each link with mostly one-hop
flows, but every flow's packets still travel together; the sharper test is
the classic *parking lot* of the congestion-avoidance literature
(Jain/Ramakrishnan, DEC-TR-506): at **every** hop a fresh batch of cross
traffic merges in front of the long-haul flows and leaves one switch
later, so the through traffic meets statistically independent queues at
each merge point — the regime where per-hop jitter compounds worst.

This experiment declares that network as a :class:`TopologySpec`
(``TopologySpec.parking_lot``), loads every link to the
paper's 85 % operating point, and compares FIFO, FIFO+, and the unified
CSZ scheduler on the through flows' end-to-end delay tail and jitter, plus
the per-hop queueing profile along the lot.

Expected shape: identical mean delays (work-conserving disciplines moving
the same packets), with FIFO+ and the unified scheduler pulling the
99.9th percentile and the jitter (max - min spread) of the through flows
well below FIFO's.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.experiments.common import table
from repro.experiments.result import ExperimentResult
from repro.net.packet import ServiceClass
from repro.scenario import (
    DisciplineSpec,
    ScenarioBuilder,
    ScenarioRunner,
    ScenarioSpec,
    registry,
    paper,
)

NUM_HOPS = 4
CROSS_PER_HOP = 8  # 8 cross + 2 through = 10 flows/link, the paper's load
THROUGH_FLOWS = ("thru-0", "thru-1")
COLUMNS = (
    ("scheduling", "{0.scheduling}".format),
    ("mean", "{0.mean:.2f}".format),
    ("99.9 %ile", "{0.p999:.2f}".format),
    ("jitter", "{0.jitter:.2f}".format),
    ("cross mean", "{0.cross_mean:.2f}".format),
)


def parking_lot_ascii(num_hops: int) -> str:
    """ASCII rendering of the parking-lot merge topology."""
    top = "thru-src" + "".join(
        f"   cross-src-{k + 1}" for k in range(num_hops)
    )
    row = " " + " ----- ".join(f"S-{k + 1}" for k in range(num_hops + 1))
    bottom = "          " + "   ".join(
        f"cross-dst-{k + 1}" for k in range(num_hops)
    )
    return (
        f"{top}\n"
        f"{row}  -- thru-dst\n"
        f"{bottom}\n"
        "(cross traffic enters before, and exits after, every link)\n"
    )


@registry.register("parking_lot")
def scenario_spec(
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
) -> ScenarioSpec:
    """The full parking-lot experiment as one declarative spec."""
    builder = (
        ScenarioBuilder("parking_lot")
        .parking_lot(NUM_HOPS)
        .disciplines(
            DisciplineSpec.fifo(),
            DisciplineSpec.fifoplus(),
            DisciplineSpec.unified(name="CSZ"),
        )
        .duration(duration)
        .warmup(warmup)
        .seed(seed)
    )
    for name in THROUGH_FLOWS:
        builder.add_flow(
            name,
            "thru-src",
            "thru-dst",
            service_class=ServiceClass.PREDICTED,
        )
    for hop in range(1, NUM_HOPS + 1):
        for i in range(CROSS_PER_HOP):
            builder.add_flow(
                f"cross-{hop}-{i}",
                f"cross-src-{hop}",
                f"cross-dst-{hop}",
                service_class=ServiceClass.PREDICTED,
                # One recorded witness per hop; the rest are pure load.
                record=(i == 0),
                hops=1,
            )
    return builder.build()


@dataclasses.dataclass(frozen=True)
class ParkingLotRow:
    """One discipline's through-flow numbers (packet transmission times)."""

    scheduling: str
    mean: float
    p999: float
    jitter: float
    cross_mean: float  # recorded one-hop cross witnesses, pooled mean
    link_queueing_ms: Dict[str, float]  # per-hop mean wait, milliseconds
    link_utilizations: Dict[str, float]


def _pooled_mean(stats) -> float:
    """Mean delay (seconds) over flows, weighted by packets recorded."""
    total = sum(s.recorded for s in stats) or 1
    return sum(s.mean_seconds * s.recorded for s in stats) / total


def _row_from(run, cross_witnesses) -> ParkingLotRow:
    unit = paper.TX_TIME_SECONDS
    # Pool the two through flows (identical placement and load).
    thru = [run.flow(name) for name in THROUGH_FLOWS]
    cross = [run.flow(name) for name in cross_witnesses]
    return ParkingLotRow(
        scheduling=run.discipline,
        mean=_pooled_mean(thru) / unit,
        p999=max(s.percentile_in(99.9) for s in thru) / unit,
        jitter=max(s.jitter_seconds for s in thru) / unit,
        cross_mean=_pooled_mean(cross) / unit,
        link_queueing_ms={name: value * 1e3 for name, value in run.link_queueing},
        link_utilizations=dict(run.link_utilizations),
    )


def run(
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
    workers: Optional[int] = None,
) -> ExperimentResult:
    spec = scenario_spec(duration=duration, seed=seed, warmup=warmup)
    result = ScenarioRunner(spec).run(workers=workers)
    cross_witnesses = [
        flow.name
        for flow in spec.flows
        if flow.record and flow.name not in THROUGH_FLOWS
    ]
    rows = tuple(_row_from(run, cross_witnesses) for run in result.runs)
    wait_columns = (
        ("scheduling", "{0.scheduling}".format),
        *(
            (link, lambda row, link=link: f"{row.link_queueing_ms[link]:.2f}")
            for link in sorted(rows[0].link_queueing_ms)
        ),
    )
    utilizations = ", ".join(
        f"{name}: {value:.1%}"
        for name, value in sorted(rows[0].link_utilizations.items())
    )
    return ExperimentResult(
        rows=rows,
        columns=COLUMNS,
        summary={"num_hops": NUM_HOPS, "duration": duration, "seed": seed},
        head=(
            "Parking lot — cross traffic merges at every hop "
            f"({NUM_HOPS} hops, 85% load/link)",
            parking_lot_ascii(NUM_HOPS),
            f"through-flow queueing delay over {NUM_HOPS} hops "
            "(packet transmission times):",
        ),
        foot=(
            "",
            "mean per-hop wait along the lot (ms):",
            table(wait_columns, rows),
            "",
            f"link utilizations: {utilizations}",
            f"duration: {duration:.0f}s   seed: {seed}",
        ),
        scenario=result,
    )
