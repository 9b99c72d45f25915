"""Shared workload recipes and reporting helpers (the paper's Appendix).

The constants live in :mod:`repro.scenario.paper` (the scenario subsystem
is the single source of truth); this module re-exports them under their
historical names and keeps the placement/reporting helpers the experiment
and benchmark layers use.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.scenario import paper
from repro.scenario.paper import (  # noqa: F401  (re-exported Appendix constants)
    AVERAGE_RATE_PPS,
    BUCKET_PACKETS,
    BUFFER_PACKETS,
    DEFAULT_WARMUP_SECONDS,
    GUARANTEED_AVERAGE_FLOWS,
    GUARANTEED_PEAK_FLOWS,
    LINK_RATE_BPS,
    PACKET_BITS,
    PAPER_DURATION_SECONDS,
    PREDICTED_HIGH_FLOWS,
    PREDICTED_LOW_FLOWS,
    TABLE3_SAMPLES,
    TX_TIME_SECONDS,
    in_tx_units,
)


@dataclasses.dataclass(frozen=True)
class FlowPlacement:
    """One real-time flow of the Figure-1 workload."""

    name: str
    source_host: str
    dest_host: str
    hops: int  # inter-switch links traversed


def figure1_flow_placements() -> List[FlowPlacement]:
    """The 22-flow layout: each inter-switch link is shared by 10 flows."""
    return [
        FlowPlacement(name=name, source_host=src, dest_host=dst, hops=hops)
        for name, src, dst, hops in paper.FIGURE1_PLACEMENTS
    ]


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Monospace table renderer for experiment output."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))
    rule = "  ".join("-" * w for w in widths)
    lines = [fmt(headers), rule]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_scenario_result(result) -> str:
    """Generic report for any :class:`~repro.scenario.ScenarioResult`.

    The ``--spec`` CLI path runs arbitrary serialized scenarios, so this
    renderer assumes nothing about the workload: per discipline it tables
    every recorded flow (delays in ms) and the per-link utilization /
    mean-wait / drop profile.
    """
    lines = [f"scenario: {result.scenario}   seed: {result.seed}   "
             f"duration: {result.duration:.0f}s"]
    for run in result.runs:
        lines.append("")
        lines.append(f"[{run.discipline}]")
        if run.flows:
            def p999_cell(stats) -> str:
                try:
                    return f"{stats.percentile_in(99.9) * 1e3:.2f}"
                except KeyError:  # spec collected different points
                    return "-"

            lines.append(format_table(
                ["flow", "recorded", "mean ms", "p99.9 ms", "jitter ms"],
                [
                    [
                        stats.name,
                        str(stats.recorded),
                        f"{stats.mean_seconds * 1e3:.2f}",
                        p999_cell(stats),
                        f"{stats.jitter_seconds * 1e3:.2f}",
                    ]
                    for stats in run.flows
                ],
            ))
        link_rows = []
        drops = dict(run.link_drops)
        disciplines = dict(run.port_disciplines)
        for name, utilization in run.link_utilizations:
            link_rows.append([
                name,
                disciplines.get(name, run.discipline),
                f"{utilization:.1%}",
                f"{run.queueing(name) * 1e3:.2f}",
                str(drops.get(name, 0)),
            ])
        lines.append("")
        lines.append(format_table(
            ["link", "discipline", "utilization", "mean wait ms", "drops"],
            link_rows,
        ))
        if run.tcp_stats:
            lines.append("")
            lines.append(format_table(
                ["tcp", "segments", "acks", "goodput kbit/s"],
                [
                    [t.name, str(t.segments_sent), str(t.acks_sent),
                     f"{t.goodput_bps / 1e3:.1f}"]
                    for t in run.tcp_stats
                ],
            ))
        if run.invariants is not None:
            lines.append("")
            lines.append(format_table(
                ["invariant", "status", "checked", "violations"],
                [
                    [
                        check.name,
                        "ok" if check.ok else "FAIL",
                        str(check.checked),
                        str(check.violations),
                    ]
                    for check in run.invariants
                ],
            ))
            for check in run.invariants:
                if not check.ok and check.detail:
                    lines.append(f"  {check.name}: {check.detail}")
    return "\n".join(lines)
