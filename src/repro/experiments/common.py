"""Table rendering shared by the experiments and the ``--spec`` CLI.

The paper's Appendix constants live in :mod:`repro.scenario.paper`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, Tuple

#: A render column: its header and the cell text of one row.
Column = Tuple[str, Callable[[Any], str]]


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


def table(columns: Sequence[Column], rows: Sequence[Any]) -> str:
    """``rows`` as a monospace table, one line per row."""
    return format_table(
        [header for header, _ in columns],
        [[cell(row) for _, cell in columns] for row in rows],
    )


def _p999_cell(stats) -> str:
    try:
        return f"{stats.percentile_in(99.9) * 1e3:.2f}"
    except KeyError:  # spec collected different points
        return "-"


_FLOW_COLUMNS = (
    ("flow", "{0.name}".format),
    ("recorded", "{0.recorded}".format),
    ("mean ms", lambda stats: f"{stats.mean_seconds * 1e3:.2f}"),
    ("p99.9 ms", _p999_cell),
    ("jitter ms", lambda stats: f"{stats.jitter_seconds * 1e3:.2f}"),
)
_TCP_COLUMNS = (
    ("tcp", "{0.name}".format),
    ("segments", "{0.segments_sent}".format),
    ("acks", "{0.acks_sent}".format),
    ("goodput kbit/s", lambda tcp: f"{tcp.goodput_bps / 1e3:.1f}"),
)
_INVARIANT_COLUMNS = (
    ("invariant", "{0.name}".format),
    ("status", lambda check: "ok" if check.ok else "FAIL"),
    ("checked", "{0.checked}".format),
    ("violations", "{0.violations}".format),
)


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
        lines += ["", f"[{run.discipline}]"]
        if run.flows:
            lines.append(table(_FLOW_COLUMNS, run.flows))
        drops = dict(run.link_drops)
        disciplines = dict(run.port_disciplines)
        link_rows = [
            [
                name,
                disciplines.get(name, run.discipline),
                f"{utilization:.1%}",
                f"{run.queueing(name) * 1e3:.2f}",
                str(drops.get(name, 0)),
            ]
            for name, utilization in run.link_utilizations
        ]
        lines += ["", format_table(
            ["link", "discipline", "utilization", "mean wait ms", "drops"],
            link_rows,
        )]
        if run.tcp_stats:
            lines += ["", table(_TCP_COLUMNS, run.tcp_stats)]
        if run.invariants is not None:
            lines += ["", table(_INVARIANT_COLUMNS, run.invariants)]
            lines.extend(
                f"  {check.name}: {check.detail}"
                for check in run.invariants
                if not check.ok and check.detail
            )
    return "\n".join(lines)
