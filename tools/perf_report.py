#!/usr/bin/env python
"""Run a perf suite and write its tracked report (BENCH_*.json).

Two suites share the harness:

* ``--suite core`` (default) — engine/hot-path microbenches
  (``benchmarks/perf/microbench.py``) against the frozen pre-fast-path
  baseline; writes ``BENCH_core.json``.
* ``--suite fluid`` — flow-level engine benches
  (``benchmarks/perf/fluidbench.py``: flows/sec at 10k/100k/1M flows
  and on two congested shapes, packet-engine crossover) against the
  frozen packet-crossover baseline; writes ``BENCH_fluid.json``.

Sweep orchestration is measured end to end by the ``sweep_seeds``
workload of ``benchmarks/e2e`` (the benchmark of record), not here.

Every report has three blocks:

* ``baseline`` — frozen measurements of the pre-rewrite implementation,
  captured once on the machine that founded the trajectory; kept so
  speedup ratios stay meaningful over time.
* ``current`` — this checkout, measured now.
* ``speedup`` — headline ratios current/baseline (>1 is faster).

plus a ``trajectory`` array: one entry per recorded run (commit, date,
scale, the full measurement block, and the speedup ratios), carried
forward across overwrites so the report doubles as the per-PR perf
history.  The first run on an old report backfills the history from the
file's own git revisions.

Usage::

    PYTHONPATH=src python tools/perf_report.py                  # core suite
    PYTHONPATH=src python tools/perf_report.py --suite fluid
    PYTHONPATH=src python tools/perf_report.py --quick          # CI sizing
    PYTHONPATH=src python tools/perf_report.py --suite fluid \\
        --capture-baseline benchmarks/perf/baseline_fluid_packet.json

Absolute numbers are machine-dependent; compare runs from the same host
(CI uploads reports as artifacts but never gates on timings).
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import platform
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))


# ----------------------------------------------------------------------
# Core suite
# ----------------------------------------------------------------------


def core_speedups(baseline: dict, current: dict) -> dict:
    """Headline current/baseline ratios (>1 means the checkout is faster)."""
    base = baseline["measurements"]
    out = {
        "raw_events_per_sec": (
            current["raw_events"]["events_per_sec"]
            / base["raw_events"]["events_per_sec"]
        ),
        "timer_churn_per_sec": (
            current["timer_churn"]["churn_per_sec"]
            / base["timer_churn"]["churn_per_sec"]
        ),
        "table1_wall_clock": (
            base["table1"]["wall_seconds"] / current["table1"]["wall_seconds"]
        ),
        "table3_wall_clock": (
            base["table3"]["wall_seconds"] / current["table3"]["wall_seconds"]
        ),
    }
    for name, row in current["scheduler_packets"].items():
        base_row = base["scheduler_packets"].get(name)
        if base_row:
            out[f"packets_per_sec[{name}]"] = (
                row["packets_per_sec"] / base_row["packets_per_sec"]
            )
    return out


def core_print(report: dict) -> None:
    current = report["current"]
    print(f"  raw event loop : {current['raw_events']['events_per_sec']:>12,.0f} events/s "
          f"({report['speedup']['raw_events_per_sec']:.2f}x baseline)")
    print(f"  timer churn    : {current['timer_churn']['churn_per_sec']:>12,.0f} ops/s "
          f"({report['speedup']['timer_churn_per_sec']:.2f}x baseline)")
    for name, row in current["scheduler_packets"].items():
        ratio = report["speedup"].get(f"packets_per_sec[{name}]")
        suffix = f" ({ratio:.2f}x baseline)" if ratio else ""
        print(f"  {name:<15}: {row['packets_per_sec']:>12,.0f} pkts/s{suffix}")
    print(f"  table1 wall    : {current['table1']['wall_seconds']:.3f} s "
          f"({report['speedup']['table1_wall_clock']:.2f}x baseline)")
    print(f"  table3 wall    : {current['table3']['wall_seconds']:.3f} s "
          f"({report['speedup']['table3_wall_clock']:.2f}x baseline)")
    seam = current.get("control_seam")
    if seam:
        print(f"  control seam   : {seam['overhead_ratio']:.3f}x outage-free overhead "
              "(contract: ~1.0)")
    for workload in ("table3", "single_link"):
        cell = current.get(f"frames_per_departure_{workload}")
        if cell:
            print(f"  frames/departure[{workload}]: "
                  f"{cell['frames_per_departure']:.1f} Python frames "
                  f"({cell['frames']:,} over {cell['departures']:,} departures)")


def core_run(scale: float) -> dict:
    from benchmarks.perf import microbench

    return microbench.run_all(scale=scale)


# ----------------------------------------------------------------------
# Fluid suite
# ----------------------------------------------------------------------


def fluid_speedups(baseline: dict, current: dict) -> dict:
    """Fluid-vs-packet and fluid-vs-floor ratios (>1 is faster).

    The crossover ratio compares engines on the identical instance; it
    is only meaningful when this run's scale matches the frozen
    baseline's (the packet wall was captured at that scale).
    """
    base = baseline["measurements"]
    scales_match = baseline.get("scale", 1.0) == current.get("scale", 1.0)
    floor = base["fluid_floor"]
    sizes = current["scale_sweep"]
    # Compare the size matching the floor's own shape; fall back to the
    # largest (flows/sec shifts with population and fabric size).
    matching = [
        row for row in sizes.values()
        if row["num_flows"] == floor["num_flows"]
    ]
    anchor = matching[0] if matching else max(
        sizes.values(), key=lambda row: row["num_flows"]
    )
    out = {
        # Same-machine in-run comparison: always meaningful.
        "crossover_fluid_vs_packet": current["crossover"]["speedup"],
        "flows_per_sec_vs_floor": (
            anchor["flows_per_sec"] / floor["flows_per_sec"]
        ),
        "crossover_wall_clock": None,
    }
    floor_1m = base.get("fluid_floor_1m")
    if floor_1m:
        at_1m = [
            row for row in sizes.values()
            if row["num_flows"] == floor_1m["num_flows"]
        ]
        if at_1m:
            out["flows_per_sec_1m_vs_floor"] = (
                at_1m[0]["flows_per_sec"] / floor_1m["flows_per_sec"]
            )
    # Congested shapes, each against its own floor.
    for shape, row in current["congested"].items():
        out[f"flows_per_sec_{shape}_vs_floor"] = (
            row["flows_per_sec"]
            / base[f"fluid_floor_{shape}"]["flows_per_sec"]
        )
    if scales_match:
        out["crossover_wall_clock"] = (
            base["crossover_packet"]["wall_seconds"]
            / current["crossover"]["fluid_wall_seconds"]
        )
    else:
        out["note"] = (
            "scale differs from the frozen baseline; cross-run wall-clock "
            "ratio suppressed"
        )
    return out


def fluid_print(report: dict) -> None:
    current = report["current"]
    speedup = report["speedup"]
    for key, row in sorted(
        current["scale_sweep"].items(), key=lambda kv: kv[1]["num_flows"]
    ):
        print(f"  {row['num_flows']:>9,} flows : "
              f"{row['flows_per_sec']:>12,.0f} flow-adv/s, "
              f"{row['build_wall_seconds']:.2f} s build + "
              f"{row['wall_seconds']:.2f} s sim = "
              f"{row['total_wall_seconds']:.2f} s ({row['backend']})")
    for shape, row in current["congested"].items():
        ratio = speedup[f"flows_per_sec_{shape}_vs_floor"]
        print(f"  {shape:<20}: {row['flows_per_sec']:>12,.0f} flow-adv/s, "
              f"{row['wall_seconds']:.2f} s wall, {ratio:.2f}x its floor")
    crossover = current["crossover"]
    print(f"  crossover      : fluid {crossover['fluid_wall_seconds']:.2f} s vs "
          f"packet {crossover['packet_wall_seconds']:.2f} s "
          f"({speedup['crossover_fluid_vs_packet']:.1f}x), "
          f"recv rel-diff {crossover['mean_received_rel_diff']:.3f}")
    print(f"  vs floor       : {speedup['flows_per_sec_vs_floor']:.2f}x the "
          "committed flows/sec floor")
    if speedup.get("note"):
        print(f"  note           : {speedup['note']}")


def fluid_run(scale: float) -> dict:
    from benchmarks.perf import fluidbench

    return fluidbench.run_all(scale=scale)


SUITES = {
    "core": {
        "baseline": REPO_ROOT / "benchmarks" / "perf" / "baseline_pre_fastpath.json",
        "default_out": REPO_ROOT / "BENCH_core.json",
        "run": core_run,
        "speedups": core_speedups,
        "print": core_print,
    },
    "fluid": {
        "baseline": REPO_ROOT / "benchmarks" / "perf" / "baseline_fluid_packet.json",
        "default_out": REPO_ROOT / "BENCH_fluid.json",
        "run": fluid_run,
        "speedups": fluid_speedups,
        "print": fluid_print,
    },
}


# ----------------------------------------------------------------------
# Trajectory: the per-PR perf history carried inside each report
# ----------------------------------------------------------------------


def _git(*argv: str) -> str:
    return subprocess.run(
        ["git", *argv],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        check=True,
    ).stdout.strip()


def head_commit() -> str:
    try:
        commit = _git("rev-parse", "--short", "HEAD")
        dirty = _git("status", "--porcelain") != ""
        return commit + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def trajectory_entry(report: dict, commit: str, date: str) -> dict:
    """One point of perf history: enough to plot, small enough to keep."""
    return {
        "commit": commit,
        "date": date,
        "scale": report.get("scale", 1.0),
        "quick": report.get("quick", False),
        "python": report.get("python"),
        "measurements": report["current"],
        "speedup": report["speedup"],
    }


def recover_trajectory(out: pathlib.Path) -> list:
    """Backfill perf points from every commit that touched the report.

    Older reports carried only ``current`` — the history is still in git,
    so reconstruct one entry per committed revision of the file (PR 2
    onward for ``BENCH_core.json``).
    Unreadable or pre-schema revisions are skipped, not fatal.
    """
    try:
        relpath = str(out.resolve().relative_to(REPO_ROOT))
        commits = _git(
            "log", "--reverse", "--follow", "--format=%h %ad",
            "--date=short", "--", relpath,
        ).splitlines()
    except (OSError, subprocess.CalledProcessError, ValueError):
        return []
    points = []
    for line in commits:
        commit, _, date = line.partition(" ")
        try:
            old = json.loads(_git("show", f"{commit}:{relpath}"))
            existing = old.get("trajectory")
            if existing:
                # The file already carried history at that commit; keep
                # only its newest point to avoid quadratic duplication.
                points.append(existing[-1])
            else:
                points.append(trajectory_entry(old, commit, date))
        except (subprocess.CalledProcessError, KeyError, ValueError):
            continue
    return points


def extend_trajectory(out: pathlib.Path, report: dict) -> None:
    """Append this run as a trajectory point (in place on ``report``).

    Carries forward the history already in the on-disk report, or
    backfills it from git the first time.  Re-runs on the same checkout
    replace their previous point instead of piling up.
    """
    trajectory = []
    if out.exists():
        try:
            trajectory = json.loads(out.read_text()).get("trajectory") or []
        except ValueError:
            trajectory = []
    if not trajectory:
        trajectory = recover_trajectory(out)
    commit = head_commit()
    today = datetime.date.today().isoformat()
    if trajectory and trajectory[-1].get("commit") == commit:
        trajectory = trajectory[:-1]
    trajectory.append(trajectory_entry(report, commit, today))
    report["trajectory"] = trajectory


def capture_fluid_baseline(path: pathlib.Path, scale: float) -> int:
    """Freeze the packet-engine crossover reference and the founding
    fluid flows/sec floor the CI gate regresses against."""
    from benchmarks.perf import fluidbench

    print(f"capturing fluid baseline (scale={scale:g}) ...", flush=True)
    payload = {
        "note": "packet engine on the crossover instance + the fluid "
        "flows/sec floors (10k gate cell, 1M, two congested shapes), all "
        "captured in one run of benchmarks/perf/fluidbench.run_baseline",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scale": scale,
        "measurements": fluidbench.run_baseline(scale=scale),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default="core",
        help="which tracked trajectory to measure (default: core)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run at ~1/8 scale (CI smoke); ratios get noisier",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="report path (default: BENCH_<suite>.json at the repo root)",
    )
    parser.add_argument(
        "--capture-baseline",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="(fluid suite) re-measure the packet-crossover reference and "
        "fluid floors and write the frozen baseline file instead of a report",
    )
    args = parser.parse_args(argv)

    scale = 0.125 if args.quick else 1.0
    if args.capture_baseline is not None:
        if args.suite != "fluid":
            parser.error("--capture-baseline applies to --suite fluid")
        if args.quick:
            # A quick-scale baseline would silently skew every future
            # full-scale report's ratios.
            parser.error("--capture-baseline requires full scale (no --quick)")
        return capture_fluid_baseline(args.capture_baseline, scale)

    suite = SUITES[args.suite]
    out = args.out if args.out is not None else suite["default_out"]
    print(f"running {args.suite} perf benches (scale={scale:g}) ...",
          flush=True)
    current = suite["run"](scale)

    with open(suite["baseline"]) as handle:
        baseline = json.load(handle)

    current["scale"] = scale
    report = {
        "schema": 1,
        "suite": args.suite,
        "quick": args.quick,
        "scale": scale,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "baseline": baseline,
        "current": current,
        "speedup": suite["speedups"](baseline, current),
    }
    extend_trajectory(out, report)
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"wrote {out}")
    suite["print"](report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
