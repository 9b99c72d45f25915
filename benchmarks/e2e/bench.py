#!/usr/bin/env python3
"""The repo's end-to-end benchmark of record (see README.md beside this file).

Three ways in, one measuring path:

* the contract run the build driver makes, one workload at a time::

      python3 benchmarks/e2e/bench.py --workload packet_table3 --seed 1 \\
          --seconds 16 --trace 0

  It prints one JSON object as its last line: every ``end_to_end``
  metric of ``BENCHMARK.json`` with ``--trace 0``, every ``per_layer``
  metric with ``--trace 1``.

* the full report, ``--repeats`` such runs of every workload,
  interleaved round-robin, plus one traced pass each::

      python3 benchmarks/e2e/bench.py --seed 1 --out run1.json
      python3 benchmarks/e2e/bench.py --smoke --out smoke.json

* ``--compare A.json B.json`` over two full reports.

A *run* launches the workload in fresh ``child.py`` processes
(``REPRO_*`` scrubbed) until ``--seconds`` are spent and reports the
fastest launch: this host alternates every few seconds between two
speed states ~45 % apart, and only a launch that fell wholly into the
fast one repeats from run to run.  This file never imports ``repro``.
Metric names, units and regression bounds are read from
``BENCHMARK.json`` and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"

#: The only concurrency anywhere in the benchmark: ``sweep_seeds``.
WORKERS = min(2, os.cpu_count() or 1)
SMOKE_SCALE = 0.05
#: Cold launches behind each run's ``setup_s``.
SETUP_LAUNCHES = 9
#: Size of the cProfile pass relative to the timed one: full size, so
#: its digest must equal the timed one, except for the sweep, whose
#: profile is a serial quarter of its tasks.
TRACE_SCALE = {
    "packet_table3": 1.0,
    "packet_single_link": 1.0,
    "fluid_fabric": 1.0,
    "fluid_failover": 1.0,
    "sweep_seeds": 0.25,
}
CHILD_TIMEOUT_SECONDS = 150
RESIDUAL_SHARE = 0.02
RESIDUAL_FLOOR_SECONDS = 0.02
#: Keys of the report's ``environment`` that two compared runs must share.
COMPARABLE_ENVIRONMENT = (
    "engine_backend", "fluid_backend", "python", "numpy", "nproc"
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Launching children
# ----------------------------------------------------------------------


def child_environment() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + ([inherited] if inherited else [])
    )
    return env


def launch_child(workload: str, seed: int, passes: list) -> dict:
    """Run ``child.py`` to completion in its own process group and
    return its answer; the group is killed if it outlives the timeout or
    this process is interrupted, pool workers included."""
    job = {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "spawned_at": time.clock_gettime(time.CLOCK_MONOTONIC),
    }
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        env=child_environment(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=CHILD_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{workload}: child exceeded {CHILD_TIMEOUT_SECONDS} s"
        ) from None
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        raise BenchError(f"{workload}: child exited {process.returncode}")
    return json.loads(output.strip().splitlines()[-1])


class Collector:
    """Launches children and files what they return, run by run."""

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.scale = scale
        self.environment: dict = {}
        self.launches: list = []
        self.runs: dict = {}  # workload -> list of filed runs

    def new_run(self, workload: str) -> dict:
        filed = {
            "timed": [], "traced": [], "serial": [], "verify": [],
            "setup_s": [], "peak_rss_mb": [],
        }
        self.runs.setdefault(workload, []).append(filed)
        return filed

    def launch(self, workload: str, labels: list, filed: dict) -> float:
        """One child running ``labels`` in order, filed into a run;
        returns its elapsed seconds.  ``serial`` is the timed pass at
        ``workers=0``; an empty list only imports."""
        passes = []
        for label in labels:
            scale = self.scale
            if label == "traced":
                scale *= TRACE_SCALE[workload]
            passes.append({
                "mode": "timed" if label == "serial" else label,
                "scale": scale,
                # The sweep's profile runs in-process so cProfile sees it.
                "workers": 0 if label in ("serial", "traced") else WORKERS,
            })
        started = time.perf_counter()
        answer = launch_child(workload, self.seed, passes)
        elapsed = time.perf_counter() - started
        for label, result in zip(labels, answer["passes"]):
            filed[label].append(result)
        filed["setup_s"].append(answer["setup_s"])
        if "timed" in labels:
            filed["peak_rss_mb"].append(answer["peak_rss_mb"])
        self.environment = answer["environment"]
        self.launches.append({
            "order": len(self.launches),
            "workload": workload,
            "passes": labels,
            "elapsed_s": elapsed,
        })
        print(
            f"[{len(self.launches):3d}] {workload:<20s} "
            f"{'+'.join(labels) or 'import':<28s} {elapsed:7.2f} s",
            file=sys.stderr,
        )
        return elapsed


def traced_passes(workload: str) -> list:
    """What a workload's traced run adds to its timed launches."""
    return (["serial"] if workload == "sweep_seeds" else []) + ["traced"]


def collect(
    names, seed, scale, *, runs, seconds, traced, fused=False
) -> Collector:
    """``runs`` runs of every workload, interleaved round-robin so drift
    hits them alike.  A run launches timed passes while the mean launch
    still fits into ``seconds``, verifies the outputs, and tops its
    cold-start sample up to ``SETUP_LAUNCHES``; the last run of a
    workload adds the traced passes.  ``fused`` packs a whole run into
    one process, which is only good for a smoke test."""
    collector = Collector(seed, scale)
    for index in range(runs):
        for name in names:
            filed = collector.new_run(name)
            extras = traced_passes(name) if traced and index == runs - 1 else []
            if fused:
                collector.launch(
                    name, ["timed", "timed"] + extras + ["verify"], filed
                )
                continue
            spent = 0.0
            while True:
                spent += collector.launch(name, ["timed"], filed)
                if spent + spent / len(filed["timed"]) > seconds:
                    break
            for label in extras + ["verify"]:
                collector.launch(name, [label], filed)
            while len(filed["setup_s"]) < SETUP_LAUNCHES:
                collector.launch(name, [], filed)
    return collector


# ----------------------------------------------------------------------
# From samples to metrics
# ----------------------------------------------------------------------


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def ratio(numerator, denominator):
    return numerator / denominator if denominator else None


def fastest(filed: dict) -> dict:
    return min(filed["timed"], key=lambda result: result["wall_s"])


def run_values(filed: dict) -> dict:
    """One run's end-to-end values: the fastest launch and cold start."""
    best = fastest(filed)
    return {
        "wall_s": best["wall_s"],
        "work_per_s": best["work"] / best["wall_s"],
        "peak_rss_mb": statistics.median(filed["peak_rss_mb"]),
        "setup_s": min(filed["setup_s"]),
    }


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics one timed pass supports by itself."""
    phases, counters = result["phases"], result["counters"]
    metrics = dict(phases)
    metrics["phase.residual_s"] = result["wall_s"] - sum(phases.values())
    metrics.update(
        (name, value) for name, value in counters.items()
        if name not in ("net.port_departures", "executor.result_bytes")
    )
    metrics["sim.events_per_s"] = ratio(
        counters.get("sim.events", 0), phases["sim.run_s"]
    )
    metrics["net.batched_share"] = ratio(
        counters.get("net.batched_departures", 0),
        counters.get("net.port_departures", 0),
    )
    metrics["fluid.engine_advances_per_s"] = ratio(
        counters.get("fluid.flow_advances", 0), phases["fluid.run_s"]
    )
    tasks = counters.get("executor.tasks")
    if tasks:
        busy = result["worker_busy_s"]
        offered = max(result["workers"], 1) * phases["executor.sweep_s"]
        metrics["executor.worker_busy_s"] = busy
        metrics["executor.busy_fraction"] = busy / offered
        metrics["executor.overhead_ms_per_task"] = (
            1000.0 * (offered - busy) / tasks
        )
        metrics["executor.result_bytes_per_task"] = (
            counters["executor.result_bytes"] / tasks
        )
    metrics["failed_share"] = result["failed"] / result["ops"]
    return metrics


def summarise(name: str, runs: list, contract: dict) -> dict:
    """One workload's report entry from its filed runs."""
    timed = [result for filed in runs for result in filed["timed"]]
    first = timed[0]
    per_run = [run_values(filed) for filed in runs]
    end_to_end = {}
    for metric in contract["end_to_end"]:
        values = [values[metric["name"]] for values in per_run]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / median
        end_to_end[metric["name"]] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "noisy": spread > metric["bound"],
            "samples": values,
        }

    # Layers are read off each run's fastest launch, like the wall.
    per_best = [layer_metrics(fastest(filed)) for filed in runs]
    layers = {}
    for key in per_best[0]:
        values = [metrics[key] for metrics in per_best]
        if None not in values:
            layers[key] = statistics.median(values)
    checks = {
        "digests_repeat": len({r["digest"] for r in timed}) == 1,
        "counters_repeat": all(
            r["counters"] == first["counters"] for r in timed
        ),
        "phases_cover_wall": all(
            metrics["phase.residual_s"]
            <= max(RESIDUAL_SHARE * values["wall_s"], RESIDUAL_FLOOR_SECONDS)
            for metrics, values in zip(per_best, per_run)
        ),
    }
    wall = statistics.median(values["wall_s"] for values in per_run)
    reference_seconds_per_work = wall / first["work"]
    for filed in runs:
        for serial in filed["serial"]:
            layers["executor.serial_wall_s"] = serial["wall_s"]
            layers["executor.parallel_efficiency"] = serial["wall_s"] / (
                WORKERS * wall
            )
            checks["serial_digest_matches"] = (
                serial["digest"] == first["digest"]
            )
            # The sweep's profile is serial, so it is held against this.
            reference_seconds_per_work = serial["wall_s"] / serial["work"]
        for traced in filed["traced"]:
            layers.update(
                (key, value) for key, value in traced["trace"].items()
                if value is not None
            )
            layers["trace.overhead_ratio"] = (
                traced["wall_s"] / traced["work"]
            ) / reference_seconds_per_work
            if traced["scale"] == first["scale"]:
                checks["traced_digest_matches"] = (
                    traced["digest"] == first["digest"]
                )
        for verify in filed["verify"]:
            layers.update(verify["metrics"])
            for check, passed in verify["checks"].items():
                checks[check] = checks.get(check, True) and passed

    ops = sum(r["ops"] for r in timed)
    failed = sum(r["failed"] for r in timed)
    return {
        "why": next(
            w["why"] for w in contract["workloads"] if w["name"] == name
        ),
        "sizes": first["sizes"],
        "trace_scale": TRACE_SCALE[name],
        "runs": len(runs),
        "launch_walls": [
            [result["wall_s"] for result in filed["timed"]] for filed in runs
        ],
        "end_to_end": end_to_end,
        "per_layer": {
            metric["name"]: {
                "unit": metric["unit"],
                "value": layers.get(metric["name"]),
            }
            for metric in contract["per_layer"]
        },
        "phases": list(first["phases"]),
        "counters": first["counters"],
        "digest": first["digest"],
        "ops": ops,
        "failed": failed,
        "failed_share": failed / ops,
        "checks": checks,
        "correct": all(checks.values()),
    }


def build_report(collector: Collector, contract: dict, loadavg) -> dict:
    workloads = {
        name: summarise(name, runs, contract)
        for name, runs in collector.runs.items()
    }
    return {
        "benchmark": "benchmarks/e2e",
        "claim": None,
        "seed": collector.seed,
        "scale": collector.scale,
        "workers": WORKERS,
        "environment": dict(collector.environment, loadavg_start=loadavg),
        "launches": collector.launches,
        "workloads": workloads,
        "correct": all(entry["correct"] for entry in workloads.values()),
        "failed": sum(entry["failed"] for entry in workloads.values()),
    }


def print_report(report: dict) -> None:
    env = report["environment"]
    print(
        f"benchmarks/e2e  seed={report['seed']} scale={report['scale']} "
        f"workers={report['workers']}  engine={env['engine_backend']} "
        f"fluid={env['fluid_backend']} python={env['python']} "
        f"numpy={env['numpy']} nproc={env['nproc']} "
        f"loadavg={env['loadavg_start']}"
    )
    for name, entry in report["workloads"].items():
        launches = sum(len(walls) for walls in entry["launch_walls"])
        print(
            f"\n== {name}  sizes={entry['sizes']} runs={entry['runs']} "
            f"timed launches={launches}"
        )
        for metric, row in entry["end_to_end"].items():
            flag = "  NOISY" if row["noisy"] else ""
            print(
                f"  {metric:<36s} {row['median']:>14.4f} {row['unit']:<6s}"
                f" q1={row['q1']:.4f} q3={row['q3']:.4f}"
                f" spread={row['spread']:.3f} bound={row['bound']}{flag}"
            )
        for metric, row in entry["per_layer"].items():
            if row["value"] is not None:
                print(f"  {metric:<36s} {row['value']:>14.6g} {row['unit']}")
        failed_checks = [k for k, ok in entry["checks"].items() if not ok]
        print(
            f"  ops={entry['ops']} failed={entry['failed']}  "
            f"checks: {len(entry['checks']) - len(failed_checks)} ok"
            + (f", FAILED {failed_checks}" if failed_checks else "")
            + f"  digest={entry['digest'][:16]}"
        )


# ----------------------------------------------------------------------
# Comparing two reports
# ----------------------------------------------------------------------


def verdict_for(row_a: dict, row_b: dict) -> tuple:
    """(B's worsening as a share of A's median, verdict)."""
    sign = 1.0 if row_a["better"] == "lower" else -1.0
    worsening = sign * (row_b["median"] - row_a["median"]) / row_a["median"]
    bound = row_a["bound"]
    cost_a = [sign * value for value in row_a["samples"]]
    cost_b = [sign * value for value in row_b["samples"]]
    separated = max(cost_b) < min(cost_a) or max(cost_a) < min(cost_b)
    if max(row_a["spread"], row_b["spread"]) > bound and not separated:
        return worsening, "unresolved"
    if worsening > bound:
        return worsening, "worse"
    if worsening < -bound:
        return worsening, "better"
    return worsening, "same"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    differing = [
        key for key in COMPARABLE_ENVIRONMENT
        if a["environment"][key] != b["environment"][key]
    ]
    differing += [k for k in ("seed", "scale", "workers") if a[k] != b[k]]
    differing += [
        f"sizes of {name}"
        for name, entry in a["workloads"].items()
        if entry["sizes"] != b["workloads"].get(name, {}).get("sizes")
    ]
    if differing:
        print(f"refusing to compare: {', '.join(differing)} differ")
        return 2
    status = 0
    print(
        f"{'workload':<20s}{'metric':<13s}{'A median [q1, q3]':>36s}"
        f"{'B median [q1, q3]':>36s}{'change':>9s}{'bound':>7s}  verdict"
    )
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"][name]
        for metric, row_a in entry_a["end_to_end"].items():
            row_b = entry_b["end_to_end"][metric]
            worsening, verdict = verdict_for(row_a, row_b)
            status |= verdict == "worse"
            print(
                f"{name:<20s}{metric:<13s}"
                + "".join(
                    f"{row['median']:>14.4f} [{row['q1']:>9.4f},{row['q3']:>9.4f}]"
                    for row in (row_a, row_b)
                )
                + f"{worsening:>+9.3f}{row_a['bound']:>7.2f}  {verdict}"
            )
        if entry_b["failed_share"] > entry_a["failed_share"]:
            print(
                f"{name:<20s}failed_share rose "
                f"{entry_a['failed_share']:.4f} -> {entry_b['failed_share']:.4f}"
            )
            status = 1
        identical = (
            entry_a["digest"] == entry_b["digest"]
            and entry_a["counters"] == entry_b["counters"]
        )
        print(
            f"{name:<20s}digest and exact counters "
            + ("identical" if identical else "DIFFER")
        )
    return status


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def contract_line(entry: dict, trace: bool) -> dict:
    """The one JSON object the build driver reads."""
    if trace:
        # A layer a workload never enters reads 0 there, never null.
        metrics = {
            name: {"value": row["value"] or 0.0, "unit": row["unit"]}
            for name, row in entry["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": row["median"], "unit": row["unit"]}
            for name, row in entry["end_to_end"].items()
        }
    return {
        "correct": entry["correct"],
        "attempted": entry["ops"],
        "failed": entry["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=contract["run_seconds"],
        help="timed budget of one run",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeats", type=int, default=5, help="runs per workload (full mode)"
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SOURCE / "repro").is_dir():
        print(f"no simulator to measure: {SOURCE / 'repro'} is missing")
        return 2
    loadavg = list(os.getloadavg())
    try:
        if args.workload:
            # The contract run.  A traced run spends half its budget on
            # the untraced reference its profile is held against.
            collector = collect(
                [args.workload], args.seed, 1.0, runs=1,
                seconds=args.seconds / 2 if args.trace else args.seconds,
                traced=bool(args.trace),
            )
        elif args.smoke:
            collector = collect(
                names, args.seed, SMOKE_SCALE, runs=1, seconds=0.0,
                traced=True, fused=True,
            )
        else:
            collector = collect(
                names, args.seed, 1.0, runs=args.repeats,
                seconds=args.seconds, traced=True,
            )
    except BenchError as error:
        print(f"benchmark failed: {error}")
        return 1
    report = build_report(collector, contract, loadavg)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    if args.workload:
        print(json.dumps(contract_line(
            report["workloads"][args.workload], bool(args.trace)
        )))
        return 0
    print_report(report)
    return 0 if report["correct"] and not report["failed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
