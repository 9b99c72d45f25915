"""Sweep-orchestration benchmarks: the executor vs the per-call Pool.

Each function measures one orchestration workload and returns a plain
dict (wall clocks, tasks per *wall-clock* second, pickled bytes shipped).
They are the raw material for ``tools/perf_report.py --suite sweep``,
which assembles the tracked ``BENCH_sweep.json`` trajectory, and for the
CI sweep-perf smoke step.

The pre-rewrite execution model is vendored here as :func:`legacy_sweep`
(a fresh ``multiprocessing.Pool`` per call, one coarse full-spec task per
run whose disciplines execute serially inside the worker, blocking
``pool.map``) so the identical workload can be timed against it on any
checkout — that is how the frozen ``baseline`` block of
``BENCH_sweep.json`` was captured (:func:`run_baseline`).

The headline comparison is honest about what changed: on a homogeneous
wide sweep executed to completion the two models do the same simulation
work, so ``wide_sweep`` mostly tracks dispatch overhead.  The structural
win is ``ladder_to_decision``: the executor streams results and stops the
seed ladder once the confidence interval closes, while the per-call-Pool
baseline has no streaming and must pay for the full ladder to reach the
same statistical decision.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, Optional, Sequence

from repro.scenario import (
    DisciplineSpec,
    ScenarioBuilder,
    ScenarioRunner,
    SweepExecutor,
    expand,
    stop_when_ci_below,
)

WORKERS = 4
NUM_FLOWS = 10
WIDE_SEEDS = 24
WIDE_DURATION_SECONDS = 20.0
TINY_DURATION_SECONDS = 1.0
TINY_SEEDS = 16
TINY_REPEATS = 3
CI_REL_HALF_WIDTH = 0.10
CI_MIN_RUNS = 6

DISCIPLINES = (
    DisciplineSpec.fifo(),
    DisciplineSpec.fifoplus(),
    DisciplineSpec.wfq(equal_share_flows=NUM_FLOWS),
)


def sweep_spec(duration: float = WIDE_DURATION_SECONDS) -> "ScenarioSpec":
    """The sweep workload: Table-1's bottleneck under three disciplines."""
    return (
        ScenarioBuilder("sweepbench")
        .single_link()
        .paper_flows(NUM_FLOWS)
        .disciplines(*DISCIPLINES)
        .duration(duration)
        .warmup(2.0)
        .seed(1)
        .build()
    )


# ----------------------------------------------------------------------
# The vendored pre-rewrite execution model
# ----------------------------------------------------------------------


def _legacy_run_spec(spec) -> "ScenarioResult":
    """Legacy coarse task: all disciplines serially inside one worker."""
    return ScenarioRunner(spec).run()


def legacy_sweep(
    spec,
    over=None,
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
):
    """The per-call-Pool sweep this PR replaced, kept for benchmarking:
    expand to full specs, fork a fresh pool, one pickled spec per task,
    block on ``pool.map``."""
    specs = expand(spec, over=over, seeds=seeds)
    if workers and workers > 1 and len(specs) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(workers, len(specs))) as pool:
            return pool.map(_legacy_run_spec, specs, chunksize=1)
    return [_legacy_run_spec(s) for s in specs]


def _ladder_metric(result) -> float:
    """The seed-ladder estimand: FIFO's mean queueing delay on flow-0."""
    return result.run("FIFO").flow("flow-0").mean_seconds


# ----------------------------------------------------------------------
# Executor-side benches (the ``current`` block)
# ----------------------------------------------------------------------


def bench_wide_sweep(
    duration: float = WIDE_DURATION_SECONDS,
    seed_count: int = WIDE_SEEDS,
    workers: int = WORKERS,
) -> Dict[str, float]:
    """Full wide sweep (seed_count runs x 3 disciplines), run to the end."""
    spec = sweep_spec(duration)
    seeds = list(range(1, seed_count + 1))
    with SweepExecutor(workers=workers) as executor:
        started = time.perf_counter()
        outcome = executor.run_sweep(spec, seeds=seeds)
        wall = time.perf_counter() - started
    tasks = sum(len(run.tasks) for run in outcome.runs)
    return {
        "runs": len(outcome.runs),
        "disciplines": len(spec.disciplines),
        "tasks": tasks,
        "workers": workers,
        "wall_seconds": wall,
        "tasks_per_sec": tasks / wall,
    }


def bench_ladder_to_decision(
    duration: float = WIDE_DURATION_SECONDS,
    seed_count: int = WIDE_SEEDS,
    workers: int = WORKERS,
) -> Dict[str, float]:
    """The same ladder, stopped once the confidence interval closes.

    The statistical decision is fixed (CI half-width <= 10 % of the mean,
    >= 6 replicates); the executor reaches it after a fraction of the
    ladder, the baseline model can only reach it by running everything.
    """
    spec = sweep_spec(duration)
    seeds = list(range(1, seed_count + 1))
    predicate = stop_when_ci_below(
        _ladder_metric,
        rel_half_width=CI_REL_HALF_WIDTH,
        min_runs=CI_MIN_RUNS,
    )
    with SweepExecutor(workers=workers) as executor:
        started = time.perf_counter()
        outcome = executor.run_sweep(spec, seeds=seeds, early_stop=predicate)
        wall = time.perf_counter() - started
        executed = executor.stats["tasks_dispatched"]
    counts = outcome.counts
    return {
        "seeds_available": seed_count,
        "runs_completed": counts["completed"],
        "runs_stopped": counts["stopped"],
        "tasks_executed": executed,
        "rel_half_width": CI_REL_HALF_WIDTH,
        "min_runs": CI_MIN_RUNS,
        "workers": workers,
        "wall_seconds": wall,
    }


def bench_task_overhead(
    duration: float = TINY_DURATION_SECONDS,
    seed_count: int = TINY_SEEDS,
    repeats: int = TINY_REPEATS,
    workers: int = WORKERS,
) -> Dict[str, float]:
    """Orchestration overhead: repeated short sweeps on tiny simulations.

    The executor keeps one warm pool across all the sweeps; the legacy
    model forked and tore a pool down per call.  Tiny simulations make
    the dispatch/collection machinery the dominant cost.
    """
    spec = sweep_spec(duration)
    seeds = list(range(1, seed_count + 1))
    with SweepExecutor(workers=workers) as executor:
        started = time.perf_counter()
        for _ in range(repeats):
            executor.run_sweep(spec, seeds=seeds)
        wall = time.perf_counter() - started
        pools = executor.stats["pools_created"]
        tasks = executor.stats["tasks_dispatched"]
    return {
        "sweeps": repeats,
        "tasks": tasks,
        "pools_created": pools,
        "workers": workers,
        "wall_seconds": wall,
        "tasks_per_sec": tasks / wall,
    }


def bench_task_pickle(duration: float = WIDE_DURATION_SECONDS) -> Dict[str, float]:
    """Bytes crossing the process boundary per schedulable task.

    Executor tasks are (override, seed, discipline-index) deltas against a
    base spec shipped once per worker; legacy tasks each carried the full
    pickled spec (and bundled all disciplines, so per *schedulable* unit
    the legacy bytes are the whole spec too).
    """
    spec = sweep_spec(duration)
    with SweepExecutor(workers=2, track_task_bytes=True) as executor:
        executor.run_sweep(spec, seeds=[1, 2, 3, 4])
        stats = dict(executor.stats)
    legacy_bytes = len(pickle.dumps(spec, pickle.HIGHEST_PROTOCOL))
    return {
        "legacy_bytes_per_task": legacy_bytes,
        "executor_bytes_per_task": (
            stats["task_bytes"] / stats["tasks_dispatched"]
        ),
        "executor_base_bytes_per_worker": stats["base_bytes"] / 2,
    }


def bench_override_pickle(
    duration: float = TINY_DURATION_SECONDS,
) -> Dict[str, float]:
    """Bytes shipped for a *whole-spec override* sweep (the ``gen:*``
    shape, where every run replaces the entire spec).

    Before the fingerprint cache each task payload carried a full pickled
    spec; now each distinct spec ships once per worker at pool start and
    payloads carry a ~60-byte reference, so re-sweeping the same specs
    (seed ladders, early-stop reruns) re-ships nothing.
    """
    from repro.scenario import registry

    specs = [
        registry.build(
            "gen:random-graph", gen_seed=g, duration=duration, warmup=0.2
        )
        for g in (1, 2, 3)
    ]
    with SweepExecutor(workers=2, track_task_bytes=True) as executor:
        executor.run_sweep(specs[0], over=specs)
        executor.run_sweep(specs[0], over=specs)  # pool + spec-table reuse
        stats = dict(executor.stats)
    naive_bytes = sum(
        len(pickle.dumps(s, pickle.HIGHEST_PROTOCOL)) for s in specs
    ) / len(specs)
    return {
        "override_specs": len(specs),
        "sweeps": 2,
        "pools_created": stats["pools_created"],
        "naive_bytes_per_task": naive_bytes,
        "executor_bytes_per_task": (
            stats["task_bytes"] / stats["tasks_dispatched"]
        ),
        "override_bytes_per_worker": stats["override_bytes"] / 2,
    }


def run_all(scale: float = 1.0) -> Dict[str, object]:
    """Run every sweep bench, optionally scaled down (``scale < 1``).

    Returns the nested measurement dict that ``tools/perf_report.py
    --suite sweep`` embeds as the ``current`` block of
    ``BENCH_sweep.json``.  Scaling shortens simulated durations but keeps
    the sweep *shape* (24 runs x 3 disciplines, 4 workers) so the
    orchestration being measured stays the same.
    """
    scale = max(scale, 0.01)
    wide_duration = max(WIDE_DURATION_SECONDS * scale, 2.0)
    tiny_duration = max(TINY_DURATION_SECONDS * scale, 0.25)
    return {
        "wide_sweep": bench_wide_sweep(duration=wide_duration),
        "ladder_to_decision": bench_ladder_to_decision(duration=wide_duration),
        "task_overhead": bench_task_overhead(duration=tiny_duration),
        "task_pickle": bench_task_pickle(duration=wide_duration),
        "override_pickle": bench_override_pickle(duration=tiny_duration),
    }


# ----------------------------------------------------------------------
# Baseline capture (the pre-rewrite model, frozen once per machine)
# ----------------------------------------------------------------------


def run_baseline(scale: float = 1.0) -> Dict[str, object]:
    """Measure the per-call-Pool model on the same workloads.

    This produced ``benchmarks/perf/baseline_sweep_precall_pool.json``.
    ``ladder_to_decision`` is the full ladder by construction: blocking
    ``pool.map`` has no streaming, so reaching the confidence-interval
    decision means running every seed.
    """
    scale = max(scale, 0.01)
    wide_duration = max(WIDE_DURATION_SECONDS * scale, 2.0)
    tiny_duration = max(TINY_DURATION_SECONDS * scale, 0.25)

    spec = sweep_spec(wide_duration)
    seeds = list(range(1, WIDE_SEEDS + 1))
    started = time.perf_counter()
    results = legacy_sweep(spec, seeds=seeds, workers=WORKERS)
    wide_wall = time.perf_counter() - started
    tasks = len(results) * len(spec.disciplines)

    tiny = sweep_spec(tiny_duration)
    tiny_seeds = list(range(1, TINY_SEEDS + 1))
    started = time.perf_counter()
    for _ in range(TINY_REPEATS):
        legacy_sweep(tiny, seeds=tiny_seeds, workers=WORKERS)
    tiny_wall = time.perf_counter() - started
    tiny_tasks = TINY_REPEATS * TINY_SEEDS * len(tiny.disciplines)

    return {
        "wide_sweep": {
            "runs": len(results),
            "disciplines": len(spec.disciplines),
            "tasks": tasks,
            "workers": WORKERS,
            "wall_seconds": wide_wall,
            "tasks_per_sec": tasks / wide_wall,
        },
        "ladder_to_decision": {
            "seeds_available": WIDE_SEEDS,
            "runs_completed": WIDE_SEEDS,
            "runs_stopped": 0,
            "tasks_executed": tasks,
            "rel_half_width": CI_REL_HALF_WIDTH,
            "min_runs": CI_MIN_RUNS,
            "workers": WORKERS,
            "wall_seconds": wide_wall,
            "note": "no streaming/early stop: the decision costs the full ladder",
        },
        "task_overhead": {
            "sweeps": TINY_REPEATS,
            "tasks": tiny_tasks,
            "pools_created": TINY_REPEATS,
            "workers": WORKERS,
            "wall_seconds": tiny_wall,
            "tasks_per_sec": tiny_tasks / tiny_wall,
        },
        "task_pickle": {
            "bytes_per_task": len(pickle.dumps(spec, pickle.HIGHEST_PROTOCOL)),
        },
    }
