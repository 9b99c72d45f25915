"""Persistent sweep execution engine.

The orchestration layer between declarative sweeps and the process pool.
:class:`SweepExecutor` replaces the old per-call ``multiprocessing.Pool``
fan-out with four structural changes:

* **Flattened task graph.**  A sweep of (overrides × seeds) runs, each
  comparing D disciplines, becomes ``runs × D`` independently schedulable
  tasks — one discipline simulation each — instead of one coarse task per
  run whose disciplines execute serially inside a worker.  Load balance
  improves whenever runs are fewer than workers or disciplines differ in
  cost, and early results stream out per simulation, not per run.
* **Warm workers, compact tasks.**  The pool is created once per base
  spec and reused across ``run_sweep`` calls: a pool initializer ships the
  pickled base :class:`ScenarioSpec` to every worker a single time, and
  each task travels as a small ``(override, seed, discipline-index)``
  delta.  :func:`resolve_task_spec` reconstructs the exact spec the serial
  path would build, so placement cannot perturb results.
* **Streaming collection.**  Results arrive through ``imap_unordered``
  and are reassembled deterministically into expansion order; an
  ``on_result`` callback fires as each run finishes (completion order) for
  progress reporting or incremental JSON writing.
* **Budgets and early stopping.**  A per-run wall-clock budget slices
  each simulation into engine ``run(until=...)`` windows and abandons it
  once the budget is spent (``budget_expired``); an ``early_stop``
  predicate over the completed runs stops dispatching further runs
  (``stopped``).  Both outcomes are recorded explicitly in the result
  list; *completed* runs are bit-identical to serial execution — slicing
  fires the identical event sequence, only the stopping rule changes.

Determinism contract: serial, pooled, and streamed execution produce
bit-identical ``comparable_dict()`` payloads for every completed run.
Which runs complete under a budget or an early-stop predicate is
inherently timing-dependent (wall clocks and completion order vary);
what a completed run contains is not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import pickle
import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.scenario.runner import (
    DisciplineRunResult,
    ScenarioContext,
    ScenarioResult,
)
from repro.scenario.spec import ScenarioSpec

Override = Union[Mapping, ScenarioSpec]

#: Task / run statuses recorded in sweep outcomes.
COMPLETED = "completed"
BUDGET_EXPIRED = "budget_expired"
STOPPED = "stopped"

#: How many ``run(until=...)`` windows a budgeted simulation is sliced
#: into.  Slicing is behaviour-neutral (the engine fires the identical
#: event sequence); more slices only tighten how promptly an expired
#: budget is noticed.
DEFAULT_BUDGET_SLICES = 32

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_UNSET = object()


# ----------------------------------------------------------------------
# Expansion: one base spec -> (override, seed) deltas -> flattened tasks
# ----------------------------------------------------------------------


def expand_deltas(
    spec: ScenarioSpec,
    over: Optional[Iterable[Override]] = None,
    seeds: Optional[Sequence[int]] = None,
) -> List[Tuple[Override, int]]:
    """The sweep's run list as compact ``(override, seed)`` deltas.

    Mirrors :func:`expand` (override-major, seed-minor) without
    materializing a full spec per run: workers rebuild specs from these
    deltas, and :func:`resolve_run_spec` is the single authoritative
    reconstruction both sides share.
    """
    overrides = list(over) if over is not None else [{}]
    seed_list = list(seeds) if seeds is not None else None
    if not overrides:
        raise ValueError("over must contain at least one entry")
    if seed_list is not None and not seed_list:
        raise ValueError("seeds must contain at least one seed")
    deltas: List[Tuple[Override, int]] = []
    for override in overrides:
        if seed_list is not None:
            own_seeds: Sequence[int] = seed_list
        elif isinstance(override, ScenarioSpec):
            # A whole-spec override keeps its own seed.
            own_seeds = [override.seed]
        else:
            own_seeds = [dict(override).get("seed", spec.seed)]
        for seed in own_seeds:
            deltas.append((override, seed))
    return deltas


def resolve_run_spec(
    base: ScenarioSpec, override: Override, seed: int
) -> ScenarioSpec:
    """The concrete spec of one run, rebuilt from its delta.

    Identical on the parent and in workers: apply the override (a field
    mapping via :meth:`ScenarioSpec.replace`, or a whole replacement
    spec), then pin the seed.
    """
    spec = override if isinstance(override, ScenarioSpec) else base.replace(**override)
    return spec.replace(seed=seed)


def expand(
    spec: ScenarioSpec,
    over: Optional[Iterable[Override]] = None,
    seeds: Optional[Sequence[int]] = None,
) -> List[ScenarioSpec]:
    """The concrete run list a sweep will execute, in order.

    ``over`` entries are either field-override mappings (applied with
    :meth:`ScenarioSpec.replace`) or complete replacement specs; ``seeds``
    multiplies each entry into one run per seed.  Built from the same
    delta expansion the executor ships to workers, so this *is* the spec
    list a sweep reconstructs.
    """
    return [
        resolve_run_spec(spec, override, seed)
        for override, seed in expand_deltas(spec, over=over, seeds=seeds)
    ]


def resolve_task_spec(
    base: ScenarioSpec, override: Override, seed: int, discipline_index: int
) -> ScenarioSpec:
    """The single-discipline spec of one flattened task."""
    run_spec = resolve_run_spec(base, override, seed)
    return run_spec.replace(
        disciplines=(run_spec.disciplines[discipline_index],)
    )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TaskResult:
    """One flattened task's outcome (a single discipline simulation).

    ``result`` is the :class:`DisciplineRunResult` for completed default
    tasks, the ``task_fn`` return value for custom tasks, or ``None`` when
    the budget expired.  ``sim_seconds`` records how far the simulation
    clock got (equal to the spec duration on completion).
    """

    index: int
    run_index: int
    discipline_index: int
    discipline: str
    status: str
    result: Any
    wall_seconds: float
    sim_seconds: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "discipline": self.discipline,
            "status": self.status,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
        }


@dataclasses.dataclass(frozen=True)
class SweepRun:
    """One expanded run of a sweep, with its explicit outcome.

    ``status`` is :data:`COMPLETED` when every discipline task finished
    (``result`` then holds the assembled :class:`ScenarioResult`),
    :data:`BUDGET_EXPIRED` when any task ran out of wall-clock budget, or
    :data:`STOPPED` when early stopping cancelled tasks before they were
    dispatched.  ``tasks`` holds whatever task results exist, in
    discipline order.
    """

    index: int
    spec: ScenarioSpec
    status: str
    result: Optional[ScenarioResult]
    tasks: Tuple[TaskResult, ...]

    @property
    def wall_seconds(self) -> float:
        return sum(task.wall_seconds for task in self.tasks)

    @property
    def payloads(self) -> Tuple[Any, ...]:
        """Raw per-task results (useful with a custom ``task_fn``)."""
        return tuple(task.result for task in self.tasks)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "scenario": self.spec.name,
            "seed": self.spec.seed,
            "status": self.status,
            "wall_seconds": self.wall_seconds,
            "tasks": [task.to_dict() for task in self.tasks],
            "result": (
                self.result.to_dict() if self.result is not None else None
            ),
        }


class SweepOutcome(Sequence):
    """All runs of one sweep, in expansion order, statuses explicit."""

    def __init__(self, runs: Iterable[SweepRun]):
        self.runs: Tuple[SweepRun, ...] = tuple(runs)

    def __len__(self) -> int:
        return len(self.runs)

    def __getitem__(self, index):
        return self.runs[index]

    @property
    def results(self) -> List[ScenarioResult]:
        """Completed :class:`ScenarioResult`\\ s, in expansion order."""
        return [
            run.result
            for run in self.runs
            if run.status == COMPLETED and run.result is not None
        ]

    def with_status(self, status: str) -> List[SweepRun]:
        return [run for run in self.runs if run.status == status]

    @property
    def counts(self) -> Dict[str, int]:
        counts = {COMPLETED: 0, BUDGET_EXPIRED: 0, STOPPED: 0}
        for run in self.runs:
            counts[run.status] = counts.get(run.status, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counts": self.counts,
            "runs": [run.to_dict() for run in self.runs],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        counts = self.counts
        return (
            f"<SweepOutcome runs={len(self.runs)} "
            f"completed={counts[COMPLETED]} "
            f"budget_expired={counts[BUDGET_EXPIRED]} "
            f"stopped={counts[STOPPED]}>"
        )


# ----------------------------------------------------------------------
# Early-stopping helpers
# ----------------------------------------------------------------------


def stop_when_ci_below(
    metric: Callable[[Any], float],
    rel_half_width: float = 0.05,
    min_runs: int = 4,
    z: float = 1.96,
) -> Callable[[List[SweepRun]], bool]:
    """An ``early_stop`` predicate closing a seed ladder on confidence.

    Stops once the normal-approximation confidence interval of ``metric``
    across the completed runs has half-width ``<= rel_half_width *
    |mean|``.  The classic use: replicate a scenario across seeds until
    the estimate is tight, instead of always paying for the full ladder.

    ``metric`` receives each completed run's :class:`ScenarioResult` —
    or, for custom-``task_fn`` sweeps (where ``SweepRun.result`` is
    ``None``), the task's raw payload — so task-function replication
    ladders can close on their own estimand too.
    """
    if min_runs < 2:
        raise ValueError("min_runs must be at least 2")

    def predicate(completed: List[SweepRun]) -> bool:
        values = [
            metric(
                run.result if run.result is not None else run.payloads[0]
            )
            for run in completed
        ]
        n = len(values)
        if n < min_runs:
            return False
        mean = sum(values) / n
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        half_width = z * math.sqrt(variance / n)
        # A zero mean with zero variance is a closed (width-0) interval;
        # a zero mean with spread never satisfies the relative criterion.
        return half_width <= rel_half_width * abs(mean)

    return predicate


# ----------------------------------------------------------------------
# Task execution (runs in workers; module-level so it pickles)
# ----------------------------------------------------------------------

# The base spec a pool's workers were warm-started with (one-cell mutable
# so the initializer can assign it under fork and spawn alike), and the
# whole-spec overrides shipped alongside it, keyed by blob fingerprint.
# Whole-spec overrides (``gen:*`` sweeps replace the entire spec per run)
# would otherwise be re-pickled into every task payload; instead each
# distinct spec ships once per worker at pool start and task payloads
# carry a ``(_SPEC_REF, fingerprint)`` marker.
_WORKER_BASE: List[Optional[ScenarioSpec]] = [None]
_WORKER_SPECS: Dict[str, ScenarioSpec] = {}

_SPEC_REF = "__specref__"


def _fingerprint(blob: bytes) -> str:
    return hashlib.sha1(blob).hexdigest()


def _deref_override(
    override: Any, table: Dict[str, ScenarioSpec]
) -> Override:
    """Resolve a spec-reference marker back to its shipped spec."""
    if (
        isinstance(override, tuple)
        and len(override) == 2
        and override[0] == _SPEC_REF
    ):
        return table[override[1]]
    return override


def _init_worker(
    base_blob: bytes, override_blobs: Tuple[Tuple[str, bytes], ...] = ()
) -> None:
    """Pool initializer: unpack the base spec (and any whole-spec
    overrides) shipped once per worker."""
    _WORKER_BASE[0] = pickle.loads(base_blob)
    _WORKER_SPECS.clear()
    for fingerprint, blob in override_blobs:
        _WORKER_SPECS[fingerprint] = pickle.loads(blob)


def _execute_delta(payload: tuple) -> TaskResult:
    """Worker entry point: rebuild the task's spec from its delta and run."""
    index, run_index, discipline_index, override, seed, budget, slices, task_fn = payload
    override = _deref_override(override, _WORKER_SPECS)
    if task_fn is not None:
        # Custom task functions own the whole run (all disciplines).
        spec = resolve_run_spec(_WORKER_BASE[0], override, seed)
    else:
        spec = resolve_task_spec(
            _WORKER_BASE[0], override, seed, discipline_index
        )
    return run_task(
        spec,
        index=index,
        run_index=run_index,
        discipline_index=discipline_index,
        budget_seconds=budget,
        budget_slices=slices,
        task_fn=task_fn,
    )


def run_task(
    spec: ScenarioSpec,
    index: int = 0,
    run_index: int = 0,
    discipline_index: int = 0,
    budget_seconds: Optional[float] = None,
    budget_slices: int = DEFAULT_BUDGET_SLICES,
    task_fn: Optional[Callable[[ScenarioSpec], Any]] = None,
) -> TaskResult:
    """Run one flattened task: a single-discipline spec to completion.

    With a ``budget_seconds``, the simulation advances in
    ``duration / budget_slices`` windows and is abandoned
    (:data:`BUDGET_EXPIRED`) once the wall clock exceeds the budget with
    simulated time still remaining.  Slicing fires the identical event
    sequence as one uninterrupted run, so completed budgeted runs stay
    bit-identical to unbudgeted ones.

    A custom ``task_fn`` (orchestrated scenarios: mid-run admission, phase
    waves) replaces the default build-run-collect; it receives the
    reconstructed spec and its return value becomes ``TaskResult.result``.
    Budgets do not apply to custom task functions.
    """
    started = time.perf_counter()
    if task_fn is not None:
        payload = task_fn(spec)
        return TaskResult(
            index=index,
            run_index=run_index,
            discipline_index=discipline_index,
            discipline="+".join(d.name for d in spec.disciplines),
            status=COMPLETED,
            result=payload,
            wall_seconds=time.perf_counter() - started,
            sim_seconds=spec.duration,
        )
    from repro.fluid.engine import effective_engine, run_fluid_discipline

    if effective_engine(spec) == "fluid":
        # The fluid engine advances whole epochs, not events; budgets
        # (already coarse-grained guards) do not slice it.
        return TaskResult(
            index=index,
            run_index=run_index,
            discipline_index=discipline_index,
            discipline=spec.disciplines[0].name,
            status=COMPLETED,
            result=run_fluid_discipline(spec),
            wall_seconds=time.perf_counter() - started,
            sim_seconds=spec.duration,
        )
    context = ScenarioContext(spec, spec.disciplines[0])
    status = COMPLETED
    if budget_seconds is None:
        context.run()
    else:
        step = spec.duration / max(int(budget_slices), 1)
        window = 0
        while context.sim.now < spec.duration:
            window += 1
            context.run(until=min(spec.duration, step * window))
            if (
                time.perf_counter() - started > budget_seconds
                and context.sim.now < spec.duration
            ):
                status = BUDGET_EXPIRED
                break
    return TaskResult(
        index=index,
        run_index=run_index,
        discipline_index=discipline_index,
        discipline=spec.disciplines[0].name,
        status=status,
        result=context.collect() if status == COMPLETED else None,
        wall_seconds=time.perf_counter() - started,
        sim_seconds=context.sim.now,
    )


# ----------------------------------------------------------------------
# Deterministic reassembly + streaming callbacks
# ----------------------------------------------------------------------


class _Assembler:
    """Folds streaming task results back into runs, in any arrival order.

    A run finishes when all its tasks have reported; ``on_result`` fires
    then (completion order), and ``early_stop`` — evaluated over the
    completed runs — raises the stop flag the dispatchers watch.
    """

    def __init__(
        self,
        run_specs: List[ScenarioSpec],
        run_task_counts: List[int],
        early_stop: Optional[Callable[[List[SweepRun]], bool]],
        on_result: Optional[Callable[[SweepRun], None]],
        custom_tasks: bool,
    ):
        self._run_specs = run_specs
        self._counts = run_task_counts
        self._early_stop = early_stop
        self._on_result = on_result
        self._custom_tasks = custom_tasks
        self._slots: List[Dict[int, TaskResult]] = [{} for _ in run_specs]
        self._finished: Dict[int, SweepRun] = {}
        self.completed: List[SweepRun] = []  # streaming (completion) order
        self.stop = False

    def offer(self, task: TaskResult) -> None:
        slot = self._slots[task.run_index]
        slot[task.discipline_index] = task
        if len(slot) < self._counts[task.run_index]:
            return
        run = self._assemble(task.run_index)
        self._finished[task.run_index] = run
        if self._on_result is not None:
            self._on_result(run)
        if run.status == COMPLETED:
            self.completed.append(run)
            if (
                not self.stop
                and self._early_stop is not None
                and self._early_stop(list(self.completed))
            ):
                self.stop = True

    def _assemble(self, run_index: int) -> SweepRun:
        spec = self._run_specs[run_index]
        tasks = tuple(
            self._slots[run_index][d] for d in sorted(self._slots[run_index])
        )
        if any(task.status == BUDGET_EXPIRED for task in tasks):
            return SweepRun(run_index, spec, BUDGET_EXPIRED, None, tasks)
        result = None
        if not self._custom_tasks:
            result = ScenarioResult(
                scenario=spec.name,
                seed=spec.seed,
                duration=spec.duration,
                warmup=spec.warmup,
                runs=tuple(task.result for task in tasks),
            )
        return SweepRun(run_index, spec, COMPLETED, result, tasks)

    def outcome(self) -> SweepOutcome:
        """All runs in expansion order; unfinished ones marked stopped."""
        runs = []
        for run_index, spec in enumerate(self._run_specs):
            run = self._finished.get(run_index)
            if run is None:
                tasks = tuple(
                    self._slots[run_index][d]
                    for d in sorted(self._slots[run_index])
                )
                run = SweepRun(run_index, spec, STOPPED, None, tasks)
            runs.append(run)
        return SweepOutcome(runs)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


class SweepExecutor:
    """Persistent, reusable sweep execution engine.

    Args:
        workers: process count; ``None``/``0``/``1`` executes serially in
            this process (still streaming through ``on_result``).
        budget_seconds: default per-task wall-clock budget applied to
            every ``run_sweep`` call that does not override it.
        budget_slices: granularity of the budget check (see
            :func:`run_task`).
        window: maximum tasks in flight beyond the workers' hands; bounds
            how much already-dispatched work an early stop can waste.
            Defaults to ``2 * workers``.

    The pool is created lazily on the first pooled sweep and reused across
    subsequent sweeps of the same base spec — workers are warm-started
    with the base spec once (pool initializer), and every task ships as a
    compact ``(override, seed, discipline-index)`` delta.  Sweeping a
    different base spec recycles the pool (the one moment the full spec
    crosses a process boundary again).  Use as a context manager, or call
    :meth:`close` when done.

    ``stats`` accumulates orchestration telemetry across the executor's
    lifetime: pools created, sweeps run, tasks dispatched / completed /
    expired / skipped, and pickled bytes shipped (base spec per worker;
    per-task delta bytes only when ``track_task_bytes=True``, since
    measuring them costs a second serialization) — the quantities the
    ``sweep_seeds`` workload of ``benchmarks/e2e`` reports.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        budget_seconds: Optional[float] = None,
        budget_slices: int = DEFAULT_BUDGET_SLICES,
        window: Optional[int] = None,
        track_task_bytes: bool = False,
    ):
        self.workers = int(workers) if workers else 0
        self.budget_seconds = budget_seconds
        self.budget_slices = budget_slices
        self.window = window
        self.track_task_bytes = track_task_bytes
        self._pool = None
        self._pool_base: Optional[ScenarioSpec] = None
        self._pool_size = 0
        self._pool_fps: frozenset = frozenset()
        self.stats: Dict[str, int] = {
            "pools_created": 0,
            "sweeps": 0,
            "tasks_total": 0,
            "tasks_dispatched": 0,
            "tasks_completed": 0,
            "tasks_budget_expired": 0,
            "tasks_skipped": 0,
            "base_bytes": 0,
            "task_bytes": 0,
            "override_specs_shipped": 0,
            "override_bytes": 0,
        }

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_base = None
            self._pool_size = 0
            self._pool_fps = frozenset()

    def _ensure_pool(
        self,
        base: ScenarioSpec,
        task_count: int,
        override_blobs: Optional[Dict[str, bytes]] = None,
    ) -> None:
        # Never fork more workers than there are tasks; grow (recycle) a
        # pool that was sized for a smaller earlier sweep.  Reuse also
        # requires the workers to already hold every whole-spec override
        # this sweep references (initializers only run at worker start).
        override_blobs = override_blobs or {}
        size = min(self.workers, task_count)
        fps = frozenset(override_blobs)
        if (
            self._pool is not None
            and self._pool_base == base
            and self._pool_size >= size
            and fps <= self._pool_fps
        ):
            return
        self.close()
        import multiprocessing

        blob = pickle.dumps(base, _PICKLE_PROTOCOL)
        shipped = tuple(sorted(override_blobs.items()))
        self._pool = multiprocessing.Pool(
            size, initializer=_init_worker, initargs=(blob, shipped)
        )
        self._pool_base = base
        self._pool_size = size
        self._pool_fps = fps
        self.stats["pools_created"] += 1
        self.stats["base_bytes"] += len(blob) * size
        self.stats["override_specs_shipped"] += len(shipped) * size
        self.stats["override_bytes"] += (
            sum(len(b) for _, b in shipped) * size
        )

    # -- the sweep -----------------------------------------------------
    def run_sweep(
        self,
        spec: ScenarioSpec,
        over: Optional[Iterable[Override]] = None,
        seeds: Optional[Sequence[int]] = None,
        *,
        budget_seconds=_UNSET,
        early_stop: Optional[Callable[[List[SweepRun]], bool]] = None,
        on_result: Optional[Callable[[SweepRun], None]] = None,
        task_fn: Optional[Callable[[ScenarioSpec], Any]] = None,
    ) -> SweepOutcome:
        """Execute one sweep through the flattened task graph.

        Args:
            over / seeds: the expansion, exactly as in :func:`expand`.
            budget_seconds: per-task wall-clock budget for this sweep
                (defaults to the executor's).  Each discipline simulation
                of a run gets its own budget; a D-discipline run may
                therefore spend up to D times this much wall clock and
                still complete.  Incompatible with ``task_fn`` (raises
                ``ValueError``).
            early_stop: predicate over the completed :class:`SweepRun`
                list (completion order); returning True stops dispatching
                new runs.  Undispatched runs are reported ``stopped``.
            on_result: called with each :class:`SweepRun` as it finishes
                (completed or budget-expired), in completion order —
                serial execution makes that expansion order.
            task_fn: optional module-level callable ``spec -> payload``
                replacing the default single-discipline simulation; the
                sweep then dispatches one task per *run* (the function
                owns its whole scenario, e.g. mid-run orchestration) and
                ``SweepRun.result`` stays ``None`` — read
                ``SweepRun.payloads`` instead.

        Returns:
            A :class:`SweepOutcome` — every expanded run in expansion
            order with an explicit status.
        """
        budget = (
            self.budget_seconds if budget_seconds is _UNSET else budget_seconds
        )
        if task_fn is not None and budget is not None:
            # Budget slicing lives in the default build-run-collect task;
            # a custom task function owns its own loop, so accepting a
            # budget here would silently not enforce it.
            raise ValueError(
                "budget_seconds does not apply to a custom task_fn; "
                "enforce budgets inside the task function instead"
            )
        deltas = expand_deltas(spec, over=over, seeds=seeds)
        run_specs = [
            resolve_run_spec(spec, override, seed) for override, seed in deltas
        ]
        # Whole-spec overrides are pickled once here, deduplicated by
        # fingerprint, and replaced in task payloads by a tiny reference:
        # workers get the spec table at pool start instead of a full
        # spec inside every task.
        override_blobs: Dict[str, bytes] = {}
        ref_specs: Dict[str, ScenarioSpec] = {}
        payload_overrides: List[Any] = []
        for override, _seed in deltas:
            if isinstance(override, ScenarioSpec):
                blob = pickle.dumps(override, _PICKLE_PROTOCOL)
                fingerprint = _fingerprint(blob)
                override_blobs.setdefault(fingerprint, blob)
                ref_specs.setdefault(fingerprint, override)
                payload_overrides.append((_SPEC_REF, fingerprint))
            else:
                payload_overrides.append(override)
        payloads: List[tuple] = []
        run_task_counts: List[int] = []
        for run_index, ((override, seed), run_spec) in enumerate(
            zip(deltas, run_specs)
        ):
            count = 1 if task_fn is not None else len(run_spec.disciplines)
            run_task_counts.append(count)
            for discipline_index in range(count):
                payloads.append(
                    (
                        len(payloads),
                        run_index,
                        discipline_index,
                        payload_overrides[run_index],
                        seed,
                        budget,
                        self.budget_slices,
                        task_fn,
                    )
                )
        self.stats["sweeps"] += 1
        self.stats["tasks_total"] += len(payloads)

        assembler = _Assembler(
            run_specs,
            run_task_counts,
            early_stop,
            on_result,
            custom_tasks=task_fn is not None,
        )
        if self.workers > 1 and len(payloads) > 1:
            self._run_pooled(spec, payloads, assembler, override_blobs)
        else:
            self._run_serial(spec, payloads, assembler, ref_specs)
        outcome = assembler.outcome()
        for run in outcome.runs:
            for task in run.tasks:
                if task.status == COMPLETED:
                    self.stats["tasks_completed"] += 1
                elif task.status == BUDGET_EXPIRED:
                    self.stats["tasks_budget_expired"] += 1
        self.stats["tasks_skipped"] += len(payloads) - sum(
            len(run.tasks) for run in outcome.runs
        )
        return outcome

    # -- serial path ---------------------------------------------------
    def _run_serial(
        self,
        base: ScenarioSpec,
        payloads: List[tuple],
        assembler: _Assembler,
        ref_specs: Optional[Dict[str, ScenarioSpec]] = None,
    ) -> None:
        for payload in payloads:
            if assembler.stop:
                break
            (index, run_index, discipline_index, override, seed, budget,
             slices, task_fn) = payload
            override = _deref_override(override, ref_specs or {})
            self.stats["tasks_dispatched"] += 1
            if task_fn is not None:
                spec = resolve_run_spec(base, override, seed)
            else:
                spec = resolve_task_spec(
                    base, override, seed, discipline_index
                )
            assembler.offer(
                run_task(
                    spec,
                    index=index,
                    run_index=run_index,
                    discipline_index=discipline_index,
                    budget_seconds=budget,
                    budget_slices=slices,
                    task_fn=task_fn,
                )
            )

    # -- pooled path ---------------------------------------------------
    def _run_pooled(
        self,
        base: ScenarioSpec,
        payloads: List[tuple],
        assembler: _Assembler,
        override_blobs: Optional[Dict[str, bytes]] = None,
    ) -> None:
        self._ensure_pool(base, len(payloads), override_blobs)
        window = self.window or max(2 * self._pool_size, 4)
        slots = threading.Semaphore(window)
        # Byte accounting re-pickles each payload; off by default so the
        # dispatch path does the serialization work exactly once (the
        # pool's own).  benchmarks/e2e/child.py switches it on to measure.
        track_bytes = self.track_task_bytes

        def stream():
            # Runs in the pool's task-feeder thread.  The semaphore is the
            # back-pressure that makes early stopping effective: at most
            # ``window`` tasks are in flight, so a stop wastes bounded
            # work instead of having dispatched the whole sweep already.
            for payload in payloads:
                slots.acquire()
                if assembler.stop:
                    return
                self.stats["tasks_dispatched"] += 1
                if track_bytes:
                    self.stats["task_bytes"] += len(
                        pickle.dumps(payload, _PICKLE_PROTOCOL)
                    )
                yield payload

        iterator = self._pool.imap_unordered(
            _execute_delta, stream(), chunksize=1
        )
        try:
            for task_result in iterator:
                assembler.offer(task_result)
                slots.release()
        except BaseException:
            # Unwedge the feeder thread (it may be blocked on a slot),
            # then drop the pool: its queues are in an unknown state.
            assembler.stop = True
            slots.release()
            self.close()
            raise


# ----------------------------------------------------------------------
# The one-call surface
# ----------------------------------------------------------------------


def sweep(
    spec: ScenarioSpec,
    over: Optional[Iterable[Override]] = None,
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    *,
    budget_seconds: Optional[float] = None,
    early_stop: Optional[Callable[[List[SweepRun]], bool]] = None,
    on_result: Optional[Callable[[SweepRun], None]] = None,
    executor: Optional[SweepExecutor] = None,
) -> Union[List[ScenarioResult], SweepOutcome]:
    """Run ``spec`` across parameter overrides and seeds.

    Paired seeds fall out of the stream discipline: within one spec,
    every discipline sees the same arrivals; across specs that share a
    seed, flows with the same names see the same arrivals too (streams
    are keyed by flow name only).

    Args:
        over: iterable of field-override mappings (or whole specs).
        seeds: seeds to pair every override with.
        workers: process count; ``None``/``0``/``1`` runs serially.
        budget_seconds: optional wall-clock budget for each discipline
            simulation of a run (so a D-discipline run may spend up to D
            times this); runs with an over-budget simulation are reported
            ``budget_expired``.  Not given here, a budget carried by
            ``executor`` still applies.
        early_stop: optional predicate over the completed
            :class:`SweepRun` list; returning True stops dispatching
            further runs (reported ``stopped``).  See
            :func:`stop_when_ci_below`.
        on_result: streaming callback fired as each run finishes.
        executor: reuse a caller-owned :class:`SweepExecutor` (and its
            warm worker pool) instead of a transient one; ``workers`` is
            then ignored.

    Returns:
        Without budgets or early stopping: one :class:`ScenarioResult`
        per expanded run, in expansion order (override-major, seed-minor)
        regardless of worker scheduling — every run completes, so the
        plain result list is the whole story.  With ``budget_seconds``
        (given here or carried by the executor) or ``early_stop``: the
        full :class:`SweepOutcome`, whose entries record completed /
        budget-expired / stopped runs explicitly.
    """
    owns_executor = executor is None
    active = executor if executor is not None else SweepExecutor(workers=workers)
    # A caller-owned executor may carry a default budget; only an explicit
    # argument here overrides it.
    budget = (
        budget_seconds if budget_seconds is not None else active.budget_seconds
    )
    try:
        outcome = active.run_sweep(
            spec,
            over=over,
            seeds=seeds,
            budget_seconds=budget,
            early_stop=early_stop,
            on_result=on_result,
        )
    finally:
        if owns_executor:
            active.close()
    if budget is None and early_stop is None:
        return outcome.results
    return outcome
