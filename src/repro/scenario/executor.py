"""Persistent sweep execution engine.

The orchestration layer between declarative sweeps and worker processes.
:class:`SweepExecutor` runs a sweep as a flattened task graph on a warm
``concurrent.futures.ProcessPoolExecutor``:

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
* **One bounded dispatch loop.**  At most ``max(2 × workers, 4)`` tasks
  are in flight; results are collected with ``wait(FIRST_COMPLETED)`` as
  they land and reassembled deterministically into expansion order, and
  an ``on_result`` callback fires as each run finishes (completion
  order).  The serial path runs the same loop in-process, one task at a
  time, through the same payload → spec resolution.
* **Budgets and early stopping.**  A per-run wall-clock budget slices
  each simulation into :data:`BUDGET_SLICES` engine ``run(until=...)``
  windows and abandons it once the budget is spent (``budget_expired``);
  an ``early_stop`` predicate over the completed runs stops dispatching
  further runs (``stopped``).  Both outcomes are recorded explicitly in
  the result list; *completed* runs are bit-identical to serial
  execution — slicing fires the identical event sequence, only the
  stopping rule changes.
* **A dead worker is a casualty, not a hang.**  A worker process that
  dies (SIGKILL, the OOM killer) breaks its pool: every task in flight on
  it is recorded ``worker_lost``, the pool is rebuilt for the rest of the
  sweep, and nothing is retried — a spec that crashes its worker would
  crash the next one too.

Determinism contract: serial, pooled, and streamed execution produce
bit-identical ``comparable_dict()`` payloads for every completed run.
Which runs complete under a budget, an early-stop predicate or a lost
worker is inherently timing-dependent (wall clocks and completion order
vary); what a completed run contains is not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
import pickle
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
    ScenarioContext,
    ScenarioResult,
    _run_one_discipline,
)
from repro.scenario.spec import ScenarioSpec

Override = Union[Mapping, ScenarioSpec]

#: Task / run statuses recorded in sweep outcomes.
COMPLETED = "completed"
BUDGET_EXPIRED = "budget_expired"
STOPPED = "stopped"
WORKER_LOST = "worker_lost"

#: How many ``run(until=...)`` windows a budgeted simulation is sliced
#: into.  Slicing is behaviour-neutral (the engine fires the identical
#: event sequence); more slices only tighten how promptly an expired
#: budget is noticed.
BUDGET_SLICES = 32

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_UNSET = object()


def _checked_workers(workers) -> int:
    """``None``/``0``/``1`` mean serial; anything but a non-negative
    integer is refused rather than truncated or read as serial."""
    if workers is None:
        return 0
    if (
        isinstance(workers, bool)
        or not isinstance(workers, numbers.Integral)
        or workers < 0
    ):
        raise ValueError(
            f"workers must be a non-negative integer or None, got {workers!r}"
        )
    return int(workers)


def _checked_budget(budget_seconds):
    """A budget is ``None`` or a finite number of seconds >= 0 (a
    negative one would expire every run, a NaN one none)."""
    if budget_seconds is None:
        return None
    if (
        isinstance(budget_seconds, bool)
        or not isinstance(budget_seconds, numbers.Real)
        or not math.isfinite(budget_seconds)
        or budget_seconds < 0
    ):
        raise ValueError(
            "budget_seconds must be None or a finite number >= 0, "
            f"got {budget_seconds!r}"
        )
    return budget_seconds


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

    ``result`` is the :class:`DisciplineRunResult` of a completed task, or
    ``None`` when the budget expired or the worker died.  ``sim_seconds``
    records how far the simulation clock got (equal to the spec duration
    on completion, 0 for a lost task).
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
    :data:`WORKER_LOST` when a worker process died under any task,
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


class IncompleteSweepError(RuntimeError):
    """A caller needed every run of a sweep, and some did not complete.

    ``runs`` holds ``(run index, status)`` for each run that did not.
    """

    def __init__(self, runs: Sequence[Tuple[int, str]], total: int):
        self.runs = tuple(runs)
        listed = ", ".join(f"run {i} {status}" for i, status in self.runs)
        super().__init__(
            f"{len(self.runs)} of {total} sweep runs did not complete: "
            f"{listed}"
        )


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
        return [run.result for run in self.runs if run.status == COMPLETED]

    def require_complete(self) -> List[ScenarioResult]:
        """Every run's :class:`ScenarioResult`, in expansion order.

        For callers that read results by run position (one row per seed,
        the single run of :meth:`ScenarioRunner.run`): a short
        :attr:`results` list would shift later rows onto the wrong run,
        so any run that did not complete raises
        :class:`IncompleteSweepError` naming it instead.
        """
        missing = [
            (r.index, r.status) for r in self.runs if r.status != COMPLETED
        ]
        if missing:
            raise IncompleteSweepError(missing, len(self.runs))
        return self.results

    def with_status(self, status: str) -> List[SweepRun]:
        return [run for run in self.runs if run.status == status]

    @property
    def counts(self) -> Dict[str, int]:
        counts = dict.fromkeys(
            (COMPLETED, BUDGET_EXPIRED, STOPPED, WORKER_LOST), 0
        )
        for run in self.runs:
            counts[run.status] += 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counts": self.counts,
            "runs": [run.to_dict() for run in self.runs],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SweepOutcome runs={len(self.runs)} {self.counts}>"


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

    ``metric`` receives each completed run's :class:`ScenarioResult`.
    A ``rel_half_width`` that is not a positive finite number would never
    close the interval (the ladder silently runs to its cap), and a
    non-positive ``z`` would close it at once, so both are rejected.
    """
    if min_runs < 2:
        raise ValueError("min_runs must be at least 2")
    if not (math.isfinite(rel_half_width) and rel_half_width > 0):
        raise ValueError(
            f"rel_half_width must be a positive finite number, "
            f"got {rel_half_width!r}"
        )
    if not (math.isfinite(z) and z > 0):
        raise ValueError(f"z must be a positive finite number, got {z!r}")

    def predicate(completed: List[SweepRun]) -> bool:
        values = [metric(run.result) for run in completed]
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


def _deref_override(
    override: Any, table: Dict[str, ScenarioSpec]
) -> Override:
    """Resolve a spec-reference marker back to its shipped spec."""
    if isinstance(override, tuple) and override[0] == _SPEC_REF:
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


def _execute(
    payload: tuple, base: ScenarioSpec, specs: Dict[str, ScenarioSpec]
) -> TaskResult:
    """Rebuild one task's spec from its delta and run it."""
    index, run_index, discipline_index, override, seed, budget = payload
    spec = resolve_task_spec(
        base, _deref_override(override, specs), seed, discipline_index
    )
    return run_task(spec, index, run_index, discipline_index, budget)


def _execute_delta(payload: tuple) -> TaskResult:
    """Worker entry point: run a task against the specs the pool
    initializer shipped."""
    return _execute(payload, _WORKER_BASE[0], _WORKER_SPECS)


def run_task(
    spec: ScenarioSpec,
    index: int = 0,
    run_index: int = 0,
    discipline_index: int = 0,
    budget_seconds: Optional[float] = None,
) -> TaskResult:
    """Run one flattened task: a single-discipline spec to completion.

    With a ``budget_seconds``, the simulation advances in
    ``duration / BUDGET_SLICES`` windows and is abandoned
    (:data:`BUDGET_EXPIRED`) once the wall clock exceeds the budget with
    simulated time still remaining.  Slicing fires the identical event
    sequence as one uninterrupted run, so completed budgeted runs stay
    bit-identical to unbudgeted ones.
    """
    started = time.perf_counter()
    status = COMPLETED
    # The fluid engine advances whole epochs, not events; budgets (already
    # coarse-grained guards) do not slice it.
    if budget_seconds is None or spec.engine == "fluid":
        result, sim_seconds = _run_one_discipline(spec), spec.duration
    else:
        context = ScenarioContext(spec, spec.disciplines[0])
        step = spec.duration / BUDGET_SLICES
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
        result = context.collect() if status == COMPLETED else None
        sim_seconds = context.sim.now
    return TaskResult(
        index=index,
        run_index=run_index,
        discipline_index=discipline_index,
        discipline=spec.disciplines[0].name,
        status=status,
        result=result,
        wall_seconds=time.perf_counter() - started,
        sim_seconds=sim_seconds,
    )


# ----------------------------------------------------------------------
# Deterministic reassembly + streaming callbacks
# ----------------------------------------------------------------------


class _Assembler:
    """Folds streaming task results back into runs, in any arrival order.

    A run finishes when all its tasks have reported; ``on_result`` fires
    then (completion order), and ``early_stop`` — evaluated over the
    completed runs — raises the stop flag the dispatch loop watches.
    """

    def __init__(
        self,
        run_specs: List[ScenarioSpec],
        early_stop: Optional[Callable[[List[SweepRun]], bool]],
        on_result: Optional[Callable[[SweepRun], None]],
    ):
        self._run_specs = run_specs
        self._early_stop = early_stop
        self._on_result = on_result
        self._slots: List[Dict[int, TaskResult]] = [{} for _ in run_specs]
        self._finished: Dict[int, SweepRun] = {}
        self.completed: List[SweepRun] = []  # streaming (completion) order
        self.stop = False

    def offer(self, task: TaskResult) -> None:
        slot = self._slots[task.run_index]
        slot[task.discipline_index] = task
        if len(slot) < len(self._run_specs[task.run_index].disciplines):
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

    def lose(self, payload: tuple) -> None:
        """Record a task whose worker process died under it."""
        index, run_index, discipline_index = payload[:3]
        name = self._run_specs[run_index].disciplines[discipline_index].name
        self.offer(
            TaskResult(index, run_index, discipline_index, name, WORKER_LOST,
                       None, 0.0, 0.0)
        )

    def _tasks(self, run_index: int) -> Tuple[TaskResult, ...]:
        slot = self._slots[run_index]
        return tuple(slot[d] for d in sorted(slot))

    def _assemble(self, run_index: int) -> SweepRun:
        spec = self._run_specs[run_index]
        tasks = self._tasks(run_index)
        for status in (WORKER_LOST, BUDGET_EXPIRED):
            if any(task.status == status for task in tasks):
                return SweepRun(run_index, spec, status, None, tasks)
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
        return SweepOutcome(
            self._finished.get(run_index)
            or SweepRun(run_index, spec, STOPPED, None, self._tasks(run_index))
            for run_index, spec in enumerate(self._run_specs)
        )


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


class SweepExecutor:
    """Persistent, reusable sweep execution engine.

    Args:
        workers: process count; ``None``/``0``/``1`` executes serially in
            this process (still streaming through ``on_result``).  A
            negative or non-integer count raises ``ValueError``.
        budget_seconds: default per-task wall-clock budget applied to
            every ``run_sweep`` call that does not override it; ``None``
            or a finite number >= 0, else ``ValueError``.
        track_task_bytes: also count the pickled bytes of every task
            payload in ``stats["task_bytes"]`` (off by default: measuring
            costs a second serialization of each payload).

    The pool (a ``concurrent.futures.ProcessPoolExecutor``) is created
    lazily on the first pooled sweep and reused across subsequent sweeps
    of the same base spec — workers are warm-started with the base spec
    once (pool initializer), and every task ships as a compact
    ``(override, seed, discipline-index)`` delta.  Sweeping a different
    base spec recycles the pool (the one moment the full spec crosses a
    process boundary again), and so does a worker's death.  Use as a
    context manager, or call :meth:`close` when done: it joins every
    worker, so no process outlives the executor.

    ``stats`` accumulates orchestration telemetry across the executor's
    lifetime: pools created, sweeps run, tasks dispatched / completed /
    expired / lost / skipped, and pickled bytes shipped (base spec per
    worker; per-task delta bytes only with ``track_task_bytes``) — the
    quantities the ``sweep_seeds`` workload of ``benchmarks/e2e``
    reports.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        budget_seconds: Optional[float] = None,
        track_task_bytes: bool = False,
    ):
        self.workers = _checked_workers(workers)
        self.budget_seconds = _checked_budget(budget_seconds)
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
            "tasks_worker_lost": 0,
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
        """Shut the worker pool down and join its workers (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _ensure_pool(
        self,
        base: ScenarioSpec,
        task_count: int,
        override_blobs: Dict[str, bytes],
    ) -> None:
        # Never fork more workers than there are tasks; grow (recycle) a
        # pool that was sized for a smaller earlier sweep.  Reuse also
        # requires the workers to already hold every whole-spec override
        # this sweep references (initializers only run at worker start).
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
        from concurrent.futures import ProcessPoolExecutor

        blob = pickle.dumps(base, _PICKLE_PROTOCOL)
        shipped = tuple(sorted(override_blobs.items()))
        self._pool = ProcessPoolExecutor(
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
    ) -> SweepOutcome:
        """Execute one sweep through the flattened task graph.

        Args:
            over / seeds: the expansion, exactly as in :func:`expand`.
            budget_seconds: per-task wall-clock budget for this sweep
                (defaults to the executor's).  Each discipline simulation
                of a run gets its own budget; a D-discipline run may
                therefore spend up to D times this much wall clock and
                still complete.
            early_stop: predicate over the completed :class:`SweepRun`
                list (completion order); returning True stops dispatching
                new runs.  Undispatched runs are reported ``stopped``.
            on_result: called with each :class:`SweepRun` as it finishes
                (completed, budget-expired or worker-lost), in completion
                order — serial execution makes that expansion order.

        Returns:
            A :class:`SweepOutcome` — every expanded run in expansion
            order with an explicit status.
        """
        budget = (
            self.budget_seconds
            if budget_seconds is _UNSET
            else _checked_budget(budget_seconds)
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
        payloads: List[tuple] = []
        for run_index, ((override, seed), run_spec) in enumerate(
            zip(deltas, run_specs)
        ):
            if isinstance(override, ScenarioSpec):
                blob = pickle.dumps(override, _PICKLE_PROTOCOL)
                fingerprint = hashlib.sha1(blob).hexdigest()
                override_blobs.setdefault(fingerprint, blob)
                ref_specs.setdefault(fingerprint, override)
                override = (_SPEC_REF, fingerprint)
            for discipline_index in range(len(run_spec.disciplines)):
                payloads.append(
                    (len(payloads), run_index, discipline_index, override,
                     seed, budget)
                )
        self.stats["sweeps"] += 1
        self.stats["tasks_total"] += len(payloads)

        assembler = _Assembler(run_specs, early_stop, on_result)
        self._dispatch(spec, payloads, assembler, ref_specs, override_blobs)
        outcome = assembler.outcome()
        for run in outcome.runs:
            for task in run.tasks:
                # tasks_completed / tasks_budget_expired / tasks_worker_lost
                self.stats["tasks_" + task.status] += 1
        self.stats["tasks_skipped"] += len(payloads) - sum(
            len(run.tasks) for run in outcome.runs
        )
        return outcome

    def _dispatch(
        self,
        base: ScenarioSpec,
        payloads: List[tuple],
        assembler: _Assembler,
        ref_specs: Dict[str, ScenarioSpec],
        override_blobs: Dict[str, bytes],
    ) -> None:
        """The one dispatch loop, pooled or in-process.

        At most ``window`` tasks are in flight — the back-pressure that
        makes early stopping effective: a stop wastes bounded work
        instead of having dispatched the whole sweep already.  In process
        each task runs as it is dispatched, so nothing is ever in flight.

        A worker's death fails every future in flight on its pool with
        ``BrokenProcessPool``: each such task is recorded lost, the dead
        pool is closed, and the next submission builds a fresh one.
        """
        pooled = self.workers > 1 and len(payloads) > 1
        if pooled:
            from concurrent.futures import FIRST_COMPLETED, wait
            from concurrent.futures.process import BrokenProcessPool

            self._ensure_pool(base, len(payloads), override_blobs)
        window = max(2 * self._pool_size, 4) if pooled else 1

        pending: Dict[Any, Tuple[tuple, Any]] = {}  # future -> payload, pool

        def lose(payload: tuple, pool) -> None:
            # No retry: a spec that crashed one worker would crash the next.
            assembler.lose(payload)
            if pool is not self._pool:
                return  # a rebuilt pool outlives its predecessor's losses
            self.close()
            # The dead pool has settled its other futures by now (lost with
            # it, or finished just before) except any a submit raced into
            # it as it broke, which nothing would ever settle.
            for future, (orphan, owner) in list(pending.items()):
                if owner is pool and not future.done():
                    del pending[future]
                    assembler.lose(orphan)

        tasks = iter(payloads)
        try:
            while True:
                while len(pending) < window and not assembler.stop:
                    payload = next(tasks, None)
                    if payload is None:
                        break
                    self.stats["tasks_dispatched"] += 1
                    if not pooled:
                        assembler.offer(_execute(payload, base, ref_specs))
                        continue
                    if self.track_task_bytes:
                        self.stats["task_bytes"] += len(
                            pickle.dumps(payload, _PICKLE_PROTOCOL)
                        )
                    if self._pool is None:
                        self._ensure_pool(base, len(payloads), override_blobs)
                    pool = self._pool
                    try:
                        future = pool.submit(_execute_delta, payload)
                    except BrokenProcessPool:  # died before this task
                        lose(payload, pool)
                    else:
                        pending[future] = (payload, pool)
                if not pending:
                    return
                for future in wait(pending, return_when=FIRST_COMPLETED)[0]:
                    payload, pool = pending.pop(future)
                    try:
                        task = future.result()
                    except BrokenProcessPool:
                        lose(payload, pool)
                    else:
                        assembler.offer(task)
        except BaseException:
            # Drop the pool: a failed task or callback leaves it mid-sweep.
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
        regardless of worker scheduling — every run must complete, and a
        run whose worker died raises :class:`IncompleteSweepError` naming
        it.  With ``budget_seconds`` (given here or carried by the
        executor) or ``early_stop``: the full :class:`SweepOutcome`,
        whose entries record completed / budget-expired / stopped /
        worker-lost runs explicitly.
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
        return outcome.require_complete()
    return outcome
