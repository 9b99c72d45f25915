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
* **One task form.**  The parent expands the sweep once with
  :func:`expand`, and every task carries its own single-discipline spec
  (``run_spec.replace(disciplines=(d,))``).  A pooled task is pickled in
  the parent before it is submitted, so a spec that cannot cross a
  process boundary raises there instead of inside the pool's feeder.
  :func:`run_task` runs the task the same way in a worker or in the
  serial loop, so placement cannot perturb results.  The pool is built on
  the first pooled sweep and reused by every later sweep it is large
  enough for, whatever spec that sweep runs.
* **One bounded dispatch loop.**  At most ``max(2 × workers, 4)`` tasks
  are in flight; results are collected with ``wait(FIRST_COMPLETED)`` as
  they land and reassembled deterministically into expansion order, and
  an ``on_result`` callback fires as each run finishes (completion
  order).  The serial path runs the same loop in-process, one task at a
  time.
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
import math
import numbers
import pickle
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
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
# Expansion: one base spec -> concrete run specs -> flattened tasks
# ----------------------------------------------------------------------


def expand(
    spec: ScenarioSpec,
    over: Optional[Iterable[Override]] = None,
    seeds: Optional[Sequence[int]] = None,
) -> List[ScenarioSpec]:
    """The concrete run list a sweep will execute, in order.

    ``over`` entries are either field-override mappings (applied with
    :meth:`ScenarioSpec.replace`) or complete replacement specs; ``seeds``
    multiplies each entry into one run per seed, override-major and
    seed-minor.  Without ``seeds`` every entry runs once at its own seed
    (a mapping's ``seed`` key, else the base spec's; a whole spec's own).
    This *is* the run list :meth:`SweepExecutor.run_sweep` executes.
    """
    overrides = list(over) if over is not None else [{}]
    seed_list = list(seeds) if seeds is not None else None
    if not overrides:
        raise ValueError("over must contain at least one entry")
    if seed_list is not None and not seed_list:
        raise ValueError("seeds must contain at least one seed")
    runs: List[ScenarioSpec] = []
    for override in overrides:
        arm = (
            override
            if isinstance(override, ScenarioSpec)
            else spec.replace(**override)
        )
        for seed in seed_list if seed_list is not None else [arm.seed]:
            runs.append(arm.replace(seed=seed))
    return runs

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
# Task execution (the same call in workers and in the serial loop)
# ----------------------------------------------------------------------

# A task is the argument tuple of :func:`run_task`:
# ``(single-discipline spec, index, run index, discipline index, budget)``.
Task = Tuple[ScenarioSpec, int, int, int, Optional[float]]


def _tasks(
    run_specs: List[ScenarioSpec], budget: Optional[float]
) -> Iterator[Task]:
    """The flattened tasks of a sweep, in expansion order.  Built one at
    a time as the dispatch loop asks, so a task's spec exists only while
    it is in flight."""
    index = 0
    for run_index, run_spec in enumerate(run_specs):
        for discipline_index, discipline in enumerate(run_spec.disciplines):
            yield (
                run_spec.replace(disciplines=(discipline,)),
                index,
                run_index,
                discipline_index,
                budget,
            )
            index += 1


def _run_pickled(blob: bytes) -> TaskResult:
    """Worker entry point: a task pickled by the parent."""
    return run_task(*pickle.loads(blob))


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

    def lose(self, task: Task) -> None:
        """Record a task whose worker process died under it."""
        spec, index, run_index, discipline_index, _ = task
        self.offer(
            TaskResult(index, run_index, discipline_index,
                       spec.disciplines[0].name, WORKER_LOST, None, 0.0, 0.0)
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
        budget_seconds: per-task wall-clock budget applied to every
            ``run_sweep`` call; ``None`` or a finite number >= 0, else
            ``ValueError``.  Each discipline simulation of a run gets its
            own budget, so a D-discipline run may spend up to D times this
            much wall clock and still complete.
        track_task_bytes: also count the pickled bytes of every pooled
            task in ``stats["task_bytes"]`` (off by default).

    The pool (a ``concurrent.futures.ProcessPoolExecutor``) is created
    lazily on the first pooled sweep, sized to the sweep's task count (at
    most ``workers``), and reused by every later sweep it is large enough
    for; a larger sweep, or a worker's death, replaces it.  Every task
    ships its own pickled single-discipline spec, so a pool holds no state
    of the sweeps it served.  Use as a context manager, or call
    :meth:`close` when done: it joins every worker, so no process outlives
    the executor.

    ``stats`` accumulates orchestration telemetry across the executor's
    lifetime: pools created, sweeps run, tasks dispatched / completed /
    expired / lost / skipped, and pickled task bytes (with
    ``track_task_bytes``) — the quantities the ``sweep_seeds`` workload of
    ``benchmarks/e2e`` reports.  ``base_bytes`` always reads 0 (no spec
    ships at pool start); the key stays for that workload's reader.
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
        self._pool_size = 0
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

    def _ensure_pool(self, task_count: int) -> None:
        # Never fork more workers than there are tasks; grow (recycle) a
        # pool that was sized for a smaller earlier sweep.
        size = min(self.workers, task_count)
        if self._pool is not None and self._pool_size >= size:
            return
        self.close()
        from concurrent.futures import ProcessPoolExecutor

        self._pool = ProcessPoolExecutor(size)
        self._pool_size = size
        self.stats["pools_created"] += 1

    # -- the sweep -----------------------------------------------------
    def run_sweep(
        self,
        spec: ScenarioSpec,
        over: Optional[Iterable[Override]] = None,
        seeds: Optional[Sequence[int]] = None,
        *,
        early_stop: Optional[Callable[[List[SweepRun]], bool]] = None,
        on_result: Optional[Callable[[SweepRun], None]] = None,
    ) -> SweepOutcome:
        """Execute one sweep through the flattened task graph, each task
        under the executor's ``budget_seconds``.

        Args:
            over / seeds: the expansion, exactly as in :func:`expand`.
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
        run_specs = expand(spec, over=over, seeds=seeds)
        total = sum(len(run_spec.disciplines) for run_spec in run_specs)
        self.stats["sweeps"] += 1
        self.stats["tasks_total"] += total

        assembler = _Assembler(run_specs, early_stop, on_result)
        self._dispatch(_tasks(run_specs, self.budget_seconds), total, assembler)
        outcome = assembler.outcome()
        for run in outcome.runs:
            for task in run.tasks:
                # tasks_completed / tasks_budget_expired / tasks_worker_lost
                self.stats["tasks_" + task.status] += 1
        self.stats["tasks_skipped"] += total - sum(
            len(run.tasks) for run in outcome.runs
        )
        return outcome

    def _dispatch(
        self, tasks: Iterator[Task], total: int, assembler: _Assembler
    ) -> None:
        """The one dispatch loop, pooled or in-process.

        At most ``window`` tasks are in flight — the back-pressure that
        makes early stopping effective: a stop wastes bounded work
        instead of having dispatched the whole sweep already.  In process
        each task runs as it is dispatched, so nothing is ever in flight.

        A pooled task is pickled here, before ``submit``: a spec that does
        not pickle raises ``PicklingError`` in this loop (and the pool is
        closed) instead of failing inside the pool's feeder thread.

        A worker's death fails every future in flight on its pool with
        ``BrokenProcessPool``: each such task is recorded lost, the dead
        pool is closed, and the next submission builds a fresh one.
        """
        pooled = self.workers > 1 and total > 1
        if pooled:
            from concurrent.futures import FIRST_COMPLETED, wait
            from concurrent.futures.process import BrokenProcessPool

            self._ensure_pool(total)
        window = max(2 * self._pool_size, 4) if pooled else 1

        pending: Dict[Any, Tuple[Task, Any]] = {}  # future -> task, pool

        def lose(task: Task, pool) -> None:
            # No retry: a spec that crashed one worker would crash the next.
            assembler.lose(task)
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

        try:
            while True:
                while len(pending) < window and not assembler.stop:
                    task = next(tasks, None)
                    if task is None:
                        break
                    self.stats["tasks_dispatched"] += 1
                    if not pooled:
                        assembler.offer(run_task(*task))
                        continue
                    blob = pickle.dumps(task, _PICKLE_PROTOCOL)
                    if self.track_task_bytes:
                        self.stats["task_bytes"] += len(blob)
                    if self._pool is None:
                        self._ensure_pool(total)
                    pool = self._pool
                    try:
                        future = pool.submit(_run_pickled, blob)
                    except BrokenProcessPool:  # died before this task
                        lose(task, pool)
                    else:
                        pending[future] = (task, pool)
                if not pending:
                    return
                for future in wait(pending, return_when=FIRST_COMPLETED)[0]:
                    task, pool = pending.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        lose(task, pool)
                    else:
                        assembler.offer(result)
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
) -> Union[List[ScenarioResult], SweepOutcome]:
    """Run ``spec`` across parameter overrides and seeds.

    Paired seeds fall out of the stream discipline: within one spec,
    every discipline sees the same arrivals; across specs that share a
    seed, flows with the same names see the same arrivals too (streams
    are keyed by flow name only).  The sweep runs on a transient
    :class:`SweepExecutor`; build one directly to reuse its pool across
    sweeps.

    Args:
        over: iterable of field-override mappings (or whole specs).
        seeds: seeds to pair every override with.
        workers: process count; ``None``/``0``/``1`` runs serially.
        budget_seconds: optional wall-clock budget for each discipline
            simulation of a run (so a D-discipline run may spend up to D
            times this); runs with an over-budget simulation are reported
            ``budget_expired``.
        early_stop: optional predicate over the completed
            :class:`SweepRun` list; returning True stops dispatching
            further runs (reported ``stopped``).  See
            :func:`stop_when_ci_below`.
        on_result: streaming callback fired as each run finishes.

    Returns:
        Without ``budget_seconds`` or ``early_stop``: one
        :class:`ScenarioResult` per expanded run, in expansion order
        (override-major, seed-minor) regardless of worker scheduling —
        every run must complete, and a run whose worker died raises
        :class:`IncompleteSweepError` naming it.  With either: the full
        :class:`SweepOutcome`, whose entries record completed /
        budget-expired / stopped / worker-lost runs explicitly.
    """
    with SweepExecutor(
        workers=workers, budget_seconds=budget_seconds
    ) as executor:
        outcome = executor.run_sweep(
            spec,
            over=over,
            seeds=seeds,
            early_stop=early_stop,
            on_result=on_result,
        )
    if budget_seconds is None and early_stop is None:
        return outcome.require_complete()
    return outcome
