"""Tests for the persistent sweep execution engine.

Covers the executor's contracts: the flattened (override × seed ×
discipline) task graph and its expansion order, one task form (a
single-discipline spec per task, run alike in workers and in process),
serial vs pooled bit-identity under every start method, explicit
budget-expired / stopped / worker-lost statuses, streaming ``on_result``
order, pool reuse, and a sweep that survives a killed worker.
"""

import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys

import pytest

import repro
from repro.scenario import (
    DisciplineSpec,
    IncompleteSweepError,
    ScenarioBuilder,
    SweepExecutor,
    expand,
    stop_when_ci_below,
    sweep,
)
from repro.scenario.executor import (
    BUDGET_EXPIRED,
    COMPLETED,
    STOPPED,
    WORKER_LOST,
    SweepOutcome,
    SweepRun,
    run_task,
)


def base_spec(duration=5.0, disciplines=None):
    builder = (
        ScenarioBuilder("executor-base")
        .single_link()
        .paper_flows(3)
        .duration(duration)
        .seed(1)
    )
    builder.disciplines(
        *(
            disciplines
            or (
                DisciplineSpec.fifo(),
                DisciplineSpec.fifoplus(),
                DisciplineSpec.wfq(equal_share_flows=3),
            )
        )
    )
    return builder.build()


class TestFlattenedGraph:
    def test_expansion_order_is_override_major_seed_minor(self):
        spec = base_spec()
        runs = expand(
            spec, over=[{"duration": 4.0}, {"duration": 6.0}], seeds=[1, 2]
        )
        assert [(run.duration, run.seed) for run in runs] == [
            (4.0, 1), (4.0, 2), (6.0, 1), (6.0, 2),
        ]

    def test_expand_equals_full_spec_construction(self):
        """Mapping arms replace fields then pin the seed; whole-spec arms
        replace the spec."""
        spec = base_spec()
        arm = spec.replace(name="arm-b", seed=7)
        over = [{"duration": 4.0}, arm, {}]
        assert expand(spec, over=over, seeds=[3, 5]) == [
            spec.replace(duration=4.0, seed=3),
            spec.replace(duration=4.0, seed=5),
            arm.replace(seed=3),
            arm.replace(seed=5),
            spec.replace(seed=3),
            spec.replace(seed=5),
        ]
        assert expand(spec, over=over) == [
            spec.replace(duration=4.0), arm, spec,
        ]

    def test_whole_spec_override_keeps_its_own_seed(self):
        spec = base_spec()
        arm = spec.replace(name="arm-b", seed=9)
        assert [run.seed for run in expand(spec, over=[{}, arm])] == [1, 9]

    def test_mapping_seed_key_is_the_run_seed(self):
        spec = base_spec()
        assert [run.seed for run in expand(spec, over=[{"seed": 4}])] == [4]

    def test_tasks_cover_every_run_discipline_pair(self):
        spec = base_spec()
        seen = []
        with SweepExecutor() as executor:
            outcome = executor.run_sweep(spec, seeds=[1, 2])
        for run in outcome.runs:
            for task in run.tasks:
                seen.append((task.run_index, task.discipline_index))
        assert seen == [
            (r, d) for r in range(2) for d in range(3)
        ]
        assert all(
            run.result.disciplines == ("FIFO", "FIFO+", "WFQ")
            for run in outcome.runs
        )

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            expand(base_spec(), over=[])
        with pytest.raises(ValueError):
            expand(base_spec(), seeds=[])


class TestTaskForm:
    def test_single_discipline_task_runs_like_the_runner(self):
        """A task is its run's spec cut to one discipline; it simulates
        exactly like that discipline run directly."""
        from repro.scenario.runner import ScenarioRunner

        (run_spec,) = expand(base_spec(), over=[{"duration": 4.0}], seeds=[2])
        task = run_task(
            run_spec.replace(disciplines=(run_spec.disciplines[0],))
        ).result
        direct = ScenarioRunner(run_spec).run_discipline("FIFO")
        assert task.comparable_dict() == direct.comparable_dict()

    def test_tracked_bytes_are_the_pickled_tasks(self):
        """Each pooled task ships its run's spec cut to one discipline,
        with its indices and budget, pickled once in the parent."""
        spec = base_spec()
        seeds = [1, 2]
        expected = 0
        for run_index, run_spec in enumerate(expand(spec, seeds=seeds)):
            for d, discipline in enumerate(run_spec.disciplines):
                task = (
                    run_spec.replace(disciplines=(discipline,)),
                    3 * run_index + d, run_index, d, None,
                )
                expected += len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
        with SweepExecutor(workers=2, track_task_bytes=True) as executor:
            executor.run_sweep(spec, seeds=seeds)
        assert executor.stats["task_bytes"] == expected
        assert executor.stats["base_bytes"] == 0


class TestSerialPooledIdentity:
    @pytest.fixture(scope="class")
    def serial_pooled_streamed(self):
        spec = base_spec(duration=8.0)
        seeds = [1, 2, 3, 4]
        serial = sweep(spec, seeds=seeds)
        with SweepExecutor(workers=3) as executor:
            pooled = executor.run_sweep(spec, seeds=seeds)
            streamed = []
            executor.run_sweep(
                spec, seeds=seeds, on_result=lambda run: streamed.append(run)
            )
        return serial, pooled, streamed

    def test_pooled_bit_identical_to_serial(self, serial_pooled_streamed):
        serial, pooled, _ = serial_pooled_streamed
        assert [r.comparable_dict() for r in serial] == [
            r.comparable_dict() for r in pooled.results
        ]

    def test_streamed_bit_identical_after_reassembly(
        self, serial_pooled_streamed
    ):
        serial, _, streamed = serial_pooled_streamed
        by_index = sorted(streamed, key=lambda run: run.index)
        assert [r.comparable_dict() for r in serial] == [
            run.result.comparable_dict() for run in by_index
        ]

    def test_pooled_ran_in_workers(self, serial_pooled_streamed):
        _, pooled, _ = serial_pooled_streamed
        pids = {
            run_result.worker_pid
            for sweep_run in pooled.runs
            for run_result in sweep_run.result.runs
        }
        assert os.getpid() not in pids


class TestBudgets:
    def test_zero_budget_expires_every_run(self):
        outcome = sweep(base_spec(), seeds=[1, 2], budget_seconds=0.0)
        assert outcome.counts == {
            COMPLETED: 0,
            BUDGET_EXPIRED: 2,
            STOPPED: 0,
            WORKER_LOST: 0,
        }
        for run in outcome.runs:
            assert run.result is None
            assert run.tasks  # the attempt is recorded...
            assert all(t.status == BUDGET_EXPIRED for t in run.tasks)
            # ...including how far the simulation clock got.
            assert all(0 < t.sim_seconds < run.spec.duration for t in run.tasks)
        assert outcome.results == []

    def test_generous_budget_completes_bit_identically(self):
        """Budgeted (sliced) execution of a run that fits its budget is
        bit-identical to unbudgeted execution — slicing fires the same
        event sequence."""
        spec = base_spec()
        unbudgeted = sweep(spec, seeds=[1, 2])
        budgeted = sweep(spec, seeds=[1, 2], budget_seconds=1e9)
        assert budgeted.counts[COMPLETED] == 2
        assert [r.comparable_dict() for r in unbudgeted] == [
            r.comparable_dict() for r in budgeted.results
        ]

    def test_pooled_budget_expiry_reported(self):
        with SweepExecutor(workers=2, budget_seconds=0.0) as executor:
            outcome = executor.run_sweep(base_spec(), seeds=[1, 2])
        assert outcome.counts[BUDGET_EXPIRED] == 2
        assert executor.stats["tasks_budget_expired"] == 6


class TestArgumentChecks:
    """A bad worker count or budget fails loudly instead of running
    serially, truncating, or expiring every run (or none)."""

    @pytest.mark.parametrize("workers", [None, 0, 1, 2])
    def test_serial_and_pooled_counts_accepted(self, workers):
        assert SweepExecutor(workers=workers).workers == (workers or 0)

    @pytest.mark.parametrize("workers", [-3, -1, 2.7, 2.0, True, "2"])
    def test_bad_workers_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            SweepExecutor(workers=workers)

    @pytest.mark.parametrize(
        "budget", [-1.0, -1e-9, float("nan"), float("inf"), True, "5"]
    )
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="budget_seconds"):
            SweepExecutor(budget_seconds=budget)
        with pytest.raises(ValueError, match="budget_seconds"):
            sweep(base_spec(), seeds=[1], budget_seconds=budget)

    def test_sweep_and_runner_check_before_running(self):
        with pytest.raises(ValueError, match="workers"):
            sweep(base_spec(), seeds=[1], workers=-4)
        with pytest.raises(ValueError, match="budget_seconds"):
            sweep(base_spec(), seeds=[1], budget_seconds=-1)
        with pytest.raises(ValueError, match="workers"):
            repro.ScenarioRunner(base_spec()).run(workers=-2)


class TestEarlyStopping:
    def test_serial_stop_after_two_runs(self):
        outcome = sweep(
            base_spec(),
            seeds=[1, 2, 3, 4, 5],
            early_stop=lambda completed: len(completed) >= 2,
        )
        assert [run.status for run in outcome.runs] == [
            COMPLETED, COMPLETED, STOPPED, STOPPED, STOPPED,
        ]
        # Stopped runs are explicit entries, not silently missing.
        assert len(outcome.runs) == 5
        assert all(run.result is None for run in outcome.with_status(STOPPED))
        assert len(outcome.results) == 2

    def test_pooled_stop_leaves_tail_undispatched(self):
        with SweepExecutor(workers=2) as executor:
            outcome = executor.run_sweep(
                base_spec(),
                seeds=list(range(1, 13)),
                early_stop=lambda completed: len(completed) >= 2,
            )
            skipped = executor.stats["tasks_skipped"]
        assert outcome.counts[COMPLETED] >= 2
        assert outcome.counts[STOPPED] >= 1
        assert skipped > 0
        # Whatever completed is still bit-identical to a serial run of
        # the same seeds.
        for run in outcome.with_status(COMPLETED):
            serial = sweep(base_spec(), seeds=[run.spec.seed])[0]
            assert run.result.comparable_dict() == serial.comparable_dict()

    def test_stop_when_ci_below_closes_on_stable_metric(self):
        predicate = stop_when_ci_below(
            lambda result: 10.0, rel_half_width=0.05, min_runs=3
        )
        outcome = sweep(
            base_spec(), seeds=list(range(1, 9)), early_stop=predicate
        )
        # A zero-variance metric closes at exactly min_runs.
        assert outcome.counts[COMPLETED] == 3
        assert outcome.counts[STOPPED] == 5

    def test_stop_when_ci_below_zero_mean_zero_variance_closes(self):
        """An all-zero estimand is a width-0 interval: stop, don't run
        the whole ladder."""
        predicate = stop_when_ci_below(
            lambda result: 0.0, rel_half_width=0.05, min_runs=3
        )
        outcome = sweep(
            base_spec(), seeds=list(range(1, 9)), early_stop=predicate
        )
        assert outcome.counts[COMPLETED] == 3

    def test_stop_when_ci_below_needs_min_runs(self):
        calls = []

        def metric(result):
            calls.append(result.seed)
            return float(result.seed)  # high relative variance

        predicate = stop_when_ci_below(metric, rel_half_width=1e-9, min_runs=2)
        outcome = sweep(
            base_spec(), seeds=list(range(1, 5)), early_stop=predicate
        )
        assert outcome.counts[COMPLETED] == 4  # never closed
        with pytest.raises(ValueError):
            stop_when_ci_below(lambda r: 0.0, min_runs=1)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"rel_half_width": 0.0}, "rel_half_width"),
            ({"rel_half_width": -0.1}, "rel_half_width"),
            ({"rel_half_width": float("nan")}, "rel_half_width"),
            ({"rel_half_width": float("inf")}, "rel_half_width"),
            ({"z": 0.0}, "z"),
            ({"z": -1.96}, "z"),
            ({"z": float("nan")}, "z"),
        ],
    )
    def test_stop_when_ci_below_rejects_degenerate_interval(
        self, kwargs, name
    ):
        """A width that can never close runs the ladder to its cap; a
        non-positive z closes it at once.  Both are caller errors."""
        with pytest.raises(ValueError, match=f"^{name} "):
            stop_when_ci_below(lambda r: 1.0, **kwargs)


class TestStreaming:
    def test_serial_on_result_order_is_expansion_order(self):
        order = []
        sweep(
            base_spec(),
            over=[{"duration": 4.0}, {"duration": 6.0}],
            seeds=[1, 2],
            on_result=lambda run: order.append(run.index),
            budget_seconds=1e9,  # exercise the outcome-returning path too
        )
        assert order == [0, 1, 2, 3]

    def test_pooled_on_result_fires_once_per_run(self):
        streamed = []
        with SweepExecutor(workers=3) as executor:
            outcome = executor.run_sweep(
                base_spec(),
                seeds=[1, 2, 3, 4],
                on_result=lambda run: streamed.append(run.index),
            )
        assert sorted(streamed) == [0, 1, 2, 3]
        assert outcome.counts[COMPLETED] == 4

    def test_on_result_sees_budget_expired_runs(self):
        statuses = []
        sweep(
            base_spec(),
            seeds=[1, 2],
            budget_seconds=0.0,
            on_result=lambda run: statuses.append(run.status),
        )
        assert statuses == [BUDGET_EXPIRED, BUDGET_EXPIRED]


class TestPersistentPool:
    def test_pool_reused_across_sweeps_of_same_base(self):
        spec = base_spec()
        with SweepExecutor(workers=2) as executor:
            executor.run_sweep(spec, seeds=[1, 2])
            first_pool = executor._pool
            executor.run_sweep(spec, seeds=[3, 4])
            assert executor._pool is first_pool
            assert executor.stats["pools_created"] == 1

    def test_pool_reused_across_different_base_specs(self):
        """Tasks carry their own specs, so a pool holds nothing of the
        sweep it served: a sweep of another base spec reuses it, and
        still matches serial execution."""
        other = base_spec(duration=6.0, disciplines=(DisciplineSpec.fifo(),))
        with SweepExecutor(workers=2) as executor:
            executor.run_sweep(base_spec(), seeds=[1, 2])
            first_pool = executor._pool
            pooled = executor.run_sweep(other, seeds=[1, 2])
            assert executor._pool is first_pool
            assert executor.stats["pools_created"] == 1
        assert [r.comparable_dict() for r in pooled.results] == [
            r.comparable_dict() for r in sweep(other, seeds=[1, 2])
        ]

    def test_pool_sized_to_task_count_and_grows(self):
        spec = base_spec()
        with SweepExecutor(workers=8) as executor:
            executor.run_sweep(spec, seeds=[1])  # 3 tasks
            assert executor._pool_size == 3
            executor.run_sweep(spec, seeds=[1, 2, 3])  # 9 tasks: regrow
            assert executor._pool_size == 8
            assert executor.stats["pools_created"] == 2
            executor.run_sweep(spec, seeds=[4])  # smaller again: keep pool
            assert executor.stats["pools_created"] == 2

    def test_task_bytes_not_measured_by_default(self):
        with SweepExecutor(workers=2) as executor:
            executor.run_sweep(base_spec(), seeds=[1, 2])
            assert executor.stats["task_bytes"] == 0

    def test_serial_executor_needs_no_pool(self):
        with SweepExecutor() as executor:
            outcome = executor.run_sweep(base_spec(), seeds=[1])
            assert executor._pool is None
        assert outcome.counts[COMPLETED] == 1


class TestWholeSpecArms:
    """Whole-spec overrides travel inside their tasks like any other."""

    def arms(self):
        spec = base_spec(disciplines=(DisciplineSpec.fifo(),))
        return spec, [
            spec.replace(name="arm-a", duration=4.0),
            spec.replace(name="arm-b", duration=6.0),
        ]

    def test_pooled_matches_serial_for_spec_arms(self):
        def strip_walls(payload):
            """Drop the runtime block (wall clock, worker pid): the
            simulation payload itself must be bit-identical."""
            if isinstance(payload, dict):
                return {
                    key: strip_walls(value)
                    for key, value in payload.items()
                    if key != "runtime" and "wall" not in key
                }
            if isinstance(payload, list):
                return [strip_walls(item) for item in payload]
            return payload

        spec, arms = self.arms()
        with SweepExecutor(workers=2) as executor:
            pooled = executor.run_sweep(spec, over=arms)
        with SweepExecutor() as executor:
            serial = executor.run_sweep(spec, over=arms)
        assert [strip_walls(r.result.to_dict()) for r in pooled.runs] == [
            strip_walls(r.result.to_dict()) for r in serial.runs
        ]


class TestSweepFunction:
    def test_plain_sweep_returns_result_list(self):
        results = sweep(base_spec(), seeds=[1, 2])
        assert [r.seed for r in results] == [1, 2]

    def test_budgeted_sweep_returns_outcome(self):
        outcome = sweep(base_spec(), seeds=[1], budget_seconds=1e9)
        assert outcome.counts[COMPLETED] == 1
        assert outcome.to_dict()["counts"][COMPLETED] == 1

    def test_pooled_sweep_hands_its_budget_to_the_executor(self):
        outcome = sweep(base_spec(), seeds=[1, 2], workers=2, budget_seconds=0.0)
        assert outcome.counts[BUDGET_EXPIRED] == 2
        assert outcome.counts[COMPLETED] == 0

    def test_transient_executor_leaves_no_worker(self):
        import multiprocessing

        before = {child.pid for child in multiprocessing.active_children()}
        sweep(base_spec(), seeds=[1, 2], workers=2)
        after = {child.pid for child in multiprocessing.active_children()}
        assert after <= before

    def test_executor_default_budget_is_honoured(self):
        """The budget a caller-owned executor was built with holds for
        every sweep it runs: runs over it are reported, not silently run
        unbounded."""
        with SweepExecutor(budget_seconds=0.0) as executor:
            first = executor.run_sweep(base_spec(), seeds=[1, 2])
            second = executor.run_sweep(base_spec(), seeds=[3])
            assert executor.stats["sweeps"] == 2
        assert first.counts[BUDGET_EXPIRED] == 2
        assert second.counts[BUDGET_EXPIRED] == 1


class TestRequireComplete:
    def test_names_every_incomplete_run(self):
        spec = base_spec()
        outcome = SweepOutcome(
            [
                SweepRun(0, spec, WORKER_LOST, None, ()),
                SweepRun(1, spec, BUDGET_EXPIRED, None, ()),
                SweepRun(2, spec, STOPPED, None, ()),
            ]
        )
        with pytest.raises(IncompleteSweepError) as caught:
            outcome.require_complete()
        assert caught.value.runs == (
            (0, WORKER_LOST), (1, BUDGET_EXPIRED), (2, STOPPED),
        )
        assert "3 of 3 sweep runs did not complete" in str(caught.value)
        assert "run 0 worker_lost" in str(caught.value)


# A sweep in a child process whose pool workers are SIGKILLed mid-sweep:
# by ``on_result`` on its first call (every start method runs callbacks in
# the parent), or, where a caller offers no callback, by a thread that
# waits for the pool's first worker.  Nothing is monkeypatched.
_KILL_HARNESS = r"""
import hashlib, json, multiprocessing, os, signal, sys, threading, time

from repro.scenario import ScenarioRunner, ScenarioSpec, SweepExecutor, sweep

mode, seeds = sys.argv[1], json.loads(sys.argv[2])
spec = ScenarioSpec.from_dict(json.loads(sys.stdin.read()))


def kill_workers():
    for child in multiprocessing.active_children():
        os.kill(child.pid, signal.SIGKILL)


def kill_on_first_result(run, fired=[]):
    if not fired:
        fired.append(run.index)
        kill_workers()


def kill_on_pool_start():
    while not multiprocessing.active_children():
        time.sleep(0.001)
    kill_workers()


def digest(result):
    blob = json.dumps(result.comparable_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


report = {}
if mode == "executor":
    with SweepExecutor(workers=2) as executor:
        outcome = executor.run_sweep(
            spec, seeds=seeds, on_result=kill_on_first_result
        )
    report["statuses"] = [run.status for run in outcome.runs]
    report["digests"] = {
        run.index: digest(run.result) for run in outcome.with_status("completed")
    }
    report["stats"] = executor.stats
else:
    from repro.experiments import generated
    from repro.scenario import IncompleteSweepError

    try:
        if mode == "sweep":
            sweep(spec, seeds=seeds, workers=2, on_result=kill_on_first_result)
        else:
            threading.Thread(target=kill_on_pool_start, daemon=True).start()
            if mode == "runner":
                ScenarioRunner(spec).run(workers=2)
            else:
                generated.run(
                    duration=6.0, warmup=1.0, seed=1, gen_seeds=seeds,
                    workers=2,
                )
    except IncompleteSweepError as exc:
        report["incomplete"] = [list(run) for run in exc.runs]
report["children"] = len(multiprocessing.active_children())
print(json.dumps(report))
"""

KILL_SEEDS = [1, 2, 3, 4, 5, 6]


def run_harness(script, args, spec, timeout=60.0):
    """Run ``script`` in a child interpreter in its own session, ``spec``
    on its stdin; kill the whole process group afterwards, so a hung
    sweep cannot outlive the test.  Returns the JSON of its last line."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(
            json.dumps(spec.to_dict()), timeout=timeout
        )
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


def run_kill_harness(mode, spec, seeds, timeout=60.0):
    return run_harness(
        _KILL_HARNESS, [mode, json.dumps(seeds)], spec, timeout=timeout
    )


def digest(result):
    blob = json.dumps(result.comparable_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class TestWorkerLoss:
    def test_sweep_survives_killed_workers(self):
        """SIGKILL both workers mid-sweep: the in-flight tasks are
        recorded lost, the pool is rebuilt once, every other run completes
        bit-identically to serial, and no process is left behind."""
        spec = base_spec()
        report = run_kill_harness("executor", spec, KILL_SEEDS)
        statuses = report["statuses"]
        assert len(statuses) == len(KILL_SEEDS)
        assert WORKER_LOST in statuses
        assert set(statuses) == {COMPLETED, WORKER_LOST}
        serial = sweep(spec, seeds=KILL_SEEDS)
        assert report["digests"] == {
            str(index): digest(serial[index])
            for index, status in enumerate(statuses)
            if status == COMPLETED
        }
        stats = report["stats"]
        assert stats["pools_created"] == 2
        assert stats["tasks_worker_lost"] >= 1
        assert (
            stats["tasks_completed"] + stats["tasks_worker_lost"]
            == 3 * len(KILL_SEEDS)
        )
        assert report["children"] == 0

    @pytest.mark.parametrize(
        "mode, seeds",
        [("sweep", KILL_SEEDS), ("runner", [1]), ("generated", [1, 2])],
    )
    def test_positional_readers_fail_loudly(self, mode, seeds):
        """sweep(), ScenarioRunner.run(workers=N) and the generated
        flagship read results by run position; a lost run raises one
        named error listing it, instead of a short or None result."""
        report = run_kill_harness(mode, base_spec(duration=20.0), seeds)
        incomplete = report["incomplete"]
        assert incomplete
        assert {status for _, status in incomplete} == {WORKER_LOST}
        assert report["children"] == 0


# A pooled sweep of one mapping arm and one whole-spec arm on 2 seeds
# under the start method named on the command line, against the same
# sweep run serially.
_START_METHOD_HARNESS = r"""
import json, multiprocessing, sys

from repro.scenario import ScenarioSpec, SweepExecutor

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    spec = ScenarioSpec.from_dict(json.loads(sys.stdin.read()))
    over = [{"duration": 4.0}, spec.replace(name="arm-b", duration=6.0)]
    payloads = {}
    for workers in (None, 2):
        with SweepExecutor(workers=workers) as executor:
            outcome = executor.run_sweep(spec, over=over, seeds=[1, 2])
        payloads[str(workers)] = [
            result.comparable_dict() for result in outcome.require_complete()
        ]
    print(json.dumps({
        "equal": payloads["None"] == payloads["2"],
        "runs": len(payloads["2"]),
        "children": len(multiprocessing.active_children()),
    }))
"""


class TestStartMethods:
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pooled_equals_serial(self, method):
        """Workers that import everything afresh (spawn; forkserver, the
        Linux default from Python 3.14) run tasks exactly like the serial
        loop: a task needs nothing but its own pickled spec."""
        report = run_harness(_START_METHOD_HARNESS, [method], base_spec())
        assert report == {"equal": True, "runs": 4, "children": 0}


# Pooled sweeps whose spec holds a discipline factory that cannot be
# pickled (a lambda): as its only discipline, or after picklable ones
# (so workers are running when the bad task comes up).  A pool handed
# such a task hangs in shutdown only now and then, so the sweep repeats.
_UNPICKLABLE_HARNESS = r"""
import json, multiprocessing, pickle, sys

from repro.scenario import DisciplineSpec, ScenarioSpec, SweepExecutor
from repro.sched.fifo import FifoScheduler

spec = ScenarioSpec.from_dict(json.loads(sys.stdin.read()))
custom = DisciplineSpec.custom(
    "lambda-FIFO", lambda sim, name, link: FifoScheduler()
)
disciplines = (custom,)
if sys.argv[1] == "last":
    disciplines = (*spec.disciplines, custom)
errors = []
for _ in range(10):
    try:
        with SweepExecutor(workers=2) as executor:
            executor.run_sweep(
                spec.replace(disciplines=disciplines), seeds=[1, 2]
            )
    except pickle.PicklingError as exc:
        errors.append(type(exc).__name__)
report = {
    "errors": errors,
    "children": len(multiprocessing.active_children()),
}
print(json.dumps(report))
"""


class TestUnpicklableTask:
    @pytest.mark.parametrize("position", ["alone", "last"])
    def test_raises_and_leaves_no_worker(self, position):
        """A task that does not pickle raises ``PicklingError`` in the
        parent and the pool is joined; handing it to the pool instead
        hangs its shutdown."""
        report = run_harness(
            _UNPICKLABLE_HARNESS, [position], base_spec(), timeout=30.0
        )
        assert report == {"errors": ["PicklingError"] * 10, "children": 0}
