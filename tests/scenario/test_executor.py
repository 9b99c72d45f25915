"""Tests for the persistent sweep execution engine.

Covers the executor's contracts: the flattened (override × seed ×
discipline) task graph and its expansion order, delta-task reconstruction
matching full-spec construction, serial vs pooled bit-identity, explicit
budget-expired / stopped statuses, streaming ``on_result`` order, warm
pool reuse, and custom task functions for orchestrated scenarios.
"""

import os

import pytest

from repro.scenario import (
    DisciplineSpec,
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
    expand_deltas,
    resolve_run_spec,
    resolve_task_spec,
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
        deltas = expand_deltas(
            spec, over=[{"duration": 4.0}, {"duration": 6.0}], seeds=[1, 2]
        )
        assert [
            (override["duration"], seed) for override, seed in deltas
        ] == [(4.0, 1), (4.0, 2), (6.0, 1), (6.0, 2)]

    def test_deltas_match_expand(self):
        """expand() is exactly the reconstruction of the delta list."""
        spec = base_spec()
        over = [{"duration": 4.0}, spec.replace(name="arm-b", seed=7), {}]
        for seeds in (None, [3, 5]):
            specs = expand(spec, over=over, seeds=seeds)
            deltas = expand_deltas(spec, over=over, seeds=seeds)
            assert specs == [
                resolve_run_spec(spec, override, seed)
                for override, seed in deltas
            ]

    def test_whole_spec_override_keeps_its_own_seed(self):
        spec = base_spec()
        arm = spec.replace(name="arm-b", seed=9)
        deltas = expand_deltas(spec, over=[{}, arm])
        assert [seed for _, seed in deltas] == [1, 9]

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
            expand_deltas(base_spec(), over=[])
        with pytest.raises(ValueError):
            expand_deltas(base_spec(), seeds=[])


class TestDeltaReconstruction:
    def test_mapping_override_equals_full_spec_construction(self):
        spec = base_spec()
        override = {"duration": 7.0, "warmup": 1.0}
        run_spec = spec.replace(**override).replace(seed=5)
        for index in range(3):
            assert resolve_task_spec(spec, override, 5, index) == (
                run_spec.replace(disciplines=(run_spec.disciplines[index],))
            )

    def test_whole_spec_override_equals_full_spec_construction(self):
        spec = base_spec()
        arm = spec.replace(name="arm-b", duration=9.0)
        run_spec = arm.replace(seed=3)
        assert resolve_task_spec(spec, arm, 3, 1) == run_spec.replace(
            disciplines=(run_spec.disciplines[1],)
        )

    def test_reconstructed_task_runs_identically(self):
        """A worker-style delta rebuild simulates exactly like the spec
        the serial path materializes."""
        from repro.scenario.runner import ScenarioRunner

        spec = base_spec()
        task_spec = resolve_task_spec(spec, {"duration": 4.0}, 2, 0)
        direct = ScenarioRunner(
            spec.replace(duration=4.0, seed=2)
        ).run_discipline("FIFO")
        via_delta = run_task(task_spec).result
        assert via_delta.comparable_dict() == direct.comparable_dict()


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

    def test_pooled_on_result_covers_every_run_once(self):
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

    def test_pool_recycled_on_base_change(self):
        with SweepExecutor(workers=2) as executor:
            executor.run_sweep(base_spec(), seeds=[1, 2])
            executor.run_sweep(base_spec(duration=6.0), seeds=[1, 2])
            assert executor.stats["pools_created"] == 2

    def test_tasks_ship_as_compact_deltas(self):
        """Per-task payloads must be far smaller than the base spec the
        initializer ships once."""
        with SweepExecutor(workers=2, track_task_bytes=True) as executor:
            executor.run_sweep(base_spec(), seeds=list(range(1, 5)))
            stats = executor.stats
        per_task = stats["task_bytes"] / stats["tasks_dispatched"]
        per_worker_base = stats["base_bytes"] / 2
        assert per_task < per_worker_base / 5

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


class TestWholeSpecOverrideCache:
    """Whole-spec overrides ship once per worker (keyed by fingerprint),
    not once per task payload."""

    def arms(self):
        spec = base_spec(disciplines=(DisciplineSpec.fifo(),))
        return spec, [
            spec.replace(name="arm-a", duration=4.0),
            spec.replace(name="arm-b", duration=6.0),
        ]

    def test_payloads_carry_references_not_specs(self):
        spec, arms = self.arms()
        with SweepExecutor(workers=2, track_task_bytes=True) as executor:
            executor.run_sweep(spec, over=arms)
            stats = dict(executor.stats)
        # Two distinct whole specs x two workers shipped at pool start...
        assert stats["override_specs_shipped"] == 4
        assert stats["override_bytes"] > 0
        # ...so per-task payloads stay tiny despite whole-spec arms.
        per_task = stats["task_bytes"] / stats["tasks_dispatched"]
        assert per_task < stats["override_bytes"] / 4 / 5

    def test_duplicate_arms_ship_once(self):
        spec, arms = self.arms()
        with SweepExecutor(workers=2) as executor:
            executor.run_sweep(spec, over=[arms[0], arms[0], arms[0]])
            assert executor.stats["override_specs_shipped"] == 2  # x workers

    def test_pool_reused_when_override_set_shrinks(self):
        spec, arms = self.arms()
        with SweepExecutor(workers=2) as executor:
            executor.run_sweep(spec, over=arms)
            assert executor.stats["pools_created"] == 1
            # A subset of the already-shipped specs: same pool.
            executor.run_sweep(spec, over=[arms[0], arms[0]])
            assert executor.stats["pools_created"] == 1
            # A new whole spec forces a recycle.
            executor.run_sweep(
                spec,
                over=[
                    spec.replace(name="arm-c", duration=8.0),
                    spec.replace(name="arm-d", duration=9.0),
                ],
            )
            assert executor.stats["pools_created"] == 2

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


def _double_duration_payload(spec):
    """Module-level custom task (must pickle into workers)."""
    return {"name": spec.name, "seed": spec.seed, "duration": spec.duration}


class TestCustomTaskFn:
    def test_task_fn_gets_whole_run_spec(self):
        spec = base_spec()
        with SweepExecutor() as executor:
            outcome = executor.run_sweep(
                spec, seeds=[4, 5], task_fn=_double_duration_payload
            )
        assert [run.status for run in outcome.runs] == [COMPLETED, COMPLETED]
        assert [run.result for run in outcome.runs] == [None, None]
        assert [run.payloads[0]["seed"] for run in outcome.runs] == [4, 5]
        # One task per run: the function owns all disciplines.
        assert [len(run.tasks) for run in outcome.runs] == [1, 1]

    def test_task_fn_ladder_closes_on_payload_metric(self):
        """stop_when_ci_below reads the task payload when SweepRun.result
        is None (custom-task sweeps), so replication ladders close."""
        predicate = stop_when_ci_below(
            lambda payload: float(payload["duration"]),
            rel_half_width=0.5,
            min_runs=2,
        )
        with SweepExecutor() as executor:
            outcome = executor.run_sweep(
                base_spec(),
                seeds=list(range(1, 6)),
                task_fn=_double_duration_payload,
                early_stop=predicate,
            )
        assert outcome.counts[COMPLETED] == 2
        assert outcome.counts[STOPPED] == 3

    def test_task_fn_rejects_budget(self):
        """Budgets only bind the default task; silently dropping one
        would be a broken promise, so the combination is an error."""
        with SweepExecutor(budget_seconds=1.0) as executor:
            with pytest.raises(ValueError, match="task_fn"):
                executor.run_sweep(
                    base_spec(), seeds=[1], task_fn=_double_duration_payload
                )
            # Explicit budget is rejected the same way.
            with pytest.raises(ValueError, match="task_fn"):
                executor.run_sweep(
                    base_spec(),
                    seeds=[1],
                    task_fn=_double_duration_payload,
                    budget_seconds=5.0,
                )
            # Explicitly disabling the executor default is fine.
            outcome = executor.run_sweep(
                base_spec(),
                seeds=[1],
                task_fn=_double_duration_payload,
                budget_seconds=None,
            )
            assert outcome.counts[COMPLETED] == 1

    def test_task_fn_pooled(self):
        with SweepExecutor(workers=2) as executor:
            outcome = executor.run_sweep(
                base_spec(), seeds=[1, 2, 3], task_fn=_double_duration_payload
            )
        assert sorted(
            run.payloads[0]["seed"] for run in outcome.runs
        ) == [1, 2, 3]


class TestSweepFunction:
    def test_plain_sweep_returns_result_list(self):
        results = sweep(base_spec(), seeds=[1, 2])
        assert [r.seed for r in results] == [1, 2]

    def test_budgeted_sweep_returns_outcome(self):
        outcome = sweep(base_spec(), seeds=[1], budget_seconds=1e9)
        assert outcome.counts[COMPLETED] == 1
        assert outcome.to_dict()["counts"][COMPLETED] == 1

    def test_executor_default_budget_is_honoured(self):
        """A budget carried by a caller-owned executor must survive
        sweep(): runs over it are reported, not silently run unbounded."""
        from repro.scenario.executor import BUDGET_EXPIRED

        with SweepExecutor(budget_seconds=0.0) as executor:
            outcome = sweep(base_spec(), seeds=[1, 2], executor=executor)
        assert outcome.counts[BUDGET_EXPIRED] == 2  # outcome, not a list

    def test_explicit_budget_overrides_executor_default(self):
        with SweepExecutor(budget_seconds=0.0) as executor:
            outcome = sweep(
                base_spec(), seeds=[1], budget_seconds=1e9, executor=executor
            )
        assert outcome.counts[COMPLETED] == 1

    def test_caller_owned_executor_is_reused_and_left_open(self):
        spec = base_spec()
        with SweepExecutor(workers=2) as executor:
            sweep(spec, seeds=[1, 2], executor=executor)
            sweep(spec, seeds=[3, 4], executor=executor)
            assert executor.stats["sweeps"] == 2
            assert executor.stats["pools_created"] == 1
            assert executor._pool is not None
