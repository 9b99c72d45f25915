"""Semantics the fast-path engine rewrite must preserve.

The engine stores events as plain ``(time, priority, seq, action)`` tuples
with a boxed-cell variant for cancellable events.  These tests pin the
contract both paths share: deterministic same-time ordering (time, then
priority, then FIFO), cancel idempotence across the fire boundary,
``run(until=...)`` clock semantics, and observational equivalence of
``schedule`` and ``schedule_handle``.
"""

import math

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestSameTimeOrdering:
    def test_priority_then_fifo_across_both_paths(self, sim):
        """Interleaved schedule/schedule_handle events at one instant fire
        by priority first, then in scheduling order."""
        fired = []
        sim.schedule(1.0, lambda: fired.append("fast-p0-a"))
        sim.schedule_handle(1.0, lambda: fired.append("handle-p0-b"))
        sim.schedule(1.0, lambda: fired.append("fast-late"), priority=7)
        sim.schedule_handle(1.0, lambda: fired.append("handle-early"), priority=-7)
        sim.schedule(1.0, lambda: fired.append("fast-p0-c"))
        sim.run_until_idle()
        assert fired == [
            "handle-early",
            "fast-p0-a",
            "handle-p0-b",
            "fast-p0-c",
            "fast-late",
        ]

    def test_fifo_among_equals_is_scheduling_order(self, sim):
        fired = []
        for i in range(20):
            if i % 3 == 0:
                sim.schedule_handle(2.0, lambda i=i: fired.append(i))
            else:
                sim.schedule(2.0, lambda i=i: fired.append(i))
        sim.run_until_idle()
        assert fired == list(range(20))

    def test_step_respects_priority_and_fifo(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("b"), priority=1)
        sim.schedule(1.0, lambda: fired.append("a"), priority=0)
        assert sim.step()
        assert sim.step()
        assert fired == ["a", "b"]


class TestCancelThenFire:
    def test_cancel_then_fire_time_is_silent(self, sim):
        """A cancelled event's firing time passing produces nothing, and
        later cancels stay no-ops."""
        fired = []
        handle = sim.schedule_handle(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run(until=5.0)
        assert fired == []
        assert not handle.active
        handle.cancel()  # idempotent after the time has passed
        assert not handle.active

    def test_cancel_after_fire_is_noop(self, sim):
        fired = []
        handle = sim.schedule_handle(1.0, lambda: fired.append(1))
        sim.run_until_idle()
        assert fired == [1]
        handle.cancel()
        handle.cancel()
        assert not handle.active

    def test_nested_step_inside_action_stays_counted(self, sim):
        """An action draining a same-time event via step() must not lose
        that event from events_processed when run() finishes."""
        fired = []
        sim.schedule(1.0, lambda: (fired.append("outer"), sim.step()))
        sim.schedule(1.0, lambda: fired.append("inner"))
        sim.schedule(2.0, lambda: fired.append("later"))
        sim.run_until_idle()
        assert fired == ["outer", "inner", "later"]
        assert sim.events_processed == 3

    def test_cancelled_events_do_not_count_as_processed(self, sim):
        for _ in range(5):
            sim.schedule_handle(1.0, lambda: None).cancel()
        sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 1

    def test_cancel_inside_own_action_is_noop(self, sim):
        """An action cancelling its own (already-fired) handle is safe."""
        fired = []
        box = {}

        def action():
            fired.append(sim.now)
            box["handle"].cancel()

        box["handle"] = sim.schedule_handle(1.0, action)
        sim.run_until_idle()
        assert fired == [1.0]


class TestRunUntilClock:
    def test_clock_parks_at_until_with_pending_future_events(self, sim):
        sim.schedule(10.0, lambda: None)
        assert sim.run(until=4.0) == 4.0
        assert sim.now == 4.0
        assert sim.pending_events == 1

    def test_event_exactly_at_until_fires_and_clock_stays(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        assert sim.run(until=5.0) == 5.0
        assert fired == [5.0]

    def test_consecutive_runs_resume_where_stopped(self, sim):
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run(until=1.5)
        assert fired == [1.0]
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert sim.now == 10.0

    def test_schedule_relative_to_parked_clock(self, sim):
        """After run(until=T) parks the clock, delays are relative to T."""
        sim.run(until=7.0)
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [8.0]

    def test_past_and_nonfinite_times_rejected_at_the_boundary(self, sim):
        sim.run(until=3.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(2.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_handle(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_handle(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_handle(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_handle_at(2.0, lambda: None)


class TestScheduleVsHandleEquivalence:
    @staticmethod
    def _workload(sim, schedule):
        """A branching cascade driven through ``schedule``; returns the
        (time, label) trace."""
        trace = []

        def tick(depth, label):
            trace.append((sim.now, label))
            if depth < 4:
                schedule(0.25, lambda: tick(depth + 1, label + "l"))
                schedule(0.5, lambda: tick(depth + 1, label + "r"), 1)
        for i in range(3):
            schedule(0.1 * i, lambda i=i: tick(0, f"c{i}"))
        sim.run_until_idle()
        return trace

    def test_identical_firing_trace(self):
        fast_sim = Simulator()
        fast = self._workload(fast_sim, fast_sim.schedule)
        handle_sim = Simulator()
        handled = self._workload(handle_sim, handle_sim.schedule_handle)
        assert fast == handled
        assert fast_sim.events_processed == handle_sim.events_processed
        assert fast_sim.now == handle_sim.now


class TestBatchedServiceSeam:
    def test_horizon_is_until_during_a_run_and_inf_after(self, sim):
        seen = []

        def boom():
            raise ValueError("boom")

        sim.schedule(1.0, lambda: seen.append(sim.horizon))
        sim.schedule(2.0, boom)
        sim.schedule(3.0, lambda: seen.append(sim.horizon))
        with pytest.raises(ValueError, match="boom"):
            sim.run(until=5.0)
        # The failing event was the last to move the clock, and the
        # window closed with it.
        assert sim.now == 2.0
        assert sim.horizon == math.inf
        sim.run_until_idle()
        assert seen == [5.0, math.inf]

    def test_peek_skips_dead_heads_and_advance_to_counts_one_event(self, sim):
        assert sim.peek_next_time() == math.inf
        sim.schedule(2.0, lambda: None)
        sim.schedule_handle(1.0, lambda: None).cancel()
        assert sim.peek_next_time() == 2.0
        assert sim.cancelled_pending == 0  # the dead head was popped
        sim.advance_to(1.5)
        assert sim.now == 1.5
        # The jump stands in for exactly one elided event.
        assert sim.events_processed == 1
