"""Tests for the discrete-event engine: ordering, cancellation, guards."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_scheduling_order(self, sim):
        fired = []
        for name in "abcde":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run_until_idle()
        assert fired == list("abcde")

    def test_priority_breaks_same_time_ties(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("late"), priority=5)
        sim.schedule(1.0, lambda: fired.append("early"), priority=-5)
        sim.run_until_idle()
        assert fired == ["early", "late"]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [2.5]

    def test_zero_delay_runs_at_current_time(self, sim):
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: seen.append(sim.now)))
        sim.run_until_idle()
        assert seen == [1.0]

    def test_events_scheduled_during_execution_fire(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, lambda: chain(n + 1))

        sim.schedule(1.0, lambda: chain(0))
        sim.run_until_idle()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 4.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_infinite_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)

    def test_nan_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)

    def test_schedule_at_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule_handle(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run_until_idle()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule_handle(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert not handle.active

    def test_handle_reports_inactive_after_firing(self, sim):
        handle = sim.schedule_handle(1.0, lambda: None)
        assert handle.active
        sim.run_until_idle()
        assert not handle.active

    def test_cancel_mid_run(self, sim):
        fired = []
        later = sim.schedule_handle(2.0, lambda: fired.append("later"))
        sim.schedule(1.0, lambda: later.cancel())
        sim.run_until_idle()
        assert fired == []

    def test_schedule_handle_at_cancellable(self, sim):
        fired = []
        handle = sim.schedule_handle_at(2.0, lambda: fired.append(1))
        assert handle.time == 2.0
        handle.cancel()
        sim.run_until_idle()
        assert fired == []


class TestRun:
    def test_run_until_stops_the_clock_at_until(self, sim):
        sim.schedule(10.0, lambda: None)
        stopped_at = sim.run(until=5.0)
        assert stopped_at == 5.0
        assert sim.pending_events == 1

    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(1))
        sim.run(until=5.0)
        assert fired == [1]

    def test_run_with_empty_queue_advances_to_until(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_limits_execution(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_zero_budget_fires_nothing(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        assert sim.run(max_events=0) == 0.0
        assert sim.run(until=5.0, max_events=0) == 0.0
        assert fired == []
        assert sim.events_processed == 0
        assert sim.pending_events == 1

    def test_budget_stop_leaves_the_clock_at_the_last_fired_event(self, sim):
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule_at(t, lambda: None)
        # Three live events at or before `until` remain: parking the clock
        # at `until` would make the next run move it backwards.
        assert sim.run(until=10.0, max_events=1) == 1.0
        assert sim.now == 1.0
        assert sim.pending_events == 3

    def test_run_after_a_budget_stop_never_moves_the_clock_back(self, sim):
        clock = []
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule_at(t, lambda: clock.append(sim.now))
        sim.run(until=10.0, max_events=1)
        clock.append(sim.now)
        assert sim.run(until=10.0) == 10.0
        assert clock == [1.0, 1.0, 2.0, 3.0, 4.0]
        assert clock == sorted(clock)

    def test_budget_stop_with_only_dead_events_left_parks_at_until(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_handle_at(2.0, lambda: None).cancel()
        sim.schedule_at(20.0, lambda: None)
        # The one live event before `until` fired; what is left at or
        # before it is cancelled, so the window is done.
        assert sim.run(until=10.0, max_events=1) == 10.0

    def test_step_fires_single_event(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        assert sim.step()
        assert fired == ["a"]
        assert sim.step()
        assert not sim.step()

    def test_run_is_not_reentrant(self, sim):
        def recurse():
            sim.run(until=10.0)

        sim.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run_until_idle()

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 5

    def test_clear_drops_pending(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.clear()
        sim.run_until_idle()
        assert fired == []

    def test_start_time(self):
        sim = Simulator(start_time=100.0)
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [101.0]

    def test_exception_in_action_propagates_and_engine_survives(self, sim):
        sim.schedule(1.0, lambda: 1 / 0)
        fired = []
        sim.schedule(2.0, lambda: fired.append(1))
        with pytest.raises(ZeroDivisionError):
            sim.run_until_idle()
        # The failing event was consumed; the loop can continue afterwards.
        sim.run_until_idle()
        assert fired == [1]
