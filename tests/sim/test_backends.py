"""Backend selection: factory routing, backend_info, pure-Python forcing.

The ``Simulator`` factory picks the compiled core when
``repro.sim._engine_c`` is importable, and the authoritative
``PySimulator`` otherwise.  ``REPRO_PURE_PYTHON=1`` (import-time) forces
pure Python.  The compiled core must mirror the Python engine's public
surface — including validation errors and handle semantics — and fire a
randomized event script in exactly the Python engine's order.
"""

import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.sim import (
    EventHandle,
    PySimulator,
    SimulationError,
    Simulator,
    backend_info,
)

INFO = backend_info()


class TestBackendInfo:
    def test_report_shape(self):
        assert INFO["engine"] in ("compiled-c", "pure-python")
        assert isinstance(INFO["compiled_available"], bool)
        assert INFO["pure_python_forced"] in (True, False)

    def test_engine_matches_availability(self):
        assert INFO["engine"] == (
            "compiled-c" if INFO["compiled_available"] else "pure-python"
        )

    def test_pure_python_env_forces_py_engine(self):
        """REPRO_PURE_PYTHON is read at import, so each cell is a fresh
        process: ``1`` makes the factory return PySimulator even when the
        compiled core is built; ``off`` (like ``0``, ``false`` and
        ``no``) forces nothing."""
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        for value, forced in (("1", True), ("off", False)):
            code = (
                "from repro.sim import Simulator, PySimulator, backend_info\n"
                "info = backend_info()\n"
                f"assert info['pure_python_forced'] is {forced}, info\n"
                "pure = isinstance(Simulator(), PySimulator)\n"
                "assert pure == (info['engine'] == 'pure-python'), info\n"
                f"assert pure or not {forced}, info\n"
                "print('ok')\n"
            )
            env = dict(os.environ)
            env["PYTHONPATH"] = str(repo_root / "src")
            env["REPRO_PURE_PYTHON"] = value
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                cwd=str(repo_root),
            )
            assert result.returncode == 0, (value, result.stderr)
            assert result.stdout.strip() == "ok"


def run_script(sim, script_seed: int):
    """Drive a simulator through a randomized self-scheduling script.

    Callbacks log ``(now, label)``, schedule 0-2 further events (zero
    delays included, to stress same-time FIFO), occasionally via handles
    that later get cancelled.  The script's decisions come from a seeded
    RNG, so two engines that fire in the same order draw identically —
    any ordering divergence derails the logs immediately.
    """
    rng = random.Random(script_seed)
    log = []
    handles = []
    counter = [0]

    def make_action(label):
        def action():
            log.append((sim.now, label))
            for _ in range(rng.randint(0, 2)):
                counter[0] += 1
                child = f"{label}.{counter[0]}"
                delay = rng.choice([0.0, 0.0, 0.001, 0.1, 1.5]) * rng.random()
                priority = rng.randint(-1, 1)
                if len(log) < 400 or rng.random() < 0.05:
                    if rng.random() < 0.3:
                        handles.append(
                            sim.schedule_handle(
                                delay, make_action(child), priority=priority
                            )
                        )
                    else:
                        sim.schedule(delay, make_action(child), priority=priority)
            if handles and rng.random() < 0.25:
                handles.pop(rng.randrange(len(handles))).cancel()

        return action

    for i in range(20):
        sim.schedule(rng.random() * 2.0, make_action(f"root{i}"))
    sim.run(until=50.0, max_events=5000)
    return log, sim.events_processed


@pytest.mark.skipif(
    not INFO["compiled_available"], reason="compiled core not built"
)
class TestCompiledCoreContract:
    """The compiled engine's public surface mirrors PySimulator exactly."""

    def make(self):
        sim = Simulator()
        assert type(sim).__name__ == "CSimulator"
        return sim

    def test_validation_errors_are_simulation_errors(self):
        sim = self.make()
        with pytest.raises(SimulationError, match="finite and non-negative"):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError, match="finite and non-negative"):
            sim.schedule(math.nan, lambda: None)
        with pytest.raises(SimulationError, match="finite and non-negative"):
            sim.schedule(math.inf, lambda: None)
        sim2 = Simulator(start_time=10.0)
        with pytest.raises(SimulationError, match="cannot schedule at"):
            sim2.schedule_at(9.0, lambda: None)

    def test_handles_are_canonical_event_handles(self):
        sim = self.make()
        handle = sim.schedule_handle(1.0, lambda: None)
        assert isinstance(handle, EventHandle)
        assert handle.active
        assert handle.time == 1.0
        handle.cancel()
        assert not handle.active
        assert sim.cancelled_pending == 1

    def test_run_until_and_clock_parking(self):
        sim = self.make()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1.0))
        sim.schedule(3.0, lambda: fired.append(3.0))
        assert sim.run(until=2.0) == 2.0
        assert fired == [1.0]
        assert sim.now == 2.0
        assert sim.run(until=3.0) == 3.0  # event exactly at `until` fires
        assert fired == [1.0, 3.0]

    def test_run_is_not_reentrant(self):
        sim = self.make()
        failure = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                failure.append(str(exc))

        sim.schedule(0.0, reenter)
        sim.run_until_idle()
        assert failure == ["run() is not reentrant"]

    def test_horizon_visible_during_run(self):
        sim = self.make()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.horizon))
        sim.run(until=5.0)
        assert seen == [5.0]
        assert sim.horizon == math.inf

    def test_peek_next_time_and_advance_to(self):
        sim = self.make()
        assert sim.peek_next_time() == math.inf
        sim.schedule(2.0, lambda: None)
        dead = sim.schedule_handle(1.0, lambda: None)
        dead.cancel()
        assert sim.peek_next_time() == 2.0  # dead head popped on the way
        before = sim.events_processed
        sim.advance_to(1.5)
        assert sim.now == 1.5
        # The jump stands in for exactly one elided event.
        assert sim.events_processed == before + 1

    def test_exception_propagates_and_engine_reusable(self):
        sim = self.make()

        def boom():
            raise ValueError("boom")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, lambda: None)
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert sim.now == 1.0
        assert sim.horizon == math.inf
        sim.run_until_idle()  # reusable after the failure
        assert sim.now == 2.0

    def test_same_time_priority_and_fifo_order(self):
        sim = self.make()
        fired = []
        sim.schedule(1.0, lambda: fired.append("late"), priority=5)
        sim.schedule(1.0, lambda: fired.append("early"), priority=-5)
        sim.schedule(1.0, lambda: fired.append("mid-a"))
        sim.schedule(1.0, lambda: fired.append("mid-b"))
        sim.run_until_idle()
        assert fired == ["early", "mid-a", "mid-b", "late"]

    def test_nested_step_counts_once_each(self):
        sim = self.make()
        fired = []
        sim.schedule(2.0, lambda: fired.append("inner"))

        def outer():
            fired.append("outer")
            sim.step()

        sim.schedule(1.0, outer)
        sim.run_until_idle()
        assert fired == ["outer", "inner"]
        assert sim.events_processed == 2

    @pytest.mark.parametrize("script_seed", [1, 2, 3, 5, 11, 23])
    def test_randomized_script_fires_in_python_engine_order(self, script_seed):
        py_log, py_count = run_script(PySimulator(), script_seed)
        c_log, c_count = run_script(self.make(), script_seed)
        assert len(py_log) > 100  # the script actually did something
        assert c_log == py_log
        assert c_count == py_count
