"""Queue hygiene: cancelled handle cells must not grow the queue unboundedly.

Regression for the lazy-deletion leak: ``EventHandle.cancel()`` leaves a
dead cell in the event store until it surfaces at the head, so a workload
that cancels and re-arms timers far more often than it fires them used to
grow the queue without bound.  The engine now counts dead cells and
compacts when they dominate; these tests pin that bound on every backend.
"""

import pytest

from repro.sim import PySimulator
from repro.sim.engine import COMPACT_MIN_CANCELLED, backend_info

BACKENDS = [pytest.param(PySimulator, id="py-heap")]
if backend_info()["compiled_available"]:
    from repro.sim.engine import _COMPILED

    BACKENDS.append(
        pytest.param(lambda: _COMPILED.CSimulator(), id="compiled")
    )


@pytest.mark.parametrize("make_sim", BACKENDS)
class TestCancelChurn:
    def test_sustained_cancel_reschedule_stays_bounded(self, make_sim):
        """A timer re-armed 20k times with only a handful of live events
        must keep the queue near the live count, not near 20k."""
        sim = make_sim()
        handle = sim.schedule_handle(1000.0, lambda: None)
        for _ in range(20_000):
            handle.cancel()
            handle = sim.schedule_handle(1000.0, lambda: None)
        # Lazy deletion may leave up to ~2x the compaction threshold of
        # dead cells plus the live entry; 20k churns must not accumulate.
        assert sim.pending_events <= 2 * COMPACT_MIN_CANCELLED + 1
        assert sim.cancelled_pending <= 2 * COMPACT_MIN_CANCELLED

    def test_compaction_preserves_live_events(self, make_sim):
        """Compaction drops only dead cells: every live event still fires,
        in order, with the right count."""
        sim = make_sim()
        fired = []
        live = []
        for i in range(50):
            live.append(
                sim.schedule_handle(float(i + 1), lambda i=i: fired.append(i))
            )
        doomed = [
            sim.schedule_handle(2000.0, lambda: fired.append("dead"))
            for _ in range(3 * COMPACT_MIN_CANCELLED)
        ]
        for handle in doomed:
            handle.cancel()  # crosses the threshold -> compacts (twice)
        # Lazy deletion legitimately leaves a sub-threshold residue of
        # dead cells; everything above it must have been compacted away.
        assert sim.cancelled_pending < COMPACT_MIN_CANCELLED
        assert sim.pending_events == 50 + sim.cancelled_pending
        sim.run_until_idle()
        assert fired == list(range(50))
        assert sim.events_processed == 50

    def test_explicit_compact_is_idempotent(self, make_sim):
        sim = make_sim()
        handles = [
            sim.schedule_handle(5.0, lambda: None) for _ in range(10)
        ]
        for handle in handles[:4]:
            handle.cancel()
        sim.compact()
        assert sim.pending_events == 6
        sim.compact()
        assert sim.pending_events == 6
        assert sim.cancelled_pending == 0

    def test_cancel_after_compact_does_not_double_count(self, make_sim):
        """Cancelling a handle whose cell was already dropped by a compact
        must not skew the dead-cell counter negative or re-compact."""
        sim = make_sim()
        a = sim.schedule_handle(1.0, lambda: None)
        b = sim.schedule_handle(2.0, lambda: None)
        a.cancel()
        sim.compact()
        a.cancel()  # idempotent: the cell is already None
        assert sim.cancelled_pending == 0
        assert sim.pending_events == 1
        assert b.active
