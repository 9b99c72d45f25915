"""The discrete-event simulation engine.

A deliberately small, fast core: a queue of plain
``(time, priority, seq, action)`` tuples, a clock, and run-until helpers.
Everything else in the library (links, sources, schedulers, measurement) is
built as callbacks on top of this loop.

Design notes
------------
* **Determinism.**  Events at equal times fire in scheduling order (see
  :mod:`repro.sim.events`).  Combined with seeded random streams
  (:mod:`repro.sim.randomness`) this makes whole experiments replayable.
* **Two scheduling paths.**  :meth:`PySimulator.schedule` /
  :meth:`PySimulator.schedule_at` are the allocation-free fast path: they
  push one tuple and return nothing.  The minority of callers that need to
  cancel (retransmission timers, periodic samplers, scheduler wake-ups) use
  :meth:`PySimulator.schedule_handle` / :meth:`PySimulator.schedule_handle_at`,
  which box the callback in a one-cell list and return an
  :class:`~repro.sim.events.EventHandle`.  Both paths share one sequence
  counter, so same-time ordering is FIFO across them.
* **Lazy cancellation, bounded.**  ``EventHandle.cancel()`` swaps the cell
  to ``None``; the queue pop skips such entries.  This keeps cancel O(1).
  Dead cells are counted, and when they outnumber the live entries the
  queue is compacted in place, so timer-churn workloads (cancel/re-arm far
  more often than fire) cannot grow the queue without bound.
* **One event store.**  Pending events live in a binary heap of tuples
  ordered on ``(time, priority, seq)``.
* **Batched-service seam.**  :meth:`PySimulator.peek_next_time`,
  :attr:`PySimulator.horizon`, and :meth:`PySimulator.advance_to` let the
  batched link path (:mod:`repro.net.port`) serve a burst of packets
  arithmetically inside one event, advancing the clock only while it can
  prove no other event (and no ``run(until=...)`` window edge) could fire
  in between — which is exactly when the engine itself would have done
  nothing else.
* **Optional compiled core.**  If the C accelerator
  (``repro.sim._engine_c``, built by ``setup.py build_ext``) is importable,
  the :func:`Simulator` factory returns its engine.  The pure-Python
  :class:`PySimulator` stays authoritative: ``REPRO_PURE_PYTHON=1`` forces
  it everywhere, and the golden suite must pass bit-identically under
  both.  See :func:`backend_info`.
* **Cheap inner loop.**  Validation (negative/NaN/infinite times) happens
  once at the public scheduling boundary as a single chained comparison;
  the run loop itself only pops tuples, advances the clock, and calls.
* **No processes/coroutines.**  The paper's model (sources emitting
  packets, links transmitting, switches enqueueing) maps naturally onto
  plain callbacks; avoiding a coroutine layer keeps the hot loop cheap.
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, Optional

from repro.sim.events import EventHandle

#: Compact the queue only past this many dead cells, so small simulations
#: never pay for a rebuild.
COMPACT_MIN_CANCELLED = 256


class SimulationError(RuntimeError):
    """Raised on misuse of the simulator (e.g. scheduling in the past)."""


def _env_flag(name: str) -> bool:
    """True unless unset, empty or one of ``0|false|off|no``."""
    value = os.environ.get(name, "").strip().lower()
    return value not in ("", "0", "false", "off", "no")


class PySimulator:
    """A discrete-event simulator with a floating-point clock in seconds.

    ``now`` is a plain attribute (not a property) so the per-packet layers
    read the clock without descriptor overhead; treat it as read-only.

    Args:
        start_time: initial clock value.
    """

    __slots__ = (
        "now",
        "horizon",
        "_queue",
        "_seq",
        "_running",
        "_events_processed",
        "_cancelled",
    )

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        #: The active ``run(until=...)`` stop time (``inf`` outside a
        #: bounded run).  The batched link path never advances the clock
        #: past it, so sliced run windows stay bit-identical.
        self.horizon = inf
        self._queue: list = []
        self._seq = 0
        self._running = False
        self._events_processed = 0
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Clock / diagnostics
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of events fired so far (diagnostics / benchmarks)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        """Dead (cancelled-but-unpopped) entries currently in the queue."""
        return self._cancelled

    # ------------------------------------------------------------------
    # Scheduling — fast path (no handle, no allocation beyond the tuple)
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        action: Callable[[], Any],
        priority: int = 0,
    ) -> None:
        """Schedule ``action`` to run ``delay`` seconds from now.

        Args:
            delay: non-negative offset from the current time.  A zero delay
                schedules the action for "later this instant": it runs after
                all callbacks currently executing but before time advances.
            action: zero-argument callable.
            priority: tie-break among same-time events; lower runs first.

        Raises:
            SimulationError: if ``delay`` is negative, NaN, or infinite.
        """
        if not 0.0 <= delay < inf:
            raise SimulationError(
                f"delay must be finite and non-negative, got {delay}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self.now + delay, priority, seq, action))

    def schedule_at(
        self,
        time: float,
        action: Callable[[], Any],
        priority: int = 0,
    ) -> None:
        """Schedule ``action`` at an absolute simulation time.

        Raises:
            SimulationError: if ``time`` precedes the current time or is
                NaN/infinite.
        """
        if not self.now <= time < inf:
            raise SimulationError(
                f"cannot schedule at {time} (current time {self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (float(time), priority, seq, action))

    # ------------------------------------------------------------------
    # Scheduling — cancellable variant
    # ------------------------------------------------------------------
    def schedule_handle(
        self,
        delay: float,
        action: Callable[[], Any],
        priority: int = 0,
    ) -> EventHandle:
        """Like :meth:`schedule`, but returns a cancellable handle.

        Use this only where cancellation is actually needed; it allocates a
        cell and a handle per call.
        """
        if not 0.0 <= delay < inf:
            raise SimulationError(
                f"delay must be finite and non-negative, got {delay}"
            )
        time = self.now + delay
        cell = [action]
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (time, priority, seq, cell))
        return EventHandle(time, cell, self)

    def schedule_handle_at(
        self,
        time: float,
        action: Callable[[], Any],
        priority: int = 0,
    ) -> EventHandle:
        """Like :meth:`schedule_at`, but returns a cancellable handle."""
        if not self.now <= time < inf:
            raise SimulationError(
                f"cannot schedule at {time} (current time {self.now})"
            )
        time = float(time)
        cell = [action]
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (time, priority, seq, cell))
        return EventHandle(time, cell, self)

    # ------------------------------------------------------------------
    # Queue hygiene
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """A still-queued handle was cancelled (called by EventHandle).

        When dead cells outnumber live entries (and there are enough of
        them to matter), rebuild the queue without them.  The rebuild is
        in place — the queue object's identity is preserved — because the
        run loop holds a local reference while executing actions.
        """
        cancelled = self._cancelled + 1
        self._cancelled = cancelled
        if cancelled >= COMPACT_MIN_CANCELLED and 2 * cancelled > len(self._queue):
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled entry from the queue immediately."""
        queue = self._queue
        alive = [
            entry
            for entry in queue
            if not (entry[3].__class__ is list and entry[3][0] is None)
        ]
        if len(alive) != len(queue):
            queue[:] = alive
            heapify(queue)
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Batched-service seam
    # ------------------------------------------------------------------
    def peek_next_time(self) -> float:
        """Time of the earliest live pending event (``inf`` when none).

        Dead (cancelled) entries surfacing at the head are removed on the
        way, so the answer is exact, not conservative.
        """
        queue = self._queue
        while queue:
            head = queue[0]
            action = head[3]
            if action.__class__ is list and action[0] is None:
                heappop(queue)
                self._cancelled -= 1
                continue
            return head[0]
        return inf

    def advance_to(self, time: float) -> None:
        """Jump the clock forward without firing anything.

        This is the engine's half of the batched link service contract:
        the caller (one currently-executing event) has verified that
        ``now <= time``, ``time <= horizon``, and ``time`` does not pass
        :meth:`peek_next_time` — i.e. the engine itself would have done
        nothing but advance the clock to ``time``.

        Each jump stands in for exactly one elided event (the completion
        the caller chose not to schedule), so it counts toward
        :attr:`events_processed` — keeping the diagnostic equal to the
        unbatched event schedule regardless of how bursts fell.
        """
        self.now = time
        self._events_processed += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next pending event.

        Returns:
            True if an event fired, False if the queue was empty.
        """
        queue = self._queue
        while queue:
            time, _, _, action = heappop(queue)
            if action.__class__ is list:
                fn = action[0]
                if fn is None:
                    self._cancelled -= 1
                    continue  # cancelled; lazy deletion
                action[0] = None  # mark fired so handles report inactive
            else:
                fn = action
            self.now = time
            self._events_processed += 1
            fn()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Args:
            until: stop once the clock would pass this time.  Events scheduled
                exactly at ``until`` DO fire; the clock is left at ``until``
                if the queue drains earlier or the next event lies beyond it.
            max_events: optional safety valve on the number of events fired.
                Batched link service makes one event serve many packets, so
                this bounds *events*, not packets.

        Returns:
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        stop = inf if until is None else until
        self.horizon = stop
        limit = inf if max_events is None else max_events
        fired = 0
        try:
            queue = self._queue
            pop = heappop
            while queue:
                head = queue[0]
                time = head[0]
                if time > stop:
                    break
                pop(queue)
                action = head[3]
                if action.__class__ is list:
                    fn = action[0]
                    if fn is None:
                        self._cancelled -= 1
                        continue  # cancelled; lazy deletion
                    action[0] = None  # mark fired
                else:
                    fn = action
                self.now = time
                fired += 1
                fn()
                if fired >= limit:
                    break
        finally:
            self._running = False
            self.horizon = inf
            # Added as a delta, not assigned, so events fired by nested
            # step() calls inside actions stay counted.  The counter is
            # exact whenever the loop is not executing.
            self._events_processed += fired
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain.  Guarded by ``max_events``."""
        return self.run(until=None, max_events=max_events)

    def clear(self) -> None:
        """Drop all pending events (used when tearing down an experiment)."""
        self._queue.clear()
        self._cancelled = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PySimulator t={self.now:.6f} pending={len(self._queue)} "
            f"fired={self._events_processed}>"
        )


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------

#: Whether ``REPRO_PURE_PYTHON`` forced the pure-Python engine.  Read once
#: at import: backend selection is an import-time decision by design, so a
#: process never mixes engine backends mid-run.
PURE_PYTHON_FORCED = _env_flag("REPRO_PURE_PYTHON")

_COMPILED = None
if not PURE_PYTHON_FORCED:
    try:
        from repro.sim import _engine_c as _COMPILED  # type: ignore[attr-defined]
    except ImportError:
        _COMPILED = None
    else:
        # Hand the accelerator the canonical exception and handle types so
        # both backends raise/return exactly the same objects.
        _COMPILED._wire(SimulationError, EventHandle)


def Simulator(start_time: float = 0.0):
    """Build a simulation engine (factory).

    Returns the compiled core when it is importable, otherwise the
    authoritative :class:`PySimulator`.  ``REPRO_PURE_PYTHON=1`` disables
    the compiled core for the whole process.

    Args:
        start_time: initial clock value.
    """
    if _COMPILED is not None:
        return _COMPILED.CSimulator(start_time)
    return PySimulator(start_time)


def backend_info() -> dict:
    """Report which engine core this process uses.

    Also exported as :func:`repro.sim.backend_info`.
    """
    compiled = _COMPILED is not None
    return {
        "engine": "compiled-c" if compiled else "pure-python",
        "compiled_available": compiled,
        "compiled_module": getattr(_COMPILED, "__file__", None),
        "pure_python_forced": PURE_PYTHON_FORCED,
    }
