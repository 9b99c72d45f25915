"""Discrete-event simulation substrate.

The paper's evaluation ran on a custom packet-level simulator written by
Lixia Zhang.  This subpackage is our from-scratch equivalent: an event
loop over plain ``(time, priority, seq, action)`` tuples with
deterministic tie-breaking and seeded random streams so
that every experiment in the reproduction is replayable bit-for-bit.

One event store (a binary heap) and an optional compiled core — see
:func:`backend_info` and the README's Performance section.  The
pure-Python engine is the authoritative implementation; the compiled
core must match it bit-for-bit.
"""

from repro.sim.engine import (
    PySimulator,
    SimulationError,
    Simulator,
    backend_info,
)
from repro.sim.events import EventHandle
from repro.sim.randomness import RandomStreams, StreamRandom

__all__ = [
    "Simulator",
    "PySimulator",
    "SimulationError",
    "EventHandle",
    "RandomStreams",
    "StreamRandom",
    "backend_info",
]
