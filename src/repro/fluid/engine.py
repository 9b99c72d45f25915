"""Engine selection seam: route a spec to the packet or fluid engine.

The spec carries ``engine="packet"|"fluid"`` and the environment can
override it (``REPRO_ENGINE=fluid``): the same spec file or generated
scenario can be re-run on the other engine without edits,
which is how the cross-validation goldens and the crossover benchmark
drive both.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.scenario.spec import ENGINE_KINDS, ScenarioSpec

_ENGINE_ENV = "REPRO_ENGINE"


def effective_engine(spec: ScenarioSpec) -> str:
    """The engine this spec will actually run on: the ``REPRO_ENGINE``
    environment override when set, else ``spec.engine``."""
    env = os.environ.get(_ENGINE_ENV, "").strip().lower()
    if env:
        if env not in ENGINE_KINDS:
            raise ValueError(
                f"{_ENGINE_ENV}={env!r} is not one of {ENGINE_KINDS}"
            )
        return env
    return spec.engine


def run_fluid_discipline(spec: ScenarioSpec, options=None):
    """Run ``spec`` (already narrowed to one discipline) on the fluid
    engine and return the packet-shaped
    :class:`~repro.scenario.runner.DisciplineRunResult`."""
    from repro.fluid.model import FluidSimulation

    sim = FluidSimulation(spec, spec.disciplines[0], options=options)
    return sim.run().collect()
