"""Engine selection seam: route a spec to the packet or fluid engine.

The spec carries ``engine="packet"|"fluid"`` (the CLI's ``--engine`` sets
it): the same spec re-runs on the other engine with
``spec.replace(engine=...)``, which is how the cross-validation goldens and
the crossover benchmark drive both.
"""

from __future__ import annotations

from repro.scenario.spec import ScenarioSpec


def run_fluid_discipline(spec: ScenarioSpec, options=None):
    """Run ``spec`` (already narrowed to one discipline) on the fluid
    engine and return the packet-shaped
    :class:`~repro.scenario.runner.DisciplineRunResult`."""
    from repro.fluid.model import FluidSimulation

    sim = FluidSimulation(spec, spec.disciplines[0], options=options)
    return sim.run().collect()
