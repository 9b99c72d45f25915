"""Flow-level (fluid) co-simulator for CSZ questions at 10k–1M flows.

See :mod:`repro.fluid.model` for the model and its validity envelope,
and :mod:`repro.fluid.engine` for the engine-selection seam the runner
and sweep executor dispatch through.
"""

from repro.fluid.engine import run_fluid_discipline
from repro.fluid.model import FluidOptions, FluidSimulation

__all__ = [
    "FluidOptions",
    "FluidSimulation",
    "run_fluid_discipline",
]
