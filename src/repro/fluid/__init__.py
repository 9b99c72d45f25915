"""Flow-level (fluid) co-simulator for CSZ questions at 10k–1M flows.

See :mod:`repro.fluid.model` for the model and its validity envelope.
The scenario runner builds a :class:`FluidSimulation` for every spec
whose ``engine`` is ``"fluid"``.
"""

from repro.fluid.model import FluidOptions, FluidSimulation

__all__ = [
    "FluidOptions",
    "FluidSimulation",
]
