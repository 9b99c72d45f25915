"""What the benchmark of record reads about the engines.

There is one event engine and no environment switch.
``benchmarks/e2e/child.py`` still records ``backend_info()["engine"]``
and resolves the fluid backend through ``FluidOptions.from_env()``, so
both stay callable and answer as if no variable existed.
"""

from repro.fluid.model import FluidOptions
from repro.sim import backend_info


def test_benchmark_surface_reads_no_environment(monkeypatch):
    monkeypatch.setenv("REPRO_FLUID_BACKEND", "numpy")
    assert backend_info() == {"engine": "pure-python"}
    assert FluidOptions.from_env() == FluidOptions()
