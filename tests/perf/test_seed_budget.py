"""A seeding budget for the fluid build.

``random.Random.seed`` calls (sha512 of the string + a full 624-word
Mersenne initialisation each) made while a datacenter population is
generated and compiled for the fluid engine — a count, not a timing, so
it repeats exactly on any host.  Per-flow draws (ECMP branch choices,
on/off phases) come from ``KeyedDraws``; what may seed a generator is
per-*spec* work only — the placement stream, the record sample — so the
count must not depend on how many flows there are.

If this fails, somebody put a ``random.Random(...)`` or ``.seed(...)``
back inside a per-flow loop of the spec build or the fluid compile: on
``fluid_fabric`` two of those per flow were a quarter of the wall.
"""

import random

import pytest

from repro.fluid import FluidSimulation
from repro.scenario import registry


@pytest.fixture
def seed_calls(monkeypatch):
    calls = []
    seed = random.Random.seed

    def counting_seed(self, *args, **kwargs):
        calls.append(args)
        return seed(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counting_seed)
    return calls


def _build_and_compile(num_flows):
    spec = registry.build(
        "gen:fat-tree", k=8, num_flows=num_flows, engine="fluid"
    )
    sim = FluidSimulation(spec, spec.disciplines[0])
    assert len(sim.phase) == len(sim.paths) == num_flows
    return sim


def test_seeds_do_not_grow_with_the_flows(seed_calls):
    _build_and_compile(2000)
    at_2000 = len(seed_calls)
    del seed_calls[:]
    _build_and_compile(4000)
    assert len(seed_calls) == at_2000
    # The wrapper is live (the placement stream seeds at least once),
    # and the whole build stays in single digits.
    assert 1 <= at_2000 < 10, seed_calls
