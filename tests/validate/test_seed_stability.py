"""Seed stability: generated specs regenerate bit-identically.

The generators' whole value is that a ``gen_seed`` *is* the scenario:
the same seed must produce the same frozen spec in this process, after a
JSON round trip, and in a completely fresh interpreter (no shared module
state, no hash randomization leakage).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenario import ScenarioSpec, TopologySpec, generators

SRC = str(Path(__file__).resolve().parents[2] / "src")

FAMILIES = {
    "random_graph": dict(gen_seed=7),
    "scale_free": dict(gen_seed=3),
    "wan_path": dict(gen_seed=5),
    "access_core": dict(gen_seed=9),
    "wan_guaranteed": dict(gen_seed=2),
}


def build(family, **overrides):
    kwargs = dict(FAMILIES[family])
    kwargs.update(overrides)
    return getattr(generators, family)(duration=10.0, **kwargs)


class TestRoundTrip:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_topology_json_round_trips_bit_identically(self, family):
        topology = build(family).topology
        payload = json.dumps(topology.to_dict())
        clone = TopologySpec.from_dict(json.loads(payload))
        assert clone == topology
        # And the serialized form itself is stable (float repr included).
        assert json.dumps(clone.to_dict()) == payload

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_full_spec_json_round_trips(self, family):
        spec = build(family)
        clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_same_seed_regenerates_identically_in_process(self, family):
        assert build(family) == build(family)

    def test_different_seeds_differ(self):
        a = generators.random_graph(gen_seed=1, duration=10.0)
        b = generators.random_graph(gen_seed=2, duration=10.0)
        assert a.topology != b.topology


class TestCrossProcessStability:
    """A fresh interpreter samples the exact same spec from the seed."""

    @pytest.mark.parametrize("family", ["random_graph", "wan_guaranteed"])
    def test_subprocess_regeneration_bit_identical(self, family):
        spec = build(family)
        code = (
            "import json, sys\n"
            "from repro.scenario import generators\n"
            f"spec = generators.{family}("
            f"duration=10.0, **{FAMILIES[family]!r})\n"
            "json.dump(spec.to_dict(), sys.stdout, sort_keys=True)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": SRC, "PYTHONHASHSEED": "random"},
        ).stdout
        assert json.loads(out) == json.loads(
            json.dumps(spec.to_dict(), sort_keys=True)
        )
        # Byte-for-byte, not merely structurally equal.
        assert out == json.dumps(spec.to_dict(), sort_keys=True)

    def test_keyed_draws_ignore_pythonhashseed(self):
        """A ``gen:leaf-spine`` population — rates (hence every ECMP
        choice, through the normalisation factor), link paths and on/off
        phases — regenerates byte-for-byte under two hash seeds: the
        per-flow key is ``blake2b``, never ``hash()``."""
        code = (
            "import json, sys\n"
            "from repro.fluid import FluidSimulation\n"
            "from repro.scenario import registry\n"
            "spec = registry.build('gen:leaf-spine', gen_seed=3, seed=5,\n"
            "    leaves=6, spines=3, hosts_per_leaf=4, num_flows=400,\n"
            "    duration=5.0)\n"
            "sim = FluidSimulation(spec, spec.disciplines[0])\n"
            "json.dump({'spec': spec.to_dict(), 'paths': sim.paths,\n"
            "    'phase': sim.phase}, sys.stdout, sort_keys=True)\n"
        )
        outs = [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed},
            ).stdout
            for hash_seed in ("0", "12345")
        ]
        assert outs[0] == outs[1]
        payload = json.loads(outs[0])
        assert len(payload["phase"]) == len(payload["paths"]) == 400
        assert len({tuple(path) for path in payload["paths"]}) > 50
