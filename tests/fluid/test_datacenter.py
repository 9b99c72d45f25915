"""Datacenter generator + engine-seam tests."""

import json

import pytest

from repro.fluid.engine import effective_engine
from repro.net.fabric import EcmpPaths
from repro.scenario import ScenarioRunner, ScenarioSpec, registry
from repro.scenario.generators import topology_routes


class TestDeterminism:
    def test_same_gen_seed_rebuilds_identical_spec(self):
        a = registry.build("gen:fat-tree", gen_seed=3, num_flows=200)
        b = registry.build("gen:fat-tree", gen_seed=3, num_flows=200)
        assert a.to_dict() == b.to_dict()

    def test_gen_seed_changes_population(self):
        a = registry.build("gen:fat-tree", gen_seed=3, num_flows=200)
        b = registry.build("gen:fat-tree", gen_seed=4, num_flows=200)
        assert a.to_dict() != b.to_dict()

    def test_leaf_spine_round_trips_through_json(self):
        spec = registry.build(
            "gen:leaf-spine", gen_seed=2, num_flows=100
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(payload) == spec


class TestPopulation:
    def test_default_population_is_16_per_host(self):
        spec = registry.build("gen:fat-tree", gen_seed=1, k=4)
        assert len(spec.flows) == 16 * 16

    def test_recorded_sample_is_bounded(self):
        spec = registry.build(
            "gen:fat-tree", gen_seed=1, num_flows=500, record_flows=32
        )
        assert sum(f.record for f in spec.flows) == 32

    @pytest.mark.parametrize(
        "argument,value",
        [
            ("target_utilization", 0),
            ("target_utilization", -0.5),
            ("target_utilization", float("nan")),
            ("target_utilization", float("inf")),
            ("record_flows", -1),
        ],
    )
    def test_bad_sizing_arguments_are_named(self, argument, value):
        with pytest.raises(ValueError) as raised:
            registry.build(
                "gen:leaf-spine", gen_seed=1, num_flows=50,
                **{argument: value},
            )
        assert argument in str(raised.value)
        assert repr(value) in str(raised.value)

    def test_recording_nothing_is_allowed(self):
        spec = registry.build(
            "gen:leaf-spine", gen_seed=1, num_flows=50, record_flows=0
        )
        assert not any(f.record for f in spec.flows)

    def test_hottest_link_sits_at_target_utilization(self):
        spec = registry.build(
            "gen:fat-tree", gen_seed=1, num_flows=400,
            target_utilization=0.85,
        )
        chooser = EcmpPaths(spec.topology, seed=spec.ecmp_seed)
        rates = {l.name: l.rate_bps for l in spec.topology.links}
        offered = {}
        for flow in spec.flows:
            nodes = chooser.path(
                flow.source_host, flow.dest_host, flow.name
            )
            for a, b in zip(nodes, nodes[1:]):
                name = f"{a}->{b}"
                if name in rates:
                    offered[name] = offered.get(name, 0.0) + (
                        flow.average_rate_pps * flow.packet_size_bits
                    )
        peak = max(offered[n] / rates[n] for n in offered)
        assert peak == pytest.approx(0.85, rel=1e-9)

    def test_ecmp_flag_controls_seed_field(self):
        with_ecmp = registry.build(
            "gen:fat-tree", gen_seed=5, num_flows=64
        )
        without = registry.build(
            "gen:fat-tree", gen_seed=5, num_flows=64, ecmp=False
        )
        assert with_ecmp.ecmp_seed == 5
        assert without.ecmp_seed is None

    def test_defaults_to_fluid_engine(self):
        spec = registry.build("gen:fat-tree", gen_seed=1, num_flows=64)
        assert spec.engine == "fluid"
        assert effective_engine(spec) == "fluid"


class TestTierOverrides:
    def test_core_tier_override_reaches_core_ports(self):
        spec = registry.build(
            "gen:fat-tree", gen_seed=1, k=4, num_flows=64,
            duration=2.0, tier_kinds={"core": "fifo"},
        )
        run = ScenarioRunner(spec).run_discipline("CSZ")
        ports = dict(run.port_disciplines)
        core = [n for n in ports if "C-" in n]
        assert core
        assert all(ports[n] == "fifo-core" for n in core)
        edge = [n for n in ports if "E-" in n and "C-" not in n]
        assert all(ports[n] == "CSZ" for n in edge)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            registry.build(
                "gen:fat-tree", gen_seed=1, num_flows=64,
                tier_kinds={"spine": "fifo"},
            )


class TestEngineSeam:
    def test_env_override_wins(self, monkeypatch):
        spec = registry.build("gen:fat-tree", gen_seed=1, num_flows=64)
        monkeypatch.setenv("REPRO_ENGINE", "packet")
        assert effective_engine(spec) == "packet"

    def test_bad_env_engine_rejected(self, monkeypatch):
        spec = registry.build("gen:fat-tree", gen_seed=1, num_flows=64)
        monkeypatch.setenv("REPRO_ENGINE", "quantum")
        with pytest.raises(ValueError, match="quantum"):
            effective_engine(spec)

    def test_engine_field_round_trips(self):
        spec = registry.build("gen:fat-tree", gen_seed=1, num_flows=64)
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.engine == "fluid"
        assert clone.ecmp_seed == spec.ecmp_seed

    def test_runner_dispatches_by_engine(self):
        spec = registry.build(
            "gen:fat-tree", gen_seed=1, k=4, num_flows=32,
            duration=2.0, ecmp=False,
        )
        fluid = ScenarioRunner(spec).run_discipline("CSZ")
        packet = ScenarioRunner(
            spec.replace(engine="packet")
        ).run_discipline("CSZ")
        # The fluid run advances flows per epoch; the packet run counts
        # simulator events, orders of magnitude more.
        assert packet.events_processed > 5 * fluid.events_processed
