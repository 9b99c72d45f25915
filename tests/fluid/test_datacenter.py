"""Datacenter generator + engine-seam tests."""

import json

import pytest

from repro.net.fabric import EcmpPaths
from repro.net.routing import RoutingError
from repro.scenario import ScenarioRunner, ScenarioSpec, datacenter, registry
from repro.scenario.datacenter import datacenter_flows
from repro.scenario.spec import LinkSpec, TopologySpec


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

    @pytest.mark.parametrize(
        "argument,value",
        [
            ("num_flows", 2.5),
            ("num_flows", "8"),
            ("num_flows", True),
            ("record_flows", 2.5),
        ],
    )
    def test_non_integer_sizes_are_named(self, argument, value):
        with pytest.raises(ValueError) as raised:
            registry.build("gen:fat-tree", k=4, **{argument: value})
        assert f"{argument} must be an integer" in str(raised.value)
        assert repr(value) in str(raised.value)

    @pytest.mark.parametrize(
        "argument,value",
        [
            ("mix", ()),
            ("mix", (("datagram", -0.5), ("predicted_high", 1.5))),
            ("mix", (("datagram", 0.0), ("predicted_low", 0))),
            ("mix", (("datagram", float("nan")),)),
            ("mix", ("datagram",)),
            ("packet_size_bits", 0),
            ("packet_size_bits", -1000),
            ("packet_size_bits", 1000.5),
            ("packet_size_bits", True),
        ],
    )
    def test_bad_population_arguments_fail_before_any_draw(
        self, monkeypatch, argument, value
    ):
        def no_draws(*_args):
            raise AssertionError("drew from the placement stream")

        topology = registry.build("gen:leaf-spine", num_flows=8).topology
        monkeypatch.setattr(datacenter, "_rng", no_draws)
        with pytest.raises(ValueError) as raised:
            datacenter_flows(topology, 1, num_flows=8, **{argument: value})
        assert str(raised.value).startswith(f"{argument} ")
        assert repr(value) in str(raised.value)

    @pytest.mark.parametrize("ecmp_seed", [1, None])
    def test_unroutable_pair_names_the_first_such_flow(self, ecmp_seed):
        hosts = [("h1", "S1"), ("h2", "S2")]
        one_way = TopologySpec.graph(
            nodes=["S1", "S2"], links=[LinkSpec(src="S2", dst="S1")],
            host_attachments=hosts,
        )
        both_ways = TopologySpec.graph(
            nodes=["S1", "S2"],
            links=[LinkSpec(src="S2", dst="S1"), LinkSpec(src="S1", dst="S2")],
            host_attachments=hosts,
        )
        # Placements do not depend on the links: the routable twin shows
        # which flow is the first to need the missing S1 -> S2 link.
        placed = datacenter_flows(both_ways, 1, num_flows=10,
                                  ecmp_seed=ecmp_seed)
        first = next(f.name for f in placed if f.source_host == "h1")
        with pytest.raises(
            RoutingError, match=f"^flow '{first}': no route from h1 to h2$"
        ):
            datacenter_flows(one_way, 1, num_flows=10, ecmp_seed=ecmp_seed)

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
