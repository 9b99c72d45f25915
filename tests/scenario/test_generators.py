"""Generator unit tests: topology families, flow sizing, failure modes."""

import pytest

from repro.net.packet import ServiceClass
from repro.net.routing import RoutingError
from repro.scenario import (
    DisciplineSpec,
    GuaranteedRequest,
    ScenarioRunner,
    registry,
)
from repro.scenario.generators import (
    GEN_PREFIX,
    GUARANTEED_QUOTA,
    MAX_FLOWS,
    access_core,
    access_core_topology,
    generate_flows,
    generator_names,
    links_on_route,
    random_graph,
    random_graph_topology,
    scale_free,
    wan_guaranteed,
    wan_path,
    wan_path_topology,
    wfq_auto_rate,
)

# A seed whose unrepaired sparse sample is disconnected (pinned below).
DISCONNECTED_SEED = 1
SPARSE = dict(num_switches=6, edge_prob=0.08)


class TestRandomGraphTopology:
    def test_repaired_graph_is_strongly_connected(self):
        for gen_seed in (1, 5, 11):
            topology = random_graph_topology(gen_seed, num_switches=7)
            routing = topology.routes()
            for src in topology.host_names:
                for dst in topology.host_names:
                    if src != dst:
                        assert routing.path(src, dst)  # no RoutingError

    def test_one_host_per_switch(self):
        topology = random_graph_topology(4, num_switches=9)
        assert len(topology.host_attachments) == 9
        assert len(set(att.switch for att in topology.host_attachments)) == 9

    def test_scale_free_is_connected_and_hubby(self):
        topology = random_graph_topology(
            3, num_switches=12, scale_free=True
        )
        routing = topology.routes()
        for dst in topology.host_names[1:]:
            assert routing.path(topology.host_names[0], dst)
        # Preferential attachment concentrates degree on early nodes.
        out_degree = {}
        for link in topology.links:
            out_degree[link.src] = out_degree.get(link.src, 0) + 1
        assert max(out_degree.values()) >= 4

    def test_propagation_sampled_within_range(self):
        topology = random_graph_topology(
            2, num_switches=6, propagation_range=(0.004, 0.02)
        )
        for link in topology.links:
            assert 0.004 <= link.propagation_delay <= 0.02

    def test_crafted_seed_unrepaired_sample_is_disconnected(self):
        """Regression pin: the sparse sample really is disconnected, the
        generator raises a RoutingError *naming the flow* instead of
        hanging or emitting an unroutable spec."""
        with pytest.raises(RoutingError, match=r"generated flow gen-0"):
            random_graph(
                gen_seed=DISCONNECTED_SEED,
                repair=False,
                duration=5.0,
                **SPARSE,
            )

    def test_same_seed_repaired_builds_and_runs(self):
        spec = random_graph(
            gen_seed=DISCONNECTED_SEED,
            repair=True,
            duration=2.0,
            warmup=0.5,
            **SPARSE,
        )
        result = ScenarioRunner(spec).run()
        assert all(run.invariants_clean for run in result.runs)

    def test_unroutable_flow_on_handbuilt_spec_raises_at_build(self):
        """The spec layer backstop: a disconnected topology that slips
        past generation still fails fast at build, naming the flow."""
        topology = random_graph_topology(
            DISCONNECTED_SEED, repair=False, **SPARSE
        )
        spec = random_graph(
            gen_seed=DISCONNECTED_SEED, duration=5.0, **SPARSE
        ).replace(topology=topology)
        with pytest.raises(RoutingError, match=r"flow 'gen-"):
            ScenarioRunner(spec).build()


class TestWanAndAccessTopologies:
    def test_wan_path_propagation_dominates(self):
        topology = wan_path_topology(1, hops=5)
        assert len(topology.links) == 5
        tx_time = 1000 / topology.links[0].rate_bps
        for link in topology.links:
            assert link.propagation_delay >= 5 * tx_time

    def test_access_core_rates_asymmetric(self):
        topology = access_core_topology(1, num_leaves=5)
        leaf_rates = [
            link.rate_bps for link in topology.links if link.dst == "CORE"
        ]
        core = [link for link in topology.links if link.src == "CORE"]
        assert len(leaf_rates) == 5 and len(core) == 1
        assert all(rate < core[0].rate_bps for rate in leaf_rates)
        assert sum(leaf_rates) > core[0].rate_bps  # genuine fan-in


class TestFlowPopulation:
    def test_population_reaches_target_utilization(self):
        topology = random_graph_topology(5, num_switches=8)
        flows = generate_flows(topology, 5, target_utilization=0.85)
        routing = topology.routes()
        offered = {link.name: 0.0 for link in topology.links}
        rates = {link.name: link.rate_bps for link in topology.links}
        for flow in flows:
            for name in links_on_route(
                topology, routing, flow.source_host, flow.dest_host
            ):
                offered[name] += flow.average_rate_pps * flow.packet_size_bits
        bottleneck = max(offered[n] / rates[n] for n in offered)
        assert bottleneck >= 0.85
        # Sizing stops as soon as the target is crossed, so the final
        # flow overshoots by at most its own rate on one link.
        assert bottleneck <= 0.85 + 86_000 / min(rates.values())

    def test_population_mixes_service_classes(self):
        flows = random_graph(gen_seed=1, duration=5.0).flows
        classes = {flow.service_class for flow in flows}
        assert ServiceClass.PREDICTED in classes
        assert ServiceClass.DATAGRAM in classes
        priorities = {
            flow.priority_class
            for flow in flows
            if flow.service_class is ServiceClass.PREDICTED
        }
        assert priorities == {0, 1}

    def test_multihop_flows_seeded_first(self):
        spec = random_graph(gen_seed=2, duration=5.0)
        assert (spec.flows[0].hops or 0) >= 2
        assert sum(1 for f in spec.flows if (f.hops or 0) >= 2) >= 2

    def test_population_capped_when_target_unreachable(self):
        topology = wan_path_topology(1, hops=2)
        hosts = topology.host_names
        pairs = [
            (hosts[i], hosts[j])
            for i in range(len(hosts))
            for j in range(i + 1, len(hosts))
        ]
        flows = generate_flows(
            topology, 1, target_utilization=50.0, max_flows=40, pairs=pairs
        )
        assert len(flows) == 40

    def test_hops_metadata_matches_routes(self):
        spec = wan_path(gen_seed=1, duration=5.0)
        routing = spec.topology.routes()
        for flow in spec.flows:
            route = links_on_route(
                spec.topology, routing, flow.source_host, flow.dest_host
            )
            assert flow.hops == len(route)

    def test_pre_build_routes_equal_simulator_routes(self):
        """The generators' load sizing uses TopologySpec.routes /
        links_on_route; pin that they reproduce the built Network's
        routing exactly, so per-link offered-load and guaranteed-quota
        math can never diverge from the paths the simulator uses."""
        from repro.scenario import ScenarioRunner

        spec = random_graph(gen_seed=6, duration=2.0)
        context = ScenarioRunner(spec).build()
        routing = spec.topology.routes()
        hosts = spec.topology.host_names
        for src in hosts:
            for dst in hosts:
                if src == dst:
                    continue
                assert links_on_route(
                    spec.topology, routing, src, dst
                ) == tuple(context.net.link_names_on_path(src, dst))


class TestGuaranteedPlacement:
    def test_guaranteed_commitments_respect_quota(self):
        spec = wan_guaranteed(gen_seed=1, duration=5.0)
        routing = spec.topology.routes()
        committed = {link.name: 0.0 for link in spec.topology.links}
        rates = {link.name: link.rate_bps for link in spec.topology.links}
        for flow in spec.flows:
            if isinstance(flow.request, GuaranteedRequest):
                for name in links_on_route(
                    spec.topology, routing, flow.source_host, flow.dest_host
                ):
                    committed[name] += flow.request.clock_rate_bps
        for name in committed:
            assert committed[name] <= GUARANTEED_QUOTA * rates[name] + 1e-9

    def test_wfq_auto_rate_keeps_total_clock_under_capacity(self):
        spec = wan_guaranteed(gen_seed=1, duration=5.0)
        auto = dict(spec.disciplines[1].params)["auto_register_rate_bps"]
        routing = spec.topology.routes()
        for link in spec.topology.links:
            total = 0.0
            for flow in spec.flows:
                route = links_on_route(
                    spec.topology, routing, flow.source_host, flow.dest_host
                )
                if link.name not in route:
                    continue
                if isinstance(flow.request, GuaranteedRequest):
                    total += flow.request.clock_rate_bps
                else:
                    total += auto
            assert total <= link.rate_bps + 1e-6


class TestRegistryAndSpecs:
    def test_gen_names_registered(self):
        names = generator_names()
        assert set(names) >= {
            "gen:random-graph",
            "gen:scale-free",
            "gen:wan-path",
            "gen:access-core",
            "gen:wan-guaranteed",
        }
        assert all(name.startswith(GEN_PREFIX) for name in names)

    def test_registry_build_forwards_gen_seed(self):
        spec = registry.build(
            "gen:random-graph", gen_seed=6, duration=12.0, seed=3
        )
        assert spec == random_graph(gen_seed=6, duration=12.0, seed=3)
        assert spec.seed == 3 and spec.duration == 12.0

    def test_generated_specs_validate_by_default(self):
        for name in generator_names():
            assert registry.build(name, duration=5.0).validate is True

    def test_scale_free_alias_matches_flag(self):
        assert scale_free(gen_seed=4, duration=5.0) == random_graph(
            gen_seed=4, scale_free=True, duration=5.0
        )

    def test_default_disciplines_are_the_flagship_trio(self):
        spec = access_core(gen_seed=1, duration=5.0)
        assert [d.name for d in spec.disciplines] == ["FIFO", "FIFO+", "CSZ"]

    def test_custom_disciplines_accepted(self):
        spec = random_graph(
            gen_seed=1,
            duration=5.0,
            disciplines=(DisciplineSpec.wfq(equal_share_flows=8),),
        )
        assert [d.name for d in spec.disciplines] == ["WFQ"]
