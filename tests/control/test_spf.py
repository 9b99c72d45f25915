"""One route graph: the built network, its spec, and every link state.

The control plane rebuilds the network's tables over the surviving links
(:meth:`~repro.net.network.Network.routes`); the fluid engine and the
scenario generators route the :class:`~repro.scenario.spec.TopologySpec`
(:meth:`~repro.scenario.spec.TopologySpec.routes`).  Both go through
:func:`~repro.net.routing.route_graph` and must reproduce the built
network's tables exactly — otherwise restoring a failed link would leave
the network on different (equally short) routes than it started on, and
the fluid plan would route a flow differently from the packet controller.
"""

import pytest

from repro.net.routing import RoutingError, route_graph
from repro.scenario import TopologySpec
from repro.scenario.generators import random_graph_topology
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator


def build(topology):
    return topology.build(Simulator(), lambda name, link: FifoScheduler())


def all_nodes(topology):
    return tuple(topology.nodes) + topology.host_names


def same_routes(a, b, nodes):
    """Assert ``a`` and ``b`` agree on every ordered node pair: the same
    next hop, or both without a route."""
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            try:
                expected = a.next_hop(src, dst)
            except RoutingError:
                with pytest.raises(RoutingError):
                    b.next_hop(src, dst)
                continue
            assert b.next_hop(src, dst) == expected, f"{src}->{dst}"


class TestBuildTimeEquivalence:
    @pytest.mark.parametrize("gen_seed", [1, 2, 5, 11])
    def test_network_routes_equal_spec_routes_everywhere(self, gen_seed):
        topology = random_graph_topology(gen_seed, num_switches=7)
        net = build(topology)
        spec_routes = topology.routes()
        for src in all_nodes(topology):
            for dst in all_nodes(topology):
                if src == dst:
                    continue
                assert spec_routes.next_hop(src, dst) == (
                    net.routing.next_hop(src, dst)
                ), f"seed {gen_seed}: {src}->{dst}"

    @pytest.mark.parametrize("gen_seed", [3, 7])
    def test_full_paths_match(self, gen_seed):
        topology = random_graph_topology(
            gen_seed, num_switches=6, scale_free=True
        )
        net = build(topology)
        spec_routes, rebuilt = topology.routes(), net.routes()
        hosts = topology.host_names
        for src in hosts:
            for dst in hosts:
                if src != dst:
                    assert spec_routes.path(src, dst) == net.path(src, dst)
                    assert rebuilt.path(src, dst) == net.path(src, dst)

    @pytest.mark.parametrize("gen_seed", [1, 5])
    def test_every_single_link_down_set_agrees(self, gen_seed):
        topology = random_graph_topology(gen_seed, num_switches=6)
        net = build(topology)
        for name in topology.link_names:
            down = {name}
            same_routes(
                net.routes(down), topology.routes(down),
                all_nodes(topology),
            )

    @pytest.mark.parametrize("gen_seed", [2, 11])
    def test_hosts_never_reorder_switch_paths(self, gen_seed):
        """Hosts are leaves: switch-to-switch routes are the same with
        the host attachments in the graph or without them."""
        topology = random_graph_topology(gen_seed, num_switches=7)
        links = [(link.src, link.dst) for link in topology.links]
        down = {topology.link_names[0]}
        with_hosts = topology.routes(down)
        switches_only = route_graph(topology.nodes, links, (), down)
        same_routes(switches_only, with_hosts, topology.nodes)


class TestDownLinks:
    def _diamond(self):
        return TopologySpec.graph(
            ("S-A", "S-B", "S-C", "S-D"),
            [
                {"src": src, "dst": dst}
                for src, dst in (
                    ("S-A", "S-B"), ("S-B", "S-C"), ("S-A", "S-D"), ("S-D", "S-C")
                )
            ],
            [("h-src", "S-A"), ("h-dst", "S-C")],
        ).build(Simulator(), lambda name, link: FifoScheduler())

    def test_all_up_reproduces_build_time_routes(self):
        net = self._diamond()
        built = net.path("h-src", "h-dst")
        net.install_routing(net.routes({"S-A->S-B"}))
        net.install_routing(net.routes())
        assert net.path("h-src", "h-dst") == built

    def test_down_link_avoided(self):
        net = self._diamond()
        assert net.path("h-src", "h-dst") == [
            "h-src", "S-A", "S-B", "S-C", "h-dst"
        ]
        assert net.routes({"S-A->S-B"}).path("h-src", "h-dst") == [
            "h-src", "S-A", "S-D", "S-C", "h-dst"
        ]

    def test_fully_partitioned_destination(self):
        net = self._diamond()
        routes = net.routes({"S-B->S-C", "S-D->S-C"})
        with pytest.raises(RoutingError):
            routes.next_hop("S-A", "h-dst")
        with pytest.raises(RoutingError):
            routes.path("h-src", "h-dst")
