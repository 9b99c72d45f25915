"""SPF correctness and the load-bearing build-time equivalence.

The control plane's recompute (a :class:`~repro.net.routing.StaticRouting`
built from a whole adjacency at once) must reproduce the tables of the
network's own edge-by-edge build exactly — otherwise restoring a failed
link would leave the network on different (equally short) routes than it
started on, and the outage-free bit-identity guarantee would silently
break.
"""

import pytest

from repro.control import spf_from_network
from repro.net.network import Network
from repro.net.routing import RoutingError, StaticRouting
from repro.scenario.generators import random_graph_topology, topology_routes
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator


def spec_adjacency(topology):
    """The adjacency StaticRouting sees at build time, as a dict."""
    adj = {node: [] for node in topology.nodes}
    for att in topology.host_attachments:
        adj[att.host] = [att.switch]
        adj[att.switch].append(att.host)
    for link in topology.links:
        adj[link.src].append(link.dst)
    return adj


def all_nodes(topology):
    return tuple(topology.nodes) + topology.host_names


class TestBfsEquivalence:
    @pytest.mark.parametrize("gen_seed", [1, 2, 5, 11])
    def test_next_hops_match_static_routing_everywhere(self, gen_seed):
        topology = random_graph_topology(gen_seed, num_switches=7)
        bfs = topology_routes(topology)
        spf = StaticRouting.from_adjacency(spec_adjacency(topology))
        for src in all_nodes(topology):
            for dst in all_nodes(topology):
                if src == dst:
                    continue
                assert spf.next_hop(src, dst) == bfs.next_hop(src, dst), (
                    f"seed {gen_seed}: {src}->{dst}"
                )

    @pytest.mark.parametrize("gen_seed", [3, 7])
    def test_full_paths_match(self, gen_seed):
        topology = random_graph_topology(
            gen_seed, num_switches=6, scale_free=True
        )
        bfs = topology_routes(topology)
        spf = StaticRouting.from_adjacency(spec_adjacency(topology))
        hosts = topology.host_names
        for src in hosts:
            for dst in hosts:
                if src != dst:
                    assert spf.path(src, dst) == bfs.path(src, dst)


class TestWeightedAndPartial:
    def test_edge_to_undeclared_node_rejected(self):
        with pytest.raises(ValueError):
            StaticRouting.from_adjacency({"A": ["ghost"]})

    def test_unreachable_raises_routing_error(self):
        spf = StaticRouting.from_adjacency({"A": ["B"], "B": [], "C": []})
        with pytest.raises(RoutingError):
            spf.next_hop("B", "A")
        with pytest.raises(RoutingError):
            spf.next_hop("A", "C")


class TestFromNetwork:
    def _diamond(self):
        net = Network(Simulator(), lambda name, link: FifoScheduler())
        for name in ("S-A", "S-B", "S-C", "S-D"):
            net.add_switch(name)
        for src, dst in (
            ("S-A", "S-B"), ("S-B", "S-C"), ("S-A", "S-D"), ("S-D", "S-C")
        ):
            net.add_link(src, dst)
        net.add_host("h-src", "S-A")
        net.add_host("h-dst", "S-C")
        return net

    def test_live_links_reproduce_build_time_routes(self):
        net = self._diamond()
        spf = spf_from_network(net, {name: True for name in net.links})
        assert spf.path("h-src", "h-dst") == net.routing.path(
            "h-src", "h-dst"
        )

    def test_down_link_excluded(self):
        net = self._diamond()
        state = {name: True for name in net.links}
        state["S-A->S-B"] = False
        spf = spf_from_network(net, state)
        assert spf.path("h-src", "h-dst") == [
            "h-src", "S-A", "S-D", "S-C", "h-dst"
        ]

    def test_fully_partitioned_destination(self):
        net = self._diamond()
        state = {name: True for name in net.links}
        state["S-B->S-C"] = False
        state["S-D->S-C"] = False
        spf = spf_from_network(net, state)
        with pytest.raises(RoutingError):
            spf.next_hop("S-A", "h-dst")
