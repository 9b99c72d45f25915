"""Tests for static BFS routing."""

import pytest

from repro.net.routing import RoutingError, StaticRouting


def graph(*edges, nodes=()):
    """The routing over directed ``edges`` (plus isolated ``nodes``)."""
    adjacency = {node: [] for node in nodes}
    for src, dst in edges:
        adjacency.setdefault(src, []).append(dst)
        adjacency.setdefault(dst, [])
    return StaticRouting(adjacency)


def chain(n):
    return graph(*((f"S{i}", f"S{i + 1}") for i in range(n - 1)))


class TestNextHop:
    def test_direct_neighbor(self):
        routing = chain(3)
        assert routing.next_hop("S0", "S1") == "S1"

    def test_multi_hop(self):
        routing = chain(5)
        assert routing.next_hop("S0", "S4") == "S1"
        assert routing.next_hop("S2", "S4") == "S3"

    def test_directedness(self):
        routing = chain(3)
        with pytest.raises(RoutingError):
            routing.next_hop("S2", "S0")  # no reverse edges

    def test_no_route(self):
        routing = graph(("A", "B"), nodes=("C",))
        with pytest.raises(RoutingError):
            routing.next_hop("A", "C")

    def test_shortest_path_preferred(self):
        # Two routes A->D: direct edge and a 2-hop path.
        routing = graph(("A", "B"), ("B", "D"), ("A", "D"))
        assert routing.next_hop("A", "D") == "D"

    def test_deterministic_tie_break(self):
        # Two equal-length paths; BFS with sorted neighbours must always
        # pick the alphabetically first branch.
        routing = graph(("A", "C"), ("A", "B"), ("B", "D"), ("C", "D"))
        assert routing.next_hop("A", "D") == "B"

    def test_edge_to_undeclared_node_rejected(self):
        with pytest.raises(ValueError, match="ghost"):
            StaticRouting({"A": ["ghost"]})


class TestPath:
    def test_full_path(self):
        routing = chain(4)
        assert routing.path("S0", "S3") == ["S0", "S1", "S2", "S3"]

    def test_trivial_path(self):
        routing = chain(2)
        assert routing.path("S0", "S0") == ["S0"]


class TestBranchingAndMergeGraphs:
    """Routing over the graph shapes the declarative topology layer opened
    up: branches, merges, duplex edges, and diamonds."""

    def merge(self):
        # L1 \
        #     M -- R1 -- R2   (two access branches converge at M)
        # L2 /
        return graph(("L1", "M"), ("L2", "M"), ("M", "R1"), ("R1", "R2"),
                     nodes=("island",))

    def test_merge_point_shared_by_both_branches(self):
        routing = self.merge()
        assert routing.path("L1", "R2") == ["L1", "M", "R1", "R2"]
        assert routing.path("L2", "R2") == ["L2", "M", "R1", "R2"]

    def test_branches_cannot_reach_each_other(self):
        # All edges point toward the sink; the branches are not peers.
        with pytest.raises(RoutingError):
            self.merge().next_hop("L1", "L2")

    def test_duplex_edges_route_both_directions(self):
        routing = graph(("A", "B"), ("B", "A"), ("B", "C"), ("C", "B"))
        assert routing.path("A", "C") == ["A", "B", "C"]
        assert routing.path("C", "A") == ["C", "B", "A"]

    def test_duplex_edge_listed_twice_is_idempotent(self):
        routing = graph(("A", "B"), ("A", "B"), ("B", "A"))
        assert routing.path("A", "B") == ["A", "B"]
        assert routing.path("B", "A") == ["B", "A"]

    def test_diamond_tie_break_is_deterministic_from_every_node(self):
        #     X -- T1 \
        # S <             > D   (two equal two-hop routes S -> D)
        #     Y -- T2 /
        edges = [
            ("S", "Y"), ("S", "X"), ("X", "T1"), ("Y", "T2"),
            ("T1", "D"), ("T2", "D"),
        ]
        # BFS expands sorted neighbours: the X branch wins whatever order
        # the graph is declared in.
        for order in (edges, edges[::-1], sorted(edges)):
            routing = graph(*order)
            assert routing.path("S", "D") == ["S", "X", "T1", "D"]

    def test_unreachable_destination_names_both_endpoints(self):
        routing = self.merge()
        with pytest.raises(RoutingError, match="L1 to island"):
            routing.next_hop("L1", "island")
