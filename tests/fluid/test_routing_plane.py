"""The ECMP routing plane: draw contract, link-index paths, memo shape.

``EcmpPaths`` keeps one next-hop DAG and one continuation memo per
destination gateway and hands the engines link-index paths.  These
tests pin what the fluid goldens only imply: the exact keyed draws
(digests frozen from a memo-free node walk over a full reverse BFS,
one ``KeyedDraws(seed, "ecmp", flow)`` draw per branch point), the one
walk-hop -> link definition, and the structure of the memos (sharing
and scan counts, never wall clock).
"""

import hashlib

import pytest

from repro.fluid.model import FluidSimulation
from repro.net.fabric import (
    EcmpPaths,
    fat_tree_topology,
    flow_routes,
    leaf_spine_topology,
    pair_link_index,
    walk_links,
)
from repro.net.routing import RoutingError
from repro.scenario import registry
from repro.scenario.spec import (
    DisciplineSpec,
    FlowSpec,
    LinkSpec,
    ScenarioSpec,
    TopologySpec,
)

FAT_TREE = dict(k=8, num_flows=2000)
FAT_TREE_DOWN = frozenset({"E-1-1->A-1-1", "A-2-1->C-1", "C-5->A-3-2"})
LEAF_SPINE = dict(leaves=8, spines=4, hosts_per_leaf=8, num_flows=2000)
LEAF_SPINE_DOWN = frozenset({"L-1->SP-1", "SP-2->L-3"})

#: sha256 over every ``flow:link,link,...`` line of the population, in
#: flow order — computed from an independent node-by-node walk (full
#: BFS, no memos) mapped through the (src, dst) pair dict.
FROZEN = {
    ("fat-tree", "full"):
        "54e4a2b17bc56ad68883ea2d5a6cb0fed8c18886bf74b13a68fc6a8b91cf2b17",
    ("fat-tree", "masked"):
        "59b499a7e55fbdc4f51107b8fac9c61bafee26715000c864bacff4d9ad5b13e3",
    ("leaf-spine", "full"):
        "43953eb7f24c7540bc65715a59155de233c47ae47293aafb66666d90553810e0",
    ("leaf-spine", "masked"):
        "a57d4c2d5c147c9b927dd6489108792721bd7f013b75410664d2b087f2cae569",
}


def _population(family, sizes):
    return registry.build(
        f"gen:{family}", gen_seed=1, seed=1, duration=5.0, **sizes
    )


def _triples(spec):
    return [(f.source_host, f.dest_host, f.name) for f in spec.flows]


class TestDrawContract:
    @pytest.mark.parametrize(
        "family,sizes,down",
        [
            ("fat-tree", FAT_TREE, FAT_TREE_DOWN),
            ("leaf-spine", LEAF_SPINE, LEAF_SPINE_DOWN),
        ],
    )
    def test_link_paths_match_the_frozen_digests(self, family, sizes, down):
        spec = _population(family, sizes)
        full = EcmpPaths(spec.topology, seed=1)
        for label, chooser in (("full", full), ("masked", full.masked(down))):
            digest = hashlib.sha256()
            for src, dst, name in _triples(spec):
                links = chooser.links(src, dst, name)
                digest.update(
                    f"{name}:{','.join(map(str, links))}\n".encode()
                )
            assert digest.hexdigest() == FROZEN[(family, label)]

    @pytest.mark.parametrize(
        "topology,down",
        [
            (fat_tree_topology(k=4), frozenset()),
            (leaf_spine_topology(leaves=4, spines=3, hosts_per_leaf=2),
             frozenset()),
            (fat_tree_topology(k=4), frozenset({"E-1-1->A-1-2", "C-1->A-4-1"})),
        ],
    )
    def test_links_are_the_pair_mapping_of_path(self, topology, down):
        chooser = EcmpPaths(topology, seed=5).masked(down)
        hosts = topology.host_names
        for i, src in enumerate(hosts):
            for dst in hosts[::3]:
                name = f"flow-{i}"
                nodes = chooser.path(src, dst, name)
                assert nodes[0] == src and nodes[-1] == dst
                assert chooser.links(src, dst, name) == walk_links(
                    nodes, chooser.pair_index
                )
                # The memo hit agrees, and a masked view numbers links
                # by the whole topology, not by what is still up.
                assert chooser.links(src, dst, name) == walk_links(
                    nodes, pair_link_index(topology)
                )


class TestMaskedViews:
    def test_empty_mask_is_self(self):
        chooser = EcmpPaths(fat_tree_topology(k=4), seed=2)
        assert chooser.masked(frozenset()) is chooser

    def test_views_never_touch_the_parents_memos(self):
        spec = _population("leaf-spine", dict(LEAF_SPINE, num_flows=300))
        parent = EcmpPaths(spec.topology, seed=1)
        triples = _triples(spec)
        for triple in triples[:150]:
            parent.links(*triple)
        def snapshot():
            return (
                {gate: (dict(succ), dict(cont))
                 for gate, (_dist, succ, cont) in parent._toward.items()},
                dict(parent._flow_links),
            )

        memos = (parent._toward, parent._flow_links)
        before = snapshot()
        view = parent.masked(LEAF_SPINE_DOWN)
        for triple in triples:
            view.links(*triple)
        # Not read: the view built its own state for every gateway ...
        assert view._toward and all(
            view._toward[gate] is not parent._toward.get(gate)
            for gate in view._toward
        )
        assert view._flow_links is not parent._flow_links
        # ... and not written: the parent's memos are as they were.
        assert snapshot() == before
        assert memos[0] is parent._toward and memos[1] is parent._flow_links
        # The view numbers links exactly as the parent does.
        assert view.pair_index == parent.pair_index


class _WalkCounting(EcmpPaths):
    """Counts seeded walks: every re-walk goes through ``path``.
    ``masked`` builds its views as ``type(self)``, so a view counts its
    own."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.walks = 0

    def path(self, src, dst, flow):
        self.walks += 1
        return super().path(src, dst, flow)


def _successors_by_definition(chooser, node, gate):
    """``node``'s neighbours one hop closer to ``gate``, straight from
    the chooser's graph and BFS distances (no memo involved)."""
    dist = chooser._routes_toward(gate)[0]
    return tuple(
        n for n in chooser._adj[node] if dist.get(n) == dist.get(node, 0) - 1
    )


class TestMaskedInheritance:
    """A view re-walks exactly the flows whose base walk meets a changed
    successor tuple; every other flow gets the parent's tuple itself."""

    @pytest.mark.parametrize(
        "family,sizes,down",
        [
            ("leaf-spine", LEAF_SPINE, frozenset({"L-1->SP-1"})),
            ("leaf-spine", LEAF_SPINE, LEAF_SPINE_DOWN),
            ("fat-tree", FAT_TREE, FAT_TREE_DOWN),
        ],
    )
    def test_rewalks_are_the_flows_whose_next_hops_changed(
        self, family, sizes, down
    ):
        spec = _population(family, dict(sizes, num_flows=600))
        triples = _triples(spec)
        known, unknown = triples[:450], triples[450:]
        parent = _WalkCounting(spec.topology, seed=1)
        base = {triple: parent.links(*triple) for triple in known}
        assert parent.walks == len(known)
        # By definition, from two unshared choosers: a flow must re-walk
        # iff some switch its full-graph walk leaves has different
        # successors toward the flow's gateway once ``down`` is cut.
        full = EcmpPaths(spec.topology, seed=1)
        cut = EcmpPaths(spec.topology, seed=1, exclude_links=down)
        changed = set()
        for triple in known:
            nodes = full.path(*triple)
            gate = nodes[-2]
            if any(
                _successors_by_definition(full, node, gate)
                != _successors_by_definition(cut, node, gate)
                for node in nodes[1:-2]
            ):
                changed.add(triple)
        assert 0 < len(changed) < len(known) // 2

        def snapshot():
            return (
                {gate: (dict(succ), dict(cont))
                 for gate, (_dist, succ, cont) in parent._toward.items()},
                dict(parent._flow_links),
            )

        before = snapshot()
        view = parent.masked(down)
        assert type(view) is _WalkCounting and view.walks == 0
        for triple in triples:
            got = view.links(*triple)
            assert got == cut.links(*triple)
            if triple in base and triple not in changed:
                assert got is base[triple]
            else:
                assert got is not base.get(triple)
            assert view.links(*triple) is got  # memoised on the view
        # Changed flows and the flows the parent never resolved walk;
        # nobody else does.
        assert view.walks == len(changed) + len(unknown)
        assert snapshot() == before and parent.walks == len(known)

    def test_leaf_spine_outage_moves_only_the_failed_leafs_uplink_flows(self):
        """The concrete shape of ``fluid_failover``: with ``L-1->SP-1``
        down, only flows leaving leaf 1 for another leaf can move."""
        spec = _population("leaf-spine", LEAF_SPINE)
        leaf = {a.host: a.switch for a in spec.topology.host_attachments}
        parent = _WalkCounting(spec.topology, seed=1)
        triples = _triples(spec)
        for triple in triples:
            parent.links(*triple)
        view = parent.masked({"L-1->SP-1"})
        for triple in triples:
            view.links(*triple)
        assert view.walks == sum(
            leaf[src] == "L-1" and leaf[dst] != "L-1"
            for src, dst, _name in triples
        ) < len(triples) // 4

    def test_a_view_of_a_view_inherits_from_the_view(self):
        spec = _population("leaf-spine", dict(LEAF_SPINE, num_flows=300))
        parent = _WalkCounting(spec.topology, seed=1)
        triples = _triples(spec)
        for triple in triples:
            parent.links(*triple)
        first = parent.masked({"L-1->SP-1"})
        for triple in triples:
            first.links(*triple)
        second = first.masked({"SP-2->L-3"})
        assert second.exclude_links == LEAF_SPINE_DOWN
        fresh = EcmpPaths(
            spec.topology, seed=1, exclude_links=LEAF_SPINE_DOWN
        )
        for triple in triples:
            assert second.links(*triple) == fresh.links(*triple)
        assert 0 < second.walks < len(triples) // 2


class _CountingPaths(EcmpPaths):
    """Counts neighbour-list scans (every one goes through
    ``_successors``) and continuation builds."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scans = 0
        self.continuations = 0

    def _successors(self, here, dist, succ):
        self.scans += 1
        return super()._successors(here, dist, succ)

    def _continuation(self, node, target, dist, succ, cont):
        self.continuations += 1
        return super()._continuation(node, target, dist, succ, cont)


class TestMemoStructure:
    def _routed(self):
        spec = _population("fat-tree", FAT_TREE)
        chooser = _CountingPaths(spec.topology, seed=1)
        triples = _triples(spec)
        paths = [chooser.links(*triple) for triple in triples]
        return spec, chooser, triples, paths

    def test_scans_are_bounded_by_nodes_times_gateways(self):
        spec, chooser, triples, _paths = self._routed()
        gateways = len(chooser._toward)
        switches = len(spec.topology.nodes)
        # Exactly one scan per (node, gateway) entry of the DAG — never
        # one per segment or per flow: re-drawing the population under
        # fresh flow names adds a scan only where a walk reaches a
        # (node, gateway) no earlier walk touched.
        def entries():
            return sum(
                len(succ) for _dist, succ, _cont in chooser._toward.values()
            )

        assert chooser.scans == entries() <= switches * gateways
        first_pass = chooser.scans
        for src, dst, name in triples:
            chooser.links(src, dst, name + "-again")
        assert chooser.scans == entries() <= switches * gateways
        assert chooser.scans - first_pass < first_pass // 4
        # Hosts never enter the per-gateway state (it would grow with
        # the flows): only switches are keyed.
        hosts = set(spec.topology.host_names)
        for _dist, succ, cont in chooser._toward.values():
            assert not hosts & set(succ) and not hosts & set(cont)

    def test_continuations_are_shared_by_identity(self):
        spec, chooser, _triples_, _paths = self._routed()
        switches = len(spec.topology.nodes)
        # Each (node, gateway) continuation is built once; every later
        # walk through that node extends with the very same tuple.
        assert chooser.continuations == sum(
            len(cont) for _dist, _succ, cont in chooser._toward.values()
        )
        for gate, (_dist, succ, cont) in chooser._toward.items():
            # Whichever segment steps into a node continues on that
            # node's one tuple, so continuations toward a gateway are
            # counted in nodes, not in (segment, option) pairs.
            options = sum(len(found) for found in succ.values())
            assert len(cont) <= switches and len(cont) < options
            assert all(chain[0] == node for node, chain in cont.items())
        # Concretely: every pod's aggregation switches feed core C-1,
        # and all of them descend into E-8-4 on C-1's one continuation.
        gate, core = "E-8-4", "C-1"
        _dist, succ, cont = chooser._toward[gate]
        assert cont[core] == (core, "A-8-1", gate)
        feeders = [node for node, found in succ.items() if core in found]
        assert len({node.split("-")[1] for node in feeders}) > 1
        hosts = spec.topology.host_names
        shared = cont[core]
        for i, src in enumerate(hosts[::4]):
            walk = (src, hosts[-1], f"probe-{i}")
            nodes = chooser.path(*walk)
            if core in nodes:
                assert tuple(nodes[-4:-1]) == shared
            # A per-flow memo hit hands back the stored tuple itself.
            assert chooser.links(*walk) is chooser.links(*walk)
        assert cont[core] is shared  # read by every walk, never rebuilt


class TestUnknownEndpoints:
    @pytest.mark.parametrize("entry", ["path", "links"])
    @pytest.mark.parametrize("down", [frozenset(), frozenset({"L-1->SP-1"})])
    def test_unknown_source_is_a_routing_error(self, entry, down):
        topo = leaf_spine_topology(leaves=3, spines=2, hosts_per_leaf=1)
        chooser = EcmpPaths(topo, seed=1).masked(down)
        resolve = getattr(chooser, entry)
        with pytest.raises(RoutingError, match="unknown node 'nowhere'"):
            resolve("nowhere", topo.host_names[-1], "f")
        with pytest.raises(RoutingError, match="unknown node 'nowhere'"):
            resolve(topo.host_names[0], "nowhere", "f")
        with pytest.raises(RoutingError, match="unknown node 'nowhere'"):
            resolve("nowhere", "nowhere", "f")

    def test_stranded_host_is_a_routing_error_not_a_loop(self):
        topo = TopologySpec.graph(
            nodes=["S1", "S2"],
            links=[LinkSpec(src="S2", dst="S1")],
            host_attachments=[("h1", "S1"), ("h2", "S2")],
        )
        chooser = EcmpPaths(topo, seed=1)
        assert chooser.path("h2", "h1", "f") == ["h2", "S2", "S1", "h1"]
        # S1's only out-neighbour is h1: the walk ping-pongs between two
        # degree-1 nodes until the guard names the pair.
        with pytest.raises(RoutingError, match="no route from h1 to h2"):
            chooser.links("h1", "h2", "f")


class _Trunk(LinkSpec):
    """A link that names itself outside the ``src->dst`` convention."""

    @property
    def name(self):
        return f"trunk:{self.src}:{self.dst}"


class TestLinkIndexDefinition:
    def _topology(self):
        return TopologySpec.graph(
            nodes=["west", "hub", "east"],
            links=[
                LinkSpec(src="west", dst="hub"),
                _Trunk(src="hub", dst="east"),
                LinkSpec(src="east", dst="hub"),
                LinkSpec(src="hub", dst="west"),
            ],
            host_attachments=[("alice", "west"), ("bob", "east")],
        )

    def test_positions_in_topology_links_conventional_names_only(self):
        topo = self._topology()
        assert topo.link_names[1] == "trunk:hub:east"
        assert pair_link_index(topo) == {
            ("west", "hub"): 0, ("east", "hub"): 2, ("hub", "west"): 3,
        }
        walk = ["alice", "west", "hub", "east", "bob"]
        assert walk_links(walk, pair_link_index(topo)) == (0,)
        chooser = EcmpPaths(topo, seed=1)
        assert chooser.path("alice", "bob", "f") == walk
        assert chooser.links("alice", "bob", "f") == (0,)
        assert chooser.links("bob", "alice", "f") == (2, 3)

    @pytest.mark.parametrize("ecmp_seed", [None, 3])
    def test_fluid_compile_resolves_through_the_same_index(self, ecmp_seed):
        topo = self._topology()
        spec = ScenarioSpec(
            name="hand-named",
            topology=topo,
            flows=(
                FlowSpec(name="ab", source_host="alice", dest_host="bob"),
                FlowSpec(name="ba", source_host="bob", dest_host="alice"),
            ),
            disciplines=(DisciplineSpec.fifo(),),
            duration=2.0,
            engine="fluid",
            ecmp_seed=ecmp_seed,
        )
        sim = FluidSimulation(spec, spec.disciplines[0])
        # The trunk never matches a walk hop, on either router.
        assert sim.paths == [(0,), (2, 3)]
        _links_of, pair_index = flow_routes(topo, ecmp_seed)
        assert pair_index == pair_link_index(topo)
        if ecmp_seed is not None:
            # One object from the chooser to the control plan.
            assert pair_index is EcmpPaths.shared(
                topo, seed=ecmp_seed
            ).pair_index
