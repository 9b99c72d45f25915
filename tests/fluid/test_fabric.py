"""Fabric family tests: fat-tree / leaf-spine wiring and seeded ECMP."""

import pytest

from repro.net.fabric import (
    EcmpPaths,
    fat_tree_topology,
    leaf_spine_topology,
)


class TestFatTree:
    def test_k4_node_and_link_counts(self):
        topo = fat_tree_topology(k=4)
        half = 2
        cores = half * half
        switches = [n for n in topo.nodes]
        assert sum(n.startswith("C-") for n in switches) == cores
        assert sum(n.startswith("A-") for n in switches) == 4 * half
        assert sum(n.startswith("E-") for n in switches) == 4 * half
        # Hosts default to k/2 per edge switch.
        assert len(topo.host_names) == 4 * half * half
        # Duplex inter-switch links: edge-agg full bipartite per pod
        # (half x half x 4 pods) + every agg's half core uplinks.
        inter = 2 * (4 * half * half + 4 * half * half)
        assert len(topo.links) == inter

    def test_k6_scales(self):
        topo = fat_tree_topology(k=6)
        assert sum(n.startswith("C-") for n in topo.nodes) == 9
        assert len(topo.host_names) == 6 * 3 * 3

    def test_every_host_pair_routes(self):
        topo = fat_tree_topology(k=4)
        routing = topo.routes()
        hosts = topo.host_names
        # Intra-pod and inter-pod pairs both resolve.
        assert routing.path(hosts[0], hosts[1])
        assert routing.path(hosts[0], hosts[-1])

    def test_oversubscription_trims_core_uplinks(self):
        flat = fat_tree_topology(k=4)
        over = fat_tree_topology(k=4, oversubscription=4.0)
        rates = lambda topo: {
            link.name: link.rate_bps for link in topo.links
        }
        flat_r, over_r = rates(flat), rates(over)
        for name in flat_r:
            if "->C-" in name or name.startswith("C-"):
                assert over_r[name] == pytest.approx(flat_r[name] / 4.0)
            else:
                assert over_r[name] == flat_r[name]

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fat_tree_topology(k=5)


class TestLeafSpine:
    def test_counts(self):
        topo = leaf_spine_topology(leaves=4, spines=3, hosts_per_leaf=5)
        assert sum(n.startswith("L-") for n in topo.nodes) == 4
        assert sum(n.startswith("SP-") for n in topo.nodes) == 3
        assert len(topo.host_names) == 20
        # Full duplex leaf-spine mesh + host access links are separate
        # (hosts are attachments, not links).
        assert len(topo.links) == 2 * 4 * 3

    def test_cross_leaf_paths_are_two_hops(self):
        topo = leaf_spine_topology(leaves=3, spines=2, hosts_per_leaf=1)
        routing = topo.routes()
        path = routing.path(topo.host_names[0], topo.host_names[-1])
        # host -> leaf -> spine -> leaf -> host
        assert len(path) == 5


class TestEcmpPaths:
    def test_deterministic_per_flow(self):
        topo = fat_tree_topology(k=4)
        hosts = topo.host_names
        a = EcmpPaths(topo, seed=7)
        b = EcmpPaths(topo, seed=7)
        for i in range(10):
            name = f"flow-{i}"
            assert a.path(hosts[0], hosts[-1], name) == b.path(
                hosts[0], hosts[-1], name
            )

    def test_seed_changes_spread(self):
        topo = fat_tree_topology(k=4)
        hosts = topo.host_names
        paths = {
            seed: tuple(
                tuple(EcmpPaths(topo, seed=seed).path(
                    hosts[0], hosts[-1], f"flow-{i}"
                ))
                for i in range(16)
            )
            for seed in (1, 2)
        }
        assert paths[1] != paths[2]

    def test_paths_are_valid_and_shortest(self):
        topo = fat_tree_topology(k=4)
        link_set = {link.name for link in topo.links}
        routing = topo.routes()
        chooser = EcmpPaths(topo, seed=3)
        hosts = topo.host_names
        static_len = len(routing.path(hosts[0], hosts[-1]))
        for i in range(16):
            nodes = chooser.path(hosts[0], hosts[-1], f"flow-{i}")
            assert len(nodes) == static_len
            for a, b in zip(nodes[1:-1], nodes[2:-1]):
                assert f"{a}->{b}" in link_set

    def test_multipath_actually_spreads(self):
        topo = fat_tree_topology(k=4)
        hosts = topo.host_names
        chooser = EcmpPaths(topo, seed=5)
        cores = {
            next(n for n in chooser.path(hosts[0], hosts[-1], f"flow-{i}")
                 if n.startswith("C-"))
            for i in range(32)
        }
        # 32 inter-pod flows over 4 equal-cost cores hit more than one.
        assert len(cores) > 1


class TestEcmpCacheKeys:
    """Staleness audit for the shared/masked memo caches: a chooser's
    walks must be a pure function of (topology, seed, down-set, flow),
    never of what some other link state computed first."""

    def _topo(self):
        return leaf_spine_topology(leaves=3, spines=3, hosts_per_leaf=1)

    def test_masked_empty_is_self(self):
        chooser = EcmpPaths(self._topo(), seed=3)
        assert chooser.masked(frozenset()) is chooser
        assert chooser.masked(()) is chooser

    def test_masked_view_does_not_pollute_parent_memos(self):
        topo = self._topo()
        chooser = EcmpPaths(topo, seed=3)
        hosts = topo.host_names
        flows = [f"flow-{i}" for i in range(12)]
        before = [
            tuple(chooser.path(hosts[0], hosts[-1], f)) for f in flows
        ]
        dead = next(
            f"{a}->{b}"
            for path in before
            for a, b in zip(path, path[1:])
            if a.startswith("L-") and b.startswith("SP-")
        )
        view = chooser.masked({dead})
        assert view is not chooser
        rerouted = [
            tuple(view.path(hosts[0], hosts[-1], f)) for f in flows
        ]
        for path in rerouted:
            assert dead not in {
                f"{a}->{b}" for a, b in zip(path, path[1:])
            }
        # The parent's walks replay bit-identically after the view
        # resolved the same population: restore hands back the original
        # routes, not memo-shuffled equivalents.
        after = [
            tuple(chooser.path(hosts[0], hosts[-1], f)) for f in flows
        ]
        assert after == before

    def test_masked_views_cached_per_down_set(self):
        topo = self._topo()
        chooser = EcmpPaths(topo, seed=1)
        a = chooser.masked({"L-1->SP-1"})
        b = chooser.masked({"L-1->SP-2"})
        assert a is not b
        assert chooser.masked({"L-1->SP-1"}) is a
        # Masking a masked view composes: the down-sets union.
        ab = a.masked({"L-1->SP-2"})
        assert ab.exclude_links == {"L-1->SP-1", "L-1->SP-2"}
        both = chooser.masked({"L-1->SP-1", "L-1->SP-2"})
        hosts = topo.host_names
        assert tuple(ab.path(hosts[0], hosts[-1], "f")) == tuple(
            both.path(hosts[0], hosts[-1], "f")
        )

    def test_masked_cache_evicts_fifo(self):
        topo = self._topo()
        chooser = EcmpPaths(topo, seed=1)
        links = [
            f"L-{l}->SP-{s}" for l in (1, 2, 3) for s in (1, 2, 3)
        ]
        first = chooser.masked({links[0]})
        for name in links[1:EcmpPaths._masked_cap + 1]:
            chooser.masked({name})
        assert len(chooser._masked) <= EcmpPaths._masked_cap
        # The oldest view fell out; a fresh (correct) one replaces it.
        assert chooser.masked({links[0]}) is not first

    def test_shared_keyed_by_topology_object_and_seed(self):
        topo_a, topo_b = self._topo(), self._topo()
        a = EcmpPaths.shared(topo_a, seed=7)
        assert EcmpPaths.shared(topo_a, seed=7) is a
        assert EcmpPaths.shared(topo_a, seed=8) is not a
        assert EcmpPaths.shared(topo_b, seed=7) is not a
