"""The population walk: ``EcmpPaths.links_many`` against the reference.

``links_many`` routes a whole population in a few NumPy passes;
``links`` walks one flow at a time and is the reference.  Over drawn
topologies (branchy random and scale-free graphs, fat-trees, leaf-spine
fabrics), masked link states (partitions included), seeds of any width
and populations with ``src == dst`` and unknown endpoints, both must
agree: the same link tuples, or the same ``RoutingError`` for the same
first flow.  A population call must also leave the memos a masked view
inherits from exactly as usable as flow-by-flow calls would.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.fabric import (
    EcmpPaths,
    fat_tree_topology,
    leaf_spine_topology,
)
from repro.net.routing import RoutingError
from repro.scenario.generators import random_graph_topology

np = pytest.importorskip("numpy")


@st.composite
def topologies(draw):
    family = draw(st.sampled_from(["random", "scale-free", "fat-tree",
                                   "leaf-spine"]))
    if family == "fat-tree":
        return fat_tree_topology(k=draw(st.sampled_from([2, 4, 6])))
    if family == "leaf-spine":
        return leaf_spine_topology(
            leaves=draw(st.integers(2, 5)), spines=draw(st.integers(1, 4)),
            hosts_per_leaf=draw(st.integers(1, 3)),
        )
    return random_graph_topology(
        gen_seed=draw(st.integers(0, 10_000)),
        num_switches=draw(st.integers(2, 9)),
        edge_prob=draw(st.sampled_from([0.1, 0.25, 0.5])),
        scale_free=family == "scale-free",
        attach_edges=draw(st.integers(1, 3)),
        repair=draw(st.booleans()),
    )


@st.composite
def cases(draw):
    """``(topology, seed, down, triples)``."""
    topology = draw(topologies())
    links = sorted(topology.link_names)
    down = set()
    if links:
        down = set(draw(st.lists(st.sampled_from(links), max_size=4)))
    if draw(st.booleans()):
        # A partition: every link out of (or into) one switch.
        node = draw(st.sampled_from(topology.nodes))
        side = "{}->" if draw(st.booleans()) else "->{}"
        down |= {l for l in links if side.format(node) in l}
    endpoints = list(topology.host_names) + list(topology.nodes)
    endpoints.append("nowhere")
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(endpoints), st.sampled_from(endpoints)),
        min_size=1, max_size=60,
    ))
    prefix = draw(st.text("ab-9é", max_size=4))
    triples = [(s, d, f"{prefix}{i}") for i, (s, d) in enumerate(pairs)]
    seed = draw(st.one_of(st.integers(-(2**70), 2**70), st.integers(-3, 3)))
    return topology, seed, frozenset(down), triples


def _reference(chooser, triples):
    """Per flow: its link tuple, or the message its walk raises."""
    out = []
    for triple in triples:
        try:
            out.append(chooser.links(*triple))
        except RoutingError as exc:
            out.append(str(exc))
    return out


def _expected_error(triples, reference):
    for (_src, _dst, name), found in zip(triples, reference):
        if isinstance(found, str):
            return f"flow {name!r}: {found}"
    return None


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_population_walk_equals_the_reference_walk(case):
    topology, seed, down, triples = case
    reference = _reference(
        EcmpPaths(topology, seed=seed, exclude_links=down), triples
    )
    srcs, dsts, names = zip(*triples)
    for view in (
        EcmpPaths(topology, seed=seed, exclude_links=down),
        EcmpPaths(topology, seed=seed).masked(down),
    ):
        # Flow by flow: a tuple where the reference routes, None where
        # it raises.
        walked = view._walk_many(np, triples)
        assert walked == [
            None if isinstance(found, str) else found for found in reference
        ]
        error = _expected_error(triples, reference)
        if error is None:
            assert view.links_many(srcs, dsts, names) == reference
        else:
            with pytest.raises(RoutingError) as raised:
                view.links_many(srcs, dsts, names)
            assert str(raised.value) == error


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_masked_views_inherit_from_a_population_walked_parent(case):
    topology, seed, down, triples = case
    full = _reference(EcmpPaths(topology, seed=seed), triples)
    routable = [
        triple for triple, found in zip(triples, full)
        if not isinstance(found, str)
    ]
    parent = EcmpPaths(topology, seed=seed)
    if routable:
        parent.links_many(*zip(*routable))
    view = parent.masked(down)
    fresh = EcmpPaths(topology, seed=seed, exclude_links=down)
    assert _reference(view, triples) == _reference(fresh, triples)


def test_memo_hits_are_not_walked_again():
    topology = fat_tree_topology(k=4)
    chooser = EcmpPaths(topology, seed=3)
    hosts = topology.host_names
    srcs, dsts = hosts, hosts[::-1]
    names = [f"f{i}" for i in range(len(hosts))]
    first = chooser.links_many(srcs, dsts, names)
    again = chooser.links_many(srcs, dsts, names)
    assert all(a is b for a, b in zip(first, again))
    assert first == [chooser.links(*t) for t in zip(srcs, dsts, names)]
