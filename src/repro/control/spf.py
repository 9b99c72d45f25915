"""Shortest-path-first route recomputation over the live link state.

The control plane recomputes all-pairs next-hop tables from its
link-state view on every topology change.  The tables are
:class:`repro.net.routing.StaticRouting`'s — the same hop-count BFS
(sorted neighbour order, first discoverer wins) that routes the network
at build time, built over the surviving graph with
:meth:`~repro.net.routing.StaticRouting.from_adjacency`.  One
shortest-path rule is all the repo needs (the paper scopes routing out),
and because it is one rule, restoring a failed link returns every route
bit-for-bit to the pre-failure one.  This module is the two adjacency
builders: which edges a link state leaves standing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping

from repro.net.routing import StaticRouting

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.net.network import Network


def spf_from_topology(
    topology, down: Iterable[str] = ()
) -> StaticRouting:
    """Build SPF routes over a :class:`~repro.scenario.spec.TopologySpec`
    with the ``down`` links removed — no network, no simulator clock.

    The fluid engine's control plane reroutes through this: the graph is
    the switch-level subset of what :func:`spf_from_network` sees (hosts
    are leaves — they never transit, and within one BFS level their
    presence cannot reorder switch discovery, so switch-to-switch paths
    are identical with or without them).  Host endpoints are re-attached
    by the caller via the topology's attachment map.
    """
    dead = frozenset(down)
    adjacency: Dict[str, List[str]] = {n: [] for n in topology.nodes}
    for link in topology.links:
        if link.name not in dead:
            adjacency[link.src].append(link.dst)
    return StaticRouting.from_adjacency(adjacency)


def spf_from_network(
    net: "Network", link_state: Mapping[str, bool]
) -> StaticRouting:
    """Build SPF routes over a network's *live* links.

    The graph mirrors what :class:`~repro.net.network.Network` declares
    to its build-time routing — switch-switch edges for every link whose
    ``link_state`` entry is True, plus bidirectional host-switch edges
    (hosts attach over infinitely fast links that never fail).
    """
    adjacency: Dict[str, List[str]] = {name: [] for name in net.switches}
    for host in net.hosts.values():
        adjacency[host.name] = [host.attached_switch.name]
        adjacency[host.attached_switch.name].append(host.name)
    for name in net.links:
        if not link_state.get(name, True):
            continue
        src, dst = name.split("->", 1)
        adjacency[src].append(dst)
    return StaticRouting.from_adjacency(adjacency)
