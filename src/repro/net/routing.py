"""Static shortest-path routing.

The paper's experiments use fixed paths on a chain; routing is orthogonal to
its contribution (Section 1 explicitly scopes it out).  We provide
deterministic static shortest-path routing with breadth-first search over
the (directed) link graph, with ties broken by node-name order so
experiments are reproducible.

:func:`route_graph` is the one graph builder: the built network routes
over it, the control plane rebuilds it over the surviving links after
every link-state change, and the fluid engine and the scenario generators
route a :class:`~repro.scenario.spec.TopologySpec` through it — so a
restored link state routes exactly as the build-time network did.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Dict, Iterable, List, Mapping, Tuple


class RoutingError(RuntimeError):
    """No route exists between the requested endpoints."""


class StaticRouting:
    """All-pairs next-hop table over a directed graph of named nodes,
    given as a whole ``node -> neighbours`` adjacency."""

    def __init__(self, adjacency: Mapping[str, Iterable[str]]):
        adj = {node: sorted(out) for node, out in adjacency.items()}
        for neighbors in adj.values():
            for neighbor in neighbors:
                if neighbor not in adj:
                    raise ValueError(f"edge to undeclared node {neighbor}")
        self._next_hop: Dict[Tuple[str, str], str] = {}
        # BFS from every node; deterministic neighbour order.
        for src in sorted(adj):
            # parent[v] = predecessor of v on the shortest path from src.
            parent: Dict[str, str] = {}
            visited = {src}
            frontier = deque([src])
            while frontier:
                u = frontier.popleft()
                for v in adj[u]:
                    if v not in visited:
                        visited.add(v)
                        parent[v] = u
                        frontier.append(v)
            for dst in visited:
                if dst == src:
                    continue
                # Walk back from dst to find the first hop out of src.
                hop = dst
                while parent[hop] != src:
                    hop = parent[hop]
                self._next_hop[(src, dst)] = hop

    def next_hop(self, here: str, destination: str) -> str:
        """Name of the neighbour to forward to from ``here`` toward
        ``destination``.

        Raises:
            RoutingError: if no path exists.
        """
        try:
            return self._next_hop[(here, destination)]
        except KeyError:
            raise RoutingError(f"no route from {here} to {destination}") from None

    def path(self, src: str, dst: str) -> List[str]:
        """Full node path src..dst (inclusive)."""
        if src == dst:
            return [src]
        path = [src]
        here = src
        seen = {src}
        while here != dst:
            here = self.next_hop(here, dst)
            if here in seen:  # pragma: no cover - defensive
                raise RoutingError(f"routing loop from {src} to {dst}")
            seen.add(here)
            path.append(here)
        return path


def route_graph(
    switches: Iterable[str],
    links: Iterable[Tuple[str, str]],
    attachments: Iterable[Tuple[str, str]],
    down: AbstractSet[str] = frozenset(),
) -> StaticRouting:
    """The routing tables over a network graph: every switch, a directed
    edge per ``(src, dst)`` link whose name ``src->dst`` is not in
    ``down``, and a bidirectional edge per ``(host, switch)`` attachment
    (hosts attach over infinitely fast links that never fail).

    Hosts are leaves — they never transit — so, within one BFS level,
    their presence cannot reorder the discovery of switches: switch
    paths are the same with or without them.
    """
    adjacency: Dict[str, List[str]] = {name: [] for name in switches}
    for host, switch in attachments:
        adjacency[host] = [switch]
        adjacency[switch].append(host)
    for src, dst in links:
        if not down or f"{src}->{dst}" not in down:
            adjacency[src].append(dst)
    return StaticRouting(adjacency)
