"""Static shortest-path routing.

The paper's experiments use fixed paths on a chain; routing is orthogonal to
its contribution (Section 1 explicitly scopes it out).  We provide
deterministic static shortest-path routing computed once at build time with
breadth-first search over the (directed) link graph, with ties broken by
node-name order so experiments are reproducible.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Tuple


class RoutingError(RuntimeError):
    """No route exists between the requested endpoints."""


class StaticRouting:
    """All-pairs next-hop table over a directed graph of named nodes."""

    def __init__(self):
        self._adj: Dict[str, List[str]] = {}
        self._next_hop: Dict[Tuple[str, str], str] = {}
        self._dirty = False

    @classmethod
    def from_adjacency(
        cls, adjacency: Mapping[str, Iterable[str]]
    ) -> "StaticRouting":
        """The tables over a whole ``node -> neighbours`` graph (directed
        edges) at once — what the control plane builds per link-state
        change (:mod:`repro.control.spf`).  The same BFS as a graph
        declared edge by edge, so a restored link state routes exactly
        as the build-time network did."""
        routing = cls()
        routing._adj = {
            node: list(neighbors) for node, neighbors in adjacency.items()
        }
        for neighbors in routing._adj.values():
            for neighbor in neighbors:
                if neighbor not in routing._adj:
                    raise ValueError(f"edge to undeclared node {neighbor}")
        routing._dirty = True
        return routing

    def add_node(self, name: str) -> None:
        self._adj.setdefault(name, [])
        self._dirty = True

    def add_edge(self, src: str, dst: str) -> None:
        """Declare a directed link src -> dst."""
        self.add_node(src)
        self.add_node(dst)
        if dst not in self._adj[src]:
            self._adj[src].append(dst)
        self._dirty = True

    @property
    def nodes(self) -> Iterable[str]:
        return self._adj.keys()

    def _recompute(self) -> None:
        """BFS from every node; deterministic neighbour order."""
        self._next_hop.clear()
        adj = {node: sorted(out) for node, out in self._adj.items()}
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
        self._dirty = False

    def next_hop(self, here: str, destination: str) -> str:
        """Name of the neighbour to forward to from ``here`` toward
        ``destination``.

        Raises:
            RoutingError: if no path exists.
        """
        if self._dirty:
            self._recompute()
        try:
            return self._next_hop[(here, destination)]
        except KeyError:
            raise RoutingError(f"no route from {here} to {destination}") from None

    def path(self, src: str, dst: str) -> List[str]:
        """Full node path src..dst (inclusive)."""
        if self._dirty:
            self._recompute()
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
