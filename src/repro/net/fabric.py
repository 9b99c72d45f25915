"""Datacenter fabric topologies and ECMP-style multipath routing.

The paper's topologies top out at a handful of switches; datacenter
fabrics are the modern workload that stresses the same questions
(isolation, jitter, admission) at four orders of magnitude more flows.
This module builds the two canonical families as plain
:class:`~repro.scenario.spec.TopologySpec` values — nothing downstream
needs to know they are fabrics — and adds the one routing ingredient
fabrics require that chains and random graphs do not: *equal-cost
multipath*.  :class:`StaticRouting` deterministically picks a single
BFS shortest path per (src, dst); on a fat-tree that collapses the
whole bisection onto one core switch.  :class:`EcmpPaths` spreads flows
across all shortest paths with a seeded per-flow choice, the software
analogue of hashing a 5-tuple onto an ECMP group.

Topologies:

* :func:`fat_tree_topology` — the k-ary Clos fat-tree (Al-Fares et al.):
  ``k`` pods of ``k/2`` edge and ``k/2`` aggregation switches,
  ``(k/2)^2`` core switches, ``k^3/4`` hosts.  Full bisection bandwidth
  at ``oversubscription=1``; larger values thin the uplink tiers the
  way real deployments do.
* :func:`leaf_spine_topology` — every leaf duplex-connected to every
  spine; hosts hang off leaves.

Both are host-attachment topologies: the host↔edge hop is the
simulator's infinitely-fast attachment, so the first contended tier is
the edge uplink, which is where fabric queueing happens in this model.

Multipath:

* :class:`EcmpPaths` — all-shortest-path DAG per destination (reverse
  BFS level sets) with a seeded per-flow walk.  The same ``(seed,
  flow)`` always takes the same path, in any process, because draws
  come from :class:`~repro.sim.randomness.KeyedDraws` — a 64-bit
  ``blake2b`` key of ``(seed, "ecmp", flow)`` stepped by an integer
  mix, never ``hash()``.  When a node has a single shortest next hop
  no draw is taken, so single-path topologies route identically to
  :class:`StaticRouting`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.routing import RoutingError
from repro.scenario import paper
from repro.scenario.spec import HostAttachment, LinkSpec, TopologySpec
from repro.sim.randomness import KeyedDraws

#: Default fabric link speed: keep the paper's 1 Mbit/s transmission
#: scale so generated flow populations (85 pps of 1000-bit packets)
#: load fabric links the same way they load every other topology.
EDGE_RATE_BPS = paper.LINK_RATE_BPS


def _duplex(
    src: str, dst: str, rate_bps: float, buffer_packets: int
) -> Tuple[LinkSpec, LinkSpec]:
    return (
        LinkSpec(src=src, dst=dst, rate_bps=rate_bps,
                 buffer_packets=buffer_packets),
        LinkSpec(src=dst, dst=src, rate_bps=rate_bps,
                 buffer_packets=buffer_packets),
    )


def fat_tree_topology(
    k: int = 4,
    hosts_per_edge: int = 0,
    edge_rate_bps: float = EDGE_RATE_BPS,
    oversubscription: float = 1.0,
    buffer_packets: int = paper.BUFFER_PACKETS,
) -> TopologySpec:
    """The k-ary fat-tree: ``k`` pods, ``(k/2)^2`` cores, ``k^3/4`` hosts.

    Node naming: cores ``C-i``, aggregation ``A-<pod>-<i>``, edge
    ``E-<pod>-<i>``, hosts ``H-<pod>-<edge>-<j>``.  Every inter-switch
    link is duplex.  Edge→agg links run at ``edge_rate_bps``; agg→core
    links at ``edge_rate_bps / oversubscription`` (``1.0`` = full
    bisection bandwidth, rearrangeably non-blocking).

    Args:
        k: pod arity; must be even and >= 2.
        hosts_per_edge: hosts attached to each edge switch
            (default ``k/2``, the canonical fat-tree).
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree arity must be even and >= 2, got {k}")
    if oversubscription < 1.0:
        raise ValueError("oversubscription must be >= 1")
    half = k // 2
    hosts_per_edge = hosts_per_edge or half
    core_rate = edge_rate_bps / oversubscription

    cores = [f"C-{i + 1}" for i in range(half * half)]
    nodes: List[str] = list(cores)
    links: List[LinkSpec] = []
    hosts: List[HostAttachment] = []
    for pod in range(k):
        aggs = [f"A-{pod + 1}-{i + 1}" for i in range(half)]
        edges = [f"E-{pod + 1}-{i + 1}" for i in range(half)]
        nodes += aggs + edges
        for edge in edges:
            for agg in aggs:
                links += _duplex(edge, agg, edge_rate_bps, buffer_packets)
        # Aggregation switch i in every pod uplinks to the same stripe
        # of k/2 core switches — the canonical Clos wiring, giving every
        # pod pair (k/2)^2 equal-cost core paths.
        for i, agg in enumerate(aggs):
            for core in cores[i * half:(i + 1) * half]:
                links += _duplex(agg, core, core_rate, buffer_packets)
        for e, edge in enumerate(edges):
            hosts += [
                HostAttachment(host=f"H-{pod + 1}-{e + 1}-{j + 1}",
                               switch=edge)
                for j in range(hosts_per_edge)
            ]
    return TopologySpec(
        nodes=tuple(nodes),
        links=tuple(links),
        host_attachments=tuple(hosts),
        kind="fat-tree",
    )


def leaf_spine_topology(
    leaves: int = 4,
    spines: int = 2,
    hosts_per_leaf: int = 4,
    leaf_rate_bps: float = EDGE_RATE_BPS,
    spine_rate_bps: float = 0.0,
    buffer_packets: int = paper.BUFFER_PACKETS,
) -> TopologySpec:
    """A two-tier leaf-spine fabric: every leaf duplex-wired to every
    spine (``L-i`` / ``SP-i``), ``hosts_per_leaf`` hosts per leaf
    (``H-<leaf>-<j>``).

    ``spine_rate_bps`` defaults to ``leaf_rate_bps`` (uniform fabric);
    any leaf pair has exactly ``spines`` equal-cost two-hop paths.
    """
    if leaves < 2 or spines < 1 or hosts_per_leaf < 1:
        raise ValueError(
            "leaf-spine needs >= 2 leaves, >= 1 spine, >= 1 host per leaf"
        )
    spine_rate_bps = spine_rate_bps or leaf_rate_bps
    leaf_names = [f"L-{i + 1}" for i in range(leaves)]
    spine_names = [f"SP-{i + 1}" for i in range(spines)]
    links: List[LinkSpec] = []
    for leaf in leaf_names:
        for spine in spine_names:
            links += _duplex(leaf, spine, spine_rate_bps, buffer_packets)
    hosts = tuple(
        HostAttachment(host=f"H-{l + 1}-{j + 1}", switch=leaf)
        for l, leaf in enumerate(leaf_names)
        for j in range(hosts_per_leaf)
    )
    return TopologySpec(
        nodes=tuple(leaf_names + spine_names),
        links=tuple(links),
        host_attachments=hosts,
        kind="leaf-spine",
    )


def pair_link_index(topology: TopologySpec) -> Dict[Tuple[str, str], int]:
    """``(src, dst) -> position in topology.links``: the one definition
    of which walk hop is which link, shared by spec build, the fluid
    compile and the control plan.

    Only links named by the ``"src->dst"`` convention take part (every
    plain :class:`LinkSpec` is); a link type that names itself otherwise
    never matches a walk hop, so walks cross it uncounted — the fluid
    compile's long-standing behaviour.  Host attachment hops are not
    links and always fall out as misses.
    """
    return {
        (link.src, link.dst): i
        for i, link in enumerate(topology.links)
        if link.name == f"{link.src}->{link.dst}"
    }


def walk_links(
    nodes: Sequence[str], pair_index: Dict[Tuple[str, str], int]
) -> Tuple[int, ...]:
    """The link indices a node walk crosses, through ``pair_index`` —
    the only walk -> links mapping: :meth:`EcmpPaths.links` and every
    static or SPF route (:func:`flow_routes`) resolve through it."""
    return tuple(
        l for l in map(pair_index.get, zip(nodes, nodes[1:]))
        if l is not None
    )


def flow_routes(
    topology: TopologySpec,
    ecmp_seed: Optional[int] = None,
    down: frozenset = frozenset(),
):
    """``(links, pair_index)``: ``links(src, dst, flow)`` is a flow's
    route as link indices (positions in ``topology.links``) with the
    ``down`` links removed, and ``pair_index`` the
    :func:`pair_link_index` it resolves through.  This is the one
    ECMP-or-static decision — spec build, the fluid compile and the
    control plan all route through it: the seeded per-flow choice of the
    shared :class:`EcmpPaths` when the spec carries an ``ecmp_seed``,
    else the packet engine's static shortest path (a pure function of
    the host pair, memoised across the population).  ``links`` raises
    :class:`RoutingError` for an unreachable pair."""
    if ecmp_seed is not None:
        chooser = EcmpPaths.shared(topology, seed=ecmp_seed).masked(down)
        return chooser.links, chooser.pair_index
    pair_index = pair_link_index(topology)
    if down:
        # Switch-level tables; hosts re-attach at either end.
        from repro.control.spf import spf_from_topology

        switches = spf_from_topology(topology, down).path
        attach = {att.host: att.switch for att in topology.host_attachments}

        def node_path(src: str, dst: str) -> List[str]:
            return [src] + switches(attach[src], attach[dst]) + [dst]
    else:
        from repro.scenario.generators import topology_routes

        node_path = topology_routes(topology).path
    routes: Dict[Tuple[str, str], Tuple[int, ...]] = {}

    def links(src: str, dst: str, flow: str) -> Tuple[int, ...]:
        route = routes.get((src, dst))
        if route is None:
            route = routes[(src, dst)] = walk_links(
                node_path(src, dst), pair_index
            )
        return route

    return links, pair_index


class EcmpPaths:
    """Seeded per-flow path choice over the all-shortest-paths DAG.

    Works on the same node graph :class:`StaticRouting` sees (directed
    inter-switch links, bidirectional host attachments).  A flow's path
    is a walk that, at every node, picks uniformly among the neighbours
    one hop closer to the destination, drawing from
    ``KeyedDraws(seed, "ecmp", flow)`` so the choice is a pure
    function of (topology, seed, flow name) — process-stable and
    identical between the fluid engine and any future packet-engine
    flow-hashing front.

    Routing state is kept per destination *gateway* (a host's
    attachment switch; every host behind it shares the state), filled
    lazily as walks touch nodes:

    * the next-hop DAG — each node's equal-cost successors in sorted
      neighbour order, one neighbour scan per (node, gateway);
    * each node's no-choice continuation: the node and everything after
      it up to the next branch point (or the gateway), one shared tuple
      per (node, gateway).

    A walk is then one key, one draw per branch point and one extend
    per stretch.  :meth:`path` is that walk as nodes; :meth:`links` is
    what the engines consume — the same walk as positions in
    ``topology.links``, memoised per flow.
    """

    #: Small FIFO cache behind :meth:`shared`, keyed by the topology
    #: *object* (id) and seed.  Each entry pins its topology alive, so
    #: an id cannot be recycled while its key is cached.  Only
    #: full-graph (no excluded links) choosers live here: link-state
    #: views hang off their parent via :meth:`masked`, each with its own
    #: memos, so a later compile of the same fabric under a different
    #: link state (or seed) can never read another state's walks.
    _shared: Dict[Tuple[int, int], "EcmpPaths"] = {}
    _shared_cap = 4
    #: FIFO cap on per-instance :meth:`masked` views.
    _masked_cap = 8

    @classmethod
    def shared(cls, topology: TopologySpec, seed: int = 0) -> "EcmpPaths":
        """The memo-warm chooser for ``(topology, seed)``.

        Spec generators and the fluid compiler route the same flow
        population over the same topology object moments apart; sharing
        one instance means the second pass reuses the per-gateway
        routing state and the per-flow link paths instead of recomputing
        them.  Paths are a pure function of (topology, seed, flow), so a
        shared instance returns exactly what a fresh one would.
        """
        key = (id(topology), int(seed))
        inst = cls._shared.get(key)
        if inst is None:
            inst = cls(topology, seed=seed)
            if len(cls._shared) >= cls._shared_cap:
                del cls._shared[next(iter(cls._shared))]
            cls._shared[key] = inst
        return inst

    def masked(self, down) -> "EcmpPaths":
        """The chooser for this (topology, seed) with ``down`` links
        removed from the graph.

        Link-state views are cached per exact down-set on *this*
        instance, each with its own per-gateway and per-flow memos —
        masking never writes the full-graph memos, and
        ``masked(frozenset())`` is ``self``, so when the last failure
        heals the caller is handed back the original object and its
        original (bit-identical) paths.  Masking a masked view composes
        (the down-sets union).

        A view *reads* this instance's memos for one purpose: a flow
        whose memoised walk here meets the same successor tuple at
        every node in the masked DAG is the same walk, draw for draw,
        and the view returns this instance's link tuple by identity
        instead of re-keying and re-walking (:meth:`_inherit`).  So
        resolving a population on a view costs walks only for flows
        whose next-hop state changed.
        """
        dead = frozenset(down) | self.exclude_links
        if dead == self.exclude_links:
            return self
        inst = self._masked.get(dead)
        if inst is None:
            inst = type(self)(
                self.topology, seed=self.seed, exclude_links=dead
            )
            inst._parent = self
            if len(self._masked) >= self._masked_cap:
                del self._masked[next(iter(self._masked))]
            self._masked[dead] = inst
        return inst

    def __init__(
        self,
        topology: TopologySpec,
        seed: int = 0,
        exclude_links: frozenset = frozenset(),
    ):
        self.topology = topology
        self.seed = int(seed)
        self.exclude_links = frozenset(exclude_links)
        self._masked: Dict[frozenset, "EcmpPaths"] = {}
        #: Set by :meth:`masked` on the views it creates, with the
        #: per-(node, gateway) verdicts of :meth:`_inherit`'s test.
        self._parent: Optional["EcmpPaths"] = None
        self._same_hops: Dict[Tuple[str, str], bool] = {}
        #: Walk hop -> link index, over the *whole* topology: a masked
        #: view numbers links exactly as its parent does.
        self.pair_index = pair_link_index(topology)
        self.link_ends = {i: hop for hop, i in self.pair_index.items()}
        adj: Dict[str, List[str]] = {n: [] for n in topology.nodes}
        radj: Dict[str, List[str]] = {n: [] for n in topology.nodes}

        def edge(src: str, dst: str) -> None:
            adj.setdefault(src, []).append(dst)
            radj.setdefault(dst, []).append(src)

        for link in topology.links:
            if link.name in self.exclude_links:
                continue
            edge(link.src, link.dst)
        for att in topology.host_attachments:
            adj.setdefault(att.host, [])
            radj.setdefault(att.host, [])
            edge(att.host, att.switch)
            edge(att.switch, att.host)
        # Sorted neighbours: the pinned order every draw indexes into.
        self._adj = {n: sorted(set(out)) for n, out in adj.items()}
        self._radj = {n: sorted(set(ins)) for n, ins in radj.items()}
        # What the reverse BFS expands: in-neighbours minus leaves (a
        # node whose one neighbour is both its only way out and its
        # only way in — every host).  A leaf sits one hop *behind* its
        # switch, so it is never a successor and no shortest path
        # crosses it; ``path`` steps off one without reading distances.
        leaves = {
            n for n, out in self._adj.items()
            if len(out) == 1 and self._radj[n] in ([], out)
        }
        self._bfs_radj = {
            n: [p for p in ins if p not in leaves]
            for n, ins in self._radj.items()
        }
        # Per destination gateway: reverse-BFS hop counts, the lazily
        # filled next-hop DAG and the continuation memo (see the class
        # docstring).  Identical for every flow toward that gateway.
        self._toward: Dict[str, Tuple[
            Dict[str, int],
            Dict[str, Tuple[str, ...]],
            Dict[str, Tuple[str, ...]],
        ]] = {}
        self._gateway: Dict[str, Optional[str]] = {}
        # Link paths memoised per (src, dst, flow): the walk is a pure
        # function of that triple, and :meth:`shared` callers resolve
        # the same population twice (spec build, then the fluid
        # compiler).  Grows with the flows routed by this instance.
        self._flow_links: Dict[Tuple[str, str, str], Tuple[int, ...]] = {}

    def _routes_toward(self, target: str):
        """``target``'s ``(distances, successors, continuations)``;
        the distances (hop count *to* ``target`` from every node but
        the leaves, which no walk asks about) come from one reverse
        BFS, the other two fill as walks need them."""
        state = self._toward.get(target)
        if state is not None:
            return state
        if target not in self._radj:
            raise RoutingError(f"unknown node {target!r}")
        dist = {target: 0}
        frontier = [target]
        radj = self._bfs_radj
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                for prev in radj[node]:
                    if prev not in dist:
                        dist[prev] = dist[node] + 1
                        nxt.append(prev)
            frontier = nxt
        state = self._toward[target] = (dist, {}, {})
        return state

    def _gateway_of(self, dst: str) -> Optional[str]:
        """The single node every path into ``dst`` crosses (a host's
        attachment switch), or ``None`` when ``dst`` has several
        in-neighbours.  Routing toward such a ``dst`` is routing toward
        the gateway plus the final attachment hop — all hosts on one
        switch then share that switch's routing state."""
        gate = self._gateway.get(dst, False)
        if gate is False:
            ins = self._radj.get(dst)
            gate = (
                ins[0]
                if ins is not None and len(ins) == 1 and ins[0] != dst
                else None
            )
            self._gateway[dst] = gate
        return gate

    def _successors(self, here: str, dist, succ) -> Tuple[str, ...]:
        """Fill ``here``'s entry of one gateway's next-hop DAG: its
        neighbours one hop closer, in sorted order.  Empty when ``here``
        cannot reach the gateway."""
        closer = dist.get(here, 0) - 1
        found = succ[here] = tuple(
            [n for n in self._adj[here] if dist.get(n) == closer]
        )
        return found

    def _continuation(self, node: str, target: str, dist, succ, cont):
        """Memoize the no-choice stretch from ``node`` toward
        ``target``: ``node`` and every following node reached through a
        single successor, up to the next branch point (or ``target``).
        Draws are consumed only at branch points, exactly as a
        node-by-node walk would consume them."""
        chain = [node]
        end = node
        while end != target:
            options = succ.get(end)
            if options is None:
                options = self._successors(end, dist, succ)
            if len(options) != 1:
                break
            end = options[0]
            chain.append(end)
        found = cont[node] = tuple(chain)
        return found

    def path(self, src: str, dst: str, flow: str) -> List[str]:
        """The seeded shortest path for ``flow`` from ``src`` to ``dst``."""
        target, tail = dst, None
        gate = self._gateway_of(dst)
        if gate is not None and src != dst:
            target, tail = gate, dst
        dist, succ, cont = self._routes_toward(target)
        succ_get = succ.get
        cont_get = cont.get
        adj = self._adj
        draw = None  # lazily keyed: single-path flows take no draw
        here, walk = src, [src]
        max_walk = len(adj)
        while here != target:
            options = succ_get(here)
            if options is None:
                out = adj.get(here)
                if out is None:
                    raise RoutingError(f"unknown node {here!r}")
                if len(out) == 1:
                    # A degree-1 node's only neighbour is its only way
                    # toward any destination (hosts, notably — keeping
                    # those per (gateway, host) would grow with the
                    # flows).
                    here = out[0]
                    walk.append(here)
                    if len(walk) > max_walk:
                        # Degree-1 ping-pong with an unreachable dst.
                        raise RoutingError(f"no route from {src} to {dst}")
                    continue
                options = self._successors(here, dist, succ)
            count = len(options)
            if count == 1:
                step = options[0]
            elif count == 0:
                raise RoutingError(f"no route from {src} to {dst}")
            else:
                if draw is None:
                    draw = KeyedDraws(self.seed, "ecmp", flow).draw
                step = options[draw(count)]
            chain = cont_get(step)
            if chain is None:
                chain = self._continuation(step, target, dist, succ, cont)
            walk += chain
            here = chain[-1]
        if tail is not None:
            walk.append(tail)
        return walk

    def links(self, src: str, dst: str, flow: str) -> Tuple[int, ...]:
        """:meth:`path` as link indices (positions in
        ``topology.links``, through :func:`walk_links`; attachment hops
        carry none) — the form the engines consume, memoised per flow.
        On a masked view, the parent's tuple itself when the flow's
        walk is untouched by the mask."""
        key = (src, dst, flow)
        found = self._flow_links.get(key)
        if found is None:
            if self._parent is not None:
                found = self._inherit(src, dst, key)
            if found is None:
                found = walk_links(
                    self.path(src, dst, flow), self.pair_index
                )
            self._flow_links[key] = found
        return found

    def _inherit(self, src: str, dst: str, key) -> Optional[Tuple[int, ...]]:
        """The parent's memoised link tuple for ``key``, iff this view
        would walk the same nodes: a walk is a pure function of (seed,
        flow, successor tuple at each node visited), so it is enough
        that every node the parent's walk left through a numbered link
        has the same successors toward the gateway here.  Anything
        else — a flow, gateway or node the parent never memoised, a hop
        the link index does not number, a changed tuple — returns None
        and the caller walks.  Reads the parent's memos, never writes."""
        parent = self._parent
        base = parent._flow_links.get(key)
        gate = self._gateway_of(dst)
        known = parent._toward.get(gate)
        here = self._adj.get(src)
        if base is None or known is None or here is None or src == dst:
            return None
        # A degree-1 source (a host) steps to its only neighbour
        # without consulting the DAG; the attachment hop has no link.
        here = here[0] if len(here) == 1 else src
        same = self._same_hops
        ends = self.link_ends
        for link in base:
            tail, head = ends[link]
            if tail != here:
                return None
            ok = same.get((here, gate))
            if ok is None:
                dist, succ, _cont = self._routes_toward(gate)
                mine = succ.get(here)
                if mine is None:
                    mine = self._successors(here, dist, succ)
                ok = same[(here, gate)] = mine == known[1].get(here)
            if not ok:
                return None
            here = head
        return base if here == gate else None
