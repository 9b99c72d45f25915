"""Fused multi-epoch fluid kernel: the NumPy hot path without the
per-epoch Python loop.

The fluid-model analogue of the packet engine's batched link drain:
whole stretches of simulated time collapse into one vectorised step
whenever the model can prove the collapsed epochs are indistinguishable
from stepping them one by one.

Four coordinated mechanisms:

* **CSR incidence** (:class:`CsrIncidence`) — the (flow, link) incidence
  is compiled once per link state into flat arrays, indices at the
  native ``intp`` width so that gathers and bincounts through them
  convert nothing: flow-major entry lists (``ef``/``el``, the bincount
  currency) plus a link-major permutation (``lk_flow``/``lk_link``) so
  per-link loads come out of one ``add.reduceat``.  Waterfill, backlog
  updates, the congestion check and the accumulators all share it.

* **Fused multi-epoch blocks** — the on/off phase grid for a block of
  ``K`` epochs is evaluated as one ``(flows, K)`` array, and one check
  (:meth:`CsrIncidence.congested`: a screen of summed block peaks, then
  an exact link-major pass over the links it cannot clear) finds the
  first epoch any link would saturate, which runs the exact single-epoch
  waterfill.  Every *uncongested* prefix (offered load strictly under
  capacity on every link, entering backlog zero) is accumulated in
  closed form: the waterfill provably assigns every flow its demand,
  queues stay empty, and per-flow served bits equal the per-epoch values
  bit-for-bit — only the accumulator *fold order* changes (reassociation
  round-off, pinned ≤1e-9 by the property grid).

* **Tier width** — each view caches every tier's routed flows and
  entries, so the single-epoch waterfill works over one tier (link
  loads ``used`` stay one bincount over every entry), the buffer clamp
  over the queued flows and the delay samples over the recorded flows'
  entries.  Entries left out would add exact zeros and each per-flow
  fold keeps its entry order: bit-for-bit the full-width solver.

* **Block cursor** — an evaluated block stays on the kernel until its
  columns are spent (``_take_block``).  A congested or backlogged
  epoch consumes one column and the next epoch takes the next one; an
  epoch that needs the full look-ahead again tops the held columns up
  with only the epochs not yet evaluated.  The grid is column-wise
  partition-independent bit-for-bit, so every epoch's column is
  evaluated exactly once per run in every regime (a backlogged run
  costs one grid column per epoch, like an uncongested one), and the
  fused prefixes, hence every accumulator fold, are exactly those of
  re-evaluating a full block at each epoch.

Under a compiled control plan (:mod:`repro.fluid.control`) the grid is
grouped into link-state *segments*: each segment swaps in its state's
per-flow path/weight view (one builder, cached per interned state; the
all-up state is just the first one built), flushes dead-path backlog at
the boundary, and runs the same fused machinery within the segment;
flows with no route (or torn down) have their sheds ledgered
epoch-exactly.

The pure-Python backend in :mod:`repro.fluid.reference` stays
authoritative and shares no code with this module (both read the same
:class:`~repro.fluid.compile.CompiledFluid`);
``tests/fluid/test_kernel.py`` pins kernel-vs-pure agreement across
generated fabrics, disciplines, and epoch sizes, and kernel-vs-kernel
(fused vs single-epoch) agreement at tighter tolerance still.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.fluid import compile as _compile

#: Entry budget for one fused block: K is sized so the (entries, K)
#: scratch stays around this many float64 cells (~64 MB), shrinking at
#: 1M-flow incidences and growing at small ones.
_BLOCK_ENTRY_BUDGET = 8_000_000
_MAX_BLOCK_EPOCHS = 64
#: Cells per row block of a transposed copy (~4x faster than one shot).
_TRANSPOSE_CELLS = 16_384


class CsrIncidence:
    """The (flow, link) incidence of one link state, as flat arrays.

    Built once per link-state view (:meth:`FluidKernel._set_view`) and
    shared by the waterfill, the congestion check, and every accumulator
    update.  ``ef``/``el`` list the entries flow-major — ``ef[i]`` is
    the flow and ``el[i]`` the link of entry ``i`` — exactly the order
    the pure backend's nested loops visit, so bincounts over them
    accumulate in the same sequence.  ``lk_flow``/``lk_link`` are the
    same entries link-major (flows ascending within a link), and
    ``link_counts`` counts each link's entries.
    """

    __slots__ = (
        "num_links", "ef", "el", "lk_flow", "lk_link", "link_counts",
        "nonempty_links", "nonempty_starts",
    )

    def __init__(self, paths, num_links: int):
        from itertools import chain

        F = len(paths)
        counts = np.fromiter(
            (len(p) for p in paths), dtype=np.int64, count=F
        )
        total = int(counts.sum())
        self.num_links = num_links
        # intp, not int32: a gather or bincount through a narrower
        # index array converts the whole array on every call.
        self.ef = np.repeat(np.arange(F, dtype=np.intp), counts)
        self.el = np.fromiter(
            chain.from_iterable(paths), dtype=np.intp, count=total
        )
        el = self.el
        order = np.argsort(el, kind="stable")
        self.lk_flow = self.ef[order]
        self.lk_link = el[order]
        self.link_counts = np.bincount(el, minlength=num_links)
        # reduceat cannot express empty segments, so the load gather
        # runs over non-empty links only and scatters back.
        self.nonempty_links = np.flatnonzero(self.link_counts > 0)
        starts = np.cumsum(self.link_counts) - self.link_counts
        self.nonempty_starts = starts[self.nonempty_links]

    def link_loads(self, per_flow: np.ndarray) -> np.ndarray:
        """Per-link sums of a per-flow quantity, vectorised over the
        trailing epoch axis: ``per_flow`` is ``(F,)`` or ``(F, K)``;
        the result is ``(L,)`` or ``(L, K)``."""
        gathered = per_flow[self.lk_flow]
        out_shape = (self.num_links,) + per_flow.shape[1:]
        out = np.zeros(out_shape)
        if self.nonempty_starts.size:
            out[self.nonempty_links] = np.add.reduceat(
                gathered, self.nonempty_starts, axis=0
            )
        return out

    def congested(self, demand: np.ndarray, limit: np.ndarray) -> np.ndarray:
        """Per column of ``demand`` (``(F, K)``), whether any link's load
        exceeds its ``limit``: exactly ``np.any(self.link_loads(demand)
        > limit[:, None], axis=0)``.  A link whose flows' block peaks sum
        to at most its limit is cleared (each column folds addends no
        larger in the same order, and rounding is monotone); an empty link
        is hot only under a negative limit.  Hot links' entries reduce
        link-major along the contiguous axis of their rows as ``(K, U)``."""
        K = demand.shape[1]
        hot = self.link_loads(demand.max(axis=1)) > limit
        if (hot & (self.link_counts == 0)).any():
            return np.ones(K, dtype=bool)
        flows = self.lk_flow[hot[self.lk_link]]
        counts = self.link_counts[hot]
        mark = np.bincount(flows, minlength=demand.shape[0]) > 0
        distinct = np.flatnonzero(mark)
        rows = np.empty((K, distinct.size))  # their rows, transposed
        step = max(_TRANSPOSE_CELLS // K, 1)
        for i in range(0, distinct.size, step):
            rows[:, i:i + step] = demand[distinct[i:i + step]].T
        rank = np.cumsum(mark) - 1  # position among the distinct flows
        gathered = np.take(rows, rank[flows], axis=1)
        loads = np.add.reduceat(gathered, np.cumsum(counts) - counts, axis=1)
        return np.any(loads > limit[hot], axis=1)


def first_saturated_links(ef, el, sat_entry):
    """``(flows, links)``: each flow with a saturated entry and the
    lowest-numbered saturated link on its path.  Entries are flow-major
    (``ef`` non-decreasing), so the flows' runs among the saturated
    entries are contiguous and one ``minimum.reduceat`` over them is the
    exact integer min of a per-entry scatter, without its cost."""
    idx = np.flatnonzero(sat_entry)
    flows = ef[idx]
    first = np.ones(idx.size, dtype=bool)
    np.not_equal(flows[1:], flows[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return flows[starts], np.minimum.reduceat(el[idx], starts)


class FluidKernel:
    """One fluid run's compiled hot path.

    Owns preallocated accumulator arrays for the whole run; the
    per-epoch fallback and the fused block path both write into the
    same arrays, and :meth:`run` writes them back to
    the :class:`~repro.fluid.model.FluidSimulation` in the plain-list
    currency ``collect()`` reads.
    """

    def __init__(self, sim):
        self.sim = sim
        self.opts = sim.options
        c = self.c = sim.compiled
        F = len(c.flow_names)
        L = len(c.caps)
        self.F, self.L, self.T = F, L, c.num_tiers
        self.warmup = c.warmup

        self.caps = np.asarray(c.caps)
        self.eps = np.maximum(1e-9 * self.caps, 1e-6)
        self.buffer_bits = np.asarray(c.buffer_bits)
        self.peak = np.asarray(c.peak_bps)
        self.duty = np.asarray(c.duty)
        self.period = np.asarray(c.period)
        self.inv_period = 1.0 / self.period
        self.phase = np.asarray(c.phase)
        self.tier = np.asarray(c.tier, dtype=np.int64)
        self.size_bits = np.asarray(c.size_bits)
        self.realtime = np.asarray(c.realtime, dtype=bool)
        self.constant = self.duty >= 1.0
        self.record = np.asarray(c.record, dtype=bool)
        self.rec_idx = np.flatnonzero(self.record)

        # -- preallocated run accumulators -----------------------------
        self.backlog = np.zeros(F)
        self.generated = np.zeros(F)
        self.delivered = np.zeros(F)
        self.dropped = np.zeros(F)
        self.link_served = np.zeros(L)
        self.link_drops = np.zeros(L)
        self.wait_num = np.zeros(L)
        self.wait_den = np.zeros(L)
        self.link_rt = np.zeros(L)
        # Control-plane ledgers (stay zero on outage-free runs).
        self.fail_dropped = np.zeros(F)
        self.nr_packets = np.zeros(F)
        self.link_fail = np.zeros(L)
        self.flushed = 0.0
        self.rec_delays: List[np.ndarray] = []
        self.rec_weights: List[np.ndarray] = []
        self.events = 0
        self.max_capacity_overuse = 0.0
        self.max_buffer_overuse = -1.0
        self.stats = sim.kernel_stats
        # The evaluated-but-unspent phase grid (see ``_take_block``):
        # (first epoch, arrival columns, no-route shed rows).
        self._held = (0, np.zeros((F, 0)), np.zeros((0, 0)))

        # -- epoch grid (precomputed once) -----------------------------
        # Outage-free runs keep the original uniform-grid arithmetic
        # bit-for-bit; a compiled control plan supplies the uniform grid
        # split at every link-state boundary.
        if c.epoch_starts is not None:
            self.t0s = np.asarray(c.epoch_starts)
            self.t1s = np.asarray(c.epoch_ends)
        else:
            eps_s = c.epoch_seconds
            self.t0s = np.arange(c.num_epochs) * eps_s
            self.t1s = np.minimum(c.duration, self.t0s + eps_s)
        self.dts = self.t1s - self.t0s

        # -- link-state views ------------------------------------------
        # The hot path reads csr/routed/fair/... off ``self``;
        # ``_set_view`` swaps those attributes per link state, so the
        # fused block, waterfill, and single-epoch code run unchanged
        # against whichever state is current.  The all-up state's view
        # is built here; a control plan's other states on first use.
        self._views = {}
        self._set_view(c.paths, c.fair, c.weight_static)

    # -- control plane: per-state views and boundary flushes -----------
    def _set_view(self, paths, fair, weight, noroute=(), inactive=()):
        """Swap in one link state's compiled view — the incidence (CSR
        over its paths), routing masks, per-tier waterfill slices,
        recorded-flow entries and discipline classification, plus the
        index lists of no-route and torn-down flows — built on first use
        and cached per state.  States are interned and own their
        ``paths`` list, and the plan's all-up state holds the compiled
        base list itself, so ``id(paths)`` names the state."""
        view = self._views.get(id(paths))
        if view is None:
            csr = CsrIncidence(paths, self.L)
            ef, el = csr.ef, csr.el
            routed = np.asarray([bool(p) for p in paths], dtype=bool)
            first_link = np.asarray(
                [p[0] if p else 0 for p in paths], dtype=np.int64
            )
            e_tier = self.tier[ef]
            e_lt = el * self.T + e_tier
            # Per tier: its routed flows, and its entries (flow-major) as
            # links and as positions among those flows; the same
            # positions for the recorded flows' entries.
            tiers = []
            for t in range(self.T):
                members = np.flatnonzero((self.tier == t) & routed)
                te = np.flatnonzero(e_tier == t)
                tiers.append(
                    (members, el[te], np.searchsorted(members, ef[te]))
                )
            rec = np.flatnonzero(self.record[ef])
            view = self._views[id(paths)] = (
                csr, routed, np.flatnonzero(~routed), first_link, tiers,
                e_lt, self.realtime[ef], e_lt[rec],
                np.searchsorted(self.rec_idx, ef[rec]),
                np.asarray(fair, dtype=bool),
                np.asarray(weight),
                np.asarray(noroute, dtype=np.int64),
                np.asarray(inactive, dtype=np.int64),
            )
        (self.csr, self.routed, self.unrouted, self.first_link,
         self.tiers, self.e_lt, self.e_rt, self.rec_lt, self.rec_pos,
         self.fair, self.w_static, self.nr_idx, self.zero_idx) = view

    def _apply_flush(self, flush) -> None:
        """Boundary flush: drop the listed flows' backlog, ledgered per
        flow (failure drops) and per link (flushed packets) — the fluid
        twin of ``Port.flush_queue`` on a dead port."""
        for f, l in flush:
            bits = float(self.backlog[f])
            if bits > 0.0:
                self.fail_dropped[f] += bits
                packets = bits / float(self.size_bits[f])
                self.link_fail[l] += packets
                self.flushed += packets
                self.backlog[f] = 0.0

    def _ledger_noroute(self, shed, k0: int, k1: int) -> None:
        """Account epochs ``[k0, k1)`` of a block's no-route arrivals
        (``shed``, rows = ``nr_idx``): the source keeps generating, the
        network drops at the first hop.  Called exactly once per
        consumed epoch range, so block re-entry never double-counts."""
        if not self.nr_idx.size:
            return
        total = shed[:, k0:k1].sum(axis=1)
        idx = self.nr_idx
        self.generated[idx] += total
        self.fail_dropped[idx] += total
        self.nr_packets[idx] += total / self.size_bits[idx]

    # ------------------------------------------------------------------
    def _block_size(self) -> int:
        if self.opts.fuse_epochs:
            return int(self.opts.fuse_epochs)
        entries = max(int(self.csr.ef.size), self.F, 1)
        return int(
            np.clip(_BLOCK_ENTRY_BUDGET // entries, 1, _MAX_BLOCK_EPOCHS)
        )

    def _on_block(self, e0: int, e1: int) -> np.ndarray:
        """Closed-form on-seconds per (flow, epoch) for epochs
        ``[e0, e1)`` — the whole phase grid in one broadcast.

        Constant-rate flows (duty >= 1) are pinned to exactly ``dt``,
        matching the pure backend's early return bit-for-bit (the
        closed form below can differ from ``dt`` in the last ulp).
        """
        t0 = self.t0s[e0:e1]
        t1 = self.t1s[e0:e1]
        dt = self.dts[e0:e1]
        duty = self.duty[:, None]
        # In-place evaluation of the pure backend's measure():
        #   on = (duty*floor(b) + min(b - floor(b), duty))
        #      - (duty*floor(a) + min(a - floor(a), duty)), then *period;
        # every step below keeps that association (commuted adds and
        # multiplies only), so the values match the naive form bitwise
        # and are identical per column for any block partition.
        a = np.multiply.outer(self.inv_period, t0)
        a += self.phase[:, None]
        b = np.multiply.outer(self.inv_period, t1)
        b += self.phase[:, None]
        fa = np.floor(a)
        fb = np.floor(b)
        a -= fa
        np.minimum(a, duty, out=a)
        b -= fb
        np.minimum(b, duty, out=b)
        fa *= duty
        fb *= duty
        a += fa
        b += fb
        b -= a
        b *= self.period[:, None]
        np.minimum(b, dt[None, :], out=b)
        b[self.constant] = dt[None, :]
        return b

    # ------------------------------------------------------------------
    def run(self) -> None:
        c = self.c
        # The all-up state's incidence (still the current view) sizes
        # the blocks of every segment.
        self._block = self._block_size()
        if c.segments is None:
            self._run_span(0, c.num_epochs)
        else:
            for seg in c.segments:
                self._apply_flush(seg.flush)
                if seg.e1 > seg.e0:
                    st = seg.state
                    self._set_view(
                        st.paths, st.fair, st.weight, st.noroute,
                        st.inactive,
                    )
                    self._run_span(seg.e0, seg.e1)
        self._writeback()

    def _run_span(self, e0: int, end: int) -> None:
        """Advance epochs ``[e0, end)`` under the current view.  The
        span boundary is a hard wall: blocks are clipped to it (the
        link state changes there)."""
        e = e0
        while e < end:
            if self.dts[e] <= 0:
                break
            e = self._advance_block(e, min(self._block, end - e))

    # -- fused block path ----------------------------------------------
    def _take_block(self, e0: int, count: int, whole: bool):
        """The evaluated grid from epoch ``e0`` on, as ``(arrival,
        shed)`` with column 0 = epoch ``e0``: the held block's unspent
        columns, topped up to ``count`` epochs when there are none left
        or the caller needs the ``whole`` look-ahead.  Only columns not
        yet held are evaluated, so each epoch's column is computed
        exactly once per run whatever regimes alternate, and
        ``_on_block`` is column-wise partition-independent, so the
        values are those of any other blocking.  Blocks are clipped to
        the span and the next span starts past them, so a held block
        (and its shed rows) never outlives its view."""
        g0, arrival, shed = self._held
        have = max(g0 + arrival.shape[1] - e0, 0)
        if have and (have >= count or not whole):
            return arrival[:, e0 - g0:], shed[:, e0 - g0:]
        if not have:
            # Spent: free it before the next block's scratch exists.
            self._held = arrival = shed = None
        fresh = self._on_block(e0 + have, e0 + count)
        fresh *= self.peak[:, None]
        self.stats["grid_columns"] += count - have
        # Shed flows: no-route arrivals are set aside (ledgered per
        # consumed epoch by the caller) and torn-down flows generate
        # nothing; both then carry zero demand through the block.
        fresh_shed = fresh[self.nr_idx]
        fresh[self.nr_idx] = 0.0
        fresh[self.zero_idx] = 0.0
        if have:
            fresh = np.concatenate((arrival[:, e0 - g0:], fresh), axis=1)
            fresh_shed = np.concatenate(
                (shed[:, e0 - g0:], fresh_shed), axis=1
            )
        self._held = (e0, fresh, fresh_shed)
        return fresh, fresh_shed

    def _advance_block(self, e0: int, count: int) -> int:
        """Advance epochs ``[e0, e0+count)``; returns the next epoch.

        The uncongested prefix (entering backlog zero, offered load
        strictly under capacity everywhere) is accumulated in closed
        form; the first epoch that breaks either condition runs through
        the exact single-epoch waterfill.
        """
        e1 = e0 + count
        backlogged = bool(self.backlog.any())
        arrival, shed = self._take_block(e0, count, whole=not backlogged)
        if backlogged:
            # A queued flow couples epochs; serve this epoch exactly
            # and come back for the block's next column.
            self._ledger_noroute(shed, 0, 1)
            self._single_epoch(e0, arrival[:, 0])
            return e0 + 1
        demand = arrival / self.dts[None, e0:e1]
        congested = self.csr.congested(demand, self.caps - 2.0 * self.eps)
        fused = int(np.argmax(congested)) if congested.any() else count
        if fused:
            self._ledger_noroute(shed, 0, fused)
            self._accumulate_uncongested(e0, e0 + fused, arrival, demand)
        if fused < count:
            self._ledger_noroute(shed, fused, fused + 1)
            self._single_epoch(e0 + fused, arrival[:, fused])
            return e0 + fused + 1
        return e1

    def _accumulate_uncongested(
        self, e0: int, e1: int, arrival: np.ndarray, demand: np.ndarray
    ) -> None:
        """Closed-form accumulation of uncongested epochs ``[e0, e1)``:
        every flow is served exactly its demand, queues stay empty,
        delays are zero.  Per-flow served bits per epoch equal the
        single-epoch values bit-for-bit (``demand * dt`` with zero
        backlog); only the accumulator fold order differs."""
        K = e1 - e0
        arrival = arrival[:, :K]
        served = demand[:, :K] * self.dts[None, e0:e1]
        arrival_sum = arrival.sum(axis=1)
        served_sum = served.sum(axis=1)
        self.generated += arrival_sum
        self.delivered += served_sum
        link_sum = self.csr.link_loads(served_sum)
        self.link_served += link_sum
        self.wait_den += link_sum
        rt = self.e_rt
        self.link_rt += np.bincount(
            self.csr.el[rt], weights=served_sum[self.csr.ef[rt]],
            minlength=self.L,
        )
        if self.rec_idx.size:
            recordable = self.t0s[e0:e1] >= self.warmup
            if recordable.any():
                w = served[self.rec_idx][:, recordable] / (
                    self.size_bits[self.rec_idx, None]
                )
                zeros = np.zeros(self.rec_idx.size)
                for k in range(w.shape[1]):
                    self.rec_delays.append(zeros)
                    self.rec_weights.append(w[:, k])
        self.events += self.F * K
        self.stats["epochs_fused"] += K

    # -- exact single-epoch fallback -------------------------------------
    def _single_epoch(self, e: int, arrival: np.ndarray) -> None:
        """One epoch through the full waterfill — the authoritative
        schedule the fused paths must be indistinguishable from."""
        csr, np_ = self.csr, np
        F, L, T = self.F, self.L, self.T
        dt = self.dts[e]

        demand = (arrival + self.backlog) / dt
        weight = np_.where(self.fair, self.w_static, demand)
        rate = np_.zeros(F)
        bottleneck = np_.full(F, -1, dtype=np_.int64)
        slack = self.caps.copy()
        for tier in self.tiers:
            self._waterfill(tier, demand, weight, rate, bottleneck, slack)
        rate[self.unrouted] = demand[self.unrouted]

        rate_entry = rate[csr.ef]
        used = np_.bincount(csr.el, weights=rate_entry, minlength=L)
        over = float(np_.max(used / self.caps)) - 1.0 if L else -1.0
        if over > self.max_capacity_overuse:
            self.max_capacity_overuse = over

        served = rate * dt
        self.backlog += arrival - served
        np_.maximum(self.backlog, 0.0, out=self.backlog)
        self.generated += arrival
        self.delivered += served

        queued = np_.flatnonzero(self.routed & (self.backlog > 0))
        bn = bottleneck[queued]
        bn = np_.where(bn >= 0, bn, self.first_link[queued])
        tq = self.tier[queued]
        backlog_q = self.backlog[queued]
        # An empty bincount comes back int64 whatever its weights.
        q_lt = np_.bincount(
            bn * T + tq, weights=backlog_q, minlength=L * T
        ).astype(float, copy=False).reshape(L, T)
        cum = np_.cumsum(q_lt, axis=1)
        keep = np_.clip(
            self.buffer_bits[:, None] - (cum - q_lt), 0.0, q_lt
        )
        with np_.errstate(invalid="ignore", divide="ignore"):
            scale = np_.where(
                q_lt > 0, keep / np_.maximum(q_lt, 1e-300), 1.0
            )
        flow_scale = scale[bn, tq]
        shed = backlog_q * (1.0 - flow_scale)
        self.backlog[queued] = backlog_q * flow_scale
        self.dropped[queued] += shed
        self.link_drops += np_.bincount(
            bn, weights=shed / self.size_bits[queued], minlength=L,
        )
        q_lt *= scale
        # What the clamp left queued, against the bound.
        fill = (
            float(np_.max(q_lt.sum(axis=1) / self.buffer_bits)) - 1.0
            if L else -1.0
        )
        if fill > self.max_buffer_overuse:
            self.max_buffer_overuse = fill

        cumwait = np_.cumsum(q_lt, axis=1) / self.caps[:, None]
        cumwait_flat = cumwait.reshape(-1)

        served_entry = rate_entry * dt
        served_lt = np_.bincount(
            self.e_lt, weights=served_entry, minlength=L * T
        )
        self.link_served += np_.bincount(
            csr.el, weights=served_entry, minlength=L
        )
        self.wait_num += (cumwait_flat * served_lt).reshape(L, T).sum(axis=1)
        self.wait_den += served_lt.reshape(L, T).sum(axis=1)
        self.link_rt += np_.bincount(
            csr.el[self.e_rt], weights=served_entry[self.e_rt],
            minlength=L,
        )

        rec = self.rec_idx
        if rec.size and self.t0s[e] >= self.warmup:
            shared = np_.bincount(
                self.rec_pos, weights=cumwait_flat[self.rec_lt],
                minlength=rec.size,
            )
            rate_r = rate[rec]
            with np_.errstate(invalid="ignore", divide="ignore"):
                isolated = np_.where(
                    rate_r > 0,
                    self.backlog[rec] / np_.maximum(rate_r, 1e-300),
                    0.0,
                )
            self.rec_delays.append(np_.where(self.fair[rec], isolated, shared))
            self.rec_weights.append(served[rec] / self.size_bits[rec])
        self.events += F
        self.stats["epochs_single"] += 1

    # -- waterfill -------------------------------------------------------
    def _waterfill(self, tier, demand, weight, rate, bottleneck, slack) -> None:
        """Demand-bounded weighted max-min over one tier's ``(members,
        entry links, entry positions)`` view slice (vectorised; identical
        algorithm to the pure backend's ``_waterfill_pure``)."""
        np_ = np
        ef, el, L = self.csr.ef, self.csr.el, self.L
        stats = self.stats
        stats["waterfill_calls"] += 1
        members, tel, tpos = tier
        if not members.size:
            return
        d_m, w_m = demand[members], weight[members]
        active = (d_m > 0) & (w_m > 0)
        if not active.any():
            return
        max_rounds = _compile.MAX_ROUNDS
        rounds = 0
        while rounds < max_rounds:
            rounds += 1
            stats["waterfill_rounds"] += 1
            aw = np_.where(active, w_m, 0.0)
            wsum = np_.bincount(tel, weights=aw[tpos], minlength=L)
            contended = wsum > 0
            if not contended.any():
                return
            lam = float(
                np_.min(
                    np_.maximum(slack[contended], 0.0) / wsum[contended]
                )
            )
            hit = active & (d_m - rate[members] <= lam * w_m * (1 + 1e-12))
            if hit.any():
                rate[members[hit]] = d_m[hit]
                active &= ~hit
            else:
                rate[members] += lam * aw
            used = np_.bincount(el, weights=rate[ef], minlength=L)
            slack[:] = self.caps - used
            # Saturation is a per-link fact: test it at link width and
            # gather the verdict, not both operands, per entry.
            sat_entry = (slack <= self.eps)[tel] & active[tpos]
            if sat_entry.any():
                frozen, first = first_saturated_links(tpos, tel, sat_entry)
                bottleneck[members[frozen]] = first
                active[frozen] = False
            if not active.any():
                return
        # Round cap exhausted: final demand-capped proportional fill.
        self.sim.waterfill_exhausted += int(active.sum())
        aw = np_.where(active, w_m, 0.0)
        wsum = np_.bincount(tel, weights=aw[tpos], minlength=L)
        contended = wsum > 0
        if contended.any():
            lam = float(
                np_.min(
                    np_.maximum(slack[contended], 0.0) / wsum[contended]
                )
            )
            live = members[active]
            rate[live] = np_.minimum(
                d_m[active], rate[live] + lam * w_m[active]
            )

    # ------------------------------------------------------------------
    def _writeback(self) -> None:
        sim = self.sim
        sim.generated_bits = self.generated.tolist()
        sim.delivered_bits = self.delivered.tolist()
        sim.dropped_bits = self.dropped.tolist()
        sim.backlog_bits = self.backlog.tolist()
        sim.link_served_bits = self.link_served.tolist()
        sim.link_drop_packets = self.link_drops.tolist()
        sim.link_wait_num = self.wait_num.tolist()
        sim.link_wait_den = self.wait_den.tolist()
        sim.link_realtime_bits = self.link_rt.tolist()
        sim.failure_drop_bits = self.fail_dropped.tolist()
        sim.no_route_packets = self.nr_packets.tolist()
        sim.link_failure_packets = self.link_fail.tolist()
        sim.flushed_packets += self.flushed
        sim.events_processed += self.events
        sim.max_capacity_overuse = self.max_capacity_overuse
        sim.max_buffer_overuse = self.max_buffer_overuse
        for f in sim.samples:
            pos = int(np.searchsorted(self.rec_idx, f))
            sim.samples[f] = [
                (float(d[pos]), float(w[pos]))
                for d, w in zip(self.rec_delays, self.rec_weights)
            ]
