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
  currency) plus a link-major permutation (``lk_flow``) so per-link
  per-epoch loads come out of one ``add.reduceat`` instead of a Python
  rebuild per call.  Waterfill, backlog updates, and the accumulators
  all share it.

* **Fused multi-epoch blocks** — the on/off phase grid for a block of
  ``K`` epochs is evaluated as one ``(flows, K)`` array; per-link
  offered load per epoch comes from one reduceat over the link-major
  view.  Every *uncongested* prefix of the block (offered load strictly
  under capacity on every link, entering backlog zero) is accumulated
  in closed form: the waterfill provably assigns every flow its demand,
  queues stay empty, and per-flow served bits equal the per-epoch
  values bit-for-bit — only the accumulator *fold order* changes
  (reassociation round-off, pinned ≤1e-9 by the property grid).  The
  moment any link would saturate, the kernel falls back to the exact
  single-epoch waterfill for that epoch.

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

* **Steady-state fast-forward** — when every flow is constant-rate
  (duty >= 1: no on/off transitions) the kernel computes one reference
  epoch and, if the backlog vector comes back bit-identical (steady:
  empty and uncongested, or clamped into a stable queue), jumps in
  closed form to the next *boundary*: the warmup crossing (where sample
  recording switches on — the event an elided epoch must not straddle)
  or the first epoch with a different length (the trailing partial
  epoch).  Elided epochs replay the reference epoch's cached deltas, so
  per-flow state and recorded samples are bit-identical to the
  epoch-by-epoch schedule and ``events_processed`` counts every elided
  epoch exactly — the same guarantee discipline as the packet engine's
  ``Simulator.advance_to``.  ``FluidOptions(fast_forward=False)``
  disables the jump (the equivalence tests run both ways).

Under a compiled control plan (:mod:`repro.fluid.control`) the grid is
grouped into link-state *segments*: each segment swaps in its state's
per-flow path/weight view (one builder, cached per interned state; the
all-up state is just the first one built), flushes dead-path backlog at
the boundary, and runs the same fused machinery within the segment —
fast-forward never jumps across a link-state boundary, and flows with
no route (or torn down) disable the jump for their segment so their
sheds are ledgered epoch-exactly.

The pure-Python backend in :mod:`repro.fluid.reference` stays
authoritative and shares no code with this module (both read the same
:class:`~repro.fluid.compile.CompiledFluid`);
``tests/fluid/test_kernel.py`` pins kernel-vs-pure agreement across
generated fabrics, disciplines, and epoch sizes, and kernel-vs-kernel
(fused/fast-forward on vs off) agreement at tighter tolerance still.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.fluid import compile as _compile

try:  # optional: C-speed load matrix for the congestion check
    from scipy import sparse as _sparse
except Exception:  # pragma: no cover - scipy is optional
    _sparse = None

#: Entry budget for one fused block: K is sized so the (entries, K)
#: scratch stays around this many float64 cells (~64 MB), shrinking at
#: 1M-flow incidences and growing at small ones.
_BLOCK_ENTRY_BUDGET = 8_000_000
_MAX_BLOCK_EPOCHS = 64


class CsrIncidence:
    """The (flow, link) incidence of one link state, as flat arrays.

    Built once per link-state view (:meth:`FluidKernel._set_view`) and
    shared by the waterfill, the fused load check, and every accumulator
    update.  ``ef``/``el`` list the entries flow-major — ``ef[i]`` is
    the flow and ``el[i]`` the link of entry ``i`` — exactly the order
    the pure backend's nested loops visit, so bincounts over them
    accumulate in the same sequence.  ``lk_flow`` is the link-major
    permutation: the flows of link ``l``'s entries are
    ``lk_flow[link_ptr[l]:link_ptr[l+1]]``.
    """

    __slots__ = (
        "num_links", "ef", "el", "lk_flow", "nonempty_links",
        "nonempty_starts", "matrix",
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
        link_counts = np.bincount(el, minlength=num_links)
        link_ptr = np.zeros(num_links + 1, dtype=np.int64)
        np.cumsum(link_counts, out=link_ptr[1:])
        # reduceat cannot express empty segments, so the load gather
        # runs over non-empty links only and scatters back.
        self.nonempty_links = np.flatnonzero(link_counts > 0)
        self.nonempty_starts = link_ptr[self.nonempty_links]
        # Optional (link x flow) 0/1 sparse matrix: the congestion check
        # only *compares* loads against capacity (with a 2*eps margin
        # that dwarfs summation-order noise), so it may use whichever
        # summation is fastest.  Result accumulators keep reduceat.
        self.matrix = None
        if _sparse is not None and total:
            self.matrix = _sparse.csr_matrix(
                (np.ones(total), (el, self.ef)),
                shape=(num_links, F),
            )

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

    def approx_link_loads(self, per_flow: np.ndarray) -> np.ndarray:
        """Per-link sums for *threshold checks only*: summation order is
        unspecified (sparse matmul when scipy is present), accurate to
        float64 round-off — far inside the congestion check's 2*eps
        margin, but not the fold the result accumulators use."""
        if self.matrix is not None:
            return self.matrix @ per_flow
        return self.link_loads(per_flow)


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
    per-epoch fallback, the fused block path, and the fast-forward jump
    all write into the same arrays, and :meth:`run` writes them back to
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
        self.rec_idx = (
            np.flatnonzero(np.asarray(c.record, dtype=bool))
            if sim.record_samples else np.zeros(0, dtype=np.int64)
        )

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
        over its paths), routing masks, tier membership and discipline
        classification, plus the index lists of no-route and torn-down
        flows — built on first use and cached per state.  States are
        interned and own their ``paths`` list, and the plan's all-up
        state holds the compiled base list itself, so ``id(paths)``
        names the state."""
        view = self._views.get(id(paths))
        if view is None:
            csr = CsrIncidence(paths, self.L)
            routed = np.asarray([bool(p) for p in paths], dtype=bool)
            first_link = np.asarray(
                [p[0] if p else 0 for p in paths], dtype=np.int64
            )
            e_tier = self.tier[csr.ef]
            view = self._views[id(paths)] = (
                csr, routed, first_link,
                [
                    np.flatnonzero((self.tier == t) & routed)
                    for t in range(self.T)
                ],
                csr.el * self.T + e_tier,
                self.realtime[csr.ef],
                np.asarray(fair, dtype=bool),
                np.asarray(weight),
                np.asarray(noroute, dtype=np.int64),
                np.asarray(inactive, dtype=np.int64),
            )
        (self.csr, self.routed, self.first_link, self.tier_members,
         self.e_lt, self.e_rt, self.fair, self.w_static,
         self.nr_idx, self.zero_idx) = view

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
        trigonometric form only differs in the last ulp, but that ulp
        is what lets fast-forward treat their demand as constant).
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
        self._all_constant = bool(self.constant.all()) and self.F > 0
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
        span boundary is a hard wall for the fused paths: blocks are
        clipped to it and fast-forward never jumps across it (the link
        state changes there).  Fast-forward additionally requires a
        state with no shed flows — a no-route flow's per-epoch ledger
        has no replay form, and those stretches are short."""
        ff = (
            self._all_constant and self.opts.fast_forward
            and not self.nr_idx.size and not self.zero_idx.size
        )
        e = e0
        while e < end:
            if self.dts[e] <= 0:
                break
            if ff:
                deltas = self._single_epoch(
                    e, self.peak * self.dts[e], capture=True
                )
                e += 1
                if deltas is not None:
                    boundary = self._next_boundary(e, end)
                    if boundary > e:
                        self._replay(deltas, e, boundary)
                        e = boundary
                continue
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
        loads = self.csr.approx_link_loads(demand)
        congested = np.any(
            loads > (self.caps - 2.0 * self.eps)[:, None], axis=0
        )
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
    def _single_epoch(
        self, e: int, arrival: np.ndarray, capture: bool = False
    ) -> Optional[dict]:
        """One epoch through the full waterfill — the authoritative
        schedule the fused paths must be indistinguishable from.

        With ``capture=True`` returns the epoch's deltas when the
        backlog vector is bit-identical before and after (a steady
        state), for :meth:`_replay` to apply verbatim; returns ``None``
        otherwise.
        """
        csr, np_ = self.csr, np
        F, L, T = self.F, self.L, self.T
        dt = self.dts[e]
        prev_backlog = self.backlog.copy() if capture else None

        demand = (arrival + self.backlog) / dt
        weight = np_.where(self.fair, self.w_static, demand)
        rate = np_.zeros(F)
        bottleneck = np_.full(F, -1, dtype=np_.int64)
        slack = self.caps.copy()
        for t in range(T):
            self._waterfill(
                self.tier_members[t], demand, weight, rate, bottleneck,
                slack,
            )
        rate[~self.routed] = demand[~self.routed]

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

        queued = self.routed & (self.backlog > 0)
        bn = np_.where(bottleneck >= 0, bottleneck, self.first_link)
        q_lt = np_.bincount(
            (bn * T + self.tier)[queued], weights=self.backlog[queued],
            minlength=L * T,
        ).astype(float).reshape(L, T)
        cum = np_.cumsum(q_lt, axis=1)
        keep = np_.clip(
            self.buffer_bits[:, None] - (cum - q_lt), 0.0, q_lt
        )
        with np_.errstate(invalid="ignore", divide="ignore"):
            scale = np_.where(
                q_lt > 0, keep / np_.maximum(q_lt, 1e-300), 1.0
            )
        flow_scale = np_.ones(F)
        flow_scale[queued] = scale[bn[queued], self.tier[queued]]
        shed = self.backlog * (1.0 - flow_scale)
        self.backlog *= flow_scale
        self.dropped += shed
        drop_delta = np_.bincount(
            bn[queued], weights=(shed / self.size_bits)[queued],
            minlength=L,
        )
        self.link_drops += drop_delta
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
        link_served_delta = np_.bincount(
            csr.el, weights=served_entry, minlength=L
        )
        wait_num_delta = (
            (cumwait_flat * served_lt).reshape(L, T).sum(axis=1)
        )
        wait_den_delta = served_lt.reshape(L, T).sum(axis=1)
        rt_delta = np_.bincount(
            csr.el[self.e_rt], weights=served_entry[self.e_rt],
            minlength=L,
        )
        self.link_served += link_served_delta
        self.wait_num += wait_num_delta
        self.wait_den += wait_den_delta
        self.link_rt += rt_delta

        sample = None
        if self.rec_idx.size and self.t0s[e] >= self.warmup:
            shared = np_.bincount(
                csr.ef, weights=cumwait_flat[self.e_lt], minlength=F
            )
            with np_.errstate(invalid="ignore", divide="ignore"):
                isolated = np_.where(
                    rate > 0,
                    self.backlog / np_.maximum(rate, 1e-300),
                    0.0,
                )
            delay = np_.where(self.fair, isolated, shared)
            sample = (
                delay[self.rec_idx].copy(),
                (served / self.size_bits)[self.rec_idx].copy(),
            )
            self.rec_delays.append(sample[0])
            self.rec_weights.append(sample[1])
        self.events += F
        self.stats["epochs_single"] += 1

        if not capture:
            return None
        if not np_.array_equal(prev_backlog, self.backlog):
            return None
        return {
            "arrival": arrival,
            "served": served,
            "link_served": link_served_delta,
            "wait_num": wait_num_delta,
            "wait_den": wait_den_delta,
            "link_rt": rt_delta,
            "link_drops": drop_delta,
            "shed": shed,
            "sample": sample,
        }

    # -- steady-state fast-forward ---------------------------------------
    def _next_boundary(self, e: int, end: int) -> int:
        """The last epoch (exclusive) a steady jump from ``e`` may
        cover: every covered epoch must share ``e-1``'s length (the
        trailing partial epoch re-runs exactly) and its side of the
        warmup line (sample recording switches on there).  ``end`` is
        the current span's wall — a jump never crosses a link-state
        boundary."""
        if e >= end:
            return e
        dt = self.dts[e - 1]
        boundary = e
        before_warmup = self.t0s[e - 1] < self.warmup
        while boundary < end:
            if self.dts[boundary] != dt:
                break
            if before_warmup and self.t0s[boundary] >= self.warmup:
                break
            boundary += 1
        return boundary

    def _replay(self, deltas: dict, e0: int, e1: int) -> None:
        """Apply a steady reference epoch's deltas to epochs
        ``[e0, e1)`` without recomputing them.  The backlog vector is
        bit-identical across the interval by construction, so every
        elided epoch's per-flow state and samples equal the
        epoch-by-epoch schedule exactly; run totals fold the identical
        per-epoch deltas in closed form."""
        n = e1 - e0
        self.generated += deltas["arrival"] * n
        self.delivered += deltas["served"] * n
        self.dropped += deltas["shed"] * n
        self.link_served += deltas["link_served"] * n
        self.wait_num += deltas["wait_num"] * n
        self.wait_den += deltas["wait_den"] * n
        self.link_rt += deltas["link_rt"] * n
        self.link_drops += deltas["link_drops"] * n
        if deltas["sample"] is not None:
            delay, w = deltas["sample"]
            for _ in range(n):
                self.rec_delays.append(delay)
                self.rec_weights.append(w)
        self.events += self.F * n
        self.stats["epochs_fast_forwarded"] += n

    # -- waterfill -------------------------------------------------------
    def _waterfill(
        self, members, demand, weight, rate, bottleneck, slack
    ) -> None:
        """Demand-bounded weighted max-min over one tier (vectorised;
        identical algorithm to the pure backend's ``_waterfill_pure``)."""
        np_ = np
        csr = self.csr
        F, L = self.F, self.L
        ef, el = csr.ef, csr.el
        stats = self.stats
        stats["waterfill_calls"] += 1
        active = np_.zeros(F, dtype=bool)
        active[members] = (demand[members] > 0) & (weight[members] > 0)
        if not active.any():
            return
        max_rounds = _compile.MAX_ROUNDS
        rounds = 0
        while rounds < max_rounds:
            rounds += 1
            stats["waterfill_rounds"] += 1
            aw = np_.where(active, weight, 0.0)
            wsum = np_.bincount(el, weights=aw[ef], minlength=L)
            contended = wsum > 0
            if not contended.any():
                return
            lam = float(
                np_.min(
                    np_.maximum(slack[contended], 0.0) / wsum[contended]
                )
            )
            gap = demand - rate
            hit = active & (gap <= lam * weight * (1 + 1e-12))
            if hit.any():
                rate[hit] = demand[hit]
                active &= ~hit
            else:
                rate += lam * aw
            used = np_.bincount(el, weights=rate[ef], minlength=L)
            slack[:] = self.caps - used
            # Saturation is a per-link fact: test it at link width and
            # gather the verdict, not both operands, per entry.
            sat_entry = (slack <= self.eps)[el] & active[ef]
            if sat_entry.any():
                frozen, first = first_saturated_links(ef, el, sat_entry)
                bottleneck[frozen] = first
                active[frozen] = False
            if not active.any():
                return
        # Round cap exhausted: final demand-capped proportional fill.
        self.sim.waterfill_exhausted += int(active.sum())
        aw = np_.where(active, weight, 0.0)
        wsum = np_.bincount(el, weights=aw[ef], minlength=L)
        contended = wsum > 0
        if contended.any():
            lam = float(
                np_.min(
                    np_.maximum(slack[contended], 0.0) / wsum[contended]
                )
            )
            rate[active] = np_.minimum(
                demand[active], rate[active] + lam * weight[active]
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
