"""The pure-Python reference backend: the fluid model, epoch by epoch.

This is the model of :mod:`repro.fluid.model` written the obvious way —
nested loops over flows, links and tiers, one epoch at a time — and the
oracle the NumPy kernel (:mod:`repro.fluid.kernel`) is tested against
(``tests/fluid/test_kernel.py``).  It is also the production path
wherever NumPy is absent (``REPRO_FLUID_BACKEND=pure`` pins it).  The
two share no logic: each reads the same
:class:`~repro.fluid.compile.CompiledFluid` and fills the same ledgers
on the :class:`~repro.fluid.model.FluidSimulation`, and neither imports
the other.  Numpy-free.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.fluid import compile as _compile


class FluidReference:
    """One fluid run on the reference backend: ``FluidReference(sim)
    .run()`` advances a :class:`~repro.fluid.model.FluidSimulation` to
    completion."""

    def __init__(self, sim):
        self.sim = sim
        c = self.c = sim.compiled
        self.period, self.duty, self.phase = c.period, c.duty, c.phase

    def run(self) -> None:
        c = self.c
        if c.segments is None:
            self._pure_span(
                0, c.num_epochs, c.paths, c.fair, c.weight_static, (), (),
            )
            return
        for seg in c.segments:
            self._pure_flush(seg.flush)
            if seg.e1 > seg.e0:
                st = seg.state
                self._pure_span(
                    seg.e0, seg.e1, st.paths, st.fair, st.weight,
                    st.noroute, st.inactive,
                )

    def _pure_flush(self, flush) -> None:
        """Boundary flush: a flow whose path crossed a newly-failed
        link (or was torn down) loses its backlog — ledgered per flow as
        failure drops and per link as flushed packets, the fluid twin of
        ``Port.flush_queue``."""
        sim = self.sim
        backlog = sim.backlog_bits
        for f, l in flush:
            bits = backlog[f]
            if bits > 0.0:
                sim.failure_drop_bits[f] += bits
                packets = bits / self.c.size_bits[f]
                sim.link_failure_packets[l] += packets
                sim.flushed_packets += packets
                backlog[f] = 0.0

    def _on_seconds(self, f: int, t0: float, t1: float) -> float:
        """Closed-form on-time of flow ``f``'s periodic burst train
        overlapping ``[t0, t1)`` — exact for any epoch size."""
        period = self.period[f]
        duty = self.duty[f]
        if duty >= 1.0:
            return t1 - t0
        a = t0 / period + self.phase[f]
        b = t1 / period + self.phase[f]

        def measure(u: float) -> float:
            whole = math.floor(u)
            return duty * whole + min(u - whole, duty)

        return (measure(b) - measure(a)) * period

    def _pure_span(
        self, e_begin, e_end, paths, fair, weight_static, noroute, inactive
    ) -> None:
        """Advance epochs ``[e_begin, e_end)`` under one link state:
        ``paths``/``fair``/``weight_static`` are the state's per-flow
        views, ``noroute`` flows shed their arrivals (ledgered as
        failure drops), ``inactive`` (torn-down) flows generate
        nothing.  With ``epoch_starts`` unset this reduces exactly to
        the original uniform-grid loop."""
        sim, c = self.sim, self.c
        F = len(c.flow_names)
        L = len(c.caps)
        T = c.num_tiers
        caps, tier, size_bits = c.caps, c.tier, c.size_bits
        duration, warmup = c.duration, c.warmup
        eps = [max(1e-9 * cap, 1e-6) for cap in caps]
        skip = set(noroute) | set(inactive)
        tier_flows = [
            [f for f in range(F) if tier[f] == t and paths[f]]
            for t in range(T)
        ]
        unrouted = [
            f for f in range(F) if not paths[f] and f not in skip
        ]
        backlog = sim.backlog_bits
        bottleneck = [-1] * F

        for e in range(e_begin, e_end):
            if c.epoch_starts is None:
                t0 = e * c.epoch_seconds
                t1 = min(duration, t0 + c.epoch_seconds)
            else:
                t0 = c.epoch_starts[e]
                t1 = c.epoch_ends[e]
            dt = t1 - t0
            if dt <= 0:
                break
            arrival = [
                c.peak_bps[f] * self._on_seconds(f, t0, t1)
                for f in range(F)
            ]
            for f in noroute:
                shed = arrival[f]
                if shed > 0.0:
                    # No route after reconvergence: the source keeps
                    # emitting, the network drops at the first hop.
                    sim.generated_bits[f] += shed
                    sim.failure_drop_bits[f] += shed
                    sim.no_route_packets[f] += shed / size_bits[f]
                    arrival[f] = 0.0
            for f in inactive:
                arrival[f] = 0.0
            demand = [(arrival[f] + backlog[f]) / dt for f in range(F)]
            weight = [
                weight_static[f] if fair[f] else demand[f]
                for f in range(F)
            ]
            rate = [0.0] * F
            for f in range(F):
                bottleneck[f] = -1
            slack = list(caps)
            for t in range(T):
                self._waterfill_pure(
                    tier_flows[t], paths, demand, weight, rate,
                    bottleneck, slack, eps,
                )
            for f in unrouted:
                rate[f] = demand[f]

            # Served bits, backlog update, buffer clamp (drop high tiers
            # first), per-link queues, delays, accumulators.
            used = [0.0] * L
            for f in range(F):
                r = rate[f]
                if r > 0:
                    for l in paths[f]:
                        used[l] += r
            for l in range(L):
                over = used[l] / caps[l] - 1.0
                if over > sim.max_capacity_overuse:
                    sim.max_capacity_overuse = over

            queue = [[0.0] * T for _ in range(L)]
            for f in range(F):
                served = rate[f] * dt
                new_backlog = backlog[f] + arrival[f] - served
                backlog[f] = new_backlog if new_backlog > 0 else 0.0
                sim.generated_bits[f] += arrival[f]
                sim.delivered_bits[f] += served
                if backlog[f] > 0 and paths[f]:
                    if bottleneck[f] < 0:
                        bottleneck[f] = paths[f][0]
                    queue[bottleneck[f]][tier[f]] += backlog[f]

            scale = [[1.0] * T for _ in range(L)]
            for l in range(L):
                remaining = c.buffer_bits[l]
                for t in range(T):
                    q = queue[l][t]
                    if q <= 0:
                        continue
                    keep = min(q, remaining)
                    scale[l][t] = keep / q
                    remaining -= keep
                    queue[l][t] = keep
                # What the clamp left queued, against the bound.
                over = sum(queue[l]) / c.buffer_bits[l] - 1.0
                if over > sim.max_buffer_overuse:
                    sim.max_buffer_overuse = over
            for f in range(F):
                if backlog[f] > 0 and bottleneck[f] >= 0:
                    s = scale[bottleneck[f]][tier[f]]
                    if s < 1.0:
                        dropped = backlog[f] * (1.0 - s)
                        backlog[f] -= dropped
                        sim.dropped_bits[f] += dropped
                        sim.link_drop_packets[bottleneck[f]] += (
                            dropped / size_bits[f]
                        )

            cumwait = [[0.0] * T for _ in range(L)]
            for l in range(L):
                acc = 0.0
                for t in range(T):
                    acc += queue[l][t]
                    cumwait[l][t] = acc / caps[l]

            for f in range(F):
                served = rate[f] * dt
                if served > 0:
                    for l in paths[f]:
                        sim.link_served_bits[l] += served
                        sim.link_wait_num[l] += cumwait[l][tier[f]] * served
                        sim.link_wait_den[l] += served
                        if c.realtime[f]:
                            sim.link_realtime_bits[l] += served
                if sim.record_samples and c.record[f] and t0 >= warmup:
                    if fair[f]:
                        delay = backlog[f] / rate[f] if rate[f] > 0 else 0.0
                    else:
                        delay = sum(cumwait[l][tier[f]] for l in paths[f])
                    sim.samples[f].append((delay, served / size_bits[f]))
            sim.events_processed += F

    def _waterfill_pure(
        self, flows, paths, demand, weight, rate, bottleneck, slack, eps
    ) -> None:
        """Demand-bounded weighted max-min over one tier's flows, eating
        into ``slack`` (shared across tiers, already reduced by earlier
        tiers).  Freezes flows either at their demand or at the first
        link of theirs that saturates (recorded in ``bottleneck``).
        ``paths`` is the current link state's per-flow route view."""
        caps = self.c.caps
        active = {
            f for f in flows if demand[f] > 0 and weight[f] > 0
        }
        rounds = 0
        while active and rounds < _compile.MAX_ROUNDS:
            rounds += 1
            wsum: Dict[int, float] = {}
            for f in active:
                for l in paths[f]:
                    wsum[l] = wsum.get(l, 0.0) + weight[f]
            lam = min(
                (max(slack[l], 0.0) / wsum[l] for l in wsum), default=0.0
            )
            hit = [
                f for f in active
                if demand[f] - rate[f] <= lam * weight[f] * (1 + 1e-12)
            ]
            if hit:
                for f in hit:
                    rate[f] = demand[f]
                    active.discard(f)
            else:
                for f in active:
                    rate[f] += lam * weight[f]
            # Exact slack from scratch (over *all* flows, so earlier
            # tiers' allocations stay counted) — mirrors the NumPy
            # backend's bincount and is immune to incremental drift.
            used_all = [0.0] * len(caps)
            for g, r in enumerate(rate):
                if r > 0:
                    for l in paths[g]:
                        used_all[l] += r
            for l in range(len(caps)):
                slack[l] = caps[l] - used_all[l]
            frozen = []
            for f in active:
                saturated = [
                    l for l in paths[f] if slack[l] <= eps[l]
                ]
                if saturated:
                    bottleneck[f] = min(saturated)
                    frozen.append(f)
            for f in frozen:
                active.discard(f)
        if active:
            # Round cap exhausted: one final demand-capped proportional
            # fill so no capacity is silently stranded.
            self.sim.waterfill_exhausted += len(active)
            wsum = {}
            for f in active:
                for l in paths[f]:
                    wsum[l] = wsum.get(l, 0.0) + weight[f]
            lam = min(
                (max(slack[l], 0.0) / wsum[l] for l in wsum), default=0.0
            )
            for f in active:
                rate[f] = min(demand[f], rate[f] + lam * weight[f])
