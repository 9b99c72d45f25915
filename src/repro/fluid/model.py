"""Flow-level (fluid) co-simulator: bandwidth per epoch, not per packet.

The packet engine is the source of truth but caps out at hundreds of
flows; this model trades packet-level exactness for three to five orders
of magnitude more flows.  It consumes a :class:`ScenarioSpec` unchanged
and emits the same :class:`~repro.scenario.runner.DisciplineRunResult`
shape, so the runner, sweep executor, CLI, and experiments never know
which engine ran.

The model, per epoch of length ``dt`` over each flow's static route:

1. **Arrivals.**  Each flow is the *fluid limit* of its on/off source: a
   deterministic periodic burst train with the same peak rate, duty
   cycle (average/peak), and mean burst length as the packet source, at
   a per-flow random phase.  The on-time overlapping ``[t0, t1)`` is
   closed-form, so arrivals are exact at any epoch size and integrate to
   the source's average rate.
2. **Allocation.**  A tiered, demand-bounded, weighted max-min
   water-filling assigns every flow a rate over its links.  The run's
   discipline family picks weights and tiers: FIFO-family disciplines
   share proportionally to offered demand; WFQ-family disciplines weight
   by clock rate (installed guaranteed rates, or the auto-register /
   equal-share rate); the unified/priority (CSZ) family allocates in
   strict tier order — guaranteed, predicted classes by priority,
   datagram last — which is exactly the isolation structure the paper's
   Figure 1 experiments measure.
3. **Backlog and delay.**  Unserved arrivals accumulate as per-flow
   backlog attributed to the flow's bottleneck link, clamped to the
   link buffer with drops taken from the *highest* tiers first (datagram
   eats the overflow, as CSZ intends).  A flow's queueing delay is the
   shared-queue wait ``sum over path links of Q(link, tiers <= own) /
   capacity`` for FIFO-family flows, and the isolated ``own backlog /
   own rate`` for clock-weighted flows.  Delay statistics are weighted
   by delivered packets per epoch, mirroring the packet sink's
   per-packet samples.

Link outages *are* modelled, with epoch-boundary semantics: the spec's
outage schedule is compiled ahead of time into link-state epochs
(:mod:`repro.fluid.control`), failed links drop out of the waterfill
with their backlog ledgered as failure drops, flows reroute via
clock-free SPF/ECMP re-resolution, and admission-controlled flows
re-enter admission with accounted teardowns — the same control summary
the packet engine attaches.

What the fluid model does *not* capture: packet-granularity effects
(per-packet jitter inside an epoch, FIFO+ jitter sharing), transient
bursts shorter than an epoch, sub-epoch outage timing (transitions cut
the epoch grid exactly, but within-epoch traffic is fluid), and TCP
dynamics — specs with ``tcps`` are rejected.  Cross-validation
tolerances against the packet engine live in
``tests/fluid/test_equivalence.py`` and the README.

This module is the façade: :class:`FluidOptions`, and
:class:`FluidSimulation` — compile, run, collect.  The compile is
:mod:`repro.fluid.compile` (named stages returning one frozen
``CompiledFluid``).  Two interchangeable backends execute it, each
imported only by a simulation that uses it: the pure-Python reference
(:mod:`repro.fluid.reference` — the oracle, always available) and the
vectorized NumPy kernel (:mod:`repro.fluid.kernel` — the scale engine,
~100–1000x faster at 10k+ flows).  ``REPRO_FLUID_BACKEND=pure|numpy``
pins one; the default uses NumPy when installed.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import operator
import os
import time
from numbers import Integral, Real
from typing import Dict, List, Optional, Tuple

# ``_PHASE_SALT`` is re-exported: tests/sim/test_keyed_draws.py pins the
# phase stream's purpose string through this module.
from repro.fluid.compile import _PHASE_SALT, compile_fluid  # noqa: F401
from repro.scenario.disciplines import resolve_port_discipline
from repro.scenario.runner import DisciplineRunResult, FlowStats
from repro.scenario.spec import DisciplineSpec, FlowSpec, ScenarioSpec

try:  # NumPy is optional everywhere in this repo; pure Python is
    import numpy as _np  # authoritative and the only hard dependency.
except ImportError:  # pragma: no cover - exercised on numpy-free CI
    _np = None

#: Keys of :attr:`FluidSimulation.kernel_stats`: phase-grid columns
#: evaluated; epochs served in a fused closed-form prefix / through the
#: exact single-epoch waterfill / replayed by fast-forward; waterfill
#: invocations and rounds; and, per (link-state transition, flow) of the
#: control plan, paths that came back as the base path object itself
#: versus paths resolved on the masked graph.
KERNEL_STATS = (
    "grid_columns", "epochs_fused", "epochs_single",
    "epochs_fast_forwarded", "waterfill_calls", "waterfill_rounds",
    "plan_paths_inherited", "plan_paths_rewalked",
)

_BACKEND_ENV = "REPRO_FLUID_BACKEND"


@dataclasses.dataclass(frozen=True)
class FluidOptions:
    """Tuning knobs of the fluid engine (all have sound defaults).

    Attributes:
        epoch_seconds: fixed epoch length; ``None`` picks one
            automatically — fine enough to resolve the shortest on/off
            period at small populations, coarsening so the whole run
            stays within a fixed budget of flow-advances at large ones
            (:data:`repro.fluid.compile.TARGET_FLOW_EPOCHS`).
        backend: ``"auto"`` / ``"numpy"`` / ``"pure"``.
        record_flows: accumulate per-flow delay sample lists for
            recorded flows (the default).  Benchmark and sweep runs
            that only read aggregate results turn this off to skip the
            per-epoch sample bookkeeping; ``FlowStats`` rows still
            appear, with zeroed delay statistics.
        fast_forward: let the NumPy kernel jump steady constant-demand
            intervals in closed form; results stay bit-identical to
            the epoch-by-epoch schedule (``False``, the reference the
            equivalence tests step) — see :mod:`repro.fluid.kernel`.
        fuse_epochs: epochs per fused kernel block (0 = sized
            automatically from the incidence, the default).
    """

    epoch_seconds: Optional[float] = None
    backend: str = "auto"
    record_flows: bool = True
    fast_forward: bool = True
    fuse_epochs: int = 0

    def __post_init__(self):
        def require(ok: bool, field: str, expected: str) -> None:
            if not ok:
                raise ValueError(
                    f"FluidOptions.{field} must be {expected}, "
                    f"got {getattr(self, field)!r}"
                )

        require(
            self.epoch_seconds is None or (
                isinstance(self.epoch_seconds, Real)
                and 0.0 < self.epoch_seconds < math.inf
            ),
            "epoch_seconds", "a positive, finite number of seconds",
        )
        require(
            self.backend in ("auto", "numpy", "pure"),
            "backend", "one of auto|numpy|pure",
        )
        require(
            isinstance(self.fuse_epochs, Integral) and self.fuse_epochs >= 0,
            "fuse_epochs", "an integer >= 0 (0 sizes blocks automatically)",
        )

    @classmethod
    def from_env(cls, **overrides) -> "FluidOptions":
        backend = os.environ.get(_BACKEND_ENV)
        if not backend or "backend" in overrides:
            return cls(**overrides)
        try:
            return cls(backend=backend, **overrides)
        except ValueError as exc:
            # Name the variable when the rejected value came from it.
            if "FluidOptions.backend " in str(exc):
                raise ValueError(
                    f"{exc} (from {_BACKEND_ENV}={backend!r})"
                ) from None
            raise


class FluidSimulation:
    """One discipline's fluid run, built from a spec.

    Mirrors the :class:`~repro.scenario.runner.ScenarioContext` surface
    the executor needs: construct, :meth:`run`, :meth:`collect`.
    Construction is all the set-up — the whole compile
    (``self.compiled``, frozen) and the backend bound to it; what a run
    changes lives in the ledgers beside them.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        discipline: DisciplineSpec,
        options: Optional[FluidOptions] = None,
    ):
        if spec.tcps:
            # O(shown): a 5-element heap selection, never a full sort of
            # a million-flow name list just to print five of them.
            total = len(spec.tcps)
            names = heapq.nsmallest(5, (t.name for t in spec.tcps))
            shown = ", ".join(repr(n) for n in names)
            if total > 5:
                shown += f", ... ({total} total)"
            raise ValueError(
                f"the fluid engine does not model TCP dynamics: spec "
                f"{spec.name!r} carries TCP flow(s) {shown}; run this "
                f"spec on the packet engine (engine=\"packet\" on the "
                f"spec, REPRO_ENGINE=packet, or --engine packet)"
            )
        self.spec = spec
        self.discipline = discipline
        self.options = options or FluidOptions.from_env()
        backend = self.backend
        self.compiled = c = compile_fluid(
            spec, discipline, self.options, pure_backend=backend == "pure"
        )

        #: What the engine did, as plain integer counts (not part of
        #: ``to_dict``/``comparable_dict``): filled by the NumPy kernel
        #: as it runs, plan entries by the control-plan compile.
        self.kernel_stats: Dict[str, int] = dict.fromkeys(KERNEL_STATS, 0)
        if c.control_plan is not None:
            (
                self.kernel_stats["plan_paths_inherited"],
                self.kernel_stats["plan_paths_rewalked"],
            ) = c.control_plan.path_counts

        # -- run ledgers (plain Python; the backends fill them) --------
        F, L = len(c.flow_names), len(c.caps)
        self.generated_bits = [0.0] * F
        self.delivered_bits = [0.0] * F
        self.dropped_bits = [0.0] * F
        self.backlog_bits = [0.0] * F
        # Control-plane ledgers: per-flow bits lost to failures (boundary
        # flushes + no-route sheds), per-flow no-route packets, per-link
        # flushed packets, and the total flushed-packet count.
        self.failure_drop_bits = [0.0] * F
        self.no_route_packets = [0.0] * F
        self.link_failure_packets = [0.0] * L
        self.flushed_packets = 0.0
        self.link_served_bits = [0.0] * L
        self.link_drop_packets = [0.0] * L
        self.link_wait_num = [0.0] * L   # wait x served bits
        self.link_wait_den = [0.0] * L
        self.link_realtime_bits = [0.0] * L
        # Per recorded flow: [(delay_seconds, delivered_packets), ...].
        # ``record_flows=False`` (benchmark/sweep mode) skips the whole
        # sample bookkeeping; FlowStats rows still appear, zero-delayed.
        self.record_samples = bool(self.options.record_flows)
        self.samples: Dict[int, List[Tuple[float, float]]] = (
            {f: [] for f in range(F) if c.record[f]}
            if self.record_samples else {}
        )
        self.events_processed = 0
        self.waterfill_exhausted = 0
        self.max_capacity_overuse = 0.0   # relative, across epochs/links
        # Fullest clamped queue against its buffer bound, relative:
        # -1.0 is empty, 0.0 exactly full, above it a clamp that failed.
        self.max_buffer_overuse = -1.0
        self._wall_seconds = 0.0

        # Bind the backend last.  Loading it (only the one this run
        # uses) and compiling its view of the all-up state are set-up:
        # ``run()`` — what ``wall_seconds`` times — is engine time only.
        if backend == "numpy":
            from repro.fluid.kernel import FluidKernel as Backend
        else:
            from repro.fluid.reference import FluidReference as Backend
        self._backend = Backend(self)

    @property
    def backend(self) -> str:
        """The backend :meth:`run` will use (resolved from options)."""
        choice = self.options.backend
        if choice == "auto":
            return "numpy" if _np is not None else "pure"
        if choice == "numpy" and _np is None:
            raise RuntimeError("numpy backend requested but numpy is absent")
        return choice

    # ------------------------------------------------------------------
    def run(self) -> "FluidSimulation":
        started = time.perf_counter()
        # One run per simulation: the backend is released with its arrays.
        backend, self._backend = self._backend, None
        if backend is not None and self.compiled.num_epochs:
            backend.run()
        self._wall_seconds += time.perf_counter() - started
        return self

    # ------------------------------------------------------------------
    def collect(self) -> DisciplineRunResult:
        """Snapshot the fluid run into the packet engine's result shape."""
        spec, c = self.spec, self.compiled
        caps, link_names = c.caps, c.link_names
        duration = c.duration or 1.0
        accounting = bool(spec.link_accounting)

        def per_link(num, den):
            """``num/den`` per link (0 where nothing was served)."""
            return tuple(
                (name, num[l] / den[l] if den[l] else 0.0)
                for l, name in enumerate(link_names)
            )

        datagram_dropped = 0
        if accounting:
            datagram_dropped = int(round(sum(
                self.dropped_bits[f] / c.size_bits[f]
                for f in range(len(spec.flows))
                if not c.realtime[f]
            )))
        return DisciplineRunResult(
            discipline=self.discipline.name,
            flows=tuple(
                self._flow_stats(f, flow)
                for f, flow in enumerate(spec.flows) if c.record[f]
            ),
            link_utilizations=tuple(
                (name, self.link_served_bits[l] / (caps[l] * duration))
                for l, name in enumerate(link_names)
            ),
            link_queueing=per_link(self.link_wait_num, self.link_wait_den),
            link_drops=tuple(
                (
                    name,
                    int(round(
                        self.link_drop_packets[l]
                        + self.link_failure_packets[l]
                    )),
                )
                for l, name in enumerate(link_names)
            ),
            port_disciplines=tuple(sorted(
                (name, resolve_port_discipline(self.discipline, name).name)
                for name in link_names
            )),
            realtime_fraction=per_link(
                self.link_realtime_bits, self.link_served_bits
            ) if accounting else (),
            datagram_dropped=datagram_dropped,
            tcp_stats=(),
            events_processed=self.events_processed,
            wall_seconds=self._wall_seconds,
            worker_pid=os.getpid(),
            invariants=self._check_invariants() if spec.validate else None,
            control=(
                c.control_plan.control_stats(
                    c.flow_names,
                    self.no_route_packets,
                    int(round(self.flushed_packets)),
                )
                if c.control_plan is not None
                else None
            ),
        )

    def _flow_stats(self, f: int, flow: FlowSpec) -> FlowStats:
        samples = [s for s in self.samples.get(f, ()) if s[1] > 0]
        total_w = sum(w for _, w in samples)
        if total_w > 0:
            mean = sum(d * w for d, w in samples) / total_w
            max_d = max(d for d, _ in samples)
            min_d = min(d for d, _ in samples)
        else:
            mean = max_d = min_d = 0.0
        size_bits = self.compiled.size_bits[f]
        generated = int(round(self.generated_bits[f] / size_bits))
        received = int(round(self.delivered_bits[f] / size_bits))
        return FlowStats(
            name=flow.name,
            generated=generated,
            emitted=generated,
            filtered=0,
            received=received,
            recorded=int(round(total_w)),
            mean_seconds=mean,
            max_seconds=max_d,
            jitter_seconds=max_d - min_d if total_w > 0 else 0.0,
            percentiles=tuple(
                (pct, self._weighted_percentile(samples, total_w, pct))
                for pct in self.spec.percentile_points
            ),
        )

    @staticmethod
    def _weighted_percentile(
        samples: List[Tuple[float, float]], total_w: float, pct: float
    ) -> float:
        """Delivered-packet-weighted nearest-rank percentile."""
        if total_w <= 0:
            return 0.0
        target = (pct / 100.0) * total_w
        acc = 0.0
        for delay, w in sorted(samples):
            acc += w
            if acc >= target:
                return delay
        return max(d for d, _ in samples)

    # ------------------------------------------------------------------
    def _check_invariants(self):
        """Fluid-specific invariants, in the packet layer's
        :class:`~repro.validate.InvariantCheck` currency so ``--validate``
        and sweep assertions work identically across engines."""
        from repro.validate import InvariantCheck

        c = self.compiled
        F = len(c.flow_names)
        L = len(c.caps)
        cap_tol = 1e-6
        cap_ok = self.max_capacity_overuse <= cap_tol
        checks = [
            InvariantCheck(
                name="fluid-link-capacity",
                ok=cap_ok,
                checked=L * max(c.num_epochs, 1),
                violations=0 if cap_ok else 1,
                detail=(
                    f"max allocation overuse "
                    f"{self.max_capacity_overuse:.2e} (rel)"
                ),
            )
        ]
        bad = 0
        worst = 0.0
        for f in range(F):
            lhs = self.generated_bits[f]
            rhs = (
                self.delivered_bits[f]
                + self.backlog_bits[f]
                + self.dropped_bits[f]
                + self.failure_drop_bits[f]
            )
            err = abs(lhs - rhs)
            tol = 1e-6 * max(lhs, 1.0) + 1.0
            if err > tol:
                bad += 1
                worst = max(worst, err)
        checks.append(
            InvariantCheck(
                name="fluid-flow-conservation",
                ok=bad == 0,
                checked=F,
                violations=bad,
                detail=(
                    f"worst imbalance {worst:.3g} bits" if bad else
                    "arrivals = delivered + backlog + dropped "
                    "+ failure drops for all flows"
                ),
            )
        )
        negative = sum(
            1 for f in range(F)
            if self.delivered_bits[f] < -1e-6 or self.backlog_bits[f] < -1e-6
        )
        checks.append(
            InvariantCheck(
                name="fluid-nonnegative",
                ok=negative == 0,
                checked=F,
                violations=negative,
                detail="delivered and backlog stay non-negative",
            )
        )
        buf_ok = self.max_buffer_overuse <= 1e-6
        checks.append(
            InvariantCheck(
                name="fluid-buffer-bounds",
                ok=buf_ok,
                checked=L,
                violations=0 if buf_ok else 1,
                detail="per-link backlog clamped to the buffer bound",
            )
        )
        return tuple(checks)


# Compile products readable on the simulation itself (``sim.paths`` is
# ``sim.compiled.paths``, nothing copied).  Properties, not
# ``__getattr__``, which would slow every ledger access of a backend.
for _name in (
    "link_names", "caps", "paths", "flow_names", "phase", "record",
    "admitted", "denied", "num_epochs", "epoch_seconds", "epoch_starts",
    "segments", "control_plan",
):
    setattr(FluidSimulation, _name,
            property(operator.attrgetter("compiled." + _name)))
