"""Fused-kernel guarantees: kernel-vs-pure property grid, fused-block
bit-identity, and steady-state fast-forward equivalence.

Three distinct contracts, tested at three distinct strengths:

* kernel (NumPy) vs the authoritative pure backend: agreement at
  ``rel=1e-9`` across generated fat-trees, disciplines, and saturation
  (the backends waterfill in different float association, so last-ulp
  divergence is expected; the committed tolerance is the contract).
* fused multi-epoch blocks vs the kernel's own single-epoch schedule:
  per-flow state and samples *bitwise* equal — fusing may only change
  the fold order of run aggregates (pinned at 1e-9).
* fast-forward on vs off: *bitwise* equal everything, including exact
  ``events_processed`` and per-epoch sample lists, with the warmup
  crossing (the admission-to-statistics event an elided epoch must not
  straddle) landing exactly on a would-be-skipped epoch boundary.
* the block cursor: every epoch's phase-grid column evaluated exactly
  once (``kernel_stats`` counts, never wall clock) in congested,
  backlogged, mixed and outage-segmented runs, *bitwise* equal to
  re-evaluating a full block at every epoch.
* the two run-time facts both backends must *measure*, not assume: how
  full the clamp left the fullest buffer, and how many flows the
  waterfill's round cap cut short.
"""

import dataclasses
import json

import pytest

from repro.fluid import FluidOptions, FluidSimulation
from repro.fluid import compile as fluid_compile
from repro.fluid import model as fluid_model
from repro.scenario import DisciplineSpec, ScenarioBuilder, registry
from repro.scenario.spec import OutageEvent, OutageSpec, TopologySpec

pytestmark = pytest.mark.skipif(
    fluid_model._np is None, reason="numpy not installed"
)

GRID_SEEDS = (1, 2, 3, 5, 8)
GRID_DISCIPLINES = ("FIFO", "WFQ", "CSZ")
_spec_cache = {}


def grid_spec(gen_seed, target_utilization=0.85):
    """One 10k-flow fat-tree property-grid cell (cached per session)."""
    key = (gen_seed, target_utilization)
    if key not in _spec_cache:
        _spec_cache[key] = registry.build(
            "gen:fat-tree",
            gen_seed=gen_seed,
            k=8,
            num_flows=10_000,
            duration=2.0,
            warmup=0.5,
            engine="fluid",
            target_utilization=target_utilization,
            disciplines=(
                DisciplineSpec.fifo(),
                DisciplineSpec.wfq(),
                DisciplineSpec.unified(name="CSZ"),
            ),
        )
    return _spec_cache[key]


def run_backend(spec, discipline_name, backend, **options):
    disc = next(d for d in spec.disciplines if d.name == discipline_name)
    sim = FluidSimulation(
        spec, disc,
        FluidOptions(backend=backend, epoch_seconds=0.5, **options),
    )
    sim.run()
    return sim


def assert_flow_state_close(a, b, rel):
    for field in (
        "generated_bits", "delivered_bits", "backlog_bits", "dropped_bits"
    ):
        xs, ys = getattr(a, field), getattr(b, field)
        assert len(xs) == len(ys)
        for x, y in zip(xs, ys):
            assert x == pytest.approx(y, rel=rel, abs=1e-6), field
    assert a.events_processed == b.events_processed


class TestKernelVsPure:
    """The NumPy kernel against the authoritative pure backend."""

    @pytest.mark.parametrize("discipline", GRID_DISCIPLINES)
    @pytest.mark.parametrize("gen_seed", GRID_SEEDS)
    def test_property_grid(self, gen_seed, discipline):
        spec = grid_spec(gen_seed)
        kernel = run_backend(spec, discipline, "numpy")
        pure = run_backend(spec, discipline, "pure")
        assert_flow_state_close(kernel, pure, rel=1e-9)

    @pytest.mark.parametrize("discipline", GRID_DISCIPLINES)
    def test_saturated_grid_cell(self, discipline):
        """Offered load 1.5x the hottest link: the waterfill saturates,
        backlogs build, and the buffer clamp sheds — the fused path must
        hand over to the exact single-epoch schedule throughout."""
        spec = grid_spec(1, target_utilization=1.5)
        kernel = run_backend(spec, discipline, "numpy")
        pure = run_backend(spec, discipline, "pure")
        assert sum(kernel.dropped_bits) > 0  # clamp actually engaged
        assert_flow_state_close(kernel, pure, rel=1e-9)

    def test_recorded_samples_match(self):
        spec = grid_spec(1)
        kernel = run_backend(spec, "CSZ", "numpy")
        pure = run_backend(spec, "CSZ", "pure")
        assert kernel.samples.keys() == pure.samples.keys()
        for f, rows in pure.samples.items():
            krows = kernel.samples[f]
            assert len(krows) == len(rows)
            for (kd, kw), (pd, pw) in zip(krows, rows):
                assert kd == pytest.approx(pd, rel=1e-9, abs=1e-12)
                assert kw == pytest.approx(pw, rel=1e-9, abs=1e-12)


class TestFusedBlockBitIdentity:
    """Fusing K epochs may not change per-flow state at all."""

    @pytest.mark.parametrize("target_utilization", (0.85, 1.5))
    def test_fused_equals_single_epoch(self, target_utilization):
        spec = grid_spec(1, target_utilization=target_utilization)
        fused = run_backend(spec, "FIFO", "numpy")
        single = run_backend(spec, "FIFO", "numpy", fuse_epochs=1)
        for field in (
            "generated_bits", "delivered_bits", "backlog_bits",
            "dropped_bits",
        ):
            assert getattr(fused, field) == getattr(single, field), field
        assert fused.events_processed == single.events_processed
        assert fused.samples == single.samples
        # Run aggregates fold in a different order: 1e-9, not bitwise.
        for field in ("link_served_bits", "link_wait_num", "link_wait_den"):
            for x, y in zip(getattr(fused, field), getattr(single, field)):
                assert x == pytest.approx(y, rel=1e-9, abs=1e-9), field


def constant_population(rates_pps, duration=10.25, warmup=3.0):
    """All-constant (duty = 1) flows on one link: the fast-forward
    regime.  ``duration=10.25`` leaves a trailing partial epoch the
    jump must stop short of."""
    builder = ScenarioBuilder("ff-steady").single_link().duration(
        duration
    ).seed(1)
    builder.warmup(warmup)
    for i, rate in enumerate(rates_pps):
        builder.add_flow(
            f"c{i}", "src-host", "dst-host",
            average_rate_pps=rate, peak_rate_pps=rate, record=True,
        )
    builder.disciplines(DisciplineSpec.fifo())
    return builder.build().replace(engine="fluid")


def run_ff(spec, fast_forward, monkeypatch=None):
    """Run on the kernel, counting exact single-epoch computations."""
    from repro.fluid import kernel as kernel_mod

    calls = {"n": 0}
    if monkeypatch is not None:
        original = kernel_mod.FluidKernel._single_epoch

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(
            kernel_mod.FluidKernel, "_single_epoch", counting
        )
    sim = FluidSimulation(
        spec, spec.disciplines[0],
        FluidOptions(
            backend="numpy", epoch_seconds=0.5, fast_forward=fast_forward
        ),
    )
    sim.run()
    if monkeypatch is not None:
        monkeypatch.undo()
    return sim, calls["n"]


class TestFastForward:
    def assert_bitwise_equal(self, a, b):
        for field in (
            "generated_bits", "delivered_bits", "backlog_bits",
            "dropped_bits", "link_served_bits", "link_wait_num",
            "link_wait_den", "link_realtime_bits",
        ):
            assert getattr(a, field) == getattr(b, field), field
        assert a.events_processed == b.events_processed
        assert a.samples == b.samples

    def test_steady_interval_elided_exactly(self, monkeypatch):
        """Uncongested constant flows: the kernel must compute only the
        reference epochs around each boundary and replay the rest, with
        results bitwise equal to stepping every epoch."""
        spec = constant_population((200, 300))
        ff, computed = run_ff(spec, True, monkeypatch)
        plain, _ = run_ff(spec, False, monkeypatch)
        # 21 epochs (ceil(10.25 / 0.5)); fast-forward computes only the
        # reference epoch at each jump landing plus the trailing
        # partial epoch — everything else replays.
        assert computed <= 4
        assert ff.kernel_stats["epochs_single"] == computed
        assert ff.kernel_stats["epochs_fast_forwarded"] == 21 - computed
        assert plain.kernel_stats["epochs_fast_forwarded"] == 0
        self.assert_bitwise_equal(ff, plain)

    def test_warmup_exactly_on_epoch_boundary(self, monkeypatch):
        """The adversarial case: sample recording switches on at
        t = 3.0, exactly an epoch edge inside the would-be-skipped
        steady interval.  The jump must stop there — eliding across it
        would mis-count the recorded epochs."""
        spec = constant_population((200, 300), warmup=3.0)
        ff, _ = run_ff(spec, True, monkeypatch)
        plain, _ = run_ff(spec, False, monkeypatch)
        # Epochs with t0 >= 3.0 out of t0 = 0, 0.5, ..., 10.0: 15.
        for f, rows in plain.samples.items():
            assert len(rows) == 15
        self.assert_bitwise_equal(ff, plain)

    def test_warmup_strictly_inside_jump_interval(self, monkeypatch):
        spec = constant_population((200, 300), warmup=3.2)
        ff, _ = run_ff(spec, True, monkeypatch)
        plain, _ = run_ff(spec, False, monkeypatch)
        for f, rows in plain.samples.items():
            assert len(rows) == 14  # first recordable t0 is 3.5
        self.assert_bitwise_equal(ff, plain)

    def test_saturated_steady_state_still_exact(self, monkeypatch):
        """Overloaded constant flows grow backlog every epoch: no
        steady state, so nothing may be elided — and results must
        still match the plain schedule bitwise."""
        spec = constant_population((800, 600))
        ff, computed = run_ff(spec, True, monkeypatch)
        plain, stepped = run_ff(spec, False, monkeypatch)
        assert computed == stepped  # every epoch computed exactly
        assert sum(ff.backlog_bits) > 0
        self.assert_bitwise_equal(ff, plain)

    def test_on_off_flows_never_fast_forward(self, monkeypatch):
        """duty < 1 flows transition within the run; the constant-set
        precondition fails and the fused block path serves instead."""
        builder = ScenarioBuilder("ff-onoff").single_link().duration(
            10.0
        ).seed(1)
        builder.warmup(3.0)
        builder.add_flow(
            "bursty", "src-host", "dst-host",
            average_rate_pps=200, record=True,
        )
        builder.disciplines(DisciplineSpec.fifo())
        spec = builder.build().replace(engine="fluid")
        ff, _ = run_ff(spec, True, monkeypatch)
        plain, _ = run_ff(spec, False, monkeypatch)
        self.assert_bitwise_equal(ff, plain)


STATE_FIELDS = (
    "generated_bits", "delivered_bits", "backlog_bits", "dropped_bits",
    "failure_drop_bits", "no_route_packets", "link_served_bits",
    "link_drop_packets", "link_wait_num", "link_wait_den",
    "link_realtime_bits", "link_failure_packets", "flushed_packets",
    "events_processed", "samples",
)


def assert_bitwise_equal_runs(a, b):
    for field in STATE_FIELDS:
        assert getattr(a, field) == getattr(b, field), field
    assert a.collect().comparable_dict() == b.collect().comparable_dict()


def onoff_link_spec(flows, duration=20.0):
    """``flows`` on/off sources of 85 pps (peak 170) on the 1000 pkt/s
    single link: 14 keep it backlogged from the first epoch to the
    last, 10 alternate between congested stretches and drained,
    closed-form ones (36 of the 400 epochs through the waterfill, 364
    fused; 11 flows already tip to 393 / 7).  The split is a property
    of the ``KeyedDraws`` phases at seed 1 — re-measure it if the phase
    draw ever changes."""
    builder = ScenarioBuilder("cursor").single_link().duration(
        duration
    ).seed(1)
    builder.warmup(2.0)
    for i in range(flows):
        builder.add_flow(
            f"b{i}", "src-host", "dst-host", average_rate_pps=85,
            record=True,
        )
    builder.disciplines(DisciplineSpec.fifo())
    return builder.build().replace(engine="fluid")


def spur_outage_spec():
    """Four on/off flows overloading the diamond's primary path (always
    backlogged, rerouted and flushed by the primary's outage) beside
    one flow on a spur link with no alternative: while the spur is down
    that flow has no route and its arrivals are the block's shed rows.
    The spur outage ends off the epoch grid, so a boundary splits an
    epoch."""
    topology = TopologySpec.graph(
        nodes=("S-A", "S-B", "S-C", "S-D", "S-E"),
        links=[
            {"src": "S-A", "dst": "S-B"}, {"src": "S-B", "dst": "S-C"},
            {"src": "S-A", "dst": "S-D"}, {"src": "S-D", "dst": "S-C"},
            {"src": "S-A", "dst": "S-E"},
        ],
        host_attachments=(
            ("h-src", "S-A"), ("h-dst", "S-C"), ("h-spur", "S-E"),
        ),
    )
    builder = (
        ScenarioBuilder("cursor-outage").topology(topology)
        .duration(20.0).warmup(2.0).seed(1).validate()
    )
    for i in range(4):
        builder.add_flow(
            f"f{i}", "h-src", "h-dst", average_rate_pps=400, record=True
        )
    builder.add_flow(
        "spur", "h-src", "h-spur", average_rate_pps=200, record=True
    )
    builder.disciplines(DisciplineSpec.unified(name="CSZ"))
    return dataclasses.replace(
        builder.build().replace(engine="fluid"),
        outages=OutageSpec(events=(
            OutageEvent(link="S-A->S-B", at=5.0, duration=4.0),
            OutageEvent(link="S-A->S-E", at=7.0, duration=6.13),
        )),
    )


def run_cursor(spec, fuse_epochs, reevaluate=False):
    """One kernel run at ``epoch_seconds=0.05``; ``reevaluate`` drops
    the held block before every step, which is the block-per-epoch
    re-evaluation the cursor replaced."""
    from repro.fluid.kernel import FluidKernel

    sim = FluidSimulation(
        spec, spec.disciplines[0],
        FluidOptions(
            backend="numpy", epoch_seconds=0.05, fuse_epochs=fuse_epochs
        ),
    )
    if not reevaluate:
        return sim.run()

    class Reevaluating(FluidKernel):
        def _advance_block(self, e0, count):
            self._held = FluidKernel(sim)._held
            return super()._advance_block(e0, count)

    Reevaluating(sim).run()
    return sim


class TestBlockCursor:
    """Each epoch's grid column is evaluated once, whatever follows."""

    FUSE = (1, 3, 0)  # 0 = automatic block size (64 here)

    def test_backlogged_run_costs_one_column_per_epoch(self):
        spec = onoff_link_spec(14)
        runs = [run_cursor(spec, fuse) for fuse in self.FUSE]
        for sim in runs:
            stats = sim.kernel_stats
            assert stats["grid_columns"] == sim.num_epochs == 400
            # Backlogged throughout: no epoch takes the closed form ...
            assert stats["epochs_single"] == 400
            assert stats["epochs_fused"] == 0
            assert sum(sim.dropped_bits) > 0
            # ... so no accumulator fold depends on the block size.
            assert_bitwise_equal_runs(sim, runs[0])
        stale = run_cursor(spec, 0, reevaluate=True)
        assert stale.kernel_stats["grid_columns"] > 20 * 400
        assert_bitwise_equal_runs(stale, runs[0])

    @pytest.mark.parametrize("fuse_epochs", FUSE)
    def test_mixed_regimes_keep_the_fused_prefixes(self, fuse_epochs):
        """Congested stretches alternate with drained ones: the cursor
        tops a partly spent block up instead of starting over, and must
        land on the very prefixes (hence accumulator folds) that a full
        block evaluated at every epoch produces."""
        spec = onoff_link_spec(10)
        sim = run_cursor(spec, fuse_epochs)
        stats = sim.kernel_stats
        assert stats["grid_columns"] == sim.num_epochs == 400
        assert stats["epochs_fused"] + stats["epochs_single"] == 400
        assert min(stats["epochs_fused"], stats["epochs_single"]) > 30
        stale = run_cursor(spec, fuse_epochs, reevaluate=True)
        assert_bitwise_equal_runs(sim, stale)
        if fuse_epochs != 1:
            assert stale.kernel_stats["grid_columns"] > 400

    def test_outage_segments_with_shed_rows(self):
        spec = spur_outage_spec()
        runs = [run_cursor(spec, fuse) for fuse in self.FUSE]
        for sim in runs:
            assert len(sim.segments) == 5
            assert any(seg.state.noroute for seg in sim.segments)
            # The 400 grid epochs plus those a boundary split in two.
            assert sim.kernel_stats["grid_columns"] == sim.num_epochs > 400
            assert sim.kernel_stats["epochs_fused"] == 0
            assert sim.no_route_packets[4] > 0 and sim.flushed_packets > 0
            assert sim.collect().invariants_clean
            assert_bitwise_equal_runs(sim, runs[0])
        assert_bitwise_equal_runs(
            run_cursor(spec, 0, reevaluate=True), runs[0]
        )

    def test_kernel_stats_stay_off_the_result(self):
        sim = run_cursor(onoff_link_spec(14, duration=2.0), 0)
        stats = sim.kernel_stats
        assert stats["waterfill_calls"] == stats["epochs_single"] == 40
        assert stats["waterfill_rounds"] >= stats["waterfill_calls"]
        assert all(type(value) is int for value in stats.values())
        payload = json.dumps(sim.collect().to_dict())
        assert "kernel_stats" not in payload and "grid_columns" not in payload


class TestFirstSaturatedLinks:
    def test_matches_the_minimum_at_scatter(self):
        """Flows crossing several saturated links (out of index order),
        one, or none: per flow, the lowest saturated link index — what
        ``np.minimum.at`` scattered before ``reduceat`` replaced it."""
        import numpy as np

        from repro.fluid.kernel import CsrIncidence, first_saturated_links

        paths = [
            (5, 2, 7), (3,), (), (6, 1), (4, 0, 2, 7), (2,), (7, 5),
        ]
        L = 8
        csr = CsrIncidence(paths, L)
        saturated = np.zeros(L, dtype=bool)
        saturated[[2, 5, 7]] = True
        active = np.array([1, 1, 1, 1, 1, 0, 1], dtype=bool)
        sat_entry = saturated[csr.el] & active[csr.ef]
        flows, links = first_saturated_links(csr.ef, csr.el, sat_entry)
        old = np.full(len(paths), L, dtype=np.int64)
        np.minimum.at(old, csr.ef[sat_entry], csr.el[sat_entry])
        assert flows.tolist() == np.flatnonzero(old < L).tolist() == [0, 4, 6]
        assert links.tolist() == old[old < L].tolist() == [2, 2, 5]


class TestRecordFlowsSwitch:
    def test_record_flows_off_skips_samples_only(self):
        spec = grid_spec(1)
        on = run_backend(spec, "FIFO", "numpy")
        off = run_backend(spec, "FIFO", "numpy", record_flows=False)
        assert on.samples and not off.samples
        assert on.delivered_bits == off.delivered_bits
        assert on.events_processed == off.events_processed
        rows = off.collect()
        assert len(rows.flows) == len(on.collect().flows)


def leaf_spine_spec(target_utilization):
    """400 flows on the default leaf-spine, 8 epochs of 0.5 s: at 1.3x
    the hottest link every epoch backlogs and the buffer clamp sheds."""
    return registry.build(
        "gen:leaf-spine", gen_seed=1, num_flows=400, duration=4.0,
        target_utilization=target_utilization, engine="fluid",
    )


@pytest.mark.parametrize("backend", ("numpy", "pure"))
class TestBufferBoundIsMeasured:
    """``fluid-buffer-bounds`` reads a number the backends write: the
    fullest post-clamp queue relative to its bound, minus one."""

    def test_uncongested_run_reads_empty(self, backend):
        sim = run_backend(leaf_spine_spec(0.5), "CSZ", backend)
        assert sum(sim.backlog_bits) == 0
        assert sim.max_buffer_overuse == -1.0

    def test_saturated_run_reads_exactly_full(self, backend):
        sim = run_backend(leaf_spine_spec(1.3), "CSZ", backend)
        assert sum(sim.dropped_bits) > 0  # the clamp engaged
        assert sim.max_buffer_overuse == pytest.approx(0.0, abs=1e-9)
        assert sim.collect().invariants_clean


class TestRoundCapFallback:
    def test_both_backends_exhaust_alike(self, monkeypatch):
        """One round per tier leaves flows unfrozen on every backlogged
        epoch: the final proportional fill serves them, both backends
        count the same flows, and every invariant still holds."""
        monkeypatch.setattr(fluid_compile, "MAX_ROUNDS", 1)
        spec = leaf_spine_spec(1.3)
        kernel = run_backend(spec, "CSZ", "numpy")
        pure = run_backend(spec, "CSZ", "pure")
        assert kernel.waterfill_exhausted == pure.waterfill_exhausted > 0
        assert kernel.collect().invariants_clean
        assert pure.collect().invariants_clean
        assert_flow_state_close(kernel, pure, rel=1e-9)
