"""Fluid control plane: fail-heal conservation, restore identity,
paired outage draws, no-route shedding, accounted teardowns.

The property grid here is the fluid twin of the packet engine's reroute
invariants: across {FIFO, WFQ, CSZ} x {numpy, pure} a fail-heal run
must balance *generated = delivered + backlog + dropped +
failure_drops* per flow, the two backends must agree bit-for-bit on
both traffic and control counters, and a restore must hand every flow
back its exact original route (object identity for the interned base
state, value identity for the paths).
"""

import dataclasses

import pytest

from repro.control import compute_outage_schedule
from repro.fluid import FluidOptions, FluidSimulation
from repro.fluid import model as fluid_model
from repro.scenario import (
    DisciplineSpec,
    ScenarioBuilder,
    registry,
)
from repro.scenario.runner import OUTAGE_STREAM_NAME
from repro.scenario.spec import (
    GuaranteedRequest,
    OutageEvent,
    OutageSpec,
    TopologySpec,
)
from repro.sim.randomness import RandomStreams
from tests.conftest import plan_replay_spec

BACKENDS = (
    pytest.param("numpy", marks=pytest.mark.skipif(
        fluid_model._np is None, reason="numpy not installed"
    )),
    "pure",
)

#: Primary path S-A->S-B->S-C (SPF tie-break), backup via S-D.
PRIMARY = "S-A->S-B"
BACKUP = "S-A->S-D"


def diamond_topology(primary_bps=None, backup_bps=None):
    link = lambda src, dst, bps: (
        {"src": src, "dst": dst}
        if bps is None else {"src": src, "dst": dst, "rate_bps": bps}
    )
    return TopologySpec.graph(
        nodes=("S-A", "S-B", "S-C", "S-D"),
        links=[
            link("S-A", "S-B", primary_bps),
            link("S-B", "S-C", primary_bps),
            link("S-A", "S-D", backup_bps),
            link("S-D", "S-C", backup_bps),
        ],
        host_attachments=(("h-src", "S-A"), ("h-dst", "S-C")),
    )


def diamond_spec(disciplines, outages, flows=4, rate_pps=400):
    """A congested diamond: 4x400 pps onto a 1000 pkt/s bottleneck, so
    real backlog exists to flush when the primary path dies."""
    builder = (
        ScenarioBuilder("fluid-ctl")
        .topology(diamond_topology())
        .duration(20.0)
        .warmup(0.0)
        .seed(1)
        .validate()
    )
    for i in range(flows):
        builder.add_flow(
            f"f{i}", "h-src", "h-dst",
            average_rate_pps=rate_pps, peak_rate_pps=rate_pps,
            record=True,
        )
    builder.disciplines(*disciplines)
    spec = builder.build().replace(engine="fluid")
    return dataclasses.replace(spec, outages=OutageSpec(events=outages))


FAIL_HEAL = (OutageEvent(link=PRIMARY, at=8.0, duration=6.0),)
ALL_DISCIPLINES = (
    DisciplineSpec.fifo(),
    DisciplineSpec.wfq(equal_share_flows=4),
    DisciplineSpec.unified(name="CSZ"),
)


def discipline_of(spec, name):
    return next(d for d in spec.disciplines if d.name == name)


class TestFailHealConservation:
    """generated = delivered + backlog + dropped + failure_drops, per
    flow, for every discipline x backend cell of the grid."""

    @pytest.fixture(scope="class")
    def spec(self):
        return diamond_spec(ALL_DISCIPLINES, FAIL_HEAL)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("discipline", ["FIFO", "WFQ", "CSZ"])
    def test_conservation_closes(self, spec, discipline, backend):
        sim = FluidSimulation(
            spec, discipline_of(spec, discipline),
            FluidOptions(backend=backend),
        )
        run = sim.run().collect()
        assert run.invariants is not None and run.invariants_clean
        for f in range(len(sim.flow_names)):
            acc = (
                sim.delivered_bits[f]
                + sim.backlog_bits[f]
                + sim.dropped_bits[f]
                + sim.failure_drop_bits[f]
            )
            assert acc == pytest.approx(
                sim.generated_bits[f], rel=1e-9, abs=1.0
            )
        # The failure actually bit: backlogged bits were flushed.
        assert sum(sim.failure_drop_bits) > 0
        assert sim.flushed_packets > 0
        # Control counters are packet-shaped and complete.
        ctl = run.control
        assert ctl is not None
        assert (ctl.outages, ctl.restores, ctl.recomputes) == (1, 1, 2)
        assert ctl.wire_killed == ()
        for flow in ctl.flows:
            assert flow.reroutes == 2  # fail-over + fail-back
            assert not flow.torn_down

    @pytest.mark.skipif(
        fluid_model._np is None, reason="numpy not installed"
    )
    @pytest.mark.parametrize("discipline", ["FIFO", "WFQ", "CSZ"])
    def test_backends_agree(self, spec, discipline):
        runs = {}
        for backend in ("numpy", "pure"):
            sim = FluidSimulation(
                spec, discipline_of(spec, discipline),
                FluidOptions(backend=backend),
            )
            runs[backend] = (sim, sim.run().collect())
        np_sim, np_run = runs["numpy"]
        py_sim, py_run = runs["pure"]
        py_flows = {f.name: f for f in py_run.flows}
        for f in np_run.flows:
            assert f.received == pytest.approx(
                py_flows[f.name].received, rel=1e-9, abs=1e-6
            )
        for f in range(len(np_sim.flow_names)):
            assert np_sim.failure_drop_bits[f] == pytest.approx(
                py_sim.failure_drop_bits[f], rel=1e-9, abs=1e-6
            )
        # Discrete control summaries are bit-identical dataclasses.
        assert np_run.control == py_run.control


class TestRestoreIdentity:
    """A restore must return the *original* routes — the plan hands
    back the interned base state, not a recomputed equivalent."""

    def test_restore_state_is_base_state(self):
        spec = diamond_spec((DisciplineSpec.fifo(),), FAIL_HEAL)
        sim = FluidSimulation(spec, spec.disciplines[0])
        plan = sim.control_plan
        assert plan is not None and len(plan.boundaries) == 2
        # During the outage the flows actually moved...
        moved = plan.boundaries[0].state
        assert moved is not plan.base_state
        assert any(
            moved.paths[f] != plan.base_state.paths[f]
            for f in range(len(sim.flow_names))
        )
        # ...and the heal is the base state by identity: bit-identical
        # paths, shared fair/weight vectors, zero recomputation.
        healed = plan.boundaries[1].state
        assert healed is plan.base_state
        assert healed.paths is sim.paths

    def test_ecmp_restore_bit_identical(self):
        # Best-effort only: admission refusals would tear flows down and
        # the healed state would (correctly) not be the base state.
        spec = registry.build(
            "gen:leaf-spine",
            gen_seed=1,
            duration=10.0,
            with_requests=False,
            engine="fluid",
        )
        outage = dataclasses.replace(
            spec,
            outages=OutageSpec(
                events=(
                    OutageEvent(link="L-1->SP-1", at=3.0, duration=4.0),
                )
            ),
        )
        free_sim = FluidSimulation(spec, spec.disciplines[0])
        out_sim = FluidSimulation(outage, outage.disciplines[0])
        plan = out_sim.control_plan
        assert plan.boundaries[-1].state is plan.base_state
        # Seeded ECMP walks replay identically whether or not an outage
        # interleaved: the healed run routes exactly like the clean one.
        assert out_sim.paths == free_sim.paths


class TestPlanCompileCost:
    def test_plan_resolves_only_moved_flows_on_the_masked_graph(self):
        """``kernel_stats`` splits every (transition under an outage,
        flow) resolution into base paths handed back by identity and
        paths resolved on the masked graph: only flows leaving the
        failed uplink's leaf for another leaf are in the second set."""
        spec = registry.build(
            "gen:leaf-spine", gen_seed=1, duration=10.0,
            with_requests=False, engine="fluid",
        )
        spec = dataclasses.replace(
            spec,
            outages=OutageSpec(
                events=(
                    OutageEvent(link="L-1->SP-1", at=3.0, duration=4.0),
                )
            ),
        )
        sim = FluidSimulation(spec, spec.disciplines[0])
        leaf = {a.host: a.switch for a in spec.topology.host_attachments}
        exposed = [
            f for f, flow in enumerate(spec.flows)
            if leaf[flow.source_host] == "L-1"
            and leaf[flow.dest_host] != "L-1"
        ]
        assert 0 < len(exposed) < len(spec.flows) // 2
        stats = sim.kernel_stats
        assert stats["plan_paths_rewalked"] == len(exposed)
        # One transition runs under a non-empty down-set; the restore
        # is the interned base state and resolves nothing.
        assert stats["plan_paths_inherited"] == len(spec.flows) - len(exposed)
        moved = sim.control_plan.boundaries[0].state
        for f, path in enumerate(moved.paths):
            assert (path is sim.paths[f]) == (f not in exposed)
        # The pure backend compiles the same plan, same counts.
        pure = FluidSimulation(
            spec, spec.disciplines[0], FluidOptions(backend="pure")
        )
        assert pure.kernel_stats == stats


class TestPlanReplay:
    """The compiled plan of :func:`plan_replay_spec`, pinned whole: each
    boundary's state paths, no-route and torn-down flows and flush list,
    each flow's reroute counters, and the inherited/rewalked split.  It
    reaches every branch of the shared policy — followers b0/b1 move,
    holder g1 is re-admitted (twice: out and back), holder g2 is refused
    and torn down, and ``far`` has no route, then heals."""

    #: Links: 0 S-A->S-B, 1 S-B->S-C, 2 S-A->S-D, 3 S-D->S-C, 4 S-E->S-C.
    VIA_B, VIA_D, FAR = (0, 1), (2, 3), (4,)
    #: ``(time, state paths, noroute, inactive, flush)`` per boundary.
    BOUNDARIES = (
        (4.0, [VIA_D, VIA_D, (), VIA_D, VIA_D, VIA_D, VIA_D, FAR],
         (), (2,), ((1, 0), (2, 0), (4, 0), (5, 0))),
        (6.0, [VIA_D, VIA_D, (), VIA_D, VIA_D, VIA_D, VIA_D, ()],
         (7,), (2,), ((7, 4),)),
        (8.0, [VIA_D, VIA_D, (), VIA_D, VIA_D, VIA_D, VIA_D, FAR],
         (), (2,), ()),
        (10.0, [VIA_D, VIA_B, (), VIA_D, VIA_B, VIA_B, VIA_D, FAR],
         (), (2,), ()),
    )
    #: ``(name, reroutes, readmissions, refusals, torn_down)`` per flow.
    RECORDS = (
        ("g0", 0, 0, 0, False), ("g1", 2, 2, 0, False),
        ("g2", 0, 0, 1, True), ("g3", 0, 0, 0, False),
        ("b0", 2, 0, 0, False), ("b1", 2, 0, 0, False),
        ("b2", 0, 0, 0, False), ("far", 1, 0, 0, False),
    )

    def test_plan_is_pinned(self):
        spec = plan_replay_spec()
        sim = FluidSimulation(spec, spec.disciplines[0])
        assert sim.paths == [
            self.VIA_D, self.VIA_B, self.VIA_B, self.VIA_D,
            self.VIA_B, self.VIA_B, self.VIA_D, self.FAR,
        ]
        plan = sim.control_plan
        assert [
            (b.time, b.state.paths, b.state.noroute, b.state.inactive,
             b.flush)
            for b in plan.boundaries
        ] == list(self.BOUNDARIES)
        assert [
            dataclasses.astuple(record.stats()) for record in plan.records
        ] == list(self.RECORDS)
        assert plan.path_counts == (2, 20)
        assert (plan.outages, plan.restores) == (2, 2)


class TestPairedDraws:
    """The sampled outage process draws from the named
    ``"outage:process"`` stream, so the compiled schedule pairs across
    disciplines and matches a direct clock-free replay."""

    def test_transitions_pair_across_disciplines(self):
        spec = registry.build("gen:outage", gen_seed=1, duration=20.0)
        assert spec.outages is not None
        # Heat the sampled process up so a 20 s horizon sees real draws.
        spec = dataclasses.replace(
            spec,
            outages=dataclasses.replace(
                spec.outages,
                rate_per_second=0.4,
                mean_duration_seconds=1.5,
                start_after=0.0,
                max_outages=None,
            ),
        )
        sims = [
            FluidSimulation(spec, discipline)
            for discipline in spec.disciplines
        ]
        assert len(sims) >= 2
        first = sims[0].control_plan.transitions
        assert first  # the sampled process actually fired
        for sim in sims[1:]:
            assert sim.control_plan.transitions == first
        # And the schedule is exactly the named-stream replay.
        direct = compute_outage_schedule(
            spec.outages,
            sims[0].link_names,
            RandomStreams(seed=spec.seed).stream(OUTAGE_STREAM_NAME),
            spec.duration,
        )
        assert first == direct.transitions


class TestNoRouteAndTeardown:
    def test_partition_sheds_then_heals(self):
        """Failing both diamond uplinks partitions h-src from h-dst:
        arrivals shed as no-route drops, then delivery resumes on heal
        and the ledger still balances."""
        events = (
            OutageEvent(link=PRIMARY, at=8.0, duration=6.0),
            OutageEvent(link=BACKUP, at=8.0, duration=6.0),
        )
        spec = diamond_spec((DisciplineSpec.fifo(),), events)
        sim = FluidSimulation(spec, spec.disciplines[0])
        # Simultaneous transitions merge into one boundary per time.
        assert len(sim.control_plan.boundaries) == 2
        assert len(sim.control_plan.boundaries[0].state.noroute) == 4
        run = sim.run().collect()
        assert run.invariants_clean
        ctl = run.control
        assert ctl.outages == 2 and ctl.restores == 2
        # Every flow shed traffic while partitioned, by name, no zeros.
        assert [name for name, _ in ctl.no_route_drops] == [
            f"f{i}" for i in range(4)
        ]
        assert all(count > 0 for _, count in ctl.no_route_drops)
        for f in range(len(sim.flow_names)):
            assert sim.no_route_packets[f] > 0
            acc = (
                sim.delivered_bits[f]
                + sim.backlog_bits[f]
                + sim.dropped_bits[f]
                + sim.failure_drop_bits[f]
            )
            assert acc == pytest.approx(
                sim.generated_bits[f], rel=1e-9, abs=1.0
            )
        # Delivery resumed after the heal: more than the pre-failure
        # window alone could carry.
        bottleneck = 1_000_000.0  # bps, paper default link rate
        assert sum(sim.delivered_bits) > bottleneck * 8.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_tight_backup_tears_down_guaranteed_flow(self, backend):
        """Two guaranteed flows fit the primary path but only one fits
        the thin backup: the second re-admission is refused and the
        flow is torn down, with its accounting closed out — and it
        stays torn across the heal, exactly like the packet
        controller."""
        builder = (
            ScenarioBuilder("fluid-tear")
            .topology(
                diamond_topology(primary_bps=1e6, backup_bps=4e5)
            )
            .duration(20.0)
            .warmup(0.0)
            .seed(1)
            .validate()
            .admission(realtime_quota=0.9)
        )
        for i in range(2):
            builder.add_flow(
                f"gr-{i}", "h-src", "h-dst",
                average_rate_pps=300, peak_rate_pps=300,
                request=GuaranteedRequest(clock_rate_bps=3e5),
                record=True,
            )
        builder.disciplines(DisciplineSpec.unified(name="CSZ"))
        spec = dataclasses.replace(
            builder.build().replace(engine="fluid"),
            outages=OutageSpec(events=FAIL_HEAL),
        )
        sim = FluidSimulation(
            spec, spec.disciplines[0], FluidOptions(backend=backend)
        )
        run = sim.run().collect()
        assert run.invariants_clean
        flows = {f.name: f for f in run.control.flows}
        survivor, torn = flows["gr-0"], flows["gr-1"]
        assert survivor.readmissions >= 1 and not survivor.torn_down
        assert survivor.reroutes == 2
        assert torn.torn_down and torn.refusals >= 1
        # The torn flow stopped generating at the boundary and its
        # backlog flushed; the books still balance.
        idx = sim.flow_names.index("gr-1")
        acc = (
            sim.delivered_bits[idx]
            + sim.backlog_bits[idx]
            + sim.dropped_bits[idx]
            + sim.failure_drop_bits[idx]
        )
        assert acc == pytest.approx(
            sim.generated_bits[idx], rel=1e-9, abs=1.0
        )
        received = {f.name: f.received for f in run.flows}
        assert received["gr-1"] < received["gr-0"]
