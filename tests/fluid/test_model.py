"""Fluid model unit + property tests: shares, conservation, backends."""

import pytest

from repro.fluid import FluidOptions, FluidSimulation
from repro.fluid import model as fluid_model
from repro.scenario import (
    DisciplineSpec,
    ScenarioBuilder,
    ScenarioRunner,
    registry,
)


def constant_rate(builder, name, src, dst, rate_pps, **kwargs):
    """A duty-cycle-1 (always-on) source: deterministic fluid demand."""
    return builder.add_flow(
        name, src, dst,
        average_rate_pps=rate_pps, peak_rate_pps=rate_pps, **kwargs
    )


def single_link_spec(disciplines, flows, duration=20.0):
    builder = ScenarioBuilder("fluid-unit").single_link().duration(
        duration
    ).seed(1)
    for name, rate_pps in flows:
        constant_rate(
            builder, name, "src-host", "dst-host", rate_pps, record=True
        )
    builder.disciplines(*disciplines)
    return builder.build().replace(engine="fluid")


class TestBottleneckShares:
    """Closed-form max-min shares on one saturated 1 Mb/s link."""

    def test_wfq_equal_split_with_demand_bounded_flow(self):
        # Two 800-pps heavies + one 100-pps light on a 1000-pkt/s link
        # (1000-bit packets): the light flow gets its demand, the
        # heavies split the remaining 900 equally.
        spec = single_link_spec(
            (DisciplineSpec.wfq(equal_share_flows=3),),
            [("heavy-a", 800), ("heavy-b", 800), ("light", 100)],
        )
        run = ScenarioRunner(spec).run_discipline("WFQ")
        per_sec = {
            f.name: f.received / spec.duration for f in run.flows
        }
        assert per_sec["light"] == pytest.approx(100, rel=0.02)
        assert per_sec["heavy-a"] == pytest.approx(450, rel=0.02)
        assert per_sec["heavy-b"] == pytest.approx(450, rel=0.02)

    def test_fifo_splits_proportionally_to_demand(self):
        spec = single_link_spec(
            (DisciplineSpec.fifo(),),
            [("big", 900), ("small", 300)],
        )
        run = ScenarioRunner(spec).run_discipline("FIFO")
        per_sec = {
            f.name: f.received / spec.duration for f in run.flows
        }
        # Demand-proportional: 900:300 over 1000 pkt/s -> 750:250.
        assert per_sec["big"] == pytest.approx(750, rel=0.02)
        assert per_sec["small"] == pytest.approx(250, rel=0.02)

    def test_underloaded_link_serves_every_demand(self):
        spec = single_link_spec(
            (DisciplineSpec.fifo(),),
            [("a", 300), ("b", 200)],
        )
        run = ScenarioRunner(spec).run_discipline("FIFO")
        for f in run.flows:
            want = 300 if f.name == "a" else 200
            assert f.received / spec.duration == pytest.approx(
                want, rel=0.01
            )
            assert f.mean_seconds == pytest.approx(0.0, abs=1e-9)

    def test_unified_guards_realtime_over_datagram(self):
        from repro.net.packet import ServiceClass

        builder = ScenarioBuilder("fluid-tiers").single_link().duration(
            20.0
        ).seed(1)
        constant_rate(
            builder, "rt", "src-host", "dst-host", 600,
            service_class=ServiceClass.PREDICTED, record=True,
        )
        constant_rate(
            builder, "dg", "src-host", "dst-host", 600, record=True
        )
        builder.disciplines(DisciplineSpec.unified(name="CSZ"))
        spec = builder.build().replace(engine="fluid")
        run = ScenarioRunner(spec).run_discipline("CSZ")
        per_sec = {
            f.name: f.received / spec.duration for f in run.flows
        }
        # The predicted tier drains first: full 600; datagram gets the
        # residual 400 and eats the whole queue.
        assert per_sec["rt"] == pytest.approx(600, rel=0.02)
        assert per_sec["dg"] == pytest.approx(400, rel=0.05)
        assert run.flow("rt").mean_seconds < run.flow("dg").mean_seconds


GEN_SEEDS = (1, 2, 3, 5, 8)


class TestPropertyGrid:
    """Conservation properties over generated random-graph instances."""

    @pytest.mark.parametrize("gen_seed", GEN_SEEDS)
    def test_rate_conservation_and_shares(self, gen_seed):
        spec = registry.build(
            "gen:random-graph", gen_seed=gen_seed, duration=10.0
        ).replace(engine="fluid")
        sim = FluidSimulation(spec, spec.disciplines[0])
        run = sim.run().collect()
        assert run.invariants is not None and run.invariants_clean
        duration = spec.duration
        for l, served in enumerate(sim.link_served_bits):
            # Rate conservation: no link serves beyond capacity.
            assert served <= sim.caps[l] * duration * (1 + 1e-6)
        for f in range(len(sim.flow_names)):
            gen = sim.generated_bits[f]
            acc = (
                sim.delivered_bits[f]
                + sim.backlog_bits[f]
                + sim.dropped_bits[f]
            )
            assert acc == pytest.approx(gen, rel=1e-6, abs=1.0)

    @pytest.mark.parametrize("gen_seed", GEN_SEEDS[:2])
    def test_unmet_demand_implies_saturated_bottleneck(self, gen_seed):
        """Bottleneck-share correctness: a flow only falls short of its
        offered load when some link on its path is (near-)saturated."""
        spec = registry.build(
            "gen:random-graph", gen_seed=gen_seed, duration=10.0
        ).replace(engine="fluid")
        sim = FluidSimulation(spec, spec.disciplines[0])
        sim.run()
        duration = spec.duration
        for f, links in enumerate(sim.paths):
            short = sim.backlog_bits[f] + sim.dropped_bits[f]
            if short <= sim.generated_bits[f] * 1e-3:
                continue
            assert any(
                sim.link_served_bits[l]
                >= 0.5 * sim.caps[l] * duration
                for l in links
            ), f"flow {sim.flow_names[f]} starved on an idle path"


class TestBackends:
    @pytest.mark.skipif(
        fluid_model._np is None, reason="numpy not installed"
    )
    def test_numpy_and_pure_agree(self):
        spec = registry.build(
            "gen:random-graph", gen_seed=4, duration=5.0
        ).replace(engine="fluid")
        runs = {}
        for backend in ("numpy", "pure"):
            sim = FluidSimulation(
                spec, spec.disciplines[0],
                FluidOptions(backend=backend, epoch_seconds=0.05),
            )
            runs[backend] = sim.run().collect()
        np_util = dict(runs["numpy"].link_utilizations)
        py_util = dict(runs["pure"].link_utilizations)
        for name in np_util:
            assert np_util[name] == pytest.approx(
                py_util[name], rel=1e-9, abs=1e-9
            )
        np_flows = {f.name: f for f in runs["numpy"].flows}
        for f in runs["pure"].flows:
            assert f.received == pytest.approx(
                np_flows[f.name].received, rel=1e-9, abs=1e-6
            )

    def test_unknown_backend_rejected(self):
        spec = single_link_spec(
            (DisciplineSpec.fifo(),), [("a", 100)], duration=1.0
        )
        # Rejected when the options are built — before any compile.
        with pytest.raises(ValueError, match="backend.*cuda"):
            FluidSimulation(
                spec, spec.disciplines[0], FluidOptions(backend="cuda")
            )


class TestOptionsValidation:
    """``FluidOptions`` rejects bad values where they are written, by
    field name — not as 0 epochs with clean invariants or a bare
    ``ZeroDivisionError``."""

    @pytest.mark.parametrize(
        "field,value,expected",
        [
            ("epoch_seconds", -1.0, "a positive, finite number of seconds"),
            ("epoch_seconds", 0, "a positive, finite number of seconds"),
            ("epoch_seconds", float("nan"), "positive, finite"),
            ("epoch_seconds", float("inf"), "positive, finite"),
            ("fuse_epochs", -5, "an integer >= 0"),
            ("backend", "cuda", "one of auto|numpy|pure"),
        ],
    )
    def test_bad_values_name_the_field(self, field, value, expected):
        with pytest.raises(ValueError) as excinfo:
            FluidOptions(**{field: value})
        message = str(excinfo.value)
        assert message.startswith(f"FluidOptions.{field} must be ")
        assert expected in message and repr(value) in message

    def test_defaults_and_boundary_values_pass(self):
        FluidOptions()
        FluidOptions(
            epoch_seconds=1e-6, fuse_epochs=0, backend="pure"
        )


class TestValidityEnvelope:
    def test_tcp_specs_rejected(self):
        builder = ScenarioBuilder("fluid-tcp").single_link().duration(5.0)
        builder.add_flow("a", "src-host", "dst-host")
        builder.tcp("t", "src-host", "dst-host")
        builder.disciplines(DisciplineSpec.fifo())
        spec = builder.build()
        with pytest.raises(ValueError, match="TCP"):
            FluidSimulation(spec, spec.disciplines[0])

    def test_outage_specs_supported_by_default(self):
        spec = registry.build("gen:outage", gen_seed=1, duration=5.0)
        assert spec.outages is not None and spec.outages.is_active
        sim = FluidSimulation(spec, spec.disciplines[0])
        assert sim.control_plan is not None

    def test_tcp_rejection_names_flows_and_remedy(self):
        builder = ScenarioBuilder("fluid-tcp").single_link().duration(5.0)
        builder.add_flow("a", "src-host", "dst-host")
        builder.tcp("tcp-b", "src-host", "dst-host")
        builder.tcp("tcp-a", "src-host", "dst-host")
        builder.disciplines(DisciplineSpec.fifo())
        spec = builder.build()
        with pytest.raises(ValueError) as excinfo:
            FluidSimulation(spec, spec.disciplines[0])
        message = str(excinfo.value)
        # Diagnostics name the offending flows (sorted), the spec, and
        # point at the packet engine as the remedy.
        assert "'tcp-a', 'tcp-b'" in message
        assert "'fluid-tcp'" in message
        assert 'engine="packet"' in message

    def test_tcp_rejection_truncates_long_flow_lists(self):
        builder = ScenarioBuilder("fluid-tcp").single_link().duration(5.0)
        for i in range(8):
            builder.tcp(f"tcp-{i}", "src-host", "dst-host")
        builder.disciplines(DisciplineSpec.fifo())
        spec = builder.build()
        with pytest.raises(ValueError) as excinfo:
            FluidSimulation(spec, spec.disciplines[0])
        message = str(excinfo.value)
        assert "(8 total)" in message
        assert "'tcp-7'" not in message  # beyond the 5-name preview

    def test_degenerate_outage_spec_not_gated(self):
        # An inactive OutageSpec (no events, zero rate) declares nothing
        # to simulate: it compiles to an empty plan on the uniform grid.
        import dataclasses

        from repro.scenario.spec import OutageSpec

        builder = ScenarioBuilder("fluid-degen").single_link().duration(5.0)
        builder.add_flow("a", "src-host", "dst-host")
        builder.disciplines(DisciplineSpec.fifo())
        spec = dataclasses.replace(builder.build(), outages=OutageSpec())
        sim = FluidSimulation(spec, spec.disciplines[0])
        assert sim.control_plan is not None
        assert sim.control_plan.boundaries == ()
        assert sim.segments is None
