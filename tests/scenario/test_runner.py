"""Tests for the scenario runner: paired arrivals, determinism, results."""

import pytest

from repro.net.packet import ServiceClass
from repro.scenario import (
    DisciplineSpec,
    FlowSpec,
    GuaranteedRequest,
    PredictedRequest,
    ScenarioBuilder,
    ScenarioRunner,
)

DURATION = 15.0


@pytest.fixture(scope="module")
def two_discipline_result():
    spec = (
        ScenarioBuilder("paired")
        .single_link()
        .paper_flows(10)  # the paper's 83.5 % load — queues actually build
        .disciplines(
            DisciplineSpec.wfq(equal_share_flows=10), DisciplineSpec.fifo()
        )
        .duration(DURATION)
        .seed(3)
        .build()
    )
    return ScenarioRunner(spec).run()


class TestPairedArrivals:
    def test_identical_arrival_process_across_disciplines(
        self, two_discipline_result
    ):
        """Same spec + seed: every discipline sees the identical per-flow
        source process (streams are keyed by flow name only)."""
        wfq, fifo = (
            two_discipline_result.run("WFQ"),
            two_discipline_result.run("FIFO"),
        )
        for flow in (f"flow-{i}" for i in range(10)):
            assert wfq.flow(flow).generated == fifo.flow(flow).generated
            assert wfq.flow(flow).emitted == fifo.flow(flow).emitted
            assert wfq.flow(flow).filtered == fifo.flow(flow).filtered

    def test_delays_differ_across_disciplines(self, two_discipline_result):
        """Same arrivals, different scheduling: the delay numbers move."""
        wfq, fifo = (
            two_discipline_result.run("WFQ"),
            two_discipline_result.run("FIFO"),
        )
        assert wfq.flow("flow-0").mean_seconds != fifo.flow("flow-0").mean_seconds


class TestDeterminism:
    def test_repeated_runs_bit_identical(self):
        spec = (
            ScenarioBuilder("det")
            .single_link()
            .paper_flows(3)
            .discipline(DisciplineSpec.fifo())
            .duration(10.0)
            .seed(5)
            .build()
        )
        a = ScenarioRunner(spec).run().comparable_dict()
        b = ScenarioRunner(spec).run().comparable_dict()
        assert a == b

    def test_seed_changes_results(self):
        def result_for(seed):
            spec = (
                ScenarioBuilder("det")
                .single_link()
                .paper_flows(3)
                .discipline(DisciplineSpec.fifo())
                .duration(10.0)
                .seed(seed)
                .build()
            )
            return ScenarioRunner(spec).run_discipline()

        assert (
            result_for(1).flow("flow-0").mean_seconds
            != result_for(2).flow("flow-0").mean_seconds
        )


class TestResultStructure:
    def test_link_stats_and_events(self, two_discipline_result):
        run = two_discipline_result.run("FIFO")
        assert 0.0 < run.utilization("A->B") < 1.0
        assert run.events_processed > 1000
        assert run.total_drops >= 0
        assert run.worker_pid > 0

    def test_flow_stats_units(self, two_discipline_result):
        stats = two_discipline_result.run("FIFO").flow("flow-0")
        assert stats.recorded > 0
        assert stats.mean_in(0.001) == stats.mean_seconds / 0.001
        assert stats.percentile_in(99.9) >= stats.percentile_in(50.0)
        with pytest.raises(KeyError):
            stats.percentile_in(42.0)

    def test_to_dict_json_serializable(self, two_discipline_result):
        import json

        payload = json.dumps(two_discipline_result.to_dict())
        assert "runs" in payload
        assert two_discipline_result.to_dict()["seed"] == 3

    def test_lookup_errors(self, two_discipline_result):
        with pytest.raises(KeyError):
            two_discipline_result.run("nope")
        with pytest.raises(KeyError):
            two_discipline_result.run("FIFO").flow("nope")


class TestServiceRequests:
    def test_guaranteed_without_admission_installs_clock_rates(self):
        spec = (
            ScenarioBuilder("g")
            .single_link()
            .paper_flows(2, request=GuaranteedRequest(clock_rate_bps=170_000))
            .discipline(DisciplineSpec.unified(num_predicted_classes=1))
            .duration(5.0)
            .build()
        )
        context = ScenarioRunner(spec).build()
        # Sources stamp the guaranteed class even without signaling.
        assert all(
            s.service_class is ServiceClass.GUARANTEED
            for s in context.sources.values()
        )

    def test_admission_grants_set_predicted_priority(self):
        spec = (
            ScenarioBuilder("p")
            .single_link()
            .add_flow(
                "v0",
                "src-host",
                "dst-host",
                request=PredictedRequest(
                    token_rate_bps=85_000,
                    bucket_depth_bits=50_000,
                    target_delay_seconds=1.5,
                ),
            )
            .discipline(DisciplineSpec.unified(num_predicted_classes=2))
            .admission(class_bounds_seconds=(0.15, 1.5))
            .duration(5.0)
            .build()
        )
        context = ScenarioRunner(spec).build()
        assert context.grants["v0"].priority_class == 1
        source = context.sources["v0"]
        assert source.service_class is ServiceClass.PREDICTED
        assert source.priority_class == 1

    def test_record_false_skips_sink(self):
        spec = (
            ScenarioBuilder("bg")
            .single_link()
            .paper_flows(2, record=False)
            .discipline(DisciplineSpec.fifo())
            .duration(5.0)
            .build()
        )
        run = ScenarioRunner(spec).run_discipline()
        assert run.flows == ()

    def test_partial_establish_order_still_establishes_everyone(self):
        """A partial establish_order prioritizes; unlisted request-bearing
        flows must still visit admission afterwards."""
        request = PredictedRequest(
            token_rate_bps=85_000,
            bucket_depth_bits=50_000,
            target_delay_seconds=1.5,
        )
        spec = (
            ScenarioBuilder("partial")
            .single_link()
            .add_flow("p0", "src-host", "dst-host", request=request)
            .add_flow("p1", "src-host", "dst-host", request=request)
            .discipline(DisciplineSpec.unified(num_predicted_classes=2))
            .admission(class_bounds_seconds=(0.15, 1.5))
            .establish_order("p1")
            .duration(5.0)
            .build()
        )
        context = ScenarioRunner(spec).build()
        assert set(context.grants) == {"p0", "p1"}
        # p1 was prioritized: it reached the signaling agent first.
        assert list(context.signaling.grants) == ["p1", "p0"]

    def test_remove_flow_frees_the_name(self):
        """Teardown releases the source, receiver, and grant so a later
        load wave can re-admit the same flow name."""
        request = PredictedRequest(
            token_rate_bps=85_000,
            bucket_depth_bits=50_000,
            target_delay_seconds=1.5,
        )
        spec = (
            ScenarioBuilder("waves")
            .single_link()
            .discipline(DisciplineSpec.unified(num_predicted_classes=2))
            .admission(class_bounds_seconds=(0.15, 1.5))
            .duration(5.0)
            .build()
        )
        context = ScenarioRunner(spec).build()
        wave = FlowSpec("w0", "src-host", "dst-host", request=request)
        context.add_flow(wave)
        context.remove_flow("w0")
        assert "w0" not in context.sources
        assert "w0" not in context.grants
        context.add_flow(wave)  # second wave reuses the name
        assert context.grants["w0"].priority_class == 1

    def test_duplicate_add_flow_rejected(self):
        spec = (
            ScenarioBuilder("dup")
            .single_link()
            .paper_flows(1)
            .discipline(DisciplineSpec.fifo())
            .duration(5.0)
            .build()
        )
        context = ScenarioRunner(spec).build()
        with pytest.raises(ValueError, match="already exists"):
            context.add_flow(FlowSpec("flow-0", "src-host", "dst-host"))


class TestPartialRuns:
    def test_tcp_goodput_uses_actual_elapsed_time(self):
        """run(until=half) must not divide delivered bits by the full
        spec duration."""
        spec = (
            ScenarioBuilder("partial-tcp")
            .chain(2, duplex=True)
            .discipline(DisciplineSpec.fifo())
            .tcp("t", "Host-1", "Host-2")
            .duration(40.0)
            .build()
        )
        context = ScenarioRunner(spec).build()
        context.run(until=20.0)
        partial = context.collect().tcp("t").goodput_bps
        context.run()  # on to the full duration
        full = context.collect().tcp("t").goodput_bps
        # Roughly steady TCP throughput: the half-time measurement should
        # be in the same ballpark as the full-run one, not half of it.
        assert partial > 0.75 * full


class TestConstantRateFlow:
    """P = A is a constant-rate source: valid on the fluid engine, and
    refused by the packet engine under the flow's own name."""

    def spec(self):
        return (
            ScenarioBuilder("constant-rate")
            .single_link()
            .add_flow(
                "steady", "src-host", "dst-host",
                average_rate_pps=200, peak_rate_pps=200,
            )
            .discipline(DisciplineSpec.fifo())
            .duration(2.0)
            .build()
        )

    def test_packet_build_names_the_flow(self):
        with pytest.raises(
            ValueError, match=r"^flow 'steady': peak rate must exceed"
        ):
            ScenarioRunner(self.spec()).build()

    def test_fluid_engine_runs_it(self):
        result = ScenarioRunner(self.spec().replace(engine="fluid")).run()
        assert result.runs[0].flow("steady").generated > 0


class TestParallelDisciplines:
    def test_workers_match_serial(self):
        spec = (
            ScenarioBuilder("par")
            .single_link()
            .paper_flows(3)
            .disciplines(
                DisciplineSpec.wfq(equal_share_flows=3), DisciplineSpec.fifo()
            )
            .duration(10.0)
            .seed(2)
            .build()
        )
        serial = ScenarioRunner(spec).run().comparable_dict()
        parallel = ScenarioRunner(spec).run(workers=2).comparable_dict()
        assert serial == parallel
