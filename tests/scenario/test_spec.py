"""Tests for the declarative spec layer (validation, immutability, JSON)."""

import dataclasses

import pytest

from repro.net.packet import ServiceClass
from repro.scenario import (
    AdmissionSpec,
    DisciplineSpec,
    FlowSpec,
    GuaranteedRequest,
    OutageEvent,
    OutageSpec,
    PredictedRequest,
    ScenarioSpec,
    SpecError,
    TopologySpec,
)
from repro.scenario.spec import FlowTable


def minimal_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="t",
        topology=TopologySpec.single_link(),
        flows=(FlowSpec("f0", "src-host", "dst-host"),),
        disciplines=(DisciplineSpec.fifo(),),
        duration=10.0,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestTopologySpec:
    def test_kinds_validated(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            TopologySpec(nodes=("A",), kind="torus")

    def test_chain_needs_length(self):
        with pytest.raises(ValueError, match="at least 2 switches"):
            TopologySpec.chain(1)

    def test_single_link_compiles_to_graph(self):
        spec = TopologySpec.single_link()
        assert spec.nodes == ("A", "B")
        assert spec.link_names == ("A->B",)
        assert spec.host_names == ("src-host", "dst-host")
        assert spec.kind == "single_link"

    def test_chain_duplex_compiles_both_directions(self):
        spec = TopologySpec.chain(3, duplex=True)
        assert spec.link_names == (
            "S-1->S-2", "S-2->S-1", "S-2->S-3", "S-3->S-2"
        )

    def test_paper_defaults(self):
        spec = TopologySpec.figure1()
        assert spec.rate_bps == 1_000_000
        assert spec.buffer_packets == 200
        assert spec.num_switches == 5

    def test_uniform_rate_raises_on_heterogeneous_links(self):
        spec = TopologySpec.graph(
            nodes=["A", "B", "C"],
            links=[
                {"src": "A", "dst": "B", "rate_bps": 1_000_000},
                {"src": "B", "dst": "C", "rate_bps": 64_000},
            ],
            host_attachments=[("h-a", "A"), ("h-c", "C")],
        )
        with pytest.raises(ValueError, match="heterogeneous"):
            spec.rate_bps

    def test_graph_validation(self):
        with pytest.raises(ValueError, match="unknown switch"):
            TopologySpec.graph(
                nodes=["A"],
                links=[{"src": "A", "dst": "ghost"}],
                host_attachments=[],
            )
        with pytest.raises(ValueError, match="duplicate link"):
            TopologySpec.graph(
                nodes=["A", "B"],
                links=[{"src": "A", "dst": "B"}, {"src": "A", "dst": "B"}],
                host_attachments=[],
            )
        with pytest.raises(ValueError, match="unknown switch"):
            TopologySpec.graph(
                nodes=["A"], links=[], host_attachments=[("h", "ghost")]
            )

    def test_frozen(self):
        spec = TopologySpec.single_link()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.nodes = ("X",)


class TestFlowSpec:
    def test_paper_defaults(self):
        flow = FlowSpec("f", "a", "b")
        assert flow.average_rate_pps == 85.0
        assert flow.bucket_packets == 50.0
        assert flow.packet_size_bits == 1000
        assert flow.service_class is ServiceClass.DATAGRAM

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowSpec("", "a", "b")
        with pytest.raises(ValueError):
            FlowSpec("f", "a", "b", average_rate_pps=0)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            GuaranteedRequest(clock_rate_bps=0)
        with pytest.raises(ValueError):
            PredictedRequest(
                token_rate_bps=1, bucket_depth_bits=1, target_delay_seconds=0
            )


class TestServiceRequests:
    """The Section 8 interface: the only request types, checked where
    they are made."""

    def predicted(self, **overrides):
        params = dict(
            token_rate_bps=85_000,
            bucket_depth_bits=50_000,
            target_delay_seconds=0.3,
            target_loss_rate=0.01,
        )
        params.update(overrides)
        return PredictedRequest(**params)

    def test_guaranteed_carries_only_clock_rate(self):
        request = GuaranteedRequest(clock_rate_bps=170_000)
        assert request.service_class is ServiceClass.GUARANTEED
        # The class is not a field: the wire form is the rate alone.
        assert request.to_dict() == {
            "service": "guaranteed", "clock_rate_bps": 170_000,
        }

    @pytest.mark.parametrize("rate", [0, -1])
    def test_guaranteed_rejects_nonpositive_rate(self, rate):
        with pytest.raises(ValueError, match="clock rate"):
            GuaranteedRequest(clock_rate_bps=rate)

    def test_requests_are_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            GuaranteedRequest(clock_rate_bps=1000).clock_rate_bps = 2000

    def test_predicted_carries_filter_and_target(self):
        request = self.predicted()
        assert request.service_class is ServiceClass.PREDICTED
        assert (request.token_rate_bps, request.bucket_depth_bits) == (
            85_000, 50_000,
        )
        assert request.target_delay_seconds == 0.3
        assert PredictedRequest(1.0, 1.0, 1.0).target_loss_rate == 0.01

    @pytest.mark.parametrize(
        "field,value",
        [
            ("token_rate_bps", 0),
            ("token_rate_bps", -1),
            ("bucket_depth_bits", 0),
            ("target_delay_seconds", 0),
            ("target_loss_rate", -0.1),
            ("target_loss_rate", 1.0),
            ("target_loss_rate", 1.5),
        ],
    )
    def test_predicted_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            self.predicted(**{field: value})

    def test_zero_loss_rate_allowed(self):
        # L = 0 is a legal (if demanding) request.
        assert self.predicted(target_loss_rate=0.0).target_loss_rate == 0.0

    def test_loss_rate_error_names_the_field(self):
        with pytest.raises(ValueError, match=r"target_loss_rate must be in "
                           r"\[0, 1\), got 1\.5"):
            self.predicted(target_loss_rate=1.5)

    def test_loss_rate_error_from_payload_names_the_path(self):
        payload = minimal_spec(
            flows=(FlowSpec("f0", "src-host", "dst-host",
                            request=self.predicted()),),
        ).to_dict()
        payload["flows"][0]["request"]["target_loss_rate"] = 1.5
        with pytest.raises(SpecError) as excinfo:
            ScenarioSpec.from_dict(payload)
        assert excinfo.value.path == "flows[0].request"
        assert "target_loss_rate must be in [0, 1)" in excinfo.value.message


class TestEstablishmentOrder:
    """One order for both engines: ``establish_order`` first, then the
    unlisted request-bearing flows in spec order."""

    GUARANTEED = GuaranteedRequest(clock_rate_bps=100_000)

    def spec(self, establish_order=None):
        flows = tuple(
            FlowSpec(name, "src-host", "dst-host",
                     request=self.GUARANTEED if name != "d" else None)
            for name in ("a", "b", "d", "c", "e")
        )
        return minimal_spec(flows=flows, establish_order=establish_order)

    def names(self, spec):
        return [spec.flows[i].name for i in spec.establishment_order()]

    def test_spec_order_without_establish_order(self):
        assert self.names(self.spec()) == ["a", "b", "c", "e"]

    def test_partial_establish_order_is_served_first(self):
        assert self.names(self.spec(("e", "b"))) == ["e", "b", "a", "c"]

    def test_flows_without_a_request_are_skipped(self):
        # Listed or not, a datagram flow never visits admission.
        assert self.names(self.spec(("d", "c"))) == ["c", "a", "b", "e"]
        assert minimal_spec().establishment_order() == []

    def test_flow_table_gives_the_tuple_order(self):
        spec = self.spec(("c", "d", "a"))
        table = spec.replace(flows=FlowTable.of(spec.flows))
        assert isinstance(table.flows, FlowTable)
        assert table.establishment_order() == spec.establishment_order()
        assert self.names(table) == ["c", "a", "b", "e"]


class TestDisciplineSpec:
    def test_params_are_hashable_and_sorted(self):
        spec = DisciplineSpec.of("X", "wfq", b=2, a=1)
        assert spec.params == (("a", 1), ("b", 2))
        hash(spec)

    def test_param_dict(self):
        spec = DisciplineSpec.wfq(equal_share_flows=10)
        assert spec.param_dict["equal_share_flows"] == 10

    def test_custom_factory_not_serializable(self):
        spec = DisciplineSpec.custom("X", lambda sim, name, link: None)
        with pytest.raises(ValueError, match="custom factory"):
            spec.to_dict()


class TestScenarioSpec:
    def test_duplicate_flow_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            minimal_spec(
                flows=(
                    FlowSpec("f0", "src-host", "dst-host"),
                    FlowSpec("f0", "src-host", "dst-host"),
                )
            )

    def test_duplicate_discipline_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            minimal_spec(
                disciplines=(DisciplineSpec.fifo(), DisciplineSpec.fifo())
            )

    def test_establish_order_must_name_known_flows(self):
        with pytest.raises(ValueError, match="unknown flows"):
            minimal_spec(establish_order=("ghost",))

    def test_establish_order_rejects_duplicates(self):
        with pytest.raises(ValueError, match="repeat"):
            minimal_spec(establish_order=("f0", "f0"))

    def test_at_least_one_discipline(self):
        with pytest.raises(ValueError, match="discipline"):
            minimal_spec(disciplines=())

    def test_replace_returns_modified_copy(self):
        spec = minimal_spec()
        other = spec.replace(seed=99)
        assert other.seed == 99
        assert spec.seed == 1
        assert other.flows == spec.flows

    def test_lookups(self):
        spec = minimal_spec()
        assert spec.flow("f0").name == "f0"
        assert spec.discipline("FIFO").kind == "fifo"
        with pytest.raises(KeyError):
            spec.flow("nope")


class TestJsonRoundTrip:
    def test_round_trip_preserves_spec(self):
        spec = minimal_spec(
            flows=(
                FlowSpec(
                    "g",
                    "src-host",
                    "dst-host",
                    request=GuaranteedRequest(clock_rate_bps=170_000),
                    service_class=ServiceClass.GUARANTEED,
                ),
                FlowSpec(
                    "p",
                    "src-host",
                    "dst-host",
                    request=PredictedRequest(
                        token_rate_bps=85_000,
                        bucket_depth_bits=50_000,
                        target_delay_seconds=0.3,
                    ),
                ),
            ),
            admission=AdmissionSpec(),
            establish_order=("g", "p"),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_survives_json(self):
        import json

        spec = minimal_spec()
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(payload) == spec

    def test_unknown_top_level_key_rejected_by_name(self):
        """A misspelt ``outages`` must not run the scenario without its
        control plane."""
        payload = dict(minimal_spec().to_dict(), outage={"events": []}, sed=3)
        with pytest.raises(ValueError) as excinfo:
            ScenarioSpec.from_dict(payload)
        message = str(excinfo.value)
        assert "unknown key(s) ['outage', 'sed']" in message
        assert "'outages'" in message and "'seed'" in message  # accepted

    def test_missing_required_keys_named(self):
        payload = minimal_spec().to_dict()
        del payload["name"], payload["flows"]
        with pytest.raises(ValueError, match=r"missing required key\(s\) "
                           r"\['name', 'flows'\]"):
            ScenarioSpec.from_dict(payload)

    def test_optional_keys_stay_optional(self):
        spec = minimal_spec()
        required = {
            key: spec.to_dict()[key]
            for key in ("name", "topology", "flows", "disciplines")
        }
        assert ScenarioSpec.from_dict(required) == ScenarioSpec(
            name=spec.name, topology=spec.topology, flows=spec.flows,
            disciplines=spec.disciplines,
        )


class TestOutageSpec:
    def _with_outages(self, outages, **overrides):
        return minimal_spec(outages=outages, **overrides)

    def test_round_trip_explicit_and_sampled(self):
        spec = self._with_outages(
            OutageSpec(
                events=(OutageEvent(link="A->B", at=2.0, duration=1.0),),
                rate_per_second=0.25,
                mean_duration_seconds=0.8,
                correlated_links=2,
                links=("A->B",),
                start_after=5.0,
                max_outages=3,
            )
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_omits_outages_when_none(self):
        """Bit-identity guard: outage-free specs serialize exactly as
        they did before the control plane existed."""
        assert "outages" not in minimal_spec().to_dict()

    def test_event_validation(self):
        with pytest.raises(ValueError, match="at"):
            OutageEvent(link="A->B", at=-1.0, duration=1.0)
        with pytest.raises(ValueError, match="duration"):
            OutageEvent(link="A->B", at=1.0, duration=0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="rate"):
            OutageSpec(rate_per_second=-0.1)
        with pytest.raises(ValueError, match="correlated"):
            OutageSpec(correlated_links=0)
        with pytest.raises(ValueError, match="max_outages"):
            OutageSpec(max_outages=0)

    def test_unknown_event_link_rejected(self):
        with pytest.raises(ValueError, match="unknown link"):
            self._with_outages(
                OutageSpec(events=(OutageEvent("ghost", at=1.0, duration=1.0),))
            )

    def test_unknown_candidate_links_rejected(self):
        with pytest.raises(ValueError, match="candidates"):
            self._with_outages(OutageSpec(rate_per_second=0.1, links=("ghost",)))

    def test_service_request_without_admission_rejected(self):
        with pytest.raises(ValueError, match="admission"):
            self._with_outages(
                OutageSpec(events=(OutageEvent("A->B", at=1.0, duration=1.0),)),
                flows=(
                    FlowSpec(
                        "p",
                        "src-host",
                        "dst-host",
                        request=PredictedRequest(
                            token_rate_bps=85_000,
                            bucket_depth_bits=50_000,
                            target_delay_seconds=0.3,
                        ),
                    ),
                ),
            )
