"""Tests for flow establishment / signaling (Section 9)."""

import pytest

from repro.core.admission import AdmissionConfig, AdmissionController
from repro.core.signaling import FlowEstablishmentError, SignalingAgent
from repro.net.packet import Packet, ServiceClass
from repro.scenario import FlowSpec, GuaranteedRequest, PredictedRequest, TopologySpec
from repro.sched.unified import UnifiedConfig, UnifiedScheduler
from repro.sim.engine import Simulator

CLASS_BOUNDS = (0.15, 1.5)


@pytest.fixture
def stack(sim):
    """Figure-1 chain with unified schedulers + admission + signaling."""

    def factory(name, link):
        return UnifiedScheduler(
            UnifiedConfig(capacity_bps=link.rate_bps, num_predicted_classes=2)
        )

    net = TopologySpec.figure1().build(sim, factory)
    admission = AdmissionController(
        AdmissionConfig(realtime_quota=0.9, class_bounds_seconds=CLASS_BOUNDS)
    )
    signaling = SignalingAgent(net, admission)
    return net, admission, signaling


def guaranteed_flow(flow_id="g1", rate=170_000, src="Host-1", dst="Host-5"):
    return FlowSpec(
        name=flow_id,
        source_host=src,
        dest_host=dst,
        request=GuaranteedRequest(clock_rate_bps=rate),
    )


def predicted_flow(
    flow_id="p1",
    src="Host-1",
    dst="Host-5",
    target_delay=0.6,
    bucket_bits=50_000,
):
    return FlowSpec(
        name=flow_id,
        source_host=src,
        dest_host=dst,
        request=PredictedRequest(
            token_rate_bps=85_000,
            bucket_depth_bits=bucket_bits,
            target_delay_seconds=target_delay,
        ),
    )


class TestGuaranteedEstablishment:
    def test_grant_covers_full_path(self, stack):
        net, __, signaling = stack
        grant = signaling.establish(guaranteed_flow())
        assert grant.service_class is ServiceClass.GUARANTEED
        assert grant.link_names == [
            "S-1->S-2", "S-2->S-3", "S-3->S-4", "S-4->S-5",
        ]
        assert grant.priority_class is None
        assert grant.advertised_bound_seconds is None

    def test_clock_rate_installed_at_every_hop(self, stack):
        net, __, signaling = stack
        signaling.establish(guaranteed_flow(rate=170_000))
        for name in ("S-1->S-2", "S-2->S-3", "S-3->S-4", "S-4->S-5"):
            scheduler = net.port_for_link(name).scheduler
            assert scheduler.guaranteed_flows() == {"g1": 170_000}

    def test_reservations_recorded(self, stack):
        __, admission, signaling = stack
        signaling.establish(guaranteed_flow(rate=170_000))
        assert admission.reserved_guaranteed_bps("S-1->S-2") == 170_000

    def test_rejection_installs_nothing(self, stack):
        net, admission, signaling = stack
        # Fill S-3->S-4 almost to quota via a short flow, then ask for a
        # long flow that exceeds the quota only at that link.
        signaling.establish(
            guaranteed_flow("short", rate=800_000, src="Host-3", dst="Host-4")
        )
        with pytest.raises(FlowEstablishmentError):
            signaling.establish(guaranteed_flow("long", rate=170_000))
        # All-or-nothing: the long flow left no state at earlier links.
        assert admission.reserved_guaranteed_bps("S-1->S-2") == 0.0
        assert "long" not in net.port_for_link("S-1->S-2").scheduler.guaranteed_flows()
        assert "long" not in signaling.grants

    def test_duplicate_establishment_refused(self, stack):
        __, __, signaling = stack
        signaling.establish(guaranteed_flow())
        with pytest.raises(ValueError):
            signaling.establish(guaranteed_flow())

    def test_teardown_releases_everything(self, stack):
        net, admission, signaling = stack
        signaling.establish(guaranteed_flow(rate=170_000))
        signaling.teardown("g1")
        assert admission.reserved_guaranteed_bps("S-1->S-2") == 0.0
        assert net.port_for_link("S-1->S-2").scheduler.guaranteed_flows() == {}
        # Capacity is genuinely reusable.
        grant = signaling.establish(guaranteed_flow("g2", rate=800_000))
        assert grant.flow_id == "g2"

    def test_teardown_unknown_flow(self, stack):
        __, __, signaling = stack
        with pytest.raises(KeyError):
            signaling.teardown("ghost")


class TestPredictedEstablishment:
    def test_grant_carries_class_and_bound(self, stack):
        __, __, signaling = stack
        grant = signaling.establish(predicted_flow(target_delay=0.6))
        # 0.6 s over 4 hops -> 0.15 per switch -> class 0; bound = 4 * 0.15.
        assert grant.service_class is ServiceClass.PREDICTED
        assert grant.priority_class == 0
        assert grant.advertised_bound_seconds == pytest.approx(0.6)

    def test_lax_target_lands_in_cheap_class(self, stack):
        __, __, signaling = stack
        grant = signaling.establish(predicted_flow(target_delay=6.0))
        assert grant.priority_class == 1

    def test_infeasible_target_rejected(self, stack):
        __, __, signaling = stack
        with pytest.raises(FlowEstablishmentError) as excinfo:
            signaling.establish(predicted_flow(target_delay=0.01))
        assert "guaranteed" in str(excinfo.value)

    def test_edge_filter_installed_at_first_switch_only(self, stack, sim):
        net, __, signaling = stack
        signaling.establish(predicted_flow())
        first = net.port_for_link("S-1->S-2")
        # The policer sits in the first switch's flow table, nowhere
        # else, and adds nothing to the port-wide predicate list.
        assert list(first.flow_policers) == ["p1"]
        for name, port in net.ports.items():
            if port is not first:
                assert port.flow_policers == {}, name
            assert port.filters == [], name
        assert signaling.edge_filter_of("p1") is first.flow_policers["p1"]

    def test_edge_filter_drops_nonconforming_burst(self, stack, sim):
        net, __, signaling = stack
        signaling.establish(predicted_flow(bucket_bits=5_000))
        first = net.port_for_link("S-1->S-2")
        drops = []
        first.on_drop.append(lambda packet, now: drops.append(packet))
        # A 10-packet burst against a 5-packet bucket: half must die at the
        # edge.
        for seq in range(10):
            packet = Packet(
                flow_id="p1",
                size_bits=1000,
                created_at=0.0,
                source="Host-1",
                destination="Host-5",
                service_class=ServiceClass.PREDICTED,
                sequence=seq,
            )
            first.enqueue(packet)
        assert len(drops) == 5
        edge = signaling.edge_filter_of("p1")
        assert edge.nonconforming == 5

    def test_edge_filter_ignores_other_flows(self, stack):
        net, __, signaling = stack
        signaling.establish(predicted_flow(bucket_bits=1_000))
        first = net.port_for_link("S-1->S-2")
        other = Packet(
            flow_id="bystander",
            size_bits=1000,
            created_at=0.0,
            source="Host-1",
            destination="Host-5",
            service_class=ServiceClass.DATAGRAM,
        )
        assert first.enqueue(other)

    def test_teardown_removes_edge_filter(self, stack):
        net, __, signaling = stack
        signaling.establish(predicted_flow())
        signaling.teardown("p1")
        assert net.port_for_link("S-1->S-2").filters == []
        assert net.port_for_link("S-1->S-2").flow_policers == {}
        assert signaling.edge_filter_of("p1") is None


class TestDatagramEstablishment:
    def test_trivial_grant(self, stack):
        __, __, signaling = stack
        grant = signaling.establish(
            FlowSpec(name="d1", source_host="Host-1", dest_host="Host-5")
        )
        assert grant.service_class is ServiceClass.DATAGRAM
        assert grant.priority_class is None
        assert grant.advertised_bound_seconds is None


class TestPathValidation:
    def test_same_switch_hosts_have_no_links(self, stack):
        __, __, signaling = stack
        with pytest.raises(FlowEstablishmentError):
            signaling.establish(
                guaranteed_flow("same", src="Host-1", dst="Host-1")
            )
