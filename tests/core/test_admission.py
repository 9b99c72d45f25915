"""Tests for measurement-based admission control (Section 9)."""

import pytest

from repro.core.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionVerdict,
)
from repro.core.measurement import MeasurementConfig, SwitchMeasurement
from repro.net.packet import ServiceClass
from repro.scenario import TopologySpec
from repro.sched.fifo import FifoScheduler
from tests.conftest import make_packet

LINK = "A->B"
MU = 1_000_000  # link speed in the fixture topology


@pytest.fixture
def port(sim):
    net = TopologySpec.single_link(rate_bps=MU).build(sim, lambda n, l: FifoScheduler())
    return net.port_for_link(LINK)


class TestAdmissionConfig:
    def test_defaults(self):
        config = AdmissionConfig()
        assert config.realtime_quota == pytest.approx(0.9)
        assert config.num_classes == 2

    @pytest.mark.parametrize("quota", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_bad_quota(self, quota):
        with pytest.raises(ValueError):
            AdmissionConfig(realtime_quota=quota)

    def test_rejects_empty_class_bounds(self):
        with pytest.raises(ValueError):
            AdmissionConfig(class_bounds_seconds=())

    def test_rejects_unsorted_class_bounds(self):
        with pytest.raises(ValueError):
            AdmissionConfig(class_bounds_seconds=(0.2, 0.1))
        with pytest.raises(ValueError):
            AdmissionConfig(class_bounds_seconds=(0.1, 0.1))


class TestChooseClass:
    def test_picks_cheapest_class_that_meets_target(self):
        controller = AdmissionController(
            AdmissionConfig(class_bounds_seconds=(0.02, 0.2))
        )
        # A lax target can ride the low-priority (cheap) class.
        assert controller.choose_class(0.5) == 1
        # A target between the bounds must use the tight class.
        assert controller.choose_class(0.1) == 0
        # Exactly at a bound is admissible into that class.
        assert controller.choose_class(0.2) == 1

    def test_infeasible_target_returns_none(self):
        controller = AdmissionController(
            AdmissionConfig(class_bounds_seconds=(0.02, 0.2))
        )
        assert controller.choose_class(0.01) is None


class TestPredictedAdmission:
    def controller(self):
        return AdmissionController(
            AdmissionConfig(realtime_quota=0.9, class_bounds_seconds=(0.02, 0.2))
        )

    def test_accepts_on_idle_link(self, port):
        controller = self.controller()
        decision = controller.check_predicted(
            LINK, port, priority_class=0,
            token_rate_bps=85_000, bucket_depth_bits=10_000, now=0.0,
        )
        assert decision.accepted
        assert decision.verdict is AdmissionVerdict.ACCEPT

    def test_criterion_1_rejects_when_quota_exceeded(self, port):
        controller = self.controller()
        # Reservations count toward nu-hat: book 850 kbit/s of guarantees.
        controller.record_guaranteed(LINK, "g1", 850_000)
        decision = controller.check_predicted(
            LINK, port, priority_class=1,
            token_rate_bps=85_000, bucket_depth_bits=1_000, now=0.0,
        )
        assert not decision.accepted
        assert decision.verdict is AdmissionVerdict.REJECT_UTILIZATION

    def test_criterion_2_rejects_oversized_bucket(self, port):
        controller = self.controller()
        # Class 0 bound is 20 ms; residual ~915 kbit/s.  A bucket bigger
        # than 0.02 * residual bits must be refused at class 0.
        decision = controller.check_predicted(
            LINK, port, priority_class=0,
            token_rate_bps=85_000, bucket_depth_bits=50_000, now=0.0,
        )
        assert not decision.accepted
        assert decision.verdict is AdmissionVerdict.REJECT_DELAY_IMPACT

    def test_criterion_2_checks_lower_classes_too(self, port):
        controller = self.controller()
        # A class-0 flow whose bucket passes class 0's headroom but not
        # class 1's would also be rejected; construct the reverse: admit at
        # class 1 still checks only class 1.
        ok = controller.check_predicted(
            LINK, port, priority_class=1,
            token_rate_bps=85_000, bucket_depth_bits=50_000, now=0.0,
        )
        assert ok.accepted  # 0.2 s * ~915 kbit/s >> 50 kbit

    def test_measured_delay_eats_headroom(self, sim, port):
        controller = self.controller()
        meter = SwitchMeasurement(
            port, MeasurementConfig(delay_window=1000.0)
        )
        controller.attach_measurement(LINK, meter)
        # Manufacture ~180 ms of measured class-1 delay: 181 predicted
        # packets back-to-back (1 ms each at 1 Mbit/s).
        for seq in range(182):
            port.enqueue(
                make_packet(
                    flow_id="load",
                    service_class=ServiceClass.PREDICTED,
                    priority_class=1,
                    sequence=seq,
                    destination="dst-host",
                )
            )
        sim.run(until=0.5)
        d_hat = meter.class_delay_bound(1, sim.now)
        assert d_hat > 0.15
        # Remaining headroom (0.2 - d_hat) * residual is now small; a
        # 50-kbit bucket no longer fits at class 1.
        decision = controller.check_predicted(
            LINK, port, priority_class=1,
            token_rate_bps=85_000, bucket_depth_bits=50_000, now=sim.now,
        )
        assert not decision.accepted
        assert decision.verdict is AdmissionVerdict.REJECT_DELAY_IMPACT

    def test_decisions_are_logged(self, port):
        controller = self.controller()
        controller.check_predicted(
            LINK, port, priority_class=1,
            token_rate_bps=85_000, bucket_depth_bits=1_000, now=0.0,
        )
        controller.record_guaranteed(LINK, "g", 900_000)
        controller.check_predicted(
            LINK, port, priority_class=1,
            token_rate_bps=85_000, bucket_depth_bits=1_000, now=0.0,
        )
        assert len(controller.decisions) == 2
        assert controller.decisions[0].accepted
        assert not controller.decisions[1].accepted


class TestGuaranteedAdmission:
    def controller(self):
        return AdmissionController(AdmissionConfig(realtime_quota=0.9))

    def test_accepts_within_quota(self, port):
        controller = self.controller()
        decision = controller.check_guaranteed(LINK, port, 170_000, now=0.0)
        assert decision.accepted

    def test_rejects_when_reservations_fill_quota(self, port):
        controller = self.controller()
        controller.record_guaranteed(LINK, "g1", 800_000)
        decision = controller.check_guaranteed(LINK, port, 170_000, now=0.0)
        assert not decision.accepted
        assert decision.verdict is AdmissionVerdict.REJECT_NO_CAPACITY

    def test_quota_boundary_exact_fill_allowed(self, port):
        controller = self.controller()
        controller.record_guaranteed(LINK, "g1", 700_000)
        # 700k reserved + 200k = 900k = quota exactly: the structural check
        # (<=) passes but the utilization check (>=) refuses — the link
        # would have nothing left over.
        decision = controller.check_guaranteed(LINK, port, 200_000, now=0.0)
        assert not decision.accepted

    def test_release_frees_capacity(self, port):
        controller = self.controller()
        controller.record_guaranteed(LINK, "g1", 800_000)
        controller.release_guaranteed(LINK, "g1")
        decision = controller.check_guaranteed(LINK, port, 170_000, now=0.0)
        assert decision.accepted

    def test_release_unknown_flow_is_noop(self, port):
        controller = self.controller()
        controller.release_guaranteed(LINK, "never-booked")
        assert controller.reserved_guaranteed_bps(LINK) == 0.0

    def test_reserved_sum(self, port):
        controller = self.controller()
        controller.record_guaranteed(LINK, "a", 100_000)
        controller.record_guaranteed(LINK, "b", 200_000)
        assert controller.reserved_guaranteed_bps(LINK) == pytest.approx(300_000)
