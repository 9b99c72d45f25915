"""Property-based tests for admission-control monotonicity.

Sensible admission is monotone: if a request is refused, any strictly
more demanding request (bigger bucket, higher rate) must also be refused;
if accepted, any strictly less demanding one must also be accepted.  The
paper's criteria (1) and (2) have this property analytically; these tests
pin it against regressions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionConfig, AdmissionController
from repro.scenario import TopologySpec
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator

LINK = "A->B"


def make_port():
    sim = Simulator()
    net = TopologySpec.single_link().build(sim, lambda n, l: FifoScheduler())
    return net.port_for_link(LINK)


rates = st.floats(min_value=1_000.0, max_value=900_000.0)
buckets = st.floats(min_value=100.0, max_value=500_000.0)
reservations = st.floats(min_value=0.0, max_value=900_000.0)


class TestPredictedMonotonicity:
    @given(rate=rates, bucket=buckets, reserved=reservations)
    @settings(max_examples=100, deadline=None)
    def test_smaller_bucket_never_hurts(self, rate, bucket, reserved):
        port = make_port()
        controller = AdmissionController(
            AdmissionConfig(class_bounds_seconds=(0.05, 0.5))
        )
        controller.record_guaranteed(LINK, "g", reserved)
        big = controller.check_predicted(
            LINK, port, 0, rate, bucket, now=0.0
        ).accepted
        small = controller.check_predicted(
            LINK, port, 0, rate, bucket / 2.0, now=0.0
        ).accepted
        if big:
            assert small

    @given(rate=rates, bucket=buckets, reserved=reservations)
    @settings(max_examples=100, deadline=None)
    def test_lower_rate_never_hurts(self, rate, bucket, reserved):
        port = make_port()
        controller = AdmissionController(
            AdmissionConfig(class_bounds_seconds=(0.05, 0.5))
        )
        controller.record_guaranteed(LINK, "g", reserved)
        high = controller.check_predicted(
            LINK, port, 1, rate, bucket, now=0.0
        ).accepted
        low = controller.check_predicted(
            LINK, port, 1, rate / 2.0, bucket, now=0.0
        ).accepted
        if high:
            assert low

    @given(rate=rates, bucket=buckets)
    @settings(max_examples=100, deadline=None)
    def test_lower_priority_never_stricter(self, rate, bucket):
        """Criterion (2) checks classes j >= i, so asking for a HIGHER
        priority (smaller i) can only add constraints."""
        port = make_port()
        controller = AdmissionController(
            AdmissionConfig(class_bounds_seconds=(0.05, 0.5))
        )
        tight = controller.check_predicted(
            LINK, port, 0, rate, bucket, now=0.0
        ).accepted
        loose = controller.check_predicted(
            LINK, port, 1, rate, bucket, now=0.0
        ).accepted
        if tight:
            assert loose


class TestGuaranteedMonotonicity:
    @given(rate=rates, reserved=reservations)
    @settings(max_examples=100, deadline=None)
    def test_lower_clock_rate_never_hurts(self, rate, reserved):
        port = make_port()
        controller = AdmissionController(AdmissionConfig())
        controller.record_guaranteed(LINK, "g", reserved)
        high = controller.check_guaranteed(LINK, port, rate, now=0.0).accepted
        low = controller.check_guaranteed(
            LINK, port, rate / 2.0, now=0.0
        ).accepted
        if high:
            assert low

    @given(rate=rates, extra=reservations)
    @settings(max_examples=100, deadline=None)
    def test_more_reservations_never_help(self, rate, extra):
        port = make_port()
        lightly = AdmissionController(AdmissionConfig())
        heavily = AdmissionController(AdmissionConfig())
        heavily.record_guaranteed(LINK, "g", extra)
        light = lightly.check_guaranteed(LINK, port, rate, now=0.0).accepted
        heavy = heavily.check_guaranteed(LINK, port, rate, now=0.0).accepted
        if heavy:
            assert light
