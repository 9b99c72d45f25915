"""Tests for per-switch measurement (Section 9's nu-hat and d-hat_j)."""

import pytest

from repro.core.measurement import MeasurementConfig, SwitchMeasurement
from repro.net.packet import ServiceClass
from repro.scenario import TopologySpec
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator
from tests.conftest import make_packet


def make_port(sim):
    net = TopologySpec.single_link().build(sim, lambda n, l: FifoScheduler())
    return net.port_for_link("A->B")


class TestMeasurementConfig:
    def test_defaults_valid(self):
        config = MeasurementConfig()
        assert config.utilization_window > 0
        assert config.delay_window > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"utilization_window": 0.0},
            {"delay_window": -1.0},
            {"utilization_safety": 0.5},
            {"delay_safety": 0.99},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MeasurementConfig(**kwargs)


class TestSwitchMeasurement:
    def test_counts_realtime_bits_only(self, sim):
        port = make_port(sim)
        meter = SwitchMeasurement(port, MeasurementConfig(utilization_window=10.0))
        for service_class in (
            ServiceClass.GUARANTEED,
            ServiceClass.PREDICTED,
            ServiceClass.DATAGRAM,
        ):
            port.enqueue(
                make_packet(
                    flow_id=f"f-{service_class.name}",
                    service_class=service_class,
                    destination="dst-host",
                )
            )
        sim.run(until=1.0)
        # 2 real-time packets x 1000 bits; with only 1 s elapsed the meter
        # divides by elapsed time (not the full 10 s window) -> 2000 bit/s.
        assert meter.realtime_utilization_bps(1.0) == pytest.approx(2000.0)
        # At t=10 the window is full: the departure at exactly t=0 has aged
        # out (half-open window), leaving 1 packet / 10 s = 100 bit/s.
        assert meter.realtime_utilization_bps(10.0) == pytest.approx(100.0)

    def test_no_traffic_means_zero_utilization(self, sim):
        port = make_port(sim)
        meter = SwitchMeasurement(port)
        assert meter.realtime_utilization_bps(0.0) == 0.0

    def test_utilization_safety_scales(self, sim):
        port = make_port(sim)
        meter = SwitchMeasurement(
            port,
            MeasurementConfig(utilization_window=10.0, utilization_safety=2.0),
        )
        port.enqueue(
            make_packet(
                service_class=ServiceClass.PREDICTED, destination="dst-host"
            )
        )
        sim.run(until=5.0)
        # 1000 bits over 5 s elapsed x safety 2.0 -> 400 bit/s.
        assert meter.realtime_utilization_bps(5.0) == pytest.approx(400.0)

    def test_class_delay_tracks_predicted_only(self, sim):
        port = make_port(sim)
        meter = SwitchMeasurement(port)
        # A guaranteed packet: contributes to nu-hat but defines no d-hat_j.
        port.enqueue(
            make_packet(
                flow_id="g",
                service_class=ServiceClass.GUARANTEED,
                destination="dst-host",
            )
        )
        sim.run(until=1.0)
        assert meter.observed_classes() == []
        assert meter.class_delay_bound(0, 1.0) == 0.0

    def test_class_delay_records_max_wait(self, sim):
        port = make_port(sim)
        meter = SwitchMeasurement(port, MeasurementConfig(delay_window=30.0))
        # Two back-to-back predicted packets: the second waits one
        # transmission time (1 ms at 1 Mbit/s for 1000 bits).
        for seq in range(3):
            port.enqueue(
                make_packet(
                    flow_id="p",
                    service_class=ServiceClass.PREDICTED,
                    priority_class=0,
                    sequence=seq,
                    destination="dst-host",
                )
            )
        sim.run(until=1.0)
        assert meter.observed_classes() == [0]
        # Third packet waited 2 transmission times = 2 ms.
        assert meter.class_delay_bound(0, 1.0) == pytest.approx(0.002, abs=1e-6)

    def test_delay_safety_scales(self, sim):
        port = make_port(sim)
        meter = SwitchMeasurement(
            port, MeasurementConfig(delay_window=30.0, delay_safety=3.0)
        )
        for seq in range(2):
            port.enqueue(
                make_packet(
                    flow_id="p",
                    service_class=ServiceClass.PREDICTED,
                    sequence=seq,
                    destination="dst-host",
                )
            )
        sim.run(until=1.0)
        # Second packet waited 1 ms; safety factor 3 -> 3 ms.
        assert meter.class_delay_bound(0, 1.0) == pytest.approx(0.003, abs=1e-6)

    def test_window_expiry_forgets_old_load(self, sim):
        port = make_port(sim)
        meter = SwitchMeasurement(
            port, MeasurementConfig(utilization_window=1.0, delay_window=1.0)
        )
        port.enqueue(
            make_packet(
                service_class=ServiceClass.PREDICTED, destination="dst-host"
            )
        )
        sim.run(until=0.5)
        assert meter.realtime_utilization_bps(0.5) > 0.0
        # Long after the window, both estimators return to zero.
        assert meter.realtime_utilization_bps(100.0) == 0.0
        assert meter.class_delay_bound(0, 100.0) == 0.0

    def test_separate_classes_tracked_separately(self, sim):
        port = make_port(sim)
        meter = SwitchMeasurement(port)
        for cls in (0, 1, 1):
            port.enqueue(
                make_packet(
                    flow_id=f"p{cls}",
                    service_class=ServiceClass.PREDICTED,
                    priority_class=cls,
                    destination="dst-host",
                )
            )
        sim.run(until=1.0)
        assert meter.observed_classes() == [0, 1]
