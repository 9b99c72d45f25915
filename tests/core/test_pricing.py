"""Tests for Section 12 pricing / accounting."""

import pytest

from repro.core.pricing import Invoice, Tariff, UsageMeter
from repro.net.packet import ServiceClass
from repro.scenario import TopologySpec
from repro.sched.fifo import FifoScheduler
from tests.conftest import make_packet


class TestTariff:
    def test_default_ordering_valid(self):
        tariff = Tariff()
        assert tariff.guaranteed_per_mbit > tariff.predicted_per_mbit[0]
        assert tariff.predicted_per_mbit[-1] > tariff.datagram_per_mbit

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"guaranteed_per_mbit": 0.0},
            {"datagram_per_mbit": -1.0},
            {"predicted_per_mbit": ()},
            # Predicted class 0 as expensive as guaranteed:
            {"guaranteed_per_mbit": 5.0, "predicted_per_mbit": (5.0, 3.0)},
            # Non-decreasing within predicted classes:
            {"predicted_per_mbit": (3.0, 6.0)},
            # Datagram not cheapest:
            {"predicted_per_mbit": (6.0, 3.0), "datagram_per_mbit": 3.0},
            {"reservation_per_mbit_second": -0.1},
        ],
    )
    def test_rejects_broken_price_ladders(self, kwargs):
        with pytest.raises(ValueError):
            Tariff(**kwargs)

    def test_usage_price_by_class(self):
        tariff = Tariff(
            guaranteed_per_mbit=10.0,
            predicted_per_mbit=(6.0, 3.0),
            datagram_per_mbit=1.0,
        )
        assert tariff.usage_price_per_mbit(ServiceClass.GUARANTEED) == 10.0
        assert tariff.usage_price_per_mbit(ServiceClass.PREDICTED, 0) == 6.0
        assert tariff.usage_price_per_mbit(ServiceClass.PREDICTED, 1) == 3.0
        assert tariff.usage_price_per_mbit(ServiceClass.DATAGRAM) == 1.0

    def test_overflow_priority_clamps_to_cheapest_predicted(self):
        tariff = Tariff(predicted_per_mbit=(6.0, 3.0))
        assert tariff.usage_price_per_mbit(ServiceClass.PREDICTED, 7) == 3.0


class TestUsageMeter:
    def test_meters_departures_per_flow(self, sim):
        net = TopologySpec.single_link().build(sim, lambda n, l: FifoScheduler())
        meter = UsageMeter(Tariff())
        meter.attach(net.port_for_link("A->B"))
        port = net.port_for_link("A->B")
        for i in range(3):
            port.enqueue(
                make_packet(
                    flow_id="g",
                    service_class=ServiceClass.GUARANTEED,
                    sequence=i,
                    destination="dst-host",
                )
            )
        port.enqueue(
            make_packet(flow_id="d", destination="dst-host")
        )
        sim.run(until=1.0)
        g = meter.invoice_of("g")
        d = meter.invoice_of("d")
        assert g.usage_bits == 3000
        assert g.usage_charge == pytest.approx(10.0 * 3000 / 1e6)
        assert d.usage_charge == pytest.approx(1.0 * 1000 / 1e6)

    def test_price_ladder_realized(self, sim):
        """Same bits, different classes: guaranteed > high > low > datagram."""
        net = TopologySpec.single_link().build(sim, lambda n, l: FifoScheduler())
        meter = UsageMeter()
        port = net.port_for_link("A->B")
        meter.attach(port)
        cases = [
            ("g", ServiceClass.GUARANTEED, 0),
            ("ph", ServiceClass.PREDICTED, 0),
            ("pl", ServiceClass.PREDICTED, 1),
            ("d", ServiceClass.DATAGRAM, 0),
        ]
        for flow_id, service_class, priority in cases:
            port.enqueue(
                make_packet(
                    flow_id=flow_id,
                    service_class=service_class,
                    priority_class=priority,
                    destination="dst-host",
                )
            )
        sim.run(until=1.0)
        charges = [meter.invoice_of(flow).usage_charge for flow, __, __ in cases]
        assert charges == sorted(charges, reverse=True)
        assert len(set(charges)) == len(charges)

    def test_multi_hop_transit_charging(self, sim):
        """A flow metered at two ports pays twice per packet."""
        net = TopologySpec.graph(
            ["A", "B", "C"],
            [{"src": "A", "dst": "B"}, {"src": "B", "dst": "C"}],
            [("h1", "A"), ("h2", "B"), ("h3", "C")],
        ).build(sim, lambda n, l: FifoScheduler())
        meter = UsageMeter()
        for port in net.ports.values():
            meter.attach(port)
        net.hosts["h3"].default_handler = lambda packet: None
        net.hosts["h1"].send(
            make_packet(flow_id="f", source="h1", destination="h3")
        )
        sim.run(until=1.0)
        assert meter.invoice_of("f").usage_bits == 2000  # 1000 bits x 2 links


class TestReservations:
    def test_reservation_charge_accrues_with_time(self):
        meter = UsageMeter(Tariff(reservation_per_mbit_second=2.0))
        meter.open_reservation("g", rate_bps=500_000, now=0.0)
        meter.close_reservation("g", now=10.0)
        # 0.5 Mbit x 2.0 units/Mbit-s x 10 s = 10 units.
        assert meter.invoice_of("g").reservation_charge == pytest.approx(10.0)

    def test_double_open_rejected(self):
        meter = UsageMeter()
        meter.open_reservation("g", 1000.0, 0.0)
        with pytest.raises(ValueError):
            meter.open_reservation("g", 1000.0, 1.0)

    def test_close_unknown_raises(self):
        with pytest.raises(KeyError):
            UsageMeter().close_reservation("ghost", 1.0)

    def test_settle_bills_open_reservations(self):
        meter = UsageMeter(Tariff(reservation_per_mbit_second=1.0))
        meter.open_reservation("a", 1_000_000, now=0.0)
        meter.settle(now=5.0)
        assert meter.invoice_of("a").reservation_charge == pytest.approx(5.0)
        # Settling again later only bills the new interval.
        meter.settle(now=7.0)
        assert meter.invoice_of("a").reservation_charge == pytest.approx(7.0)

    def test_negative_interval_rejected(self):
        meter = UsageMeter()
        meter.open_reservation("a", 1000.0, now=5.0)
        with pytest.raises(ValueError):
            meter.close_reservation("a", now=1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            UsageMeter().open_reservation("a", 0.0, 0.0)


class TestInvoices:
    def test_total_combines_usage_and_reservation(self):
        invoice = Invoice(flow_id="f", usage_charge=3.0, reservation_charge=2.0)
        assert invoice.total == pytest.approx(5.0)

    def test_invoices_sorted_by_flow(self):
        meter = UsageMeter()
        meter.open_reservation("b", 1000.0, 0.0)
        meter.open_reservation("a", 1000.0, 0.0)
        meter.settle(1.0)
        assert [inv.flow_id for inv in meter.invoices()] == ["a", "b"]

    def test_total_revenue(self):
        meter = UsageMeter(Tariff(reservation_per_mbit_second=1.0))
        meter.open_reservation("a", 1_000_000, 0.0)
        meter.open_reservation("b", 2_000_000, 0.0)
        meter.settle(1.0)
        assert meter.total_revenue() == pytest.approx(3.0)
