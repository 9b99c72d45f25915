"""Claim: the b/r trade-off behind guaranteed service (Section 4).

Two views of the Parekh-Gallager bound:

1. Analytic: sweep the clock rate r for the paper's (A, 50-packet) source
   and compute the b/r fluid bound — "the means by which the source can
   improve the worst case bound is to increase its r parameter".
2. Empirical: a greedy source that dumps its full bucket as one burst into
   a WFQ link with adversarial cross traffic; the measured worst delay must
   approach-but-never-exceed b/r ("these bounds are strict").

The topology/discipline wiring runs through the scenario API: each rate
point is a declarative single-link spec with a custom WFQ discipline
carrying the victim/hog reservations, and the adversarial blast traffic is
driven into the built context (the scenario flow model covers on/off
sources, not hand-timed full-bucket dumps).
"""

import functools

from repro.core.bounds import parekh_gallager_fluid_bound
from repro.net.packet import Packet, ServiceClass
from repro.scenario import DisciplineSpec, ScenarioBuilder, ScenarioRunner
from repro.scenario.paper import (
    AVERAGE_RATE_PPS,
    BUCKET_PACKETS,
    PACKET_BITS,
    TX_TIME_SECONDS,
)
from repro.sched.wfq import WfqScheduler
from repro.traffic.sink import DelayRecordingSink

BUCKET_BITS = BUCKET_PACKETS * PACKET_BITS  # 50 packets
RATE_MULTIPLES = (1.0, 1.5, 2.0, 4.0)  # x the average rate A
BASE_RATE_BPS = AVERAGE_RATE_PPS * PACKET_BITS
DURATION = 2.0
SEED = 1


def _wfq_with_reservations(clock_rate_bps, sim, port_name, link):
    """Custom discipline: WFQ with the victim's guaranteed clock rate and
    a hog holding the remainder of the link."""
    scheduler = WfqScheduler(link.rate_bps)
    scheduler.install_guaranteed("victim", clock_rate_bps)
    scheduler.install_guaranteed("hog", link.rate_bps - clock_rate_bps)
    return scheduler


def variant_spec(clock_rate_bps, seed):
    return (
        ScenarioBuilder("bucket-depth-ablation")
        .single_link(buffer_packets=400)
        .discipline(
            DisciplineSpec.custom(
                "WFQ+reservations",
                functools.partial(_wfq_with_reservations, clock_rate_bps),
            )
        )
        .duration(DURATION)
        .warmup(0.0)
        .seed(seed)
        .build()
    )


def measured_burst_delay(clock_rate_bps, seed):
    """Worst measured delay (tx units) of a full-bucket burst under WFQ
    with a greedy competitor saturating the rest of the link."""
    context = ScenarioRunner(variant_spec(clock_rate_bps, seed)).build()
    sim = context.sim
    net = context.net
    sink = DelayRecordingSink(sim, net.hosts["dst-host"], "victim", warmup=0.0)
    port = net.port_for_link("A->B")

    def blast(flow_id, count, service_class):
        for seq in range(count):
            port.enqueue(
                Packet(
                    flow_id=flow_id,
                    size_bits=PACKET_BITS,
                    created_at=sim.now,
                    source="src-host",
                    destination="dst-host",
                    service_class=service_class,
                    sequence=seq,
                )
            )

    # The hog keeps its queue full; the victim dumps its entire bucket.
    def hog_refill():
        blast("hog", 50, ServiceClass.GUARANTEED)
        sim.schedule(0.025, hog_refill)

    sim.schedule(0.0, hog_refill)
    sim.schedule(
        0.1, lambda: blast("victim", int(BUCKET_PACKETS),
                           ServiceClass.GUARANTEED)
    )
    context.run()
    return sink.max_queueing(TX_TIME_SECONDS)


def run_sweep(seed: int = SEED):
    rows = []
    for multiple in RATE_MULTIPLES:
        rate = multiple * BASE_RATE_BPS
        bound = parekh_gallager_fluid_bound(BUCKET_BITS, rate)
        measured = measured_burst_delay(rate, seed)
        rows.append(
            {
                "multiple": multiple,
                "rate_bps": rate,
                "bound_tx": bound / TX_TIME_SECONDS,
                "measured_tx": measured,
            }
        )
    return rows


def test_bucket_depth():
    rows = run_sweep()
    for row in rows:
        # The guarantee holds with adversarial cross traffic...
        assert row["measured_tx"] <= row["bound_tx"] * 1.02, rows
        # ...and is reasonably tight for a full-bucket burst (within ~50 %).
        assert row["measured_tx"] > 0.5 * row["bound_tx"], rows
    # Raising r monotonically improves the worst case.
    measured = [row["measured_tx"] for row in rows]
    assert measured == sorted(measured, reverse=True), rows
