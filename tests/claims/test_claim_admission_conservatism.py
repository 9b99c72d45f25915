"""Claim: how conservative must admission measurement be? (Section 9)

"The key to making the predictive service commitments reliable is to
choose appropriately conservative measures for nu-hat and d-hat_j; these
should not just be averages but consistently conservative estimates."

We sweep a multiplicative safety factor on both measured quantities while
a stream of predicted-service requests (tight 50 ms class, declared
(85 kbit/s, 10 kbit) buckets) arrives every 10 s at one link.  For each
factor we record: flows admitted, link utilization, and the fraction of
tight-class packets whose per-switch wait exceeded the advertised D_0.

Each sweep point is one declarative scenario — the safety factor is a
first-class :class:`~repro.scenario.AdmissionSpec` knob — and the request
wave is orchestrated mid-run through the live
:class:`~repro.scenario.ScenarioContext` (the same machinery the dynamics
experiment uses), so rejected callers simply never inject traffic.

Measured shape: the paper's example criterion (2) is *already*
conservative — the commitment holds (zero violations) even with no safety
margin at all — so extra conservatism buys no additional reliability on
this workload and pays for it directly in utilization (~60 % admitted load
at factor 1.0 falling below 30 % at factor 3.0).  This quantifies the
trade the paper says "may involve historical knowledge" to tune: on a
stationary workload, the heuristic alone suffices.
"""

from repro.core.signaling import FlowEstablishmentError
from repro.net.packet import ServiceClass
from repro.scenario import (
    DisciplineSpec,
    FlowSpec,
    PredictedRequest,
    ScenarioBuilder,
    ScenarioRunner,
)

CLASS_BOUNDS = (0.05, 0.5)
SAFETY_FACTORS = (1.0, 1.5, 2.0, 3.0)
REQUESTS = 20
REQUEST_SPACING = 10.0
DURATION = 300.0
SEED = 2
BOTTLENECK = "A->B"


def conservatism_spec(safety: float, seed: int = SEED):
    return (
        ScenarioBuilder("admission-conservatism")
        .single_link()
        .discipline(DisciplineSpec.unified(num_predicted_classes=2))
        .admission(
            realtime_quota=0.9,
            class_bounds_seconds=CLASS_BOUNDS,
            utilization_safety=safety,
            delay_safety=safety,
        )
        .duration(DURATION)
        .seed(seed)
        .build()
    )


def run_with_safety(safety, seed=SEED):
    context = ScenarioRunner(conservatism_spec(safety, seed)).build()
    accepted = [0]
    violations = [0]
    tight_packets = [0]
    port = context.net.port_for_link(BOTTLENECK)

    def on_depart(packet, now, wait):
        if (
            packet.service_class is ServiceClass.PREDICTED
            and packet.priority_class == 0
        ):
            tight_packets[0] += 1
            if wait > CLASS_BOUNDS[0]:
                violations[0] += 1

    port.on_depart.append(on_depart)

    def try_flow(index):
        try:
            context.add_flow(
                FlowSpec(
                    name=f"v{index}",
                    source_host="src-host",
                    dest_host="dst-host",
                    request=PredictedRequest(
                        token_rate_bps=85_000,
                        bucket_depth_bits=10_000,
                        target_delay_seconds=CLASS_BOUNDS[0],
                    ),
                    record=False,
                )
            )
        except FlowEstablishmentError:
            return
        accepted[0] += 1

    for index in range(REQUESTS):
        context.sim.schedule(
            index * REQUEST_SPACING, lambda i=index: try_flow(i)
        )
    context.run()
    violation_rate = (
        violations[0] / tight_packets[0] if tight_packets[0] else 0.0
    )
    return {
        "accepted": accepted[0],
        "utilization": context.net.links[BOTTLENECK].utilization(),
        "violation_rate": violation_rate,
    }


def run_sweep(seed: int = SEED):
    return {safety: run_with_safety(safety, seed) for safety in SAFETY_FACTORS}


def test_admission_conservatism():
    results = run_sweep()
    admitted = [results[s]["accepted"] for s in SAFETY_FACTORS]
    utilizations = [results[s]["utilization"] for s in SAFETY_FACTORS]
    # Conservatism monotonically costs admissions and utilization...
    assert admitted == sorted(admitted, reverse=True), results
    assert utilizations == sorted(utilizations, reverse=True), results
    assert utilizations[0] > 1.5 * utilizations[-1], results
    # ...while the paper's criterion keeps the commitment reliable at
    # every sweep point (zero advertised-bound violations even at 1.0).
    assert all(r["violation_rate"] == 0.0 for r in results.values()), results
    # And the commitments were actually exercised.
    assert admitted[0] >= 8, results
