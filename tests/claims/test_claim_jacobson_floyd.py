"""Claim: CSZ vs the Jacobson-Floyd scheme (Section 11).

The paper's two concrete contrasts with the only other predicted-service
architecture it discusses:

1. **FIFO vs round-robin within a priority level.**  On the Table-1
   workload, CSZ's FIFO multiplexes bursts so "the post facto jitter is
   smaller for everyone"; round-robin re-isolates flows inside the class,
   pushing each burster's tail back up — measurably worse 99.9 %iles.
   Declared as one two-discipline scenario spec.

2. **Edge-only vs per-switch filter enforcement.**  CSZ checks token-
   bucket conformance only at the first switch because "any later
   violation would be due to the scheduling policies and load dynamics of
   the network and not the generation behavior of the source" (§8).  We
   police the same declared (A, 50) filters at every switch of the chain
   (via the live :class:`~repro.scenario.ScenarioContext`, which exposes
   the built schedulers): packets that conformed at their source get
   dropped inside the network, and the count grows fast as the policer
   tightens.
"""

from repro.net.packet import ServiceClass
from repro.scenario import DisciplineSpec, ScenarioBuilder, ScenarioRunner
from repro.scenario.paper import AVERAGE_RATE_PPS, PACKET_BITS, TX_TIME_SECONDS

NUM_FLOWS = 10
DURATION = 45.0
WARMUP = 5.0
POLICER_DEPTHS = (50.0, 40.0, 30.0)
SEED = 1

SHARING_DISCIPLINES = (
    DisciplineSpec.fifo(name="CSZ (FIFO in class)"),
    DisciplineSpec.jacobson_floyd(name="J-F (RR in class)", num_classes=1),
)


def run_sharing_styles(seed):
    """FIFO vs RR within one predicted class; returns per-discipline mean
    of per-flow p999s (tx units)."""
    spec = (
        ScenarioBuilder("jf-sharing")
        .single_link()
        .paper_flows(NUM_FLOWS, service_class=ServiceClass.PREDICTED)
        .disciplines(*SHARING_DISCIPLINES)
        .duration(DURATION)
        .warmup(WARMUP)
        .seed(seed)
        .build()
    )
    result = ScenarioRunner(spec).run()
    out = {}
    for run in result.runs:
        p999s = [f.percentile_in(99.9, TX_TIME_SECONDS) for f in run.flows]
        out[run.discipline] = sum(p999s) / len(p999s)
    return out


def run_per_switch_policing(depth_packets, seed):
    """Police the declared (A, depth) bucket at EVERY switch of the
    Figure-1 chain; returns the number of in-network policed drops of
    traffic that conformed at its source."""
    spec = (
        ScenarioBuilder("jf-policing")
        .paper_chain()
        .figure1_flows(service_class=ServiceClass.PREDICTED)
        .discipline(DisciplineSpec.jacobson_floyd(num_classes=1))
        .duration(DURATION)
        .warmup(WARMUP)
        .seed(seed)
        .build()
    )
    context = ScenarioRunner(spec).build()
    schedulers = [port.scheduler for port in context.net.ports.values()]
    for scheduler in schedulers:
        for flow in spec.flows:
            scheduler.add_policer(
                flow.name,
                AVERAGE_RATE_PPS * PACKET_BITS,
                depth_packets * PACKET_BITS,
            )
    context.run()
    return sum(s.policed_drops for s in schedulers)


def run_comparison(seed: int = SEED):
    sharing = run_sharing_styles(seed)
    policing = {
        depth: run_per_switch_policing(depth, seed)
        for depth in POLICER_DEPTHS
    }
    return sharing, policing


def test_jacobson_floyd():
    sharing, policing = run_comparison()
    measured = {"sharing p999": sharing, "policed drops": policing}
    # 1. FIFO sharing beats round robin inside a homogeneous class.
    assert (
        sharing["CSZ (FIFO in class)"] < 0.9 * sharing["J-F (RR in class)"]
    ), measured
    # 2. Per-switch policing punishes network-induced distortion, and the
    #    damage grows monotonically as the policer tightens.
    counts = [policing[depth] for depth in POLICER_DEPTHS]
    assert counts[0] > 0, measured
    assert counts == sorted(counts), measured
