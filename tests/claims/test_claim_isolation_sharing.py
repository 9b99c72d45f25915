"""Claim: isolation vs sharing (Section 5's gedanken experiment).

Nine smooth CBR flows plus one bursty on/off flow share a link.  Under WFQ
(isolation) the burster's own tail delay explodes while its peers stay
almost untouched; under FIFO (sharing) everyone absorbs a little of the
burst and the burster's tail collapses.  This is the paper's argument for
why predicted service wants FIFO inside an isolating envelope.

The workload is one declarative scenario (topology, both disciplines, and
the bursty on/off flow live in the spec); the CBR peers are deterministic
and phase-staggered, which no random-stream flow spec expresses, so they
are attached through the live :class:`~repro.scenario.ScenarioContext` —
the same mid-run-orchestration pattern as ``admission_conservatism``.
Both disciplines' contexts are built from the one spec, so the burster's
arrival process is paired by construction.
"""

from repro.scenario import (
    DisciplineSpec,
    FlowSpec,
    ScenarioBuilder,
    ScenarioRunner,
)
from repro.scenario.paper import TX_TIME_SECONDS
from repro.traffic.cbr import CbrSource
from repro.traffic.sink import DelayRecordingSink

NUM_SMOOTH = 9
SMOOTH_RATE_PPS = 80.0
BURSTY_RATE_PPS = 85.0
DURATION = 60.0
WARMUP = 5.0
SEED = 1


def isolation_spec(seed: int):
    """Bottleneck link, WFQ-vs-FIFO, and the clumpy burster of Section 5:
    in-burst generation at (nearly) link speed, long bursts, same long-run
    average as the peers, no source-side bucket."""
    return (
        ScenarioBuilder("isolation-sharing")
        .single_link()
        .flow(
            FlowSpec(
                name="bursty",
                source_host="src-host",
                dest_host="dst-host",
                average_rate_pps=BURSTY_RATE_PPS,
                mean_burst_packets=25.0,
                peak_rate_pps=900.0,
                bucket_packets=None,
            )
        )
        .disciplines(
            # The paper's "equal clock rates" configuration across the
            # ten flows (nine peers + burster).
            DisciplineSpec.wfq(equal_share_flows=NUM_SMOOTH + 1),
            DisciplineSpec.fifo(),
        )
        .duration(DURATION)
        .warmup(WARMUP)
        .seed(seed)
        .build()
    )


def _attach_smooth_peers(context):
    """The nine phase-staggered CBR peers, with recording sinks."""
    for i in range(NUM_SMOOTH):
        flow_id = f"smooth-{i}"
        CbrSource(
            context.sim,
            context.net.hosts["src-host"],
            flow_id,
            "dst-host",
            rate_pps=SMOOTH_RATE_PPS,
            start_offset=i / (SMOOTH_RATE_PPS * NUM_SMOOTH),
        )
        context.sinks[flow_id] = DelayRecordingSink(
            context.sim, context.net.hosts["dst-host"], flow_id, warmup=WARMUP
        )


def run_discipline(discipline: str, seed: int):
    """Returns (bursty_p999, mean peer p999) in tx-time units."""
    context = ScenarioRunner(isolation_spec(seed)).build(discipline)
    _attach_smooth_peers(context)
    context.run()
    result = context.collect()
    bursty = result.flow("bursty").percentile_in(99.9, TX_TIME_SECONDS)
    peers = [
        result.flow(f"smooth-{i}").percentile_in(99.9, TX_TIME_SECONDS)
        for i in range(NUM_SMOOTH)
    ]
    return bursty, sum(peers) / len(peers)


def run_ablation(seed: int = SEED):
    return {name: run_discipline(name, seed) for name in ("WFQ", "FIFO")}


def test_isolation_sharing():
    results = run_ablation()
    wfq_bursty, wfq_peers = results["WFQ"]
    fifo_bursty, fifo_peers = results["FIFO"]
    # Isolation: the burster pays for its own bursts under WFQ...
    assert wfq_bursty > 2.0 * wfq_peers, results
    # ...sharing: FIFO redistributes that jitter, shrinking the burster's
    # tail substantially.
    assert fifo_bursty < 0.7 * wfq_bursty, results
    # The price of sharing: peers carry more jitter under FIFO than WFQ.
    assert fifo_peers > wfq_peers, results
