"""Claim: the non-work-conserving trade-off (Section 11 related work).

"Several non-work-conserving scheduling algorithms have been proposed ...
packets are not allowed to leave early.  These algorithms typically
deliver higher average delays in return for lower jitter."

We run the Table-2 workload (Figure-1 chain, 22 flows) under FIFO,
Stop-and-Go (frame 50 ms), and Jitter-EDD (80 ms per-hop target) — one
scenario spec, three disciplines — and measure the 4-hop flow's mean,
99.9 %ile, and spread (p99.9 - p1 — the post facto jitter a play-back
client must buffer for):

* FIFO: tiny mean, spread limited only by queueing luck;
* Stop-and-Go: mean inflated by ~half a frame per hop, spread bounded by
  one frame per hop regardless of load;
* Jitter-EDD: highest mean (every packet is reshaped to its deadline at
  every hop) but the smallest spread — per-hop jitter is cancelled, the
  behaviour CSZ deliberately trades away in exchange for lower delay.
"""

from repro.scenario import DisciplineSpec, ScenarioBuilder, ScenarioRunner
from repro.scenario.paper import TX_TIME_SECONDS

DURATION = 45.0
WARMUP = 5.0
FRAME_SECONDS = 0.05
JEDD_TARGET = 0.08
FOUR_HOP_FLOW = "i1"
CDF_POINTS = (1.0, 99.9)
SEED = 1


def tradeoff_spec(seed: int = SEED):
    return (
        ScenarioBuilder("nonwork-tradeoff")
        .paper_chain()
        .figure1_flows()
        .disciplines(
            DisciplineSpec.fifo(),
            DisciplineSpec.stop_and_go(frame_seconds=FRAME_SECONDS),
            DisciplineSpec.jitter_edd(default_target=JEDD_TARGET),
        )
        .percentiles(*CDF_POINTS)
        .duration(DURATION)
        .warmup(WARMUP)
        .seed(seed)
        .build()
    )


def run_comparison(seed: int = SEED):
    """(mean, p999, spread) of the 4-hop flow per discipline, tx units."""
    result = ScenarioRunner(tradeoff_spec(seed)).run()
    unit = TX_TIME_SECONDS
    out = {}
    for run in result.runs:
        sink = run.flow(FOUR_HOP_FLOW)
        mean = sink.mean_in(unit)
        p999 = sink.percentile_in(99.9, unit)
        spread = p999 - sink.percentile_in(1.0, unit)
        out[run.discipline] = (mean, p999, spread)
    return out


def test_nonwork_tradeoff():
    results = run_comparison()
    fifo_mean, __, fifo_spread = results["FIFO"]
    sg_mean, sg_p999, __ = results["Stop-and-Go"]
    jedd_mean, __, jedd_spread = results["Jitter-EDD"]
    # Higher average delay...
    assert sg_mean > 5.0 * fifo_mean, results
    assert jedd_mean > 5.0 * fifo_mean, results
    # ...in return for lower / bounded jitter.
    assert jedd_spread < 0.7 * fifo_spread, results
    frame_tx = FRAME_SECONDS / TX_TIME_SECONDS
    hops = 4
    # Stop-and-Go's spread around its own mean is bounded by ~a frame/hop.
    assert sg_p999 - sg_mean < hops * frame_tx, results
