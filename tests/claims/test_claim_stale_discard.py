"""Claim: in-network stale-packet discard (Section 10, item 2).

"Packets that are sufficiently late should be discarded internally, rather
than being delivered, since in delivering them the network may use
bandwidth that could have been better used to reduce the delay of
subsequent packets.  The offset carried in the packet in the FIFO+ scheme
provides precisely the needed information."

We overload the Figure-1 chain with clumpy bursts (peak near link speed)
and run FIFO+ with the stale-offset threshold off and on.  With the
discard enabled, packets whose accumulated offset marks them hopeless die
inside the network; the *delivered* packets' tail delay drops — the freed
bandwidth went to packets that could still make a play-back point.

One declarative scenario, two disciplines (threshold off/on); the contexts
are built through the scenario runner so both variants see the identical
clumpy arrival process, and the in-network discard counters are read off
the live schedulers.
"""

from repro.scenario import DisciplineSpec, ScenarioBuilder, ScenarioRunner
from repro.scenario.paper import TX_TIME_SECONDS

DURATION = 45.0
WARMUP = 5.0
THRESHOLD_SECONDS = 0.04
FOUR_HOP_FLOW = "i1"
SEED = 1

VARIANT_OFF = "no discard"
VARIANT_ON = f"discard @ {THRESHOLD_SECONDS * 1e3:.0f}ms"


def ablation_spec(seed: int = SEED):
    return (
        ScenarioBuilder("stale-discard-ablation")
        .paper_chain()
        # Same long-run load as the paper workload, but bursts arrive as
        # clumps — the regime where some packets become hopelessly late.
        # No source bucket: the originals injected the raw on/off process.
        .figure1_flows(
            mean_burst_packets=30.0,
            peak_rate_pps=850.0,
            bucket_packets=None,
        )
        .disciplines(
            DisciplineSpec.fifoplus(name=VARIANT_OFF),
            DisciplineSpec.fifoplus(
                name=VARIANT_ON, stale_offset_threshold=THRESHOLD_SECONDS
            ),
        )
        .duration(DURATION)
        .warmup(WARMUP)
        .seed(seed)
        .build()
    )


def run_ablation(seed: int = SEED):
    runner = ScenarioRunner(ablation_spec(seed))
    results = {}
    for discipline in runner.spec.disciplines:
        context = runner.build(discipline).run()
        sink = context.sinks[FOUR_HOP_FLOW]
        results[discipline.name] = {
            "p999": sink.percentile_queueing(99.9, TX_TIME_SECONDS),
            "delivered": sink.recorded,
            "stale_discards": sum(
                port.scheduler.stale_discards
                for port in context.net.ports.values()
            ),
        }
    return results


def test_stale_discard():
    results = run_ablation()
    off = results[VARIANT_OFF]
    on = results[VARIANT_ON]
    # The discard actually fires under this load...
    assert off["stale_discards"] == 0, results
    assert on["stale_discards"] > 100, results
    # ...and the packets still delivered see a (much) smaller tail.
    assert on["p999"] < 0.9 * off["p999"], results
