"""Claim: drop-preference layering (Section 10, item 1).

"If overload causes some of the packets from a source to miss their
deadline, the source should be able to separate its packets into different
classes, to control which packets get dropped ... creating several
priority classes with the same target D_i."

We deliberately oversubscribe one link (16 flows x 85 pkt/s against
1000 pkt/s) with half the flows tagged important (the upper layer of the
class pair) and half unimportant (the lower layer).  Under the unified
scheduler's push-out rule the overload sheds *only* the unimportant layer:
important traffic rides through unharmed — the video-coding use case
(drop enhancement layers, keep base frames) the extension exists for.

The workload is one declarative scenario (single link, 60-packet buffer,
layered predicted flows); the context is built through the scenario
runner, with a drop listener on the bottleneck port sorting the shed
packets by layer.
"""

from repro.net.packet import ServiceClass
from repro.scenario import DisciplineSpec, ScenarioBuilder, ScenarioRunner

FLOWS_PER_LAYER = 8  # 16 x 85 = 1360 pkt/s offered against 1000 capacity
DURATION = 30.0
BUFFER_PACKETS = 60
BOTTLENECK = "A->B"
SEED = 1


def overload_spec(seed: int = SEED):
    builder = (
        ScenarioBuilder("drop-preference-overload")
        .single_link(buffer_packets=BUFFER_PACKETS)
        .discipline(DisciplineSpec.unified(num_predicted_classes=2))
        .duration(DURATION)
        .warmup(0.0)
        .seed(seed)
    )
    for i in range(FLOWS_PER_LAYER):
        for priority, layer in ((0, "important"), (1, "unimportant")):
            builder.add_flow(
                f"{layer}-{i}",
                "src-host",
                "dst-host",
                service_class=ServiceClass.PREDICTED,
                priority_class=priority,
            )
    return builder.build()


def run_overload(seed: int = SEED):
    context = ScenarioRunner(overload_spec(seed)).build()
    drops = {"important": 0, "unimportant": 0}

    def on_drop(packet, now):
        layer = "important" if packet.priority_class == 0 else "unimportant"
        drops[layer] += 1

    context.net.port_for_link(BOTTLENECK).on_drop.append(on_drop)
    run = context.run().collect()
    received = {
        layer: sum(
            stats.recorded
            for stats in run.flows
            if stats.name.startswith(layer)
        )
        for layer in ("important", "unimportant")
    }
    return drops, received


def test_drop_preference():
    drops, received = run_overload()
    measured = {"dropped": drops, "delivered": received}
    # Overload is real (lots of shedding)...
    assert drops["unimportant"] > 1000, measured
    # ...and essentially all of it lands on the unimportant layer.
    assert drops["important"] <= 0.01 * drops["unimportant"], measured
    assert received["important"] > received["unimportant"], measured
