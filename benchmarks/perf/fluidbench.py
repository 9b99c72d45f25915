"""Fluid-engine benchmarks: flows/sec at scale and the packet crossover.

Four measurements feed ``tools/perf_report.py --suite fluid`` (the
tracked ``BENCH_fluid.json`` trajectory) and the CI fluid perf gate:

* :func:`bench_fluid_scale` — generated fat-tree populations at 10k,
  100k, and 1M flows, run end-to-end on the fluid engine; the headline
  metric is
  *flow-advances per wall-clock second* (``events_processed`` /
  engine wall), the fluid analogue of the packet engine's events/sec.
  Each point also carries ``build_wall_seconds`` (spec build),
  ``wall_seconds`` (compile + run + collect) and their sum
  ``total_wall_seconds`` — at 1M flows the build and compile, not the
  engine, are the cost.
* :func:`bench_congested` — the regime the scale sweep never enters
  (its populations run at 0.85 load, where the deterministic fluid
  limit never queues): a 10k-flow fat-tree offered 1.05x its hottest
  link, and a leaf-spine at 0.95 load under admission with two link
  outages.  Every epoch there is backlogged, so the kernel serves it
  through the exact waterfill and the plan compile re-resolves routes;
  this is where a per-epoch cost that should be per-block shows.
* :func:`bench_crossover` — one instance small enough for both engines
  (k=4 fat-tree), timed on each.  This is where the fluid engine's
  reason to exist becomes a number: the packet engine's wall scales with
  packets sent, the fluid engine's with flows x epochs.
* :func:`run_baseline` — freezes the packet-engine side of the
  crossover (captured once into
  ``benchmarks/perf/baseline_fluid_packet.json``) plus the founding
  fluid flows/sec floor the CI gate regresses against.

Run directly for the CI gate::

    PYTHONPATH=src python benchmarks/perf/fluidbench.py --quick \\
        --gate BENCH_fluid.json
    PYTHONPATH=src python benchmarks/perf/fluidbench.py --quick \\
        --gate BENCH_fluid.json --gate-cell fluid_floor_backlogged_fat_tree
"""

from __future__ import annotations

import time
from typing import Dict

from repro.fluid import model as _fluid_model
from repro.fluid.model import FluidOptions
from repro.scenario import ScenarioRunner, registry
from repro.scenario.spec import OutageEvent, OutageSpec


def _resolved_backend() -> str:
    """The backend ``FluidOptions()``'s ``auto`` resolves to here."""
    return "numpy" if _fluid_model._np is not None else "pure"

#: Scale-bench sizes (num_flows on a fat-tree sized to carry them).
#: The 1M leg is the ROADMAP's datacenter-scale regime: tier-2 budget
#: (~60s end to end), tracked with its own floor (``fluid_floor_1m``).
SCALE_SIZES = ((10_000, 8), (100_000, 16), (1_000_000, 24))
#: Crossover instance: small enough for the packet engine.  ECMP off so
#: both engines route identically (the packet engine's per-destination
#: router ignores ``ecmp_seed``; comparing walls across different route
#: sets would compare different workloads).
CROSSOVER_KWARGS = dict(
    gen_seed=1, k=4, num_flows=64, record_flows=16, ecmp=False
)
CROSSOVER_DURATION_SECONDS = 20.0
SCALE_DURATION_SECONDS = 60.0
#: The gate instance (mid-size: big enough to be numpy-bound, small
#: enough for a CI smoke step).
GATE_FLOWS, GATE_K = 10_000, 8
#: Congested shapes: name -> (family, generator kwargs, outaged links).
#: Outages are explicit, evenly spaced and ``duration / 36`` long (the
#: ``fluid_failover`` shape of ``benchmarks/e2e``, on fixed links).
CONGESTED_SHAPES = {
    "backlogged_fat_tree": (
        "gen:fat-tree",
        dict(k=8, num_flows=10_000, target_utilization=1.05),
        (),
    ),
    "failover_leaf_spine": (
        "gen:leaf-spine",
        dict(
            leaves=16, spines=4, hosts_per_leaf=16, num_flows=8_000,
            target_utilization=0.95, admission=True, with_requests=True,
        ),
        ("L-1->SP-1", "SP-2->L-3"),
    ),
}
#: Each shape's committed floor is the gate cell ``fluid_floor_<shape>``.
CONGESTED_FLOOR = "fluid_floor_"


def _fluid_point(num_flows: int, k: int, duration: float) -> Dict[str, float]:
    built = time.perf_counter()
    spec = registry.build(
        "gen:fat-tree", gen_seed=1, k=k, num_flows=num_flows,
        duration=duration, engine="fluid", record_flows=0,
    )
    point = _run_point(spec, time.perf_counter() - built)
    point["k"] = k
    return point


def _congested_point(shape: str, duration: float) -> Dict[str, float]:
    family, kwargs, down = CONGESTED_SHAPES[shape]
    built = time.perf_counter()
    spec = registry.build(
        family, gen_seed=1, duration=duration, engine="fluid",
        record_flows=0, **kwargs
    )
    if down:
        spec = spec.replace(outages=OutageSpec(events=tuple(
            OutageEvent(
                link=link, at=duration * (i + 0.5) / len(down),
                duration=duration / 36.0,
            )
            for i, link in enumerate(down)
        )))
    point = _run_point(spec, time.perf_counter() - built)
    point["shape"] = shape
    return point


def _run_point(spec, build_wall: float) -> Dict[str, float]:
    # Benches read aggregates only: their populations record no flow
    # (the generators' ``record_flows=0``, drawn last, so placements,
    # services and routes are unchanged), otherwise identical to a
    # ScenarioRunner dispatch.
    discipline = next(d for d in spec.disciplines if d.name == "CSZ")
    started = time.perf_counter()
    sim = _fluid_model.FluidSimulation(spec, discipline)
    run = sim.run().collect()
    sim_wall = time.perf_counter() - started
    return {
        "num_flows": len(spec.flows),
        "duration": float(spec.duration),
        "backend": _resolved_backend(),
        # Spec build, then compile + run + collect, then their sum — the
        # host seconds one result costs; the engine wall is the kernel's
        # share of the middle one.
        "build_wall_seconds": build_wall,
        "wall_seconds": sim_wall,
        "total_wall_seconds": build_wall + sim_wall,
        "engine_wall_seconds": run.wall_seconds,
        "flow_advances": run.events_processed,
        "flows_per_sec": run.events_processed / run.wall_seconds,
    }


def bench_fluid_scale(scale: float = 1.0) -> Dict[str, Dict[str, float]]:
    """Fluid throughput at (scaled) 10k, 100k, and 1M flows."""
    duration = max(SCALE_DURATION_SECONDS * scale, 5.0)
    out = {}
    for num_flows, k in SCALE_SIZES:
        flows = max(int(num_flows * scale), 1000)
        out[f"flows_{num_flows}"] = _fluid_point(flows, k, duration)
    return out


def bench_congested(scale: float = 1.0) -> Dict[str, Dict[str, float]]:
    """Fluid throughput where every epoch is backlogged (full-size
    populations at a scaled horizon: the regime, not the size, is the
    point)."""
    duration = max(SCALE_DURATION_SECONDS * scale, 5.0)
    return {
        shape: _congested_point(shape, duration)
        for shape in CONGESTED_SHAPES
    }


def bench_crossover(scale: float = 1.0) -> Dict[str, float]:
    """The same small fat-tree on both engines.

    Also reports how closely the engines agree on delivered traffic
    (mean relative received-packet difference over recorded flows) so a
    wall-clock win can't silently come from simulating something else.
    """
    duration = max(CROSSOVER_DURATION_SECONDS * scale, 5.0)
    fluid_spec = registry.build(
        "gen:fat-tree", duration=duration, engine="fluid",
        **CROSSOVER_KWARGS,
    )
    packet_spec = registry.build(
        "gen:fat-tree", duration=duration, engine="packet",
        **CROSSOVER_KWARGS,
    )
    started = time.perf_counter()
    fluid = ScenarioRunner(fluid_spec).run_discipline("CSZ")
    fluid_wall = time.perf_counter() - started
    started = time.perf_counter()
    packet = ScenarioRunner(packet_spec).run_discipline("CSZ")
    packet_wall = time.perf_counter() - started
    by_name = {f.name: f for f in packet.flows}
    rel_diffs = [
        abs(f.received - by_name[f.name].received)
        / max(by_name[f.name].received, 1)
        for f in fluid.flows
        if f.name in by_name
    ]
    return {
        "num_flows": CROSSOVER_KWARGS["num_flows"],
        "duration": duration,
        "fluid_wall_seconds": fluid_wall,
        "packet_wall_seconds": packet_wall,
        "packet_events": packet.events_processed,
        "fluid_flow_advances": fluid.events_processed,
        "speedup": packet_wall / fluid_wall,
        "mean_received_rel_diff": (
            sum(rel_diffs) / len(rel_diffs) if rel_diffs else 0.0
        ),
    }


def run_all(scale: float = 1.0) -> Dict[str, object]:
    scale = max(scale, 0.01)
    return {
        "scale_sweep": bench_fluid_scale(scale),
        "congested": bench_congested(scale),
        "crossover": bench_crossover(scale),
    }


def run_baseline(scale: float = 1.0) -> Dict[str, object]:
    """The frozen reference: packet engine on the crossover instance,
    plus the fluid flows/sec floors (the gate's regression anchors,
    re-frozen only deliberately) — the CI gate cell at 10k flows, the
    1M-flow scale regime's own floor, and the two congested shapes."""
    scale = max(scale, 0.01)
    crossover = bench_crossover(scale)
    duration = max(SCALE_DURATION_SECONDS * scale, 5.0)
    gate = _fluid_point(GATE_FLOWS, GATE_K, duration)
    flows_1m, k_1m = SCALE_SIZES[-1]
    floor_1m = _fluid_point(
        max(int(flows_1m * scale), 1000), k_1m, duration
    )
    return {
        "crossover_packet": {
            "num_flows": crossover["num_flows"],
            "duration": crossover["duration"],
            "wall_seconds": crossover["packet_wall_seconds"],
            "packet_events": crossover["packet_events"],
        },
        "fluid_floor": gate,
        "fluid_floor_1m": floor_1m,
        **{
            CONGESTED_FLOOR + shape: point
            for shape, point in bench_congested(scale).items()
        },
    }


# ----------------------------------------------------------------------
# CI gate
# ----------------------------------------------------------------------


def _gate(
    report_path: str, tolerance: float = 0.25, cell: str = "fluid_floor"
) -> int:
    """Fail CI when fluid flows/sec regresses >``tolerance`` against the
    committed ``BENCH_fluid.json`` gate point (same container image, so
    a 25% drop is a real regression, not machine noise).  ``cell``
    selects the committed floor: the default 10k CI cell,
    ``fluid_floor_1m`` for the (slow) full-scale leg, or one of the
    congested shapes (``fluid_floor_<shape>``)."""
    import json

    with open(report_path) as handle:
        committed = json.load(handle)
    floor_point = committed["baseline"]["measurements"][cell]
    floor = floor_point["flows_per_sec"]
    backend = _resolved_backend()
    if backend != floor_point.get("backend", backend):
        # A pure-Python run against a numpy floor (or vice versa) is an
        # environment bug, not a perf regression — fail loudly as such.
        print(
            f"fluid perf gate: backend mismatch — running {backend!r} but "
            f"the committed floor was captured on "
            f"{floor_point.get('backend')!r}; fix the environment"
        )
        return 1
    # Re-measure the exact committed shape (flows, fabric, duration):
    # flows/sec depends on the epoch grid, so a different duration would
    # compare different workloads.  The kernel finishes the gate shape
    # in a sub-second engine wall where one sample swings 2x with
    # machine noise, so take the best of three (early exit on pass) —
    # a real regression depresses all three.
    threshold = floor * (1.0 - tolerance)
    rate = 0.0
    for _ in range(3):
        if "shape" in floor_point:
            measured = _congested_point(
                floor_point["shape"], floor_point["duration"]
            )
        else:
            measured = _fluid_point(
                floor_point["num_flows"], floor_point["k"],
                floor_point["duration"],
            )
        rate = max(rate, measured["flows_per_sec"])
        if rate >= threshold:
            break
    verdict = "ok" if rate >= threshold else "REGRESSION"
    print(
        f"fluid perf gate: measured {rate:,.0f} flow-adv/s vs committed "
        f"floor {floor:,.0f} (threshold {threshold:,.0f}): {verdict}"
    )
    return 0 if rate >= threshold else 1


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="Run the fluid-engine benches (optionally gating CI)."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run at ~1/8 scale (CI sizing)",
    )
    parser.add_argument(
        "--gate", metavar="BENCH_FLUID_JSON", default=None,
        help="compare fluid flows/sec against the committed report and "
        "exit non-zero on a >25%% regression",
    )
    parser.add_argument(
        "--gate-cell", default="fluid_floor",
        choices=(
            "fluid_floor", "fluid_floor_1m",
            *(CONGESTED_FLOOR + shape for shape in CONGESTED_SHAPES),
        ),
        help="committed floor to gate against (fluid_floor_1m re-runs "
        "the full 1M-flow leg: minutes, not a CI smoke step; the "
        "fluid_floor_<shape> cells re-run a congested shape)",
    )
    args = parser.parse_args(argv)
    scale = 0.125 if args.quick else 1.0
    if args.gate is not None:
        return _gate(args.gate, cell=args.gate_cell)
    print(json.dumps(run_all(scale=scale), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
