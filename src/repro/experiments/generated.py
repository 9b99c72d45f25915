"""Generated-topology flagship: FIFO vs FIFO+ vs CSZ across random graphs.

The paper's multi-hop sharing argument (Section 6) is demonstrated on
hand-built chains; the scenario generators make the stronger claim
testable: across *sampled* multi-bottleneck topologies — each a seeded
random graph with its own link structure and mixed traffic population
sized to the 85 % operating point — FIFO+ and the unified CSZ scheduler
should consistently shrink the long-haul flows' jitter relative to FIFO,
whatever the graph looks like.

This experiment sweeps ``gen_seeds`` generated scenarios (default 20)
through the :class:`~repro.scenario.SweepExecutor` — each generated spec
rides the sweep as a whole-spec override, one discipline simulation per
task — and ranks the disciplines per graph by the pooled jitter of the
multi-hop (≥ 2 link) flows.  Every run is validated: the generated specs
opt into the :mod:`repro.validate` invariant checks, and the result
records that they came back clean.

The golden test pins the per-graph jitter numbers and the resulting
ranking bit-for-bit at short duration.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.result import ExperimentResult
from repro.scenario import ScenarioResult, SweepExecutor, generators, paper

DEFAULT_GEN_SEEDS: Tuple[int, ...] = tuple(range(1, 21))
DISCIPLINE_NAMES = ("FIFO", "FIFO+", "CSZ")
NUM_SWITCHES = 8
MULTIHOP_MIN_LINKS = 2


@dataclasses.dataclass(frozen=True)
class GeneratedRow:
    """One generated graph's discipline comparison.

    ``jitter_ms`` maps discipline -> mean jitter (max minus min recorded
    queueing delay) of the multi-hop flows, in milliseconds; ``winner``
    is the discipline with the smallest value.
    """

    gen_seed: int
    num_flows: int
    num_multihop: int
    num_links: int
    jitter_ms: Dict[str, float]
    winner: str
    invariants_clean: bool


def _row_from(
    gen_seed: int, spec, result: ScenarioResult
) -> GeneratedRow:
    multihop = [
        flow.name
        for flow in spec.flows
        if (flow.hops or 0) >= MULTIHOP_MIN_LINKS
    ]
    jitter_ms = {
        run.discipline: (
            sum(run.flow(name).jitter_seconds for name in multihop)
            / len(multihop) * 1e3
            if multihop
            else 0.0
        )
        for run in result.runs
    }
    winner = min(jitter_ms, key=lambda name: (jitter_ms[name], name))
    return GeneratedRow(
        gen_seed=gen_seed,
        num_flows=len(spec.flows),
        num_multihop=len(multihop),
        num_links=len(spec.topology.links),
        jitter_ms=jitter_ms,
        winner=winner,
        invariants_clean=all(
            run.invariants is None or run.invariants_clean for run in result.runs
        ),
    )


def run(
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
    gen_seeds: Sequence[int] = DEFAULT_GEN_SEEDS,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Run the generated-graph comparison across ``gen_seeds`` topologies.

    Each generated spec enters one sweep as a whole-spec override, so
    the executor fans the ``len(gen_seeds) × 3`` discipline simulations
    across ``workers`` processes; results reassemble in seed order.
    """
    gen_seeds = list(gen_seeds)
    if not gen_seeds:
        raise ValueError("need at least one generator seed")
    specs = [
        generators.random_graph(
            gen_seed=g,
            num_switches=NUM_SWITCHES,
            duration=duration,
            seed=seed,
            warmup=warmup,
        )
        for g in gen_seeds
    ]
    with SweepExecutor(workers=workers) as executor:
        outcome = executor.run_sweep(specs[0], over=list(specs))
    # One row per generator seed: a lost run must fail loudly, not shift
    # every later row onto the wrong seed.
    rows = tuple(
        _row_from(g, spec, result)
        for g, spec, result in zip(gen_seeds, specs, outcome.require_complete())
    )
    wins = {
        name: sum(row.winner == name for row in rows) for name in DISCIPLINE_NAMES
    }
    mean_jitter_ms = {
        name: sum(row.jitter_ms[name] for row in rows) / len(rows)
        for name in rows[0].jitter_ms
    }
    clean = all(row.invariants_clean for row in rows)
    columns = (
        ("graph", "g{0.gen_seed}".format),
        ("links", "{0.num_links}".format),
        ("flows", "{0.num_flows}".format),
        ("multi-hop", "{0.num_multihop}".format),
        *((d, lambda row, d=d: f"{row.jitter_ms[d]:.2f}") for d in mean_jitter_ms),
        ("winner", "{0.winner}".format),
    )
    return ExperimentResult(
        rows=rows,
        key=("gen_seed",),
        columns=columns,
        summary={
            "wins": wins,
            "mean_jitter_ms": mean_jitter_ms,
            "all_invariants_clean": clean,
            "duration": duration,
            "seed": seed,
        },
        head=(
            f"Generated random graphs — {len(rows)} seeded "
            f"multi-bottleneck topologies, mixed traffic at 85% load",
            "",
            "multi-hop flow jitter per graph (ms; lower is better):",
        ),
        foot=(
            "",
            "wins: " + ", ".join(f"{name}: {n}" for name, n in wins.items()),
            "mean jitter: "
            + ", ".join(f"{n}: {v:.2f} ms" for n, v in mean_jitter_ms.items()),
            "invariants: "
            + ("clean on every run" if clean else "VIOLATIONS DETECTED"),
            f"duration: {duration:.0f}s/graph   seed: {seed}",
        ),
    )
