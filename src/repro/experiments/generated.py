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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import common
from repro.scenario import ScenarioResult, SweepExecutor, generators

DEFAULT_GEN_SEEDS: Tuple[int, ...] = tuple(range(1, 21))
DISCIPLINE_NAMES = ("FIFO", "FIFO+", "CSZ")
NUM_SWITCHES = 8
MULTIHOP_MIN_LINKS = 2


@dataclasses.dataclass
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

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class GeneratedResult:
    rows: List[GeneratedRow]
    duration: float
    seed: int
    scenarios: Optional[List[ScenarioResult]] = None

    def row(self, gen_seed: int) -> GeneratedRow:
        for row in self.rows:
            if row.gen_seed == gen_seed:
                return row
        raise KeyError(gen_seed)

    @property
    def wins(self) -> Dict[str, int]:
        counts = {name: 0 for name in DISCIPLINE_NAMES}
        for row in self.rows:
            counts[row.winner] = counts.get(row.winner, 0) + 1
        return counts

    @property
    def mean_jitter_ms(self) -> Dict[str, float]:
        """Mean multi-hop jitter per discipline across all graphs."""
        totals: Dict[str, float] = {}
        for row in self.rows:
            for name, value in row.jitter_ms.items():
                totals[name] = totals.get(name, 0.0) + value
        return {name: totals[name] / len(self.rows) for name in totals}

    @property
    def all_invariants_clean(self) -> bool:
        return all(row.invariants_clean for row in self.rows)

    def render(self) -> str:
        means = self.mean_jitter_ms
        disciplines = list(self.rows[0].jitter_ms) if self.rows else []
        lines = [
            f"Generated random graphs — {len(self.rows)} seeded "
            f"multi-bottleneck topologies, mixed traffic at 85% load",
            "",
            "multi-hop flow jitter per graph (ms; lower is better):",
            common.format_table(
                ["graph", "links", "flows", "multi-hop"]
                + disciplines
                + ["winner"],
                [
                    [
                        f"g{row.gen_seed}",
                        str(row.num_links),
                        str(row.num_flows),
                        str(row.num_multihop),
                    ]
                    + [f"{row.jitter_ms[d]:.2f}" for d in disciplines]
                    + [row.winner]
                    for row in self.rows
                ],
            ),
            "",
            "wins: "
            + ", ".join(
                f"{name}: {count}" for name, count in self.wins.items()
            ),
            "mean jitter: "
            + ", ".join(
                f"{name}: {value:.2f} ms" for name, value in means.items()
            ),
            "invariants: "
            + (
                "clean on every run"
                if self.all_invariants_clean
                else "VIOLATIONS DETECTED"
            ),
            f"duration: {self.duration:.0f}s/graph   seed: {self.seed}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "rows": [row.to_dict() for row in self.rows],
            "wins": self.wins,
            "mean_jitter_ms": self.mean_jitter_ms,
            "all_invariants_clean": self.all_invariants_clean,
            "duration": self.duration,
            "seed": self.seed,
        }


def _row_from(
    gen_seed: int, spec, result: ScenarioResult
) -> GeneratedRow:
    multihop = [
        flow.name
        for flow in spec.flows
        if (flow.hops or 0) >= MULTIHOP_MIN_LINKS
    ]
    jitter_ms: Dict[str, float] = {}
    clean = True
    for run in result.runs:
        stats = [run.flow(name) for name in multihop]
        jitter_ms[run.discipline] = (
            sum(s.jitter_seconds for s in stats) / len(stats) * 1e3
            if stats
            else 0.0
        )
        if run.invariants is not None and not run.invariants_clean:
            clean = False
    winner = min(jitter_ms, key=lambda name: (jitter_ms[name], name))
    return GeneratedRow(
        gen_seed=gen_seed,
        num_flows=len(spec.flows),
        num_multihop=len(multihop),
        num_links=len(spec.topology.links),
        jitter_ms=jitter_ms,
        winner=winner,
        invariants_clean=clean,
    )


def run(
    duration: float = common.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = common.DEFAULT_WARMUP_SECONDS,
    gen_seeds: Sequence[int] = DEFAULT_GEN_SEEDS,
    workers: Optional[int] = None,
    num_switches: int = NUM_SWITCHES,
    keep_scenarios: bool = False,
) -> GeneratedResult:
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
            num_switches=num_switches,
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
    results = outcome.require_complete()
    rows = [
        _row_from(g, spec, result)
        for g, spec, result in zip(gen_seeds, specs, results)
    ]
    return GeneratedResult(
        rows=rows,
        duration=duration,
        seed=seed,
        scenarios=results if keep_scenarios else None,
    )
