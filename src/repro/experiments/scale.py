"""Scale flagship: CSZ isolation and admission at 10k–100k+ flows.

The paper argues its service model *because* of scale: isolation (WFQ /
the unified scheduler) and admission control only earn their complexity
when many flows contend.  The packet engine demonstrates the mechanisms
at tens of flows; this experiment asks the paper's two core questions at
datacenter populations on the fluid engine:

* **Isolation.**  On a fat-tree carrying ``size`` flows just past
  saturation (hottest link at 1.05x, where the 2x-peak on/off bursts
  actually queue), compare FIFO against the unified CSZ scheduler: mean
  queueing delay of the recorded *realtime* (guaranteed + predicted)
  flows vs the recorded *datagram* flows.  Under FIFO every tier sees
  the same shared queue; under CSZ the realtime tiers are served first
  and datagram absorbs the queueing — the Figure-1 structure, holding at
  populations five orders of magnitude beyond the paper's.
* **Admission.**  The same fabric deliberately overloaded (offered load
  1.3x the bottleneck), every realtime flow carrying a service request,
  with admission control on: the quota admits what fits, denials ride
  as datagram, and the admitted realtime tier keeps its delay — the
  paper's argument that admission is what makes guarantees *mean*
  something under overload.

Each row also records the fluid engine's throughput (flow-advances per
wall-clock second) — the number ``BENCH_fluid.json`` tracks — so the
flagship doubles as a visible statement of why these questions are
answerable at all: at 100k flows the packet engine would need hours per
cell; the fluid engine needs seconds.  Populations beyond 100k (the
1M-flow regime) run the same way: ``run(sizes=(1_000_000,))``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.experiments.result import ExperimentResult
from repro.fluid import FluidSimulation
from repro.scenario import DisciplineSpec, ScenarioRunner, registry
from repro.scenario.spec import FlowTable

DEFAULT_SIZES: Tuple[int, ...] = (10_000, 100_000)
DEFAULT_DURATION_SECONDS = 60.0
RECORD_FLOWS = 48
#: Isolation leg: just past saturation so the 2x-peak bursts queue (at
#: the 0.85 operating point the deterministic fluid limit never backs
#: up and every scheduler looks identical).
BURST_UTILIZATION = 1.05
OVERLOAD_UTILIZATION = 1.3


def _k_for(size: int) -> int:
    """A fat-tree arity whose host count suits the population."""
    if size <= 2_000:
        return 4
    if size <= 20_000:
        return 8
    return 16


COLUMNS = (
    ("flows", "{0.size:,}".format),
    ("fabric", "k={0.k}".format),
    ("Mflow-adv/s", lambda row: f"{row.flows_per_sec / 1e6:.2f}"),
    ("FIFO rt/dg ms", "{0.fifo_rt_ms:.2f}/{0.fifo_dg_ms:.2f}".format),
    ("CSZ rt/dg ms", "{0.csz_rt_ms:.2f}/{0.csz_dg_ms:.2f}".format),
    ("admit/deny", "{0.admitted:,}/{0.denied:,}".format),
    ("overload rt/dg ms", "{0.overload_rt_ms:.2f}/{0.overload_dg_ms:.2f}".format),
)


@dataclasses.dataclass(frozen=True)
class ScaleRow:
    """One population size: isolation and admission, side by side.

    Delays are mean recorded queueing delay in milliseconds, split by
    service tier (``rt`` = guaranteed + predicted, ``dg`` = datagram).
    """

    size: int
    k: int
    flows_per_sec: float
    wall_seconds: float
    fifo_rt_ms: float
    fifo_dg_ms: float
    csz_rt_ms: float
    csz_dg_ms: float
    admitted: int
    denied: int
    overload_rt_ms: float
    overload_dg_ms: float
    invariants_clean: bool


def _tier_delays_ms(run, spec) -> Tuple[float, float]:
    """(realtime_ms, datagram_ms) mean recorded queueing delay."""
    flows = FlowTable.of(spec.flows)  # columns: no FlowSpec per flow
    kind = dict(zip(flows.names, flows.kind))
    rt: List[float] = []
    dg: List[float] = []
    for stats in run.flows:
        service = flows.protos[kind[stats.name]].service_class
        bucket = rt if service.is_realtime else dg
        bucket.append(stats.mean_seconds * 1e3)
    return (
        sum(rt) / len(rt) if rt else 0.0,
        sum(dg) / len(dg) if dg else 0.0,
    )


def _build(size: int, duration: float, seed: int, gen_seed: int, **kwargs):
    return registry.build(
        "gen:fat-tree",
        gen_seed=gen_seed,
        k=_k_for(size),
        num_flows=size,
        duration=duration,
        seed=seed,
        record_flows=RECORD_FLOWS,
        engine="fluid",
        **kwargs,
    )


def run(
    duration: Optional[float] = None,
    seed: int = 1,
    gen_seed: int = 1,
    sizes: Sequence[int] = DEFAULT_SIZES,
) -> ExperimentResult:
    duration = duration or DEFAULT_DURATION_SECONDS
    rows: List[ScaleRow] = []
    for size in sizes:
        spec = _build(
            size, duration, seed, gen_seed,
            target_utilization=BURST_UTILIZATION,
            disciplines=(
                DisciplineSpec.fifo(),
                DisciplineSpec.unified(name="CSZ"),
            ),
        )
        runner = ScenarioRunner(spec)
        fifo, csz = (runner.run_discipline(d) for d in spec.disciplines)
        fifo_rt, fifo_dg = _tier_delays_ms(fifo, spec)
        csz_rt, csz_dg = _tier_delays_ms(csz, spec)

        # Admission leg: the same fabric pushed past its capacity, every
        # realtime flow asking, the quota deciding.  Built via
        # FluidSimulation directly so the admit/deny split is readable.
        overload_spec = _build(
            size, duration, seed, gen_seed,
            target_utilization=OVERLOAD_UTILIZATION,
            with_requests=True,
            admission=True,
            disciplines=(DisciplineSpec.unified(name="CSZ"),),
        )
        sim = FluidSimulation(overload_spec, overload_spec.disciplines[0])
        overload_run = sim.run().collect()
        over_rt, over_dg = _tier_delays_ms(overload_run, overload_spec)

        rows.append(
            ScaleRow(
                size=size,
                k=_k_for(size),
                flows_per_sec=csz.events_processed / csz.wall_seconds,
                wall_seconds=fifo.wall_seconds + csz.wall_seconds
                + overload_run.wall_seconds,
                fifo_rt_ms=fifo_rt,
                fifo_dg_ms=fifo_dg,
                csz_rt_ms=csz_rt,
                csz_dg_ms=csz_dg,
                admitted=len(sim.admitted),
                denied=len(sim.denied),
                overload_rt_ms=over_rt,
                overload_dg_ms=over_dg,
                invariants_clean=all(
                    c.ok
                    for r in (fifo, csz, overload_run)
                    for c in (r.invariants or ())
                ),
            )
        )
    clean = all(row.invariants_clean for row in rows)
    return ExperimentResult(
        rows=tuple(rows),
        key=("size",),
        columns=COLUMNS,
        summary={
            "duration": duration,
            "seed": seed,
            "gen_seed": gen_seed,
            "all_invariants_clean": clean,
        },
        head=(
            "Scale flagship (fluid engine): isolation + admission on "
            "fat-tree fabrics",
            f"  duration {duration:g}s  seed {seed}  gen_seed {gen_seed}",
            "",
        ),
        foot=(
            "",
            "  rt = recorded guaranteed+predicted flows, dg = recorded "
            "datagram flows; overload = 1.3x offered load with admission on",
        ),
    )
