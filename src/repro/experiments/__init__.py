"""Experiment harness: one module per table/figure of the paper.

* :mod:`repro.experiments.table1` — Table 1 (WFQ vs FIFO, single link).
* :mod:`repro.experiments.table2` — Table 2 (WFQ/FIFO/FIFO+ vs path length).
* :mod:`repro.experiments.table3` — Table 3 (unified scheduler, mixed
  commitments, TCP datagram load, P-G bounds).
* :mod:`repro.experiments.topology` — Figure 1 (the network itself).
* :mod:`repro.experiments.dynamics` — the dynamic-environment validation
  of predicted service with adaptive clients (Sections 3/7).
* :mod:`repro.experiments.distributions` — the full delay CDFs behind
  Table 1's summary percentiles, plus tail-fairness (Section 5).
* :mod:`repro.experiments.parkinglot` — the parking-lot merge network
  (cross traffic at every hop), FIFO+'s multi-hop jitter story on a
  topology only the graph-form :class:`~repro.scenario.TopologySpec` can
  express.
* :mod:`repro.experiments.generated` — FIFO vs FIFO+ vs CSZ across a
  fleet of seeded random multi-bottleneck graphs
  (:mod:`repro.scenario.generators`), with the :mod:`repro.validate`
  invariant checks on for every run.
* :mod:`repro.experiments.failover` — predicted service vs FIFO through a
  link failure and repair, on a packet-engine diamond or (``engine=
  "fluid"``) a leaf-spine fabric.
* :mod:`repro.experiments.scale` — CSZ isolation and admission at
  10k–100k flows on the fluid engine.  Not imported here: it loads
  :mod:`repro.fluid`, so it is imported only when run.

Each module exposes ``run(...) -> result`` with a ``render()`` string that
prints the same rows the paper reports, and the module is runnable via
``python -m repro.experiments <name>``.

Every experiment is founded on :mod:`repro.scenario`: its workload is one
declarative :class:`~repro.scenario.ScenarioSpec` (exposed as the module's
``scenario_spec(...)``), executed with paired arrivals across
disciplines.  The eight row-table experiments (the three tables,
``distributions``, ``parkinglot``, ``generated``, ``failover``, ``scale``)
return one shape, :class:`~repro.experiments.result.ExperimentResult`:
the module selects its rows from the run and declares the render
columns; ``row(*key)``, ``render()`` and ``to_dict()`` are shared.
``dynamics`` and ``topology`` keep their own result types.
"""

from repro.experiments import (
    common,
    distributions,
    dynamics,
    failover,
    generated,
    parkinglot,
    result,
    table1,
    table2,
    table3,
    topology,
)

__all__ = [
    "common",
    "distributions",
    "dynamics",
    "failover",
    "generated",
    "parkinglot",
    "result",
    "table1",
    "table2",
    "table3",
    "topology",
]
