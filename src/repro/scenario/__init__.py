"""Declarative scenarios: one spec → build → run → structured results.

The subsystem the experiment layer is founded on:

* :mod:`repro.scenario.spec` — frozen dataclasses fully describing a run
  (:class:`TopologySpec`, :class:`FlowSpec`, :class:`DisciplineSpec`,
  :class:`ScenarioSpec`, service requests, TCP load, admission control);
* :mod:`repro.scenario.builder` — fluent construction with the paper's
  Appendix constants baked in (``paper_chain()``, ``paper_flows()``);
* :mod:`repro.scenario.runner` — :class:`ScenarioRunner` builds and runs
  one simulation per discipline with paired arrivals guaranteed by
  construction, returning a JSON-exportable :class:`ScenarioResult`;
* :mod:`repro.scenario.executor` — ``sweep()`` (parameter/seed sweeps,
  bit-identical to serial execution) and the persistent execution engine
  behind it and ``ScenarioRunner.run(workers=)``: flattened
  (override × seed × discipline) task graph, each task carrying its own
  single-discipline spec to a reusable worker pool, streaming
  collection, per-run wall-clock budgets, early stopping, and runs lost
  to a dead worker reported, not hung on;
* :mod:`repro.scenario.generators` — seeded, deterministic scenario
  generators (random/scale-free graphs, WAN paths, access/core fan-in)
  registered under ``gen:`` names, with populations sized to a target
  utilization and :mod:`repro.validate` invariant checks on by default;
* :mod:`repro.scenario.paper` — the Appendix constants and the Figure-1
  placement tables, the single source of truth.
"""

from repro.scenario import paper, registry
from repro.scenario.builder import ScenarioBuilder
from repro.scenario.executor import (
    BUDGET_EXPIRED,
    COMPLETED,
    STOPPED,
    WORKER_LOST,
    IncompleteSweepError,
    SweepExecutor,
    SweepOutcome,
    SweepRun,
    TaskResult,
    expand,
    stop_when_ci_below,
    sweep,
)
from repro.scenario.disciplines import (
    build_scheduler,
    discipline_kinds,
    resolve_port_discipline,
)
from repro.scenario.runner import (
    DisciplineRunResult,
    FlowStats,
    ScenarioContext,
    ScenarioResult,
    ScenarioRunner,
    TcpStats,
)
from repro.scenario.spec import (
    AdmissionSpec,
    DisciplineSpec,
    FlowSpec,
    GuaranteedRequest,
    HostAttachment,
    LinkSpec,
    OutageEvent,
    OutageSpec,
    PredictedRequest,
    ScenarioSpec,
    SpecError,
    TcpSpec,
    TopologySpec,
)
from repro.scenario import generators  # noqa: E402  (needs spec/registry)

__all__ = [
    "paper",
    "registry",
    "generators",
    "AdmissionSpec",
    "BUDGET_EXPIRED",
    "COMPLETED",
    "STOPPED",
    "WORKER_LOST",
    "IncompleteSweepError",
    "SweepExecutor",
    "SweepOutcome",
    "SweepRun",
    "TaskResult",
    "stop_when_ci_below",
    "DisciplineSpec",
    "DisciplineRunResult",
    "FlowSpec",
    "FlowStats",
    "GuaranteedRequest",
    "HostAttachment",
    "LinkSpec",
    "OutageEvent",
    "OutageSpec",
    "PredictedRequest",
    "ScenarioBuilder",
    "ScenarioContext",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "SpecError",
    "TcpSpec",
    "TcpStats",
    "TopologySpec",
    "build_scheduler",
    "discipline_kinds",
    "expand",
    "resolve_port_discipline",
    "sweep",
]
