"""repro — reproduction of Clark, Shenker & Zhang, SIGCOMM 1992.

"Supporting Real-Time Applications in an Integrated Services Packet
Network: Architecture and Mechanism."

The library provides, from scratch:

* a deterministic discrete-event packet-network simulator
  (:mod:`repro.sim`, :mod:`repro.net`);
* the paper's traffic model — two-state Markov on/off sources behind token
  bucket filters (:mod:`repro.traffic`);
* every scheduling discipline the paper builds or compares — FIFO, WFQ
  (packetized GPS), FIFO+, strict priority, the unified CSZ scheduler, and
  the related-work baselines (:mod:`repro.sched`);
* the ISPN architecture — Parekh-Gallager bounds, measurement-based
  admission control, signaling, rigid/adaptive playback applications
  (:mod:`repro.core`); the Section 8 service interface is a flow's
  ``request``, a :class:`GuaranteedRequest` or :class:`PredictedRequest`;
* a simplified TCP for datagram load (:mod:`repro.transport`);
* a declarative scenario API — one frozen spec describes topology, flows,
  service commitments, and disciplines (every network, from the paper's
  single link and Figure 1 chain to generated fabrics, is a
  :class:`TopologySpec`, and ``TopologySpec.build`` assembles the live
  :class:`Network`); a runner builds and executes it
  with paired arrivals and returns structured, JSON-exportable results;
  sweeps fan out across processes; seeded generators sample random /
  scale-free / WAN / access-core scenarios deterministically
  (:mod:`repro.scenario`);
* opt-in simulation-invariant validation — packet conservation, per-flow
  FIFO order, P-G delay-bound compliance, queue bounds, clock
  monotonicity — via an audit tap that leaves results bit-identical
  (:mod:`repro.validate`);
* runnable experiments regenerating every table and figure, founded on
  the scenario API (:mod:`repro.experiments`).

Quickstart — declare a scenario, run it under two disciplines (identical
arrivals), and read structured results::

    from repro import DisciplineSpec, ScenarioBuilder, ScenarioRunner

    spec = (ScenarioBuilder("quickstart")
            .single_link()                  # the Table-1 bottleneck
            .paper_flows(10)                # ten Appendix on/off sources
            .disciplines(DisciplineSpec.wfq(equal_share_flows=10),
                         DisciplineSpec.fifo())
            .duration(60.0).seed(1)
            .build())
    result = ScenarioRunner(spec).run()
    unit = 0.001  # one packet transmission time
    for run in result.runs:
        sample = run.flow("flow-0")
        print(run.discipline, sample.mean_in(unit),
              sample.percentile_in(99.9, unit))

Sweep the same spec over seeds, in parallel, with paired arrivals::

    from repro import sweep
    results = sweep(spec, seeds=range(8), workers=4)

Or regenerate a paper table directly::

    from repro.experiments import table1
    print(table1.run(duration=60.0, seed=1).render())
"""

from repro.sim import Simulator, RandomStreams
from repro.net import Packet, ServiceClass, Network
from repro.sched import (
    FifoScheduler,
    WfqScheduler,
    FifoPlusScheduler,
    PriorityScheduler,
    UnifiedScheduler,
    UnifiedConfig,
)
from repro.traffic import OnOffMarkovSource, OnOffParams, TokenBucket, DelayRecordingSink
from repro.core import (
    AdmissionController,
    AdmissionConfig,
    SignalingAgent,
    RigidPlayback,
    AdaptivePlayback,
    parekh_gallager_fluid_bound,
    parekh_gallager_packet_bound,
)
from repro.scenario import (
    AdmissionSpec,
    DisciplineSpec,
    FlowSpec,
    GuaranteedRequest,
    HostAttachment,
    LinkSpec,
    PredictedRequest,
    ScenarioBuilder,
    ScenarioResult,
    ScenarioRunner,
    ScenarioSpec,
    TcpSpec,
    TopologySpec,
    sweep,
)
from repro.transport import TcpConnection
from repro.validate import (
    InvariantCheck,
    InvariantViolation,
    assert_clean,
    check_invariants,
)

__version__ = "1.2.0"

__all__ = [
    "Simulator",
    "RandomStreams",
    "Packet",
    "ServiceClass",
    "Network",
    "FifoScheduler",
    "WfqScheduler",
    "FifoPlusScheduler",
    "PriorityScheduler",
    "UnifiedScheduler",
    "UnifiedConfig",
    "OnOffMarkovSource",
    "OnOffParams",
    "TokenBucket",
    "DelayRecordingSink",
    "AdmissionController",
    "AdmissionConfig",
    "SignalingAgent",
    "RigidPlayback",
    "AdaptivePlayback",
    "parekh_gallager_fluid_bound",
    "parekh_gallager_packet_bound",
    "AdmissionSpec",
    "DisciplineSpec",
    "FlowSpec",
    "GuaranteedRequest",
    "HostAttachment",
    "LinkSpec",
    "PredictedRequest",
    "ScenarioBuilder",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "TcpSpec",
    "TopologySpec",
    "sweep",
    "TcpConnection",
    "InvariantCheck",
    "InvariantViolation",
    "assert_clean",
    "check_invariants",
    "__version__",
]
