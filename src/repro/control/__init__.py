"""Control plane: link-state view, failures, rerouting, re-establishment.

CSZ'92 scopes routing out ("we assume the route is fixed"); this package
is the repo's dynamic-network extension on top of the static data plane,
and each of its decisions has one definition both engines call:

* **When links fail and heal** — :func:`compute_outage_schedule`, the
  one seeded outage sampler, replays an
  :class:`~repro.scenario.spec.OutageSpec` clock-free.  The packet
  engine arms one simulator event per firing (:func:`arm_outages`) into
  a central :class:`LinkStateController`; the fluid engine compiles the
  same schedule's transitions into epoch boundaries.
* **Where flows go** — :func:`repro.net.routing.route_graph`, the one
  shortest-path graph, rebuilt over the surviving links (the controller
  swaps the fresh tables into the network; the fluid plan re-resolves
  paths through :func:`repro.net.fabric.flow_routes`).
* **What happens to a moved flow** — the reroute / re-admit / teardown
  decision of :mod:`repro.control.policy`.

Every packet caught on a dead wire is ledgered so the
:mod:`repro.validate` conservation invariants close across failovers.

Scenario-level entry points: put an
:class:`~repro.scenario.spec.OutageSpec` on a ``ScenarioSpec`` (or use
the ``gen:outage`` generator family); the runner wires this package up
and attaches a :class:`ControlPlaneStats` summary to the run result.
"""

from repro.control.controller import ControlPlaneStats, LinkStateController
from repro.control.policy import FlowRerouteStats
from repro.control.outages import (
    LinkTransition,
    OutageFiring,
    OutageSchedule,
    arm_outages,
    compute_outage_schedule,
)

__all__ = [
    "ControlPlaneStats",
    "FlowRerouteStats",
    "LinkStateController",
    "LinkTransition",
    "OutageFiring",
    "OutageSchedule",
    "arm_outages",
    "compute_outage_schedule",
]
