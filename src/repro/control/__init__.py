"""Control plane: link-state view, failures, rerouting, re-establishment.

CSZ'92 scopes routing out ("we assume the route is fixed"); this package
is the repo's dynamic-network extension on top of the static data plane:
a central :class:`LinkStateController` consumes link up/down events from
a seeded :class:`OutageProcess`, recomputes shortest-path routes
(:mod:`repro.control.spf`), swaps fresh forwarding tables into the
network, and re-establishes admission-controlled flows on their new
paths (the reroute / re-admit / teardown decision is
:mod:`repro.control.policy`, which the fluid engine's plan compiler
shares) — with every packet caught on a dead wire ledgered so the
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
    OutageProcess,
    compute_outage_schedule,
)
from repro.control.spf import spf_from_network, spf_from_topology

__all__ = [
    "ControlPlaneStats",
    "FlowRerouteStats",
    "LinkStateController",
    "LinkTransition",
    "OutageProcess",
    "compute_outage_schedule",
    "spf_from_network",
    "spf_from_topology",
]
