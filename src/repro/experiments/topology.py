"""Figure 1 — and structural reports for any declarative topology.

Figure 1 is the paper's only figure — the 5-switch chain used by Tables 2
and 3.  "Reproducing" it means building the network programmatically from
its :class:`~repro.scenario.TopologySpec`, verifying its structural
invariants (10 flows per inter-switch link; the 12/4/4/2 path-length
census), and rendering it.  The checks here are also what guards the
Table 2/3 workloads against placement regressions.

Since the topology layer went graph-native, the same census machinery
works for *any* spec: :func:`graph_report` takes an arbitrary
:class:`~repro.scenario.ScenarioSpec` and reports its per-link flow
census and path-length histogram over whatever graph it declares.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.scenario import (
    DisciplineSpec,
    ScenarioBuilder,
    ScenarioRunner,
    ScenarioSpec,
    paper,
)


@dataclasses.dataclass
class TopologyReport:
    switches: List[str]
    hosts: List[str]
    links: List[str]
    flows_per_link: Dict[str, int]
    flows_per_path_length: Dict[int, int]
    ascii_art: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def render(self) -> str:
        census = ", ".join(
            f"{link}: {count}" for link, count in sorted(self.flows_per_link.items())
        )
        lengths = ", ".join(
            f"{hops}-hop: {count}"
            for hops, count in sorted(self.flows_per_path_length.items())
        )
        return (
            "Figure 1 — network topology used for Tables 2 and 3\n"
            f"{self.ascii_art}\n"
            f"switches: {', '.join(self.switches)}\n"
            f"hosts:    {', '.join(self.hosts)}\n"
            f"flows per inter-switch link: {census}  (paper: 10 each)\n"
            f"flows per path length: {lengths}  (paper: 12/4/4/2)"
        )


def graph_report(spec: ScenarioSpec, ascii_art: str = "") -> TopologyReport:
    """Structural census of any scenario: who shares which link.

    Builds the spec's first discipline (no traffic runs) and walks every
    flow's routed path — so the census reflects the live routing tables,
    not just the declared placements.  TCP connections count on both
    directions of their path (segments one way, ACKs the other).
    """
    context = ScenarioRunner(spec).build()
    net = context.net
    flows_per_link: Dict[str, int] = {name: 0 for name in net.links}
    flows_per_path_length: Dict[int, int] = {}
    for flow in spec.flows:
        names = net.link_names_on_path(flow.source_host, flow.dest_host)
        for name in names:
            flows_per_link[name] += 1
        hops = flow.hops if flow.hops is not None else len(names)
        flows_per_path_length[hops] = flows_per_path_length.get(hops, 0) + 1
    for tcp in spec.tcps:
        for src, dst in (
            (tcp.source_host, tcp.dest_host),
            (tcp.dest_host, tcp.source_host),
        ):
            for name in net.link_names_on_path(src, dst):
                flows_per_link[name] += 1
    topology = spec.topology
    return TopologyReport(
        switches=list(topology.nodes),
        hosts=list(topology.host_names),
        links=sorted(net.links),
        flows_per_link=flows_per_link,
        flows_per_path_length=flows_per_path_length,
        ascii_art=ascii_art,
    )


def figure1_ascii() -> str:
    """ASCII rendering of Figure 1 (the topology 'figure' deliverable)."""
    return (
        "Host-1    Host-2    Host-3    Host-4    Host-5\n"
        "  |         |         |         |         |\n"
        " S-1 ----- S-2 ----- S-3 ----- S-4 ----- S-5\n"
        "     1Mb/s     1Mb/s     1Mb/s     1Mb/s\n"
    )


def build_report() -> TopologyReport:
    """Construct the Figure-1 network and verify the workload layout."""
    spec = (
        ScenarioBuilder("fig1")
        .paper_chain()
        .figure1_flows()
        .discipline(DisciplineSpec.fifo())
        .duration(1.0)
        .build()
    )
    report = graph_report(spec, ascii_art=figure1_ascii())
    # The named constructor must keep building the paper's network.
    if report.switches != list(paper.FIGURE1_SWITCHES) or report.hosts != list(
        paper.FIGURE1_HOSTS
    ):
        raise ValueError(
            "figure1 topology no longer builds the paper's network: "
            f"switches={report.switches} hosts={report.hosts}"
        )
    return report


#: Alias so every experiment module exposes ``run()``.
run = build_report
