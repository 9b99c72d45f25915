"""The paper's named networks, pinned as literals.

For each named :class:`TopologySpec` constructor this pins the exact
``json.dumps(to_dict())`` bytes (so ``rate_bps: 1000000`` stays an int on
the wire) and the switch, link and host insertion order of the live
network ``build()`` assembles, with each link's rate, propagation delay
and buffer.  Insertion order is what ports, measurement attachment and
accounting iterate downstream, so the experiment goldens follow it.
"""

import json

import pytest

from repro.sched.fifo import FifoScheduler
from repro.scenario import TopologySpec
from repro.sim.engine import Simulator

# (id, constructor, wire bytes, switches, links, hosts); a link is
# (name, rate_bps, propagation_delay, buffer_packets) as built.
PINNED = [
    (
        "single_link()",
        lambda: TopologySpec.single_link(),
        (
            '{"kind": "single_link", "nodes": ["A", "B"], '
            '"links": [{"src": "A", "dst": "B", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}], '
            '"host_attachments": [{"host": "src-host", "switch": "A"}, '
            '{"host": "dst-host", "switch": "B"}]}'
        ),
        ('A', 'B'),
        (
            ('A->B', 1000000.0, 0.0, 200),
        ),
        ('src-host', 'dst-host'),
    ),
    (
        "chain(3)",
        lambda: TopologySpec.chain(3),
        (
            '{"kind": "chain", "nodes": ["S-1", "S-2", "S-3"], '
            '"links": [{"src": "S-1", "dst": "S-2", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-2", "dst": "S-3", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}], '
            '"host_attachments": [{"host": "Host-1", "switch": "S-1"}, '
            '{"host": "Host-2", "switch": "S-2"}, '
            '{"host": "Host-3", "switch": "S-3"}]}'
        ),
        ('S-1', 'S-2', 'S-3'),
        (
            ('S-1->S-2', 1000000.0, 0.0, 200),
            ('S-2->S-3', 1000000.0, 0.0, 200),
        ),
        ('Host-1', 'Host-2', 'Host-3'),
    ),
    (
        "chain(3, duplex=True)",
        lambda: TopologySpec.chain(3, duplex=True),
        (
            '{"kind": "chain", "nodes": ["S-1", "S-2", "S-3"], '
            '"links": [{"src": "S-1", "dst": "S-2", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-2", "dst": "S-1", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-2", "dst": "S-3", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-3", "dst": "S-2", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}], '
            '"host_attachments": [{"host": "Host-1", "switch": "S-1"}, '
            '{"host": "Host-2", "switch": "S-2"}, '
            '{"host": "Host-3", "switch": "S-3"}]}'
        ),
        ('S-1', 'S-2', 'S-3'),
        (
            ('S-1->S-2', 1000000.0, 0.0, 200),
            ('S-2->S-1', 1000000.0, 0.0, 200),
            ('S-2->S-3', 1000000.0, 0.0, 200),
            ('S-3->S-2', 1000000.0, 0.0, 200),
        ),
        ('Host-1', 'Host-2', 'Host-3'),
    ),
    (
        "figure1()",
        lambda: TopologySpec.figure1(),
        (
            '{"kind": "figure1", "nodes": ["S-1", "S-2", "S-3", "S-4", "S-5"], '
            '"links": [{"src": "S-1", "dst": "S-2", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-2", "dst": "S-3", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-3", "dst": "S-4", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-4", "dst": "S-5", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}], '
            '"host_attachments": [{"host": "Host-1", "switch": "S-1"}, '
            '{"host": "Host-2", "switch": "S-2"}, '
            '{"host": "Host-3", "switch": "S-3"}, '
            '{"host": "Host-4", "switch": "S-4"}, '
            '{"host": "Host-5", "switch": "S-5"}]}'
        ),
        ('S-1', 'S-2', 'S-3', 'S-4', 'S-5'),
        (
            ('S-1->S-2', 1000000.0, 0.0, 200),
            ('S-2->S-3', 1000000.0, 0.0, 200),
            ('S-3->S-4', 1000000.0, 0.0, 200),
            ('S-4->S-5', 1000000.0, 0.0, 200),
        ),
        ('Host-1', 'Host-2', 'Host-3', 'Host-4', 'Host-5'),
    ),
    (
        "figure1(duplex=True)",
        lambda: TopologySpec.figure1(duplex=True),
        (
            '{"kind": "figure1", "nodes": ["S-1", "S-2", "S-3", "S-4", "S-5"], '
            '"links": [{"src": "S-1", "dst": "S-2", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-2", "dst": "S-1", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-2", "dst": "S-3", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-3", "dst": "S-2", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-3", "dst": "S-4", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-4", "dst": "S-3", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-4", "dst": "S-5", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-5", "dst": "S-4", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}], '
            '"host_attachments": [{"host": "Host-1", "switch": "S-1"}, '
            '{"host": "Host-2", "switch": "S-2"}, '
            '{"host": "Host-3", "switch": "S-3"}, '
            '{"host": "Host-4", "switch": "S-4"}, '
            '{"host": "Host-5", "switch": "S-5"}]}'
        ),
        ('S-1', 'S-2', 'S-3', 'S-4', 'S-5'),
        (
            ('S-1->S-2', 1000000.0, 0.0, 200),
            ('S-2->S-1', 1000000.0, 0.0, 200),
            ('S-2->S-3', 1000000.0, 0.0, 200),
            ('S-3->S-2', 1000000.0, 0.0, 200),
            ('S-3->S-4', 1000000.0, 0.0, 200),
            ('S-4->S-3', 1000000.0, 0.0, 200),
            ('S-4->S-5', 1000000.0, 0.0, 200),
            ('S-5->S-4', 1000000.0, 0.0, 200),
        ),
        ('Host-1', 'Host-2', 'Host-3', 'Host-4', 'Host-5'),
    ),
    (
        "parking_lot(4)",
        lambda: TopologySpec.parking_lot(4),
        (
            '{"kind": "parking_lot", "nodes": ["S-1", "S-2", "S-3", "S-4", "S-5"], '
            '"links": [{"src": "S-1", "dst": "S-2", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-2", "dst": "S-3", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-3", "dst": "S-4", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}, '
            '{"src": "S-4", "dst": "S-5", '
            '"rate_bps": 1000000, "buffer_packets": 200, "propagation_delay": 0.0}], '
            '"host_attachments": [{"host": "thru-src", "switch": "S-1"}, '
            '{"host": "thru-dst", "switch": "S-5"}, '
            '{"host": "cross-src-1", "switch": "S-1"}, '
            '{"host": "cross-dst-1", "switch": "S-2"}, '
            '{"host": "cross-src-2", "switch": "S-2"}, '
            '{"host": "cross-dst-2", "switch": "S-3"}, '
            '{"host": "cross-src-3", "switch": "S-3"}, '
            '{"host": "cross-dst-3", "switch": "S-4"}, '
            '{"host": "cross-src-4", "switch": "S-4"}, '
            '{"host": "cross-dst-4", "switch": "S-5"}]}'
        ),
        ('S-1', 'S-2', 'S-3', 'S-4', 'S-5'),
        (
            ('S-1->S-2', 1000000.0, 0.0, 200),
            ('S-2->S-3', 1000000.0, 0.0, 200),
            ('S-3->S-4', 1000000.0, 0.0, 200),
            ('S-4->S-5', 1000000.0, 0.0, 200),
        ),
        (
            'thru-src', 'thru-dst', 'cross-src-1', 'cross-dst-1', 'cross-src-2',
            'cross-dst-2', 'cross-src-3', 'cross-dst-3', 'cross-src-4', 'cross-dst-4',
        ),
    ),
]


@pytest.mark.parametrize(
    "make,wire,switches,links,hosts",
    [pytest.param(*case[1:], id=case[0]) for case in PINNED],
)
def test_named_topology_is_pinned(make, wire, switches, links, hosts):
    topology = make()
    assert json.dumps(topology.to_dict()) == wire
    net = topology.build(Simulator(), lambda name, link: FifoScheduler())
    assert tuple(net.switches) == switches
    assert tuple(
        (name, link.rate_bps, link.propagation_delay, net.ports[name].buffer_packets)
        for name, link in net.links.items()
    ) == links
    assert tuple(net.ports) == tuple(net.links)
    assert tuple(net.hosts) == hosts
