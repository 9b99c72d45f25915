"""Result records serialize field by field.

``FlowRerouteStats``, ``TcpStats`` and ``InvariantCheck`` write their
``to_dict`` out key by key instead of calling ``dataclasses.asdict``,
which deep-copies every field (8 000 control records cost ~0.06 s that
way).  On a populated instance the explicit dict must equal ``asdict``,
key order included, so a field added without its key fails here.
"""

import dataclasses

import pytest

from repro.control.policy import FlowRerouteStats
from repro.scenario.runner import TcpStats
from repro.validate.invariants import InvariantCheck

RECORDS = (
    FlowRerouteStats(
        "f-1", reroutes=3, readmissions=2, refusals=1, torn_down=True
    ),
    TcpStats("tcp-1", segments_sent=120, acks_sent=118, goodput_bps=4.5e5),
    InvariantCheck(
        "port-conservation", ok=False, checked=12, violations=2,
        detail="A->B: in 4 != out 3",
    ),
)


@pytest.mark.parametrize(
    "record", RECORDS, ids=lambda record: type(record).__name__
)
def test_to_dict_equals_asdict(record):
    data = record.to_dict()
    assert data == dataclasses.asdict(record)
    assert list(data) == [field.name for field in dataclasses.fields(record)]
