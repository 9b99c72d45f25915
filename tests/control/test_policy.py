"""The shared reroute -> re-admit -> teardown policy, against fakes.

``repro.control.policy.refresh`` is the one definition both engines
call; here it runs against a fake release/admit pair that only logs, so
each row pins one branch: what the record looks like afterwards, what
was reported, and which of release/admit ran, in order.
"""

import pytest

from repro.control.policy import (
    FlowRerouteStats,
    Refresh,
    TrackedFlow,
    refresh,
)

OLD, NEW = ("a", "b"), ("a", "c")


class FakeAdmission:
    """Logs calls; grants ``"grant"`` unless told to refuse."""

    def __init__(self, refuse=False):
        self.refuse = refuse
        self.calls = []

    def release(self, record):
        self.calls.append(("release", record.links))

    def admit(self, record, links):
        self.calls.append(("admit", links))
        return None if self.refuse else "grant"


CASES = [
    # id, committed, new path, admission refuses,
    #   -> outcome, grant, calls, links after, stats after
    ("best-effort move counted",
     False, NEW, False,
     Refresh.FOLLOWED, None, [], NEW, dict(reroutes=1)),
    ("best-effort to no-route not counted",
     False, None, False,
     Refresh.FOLLOWED, None, [], None, dict()),
    ("best-effort on an unchanged path not counted",
     False, OLD, False,
     Refresh.FOLLOWED, None, [], OLD, dict()),
    ("unchanged committed path untouched",
     True, OLD, False,
     Refresh.UNTOUCHED, None, [], OLD, dict()),
    ("no path: released, refused, torn",
     True, None, False,
     Refresh.TORN_DOWN, None, [("release", OLD)], None,
     dict(refusals=1, torn_down=True)),
    ("admission refusal: released, refused, torn",
     True, NEW, True,
     Refresh.TORN_DOWN, None, [("release", OLD), ("admit", NEW)], None,
     dict(refusals=1, torn_down=True)),
    ("success: released then admitted, both counters",
     True, NEW, False,
     Refresh.READMITTED, "grant", [("release", OLD), ("admit", NEW)], NEW,
     dict(reroutes=1, readmissions=1)),
]


@pytest.mark.parametrize(
    "committed,new,refuse,outcome,grant,calls,links,stats",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_refresh_decision_table(
    committed, new, refuse, outcome, grant, calls, links, stats
):
    record = TrackedFlow("f", OLD)
    fake = FakeAdmission(refuse)
    assert refresh(record, new, committed, fake.release, fake.admit) == (
        outcome, grant
    )
    assert fake.calls == calls
    assert record.links == links
    assert record.stats() == FlowRerouteStats("f", **stats)


def test_torn_flow_ignored_on_later_calls():
    record = TrackedFlow("f", OLD)
    fake = FakeAdmission(refuse=True)
    refresh(record, NEW, True, fake.release, fake.admit)
    torn = record.stats()
    assert torn.torn_down
    fake.refuse, fake.calls = False, []
    for committed in (True, False):
        assert refresh(record, NEW, committed, fake.release, fake.admit) == (
            Refresh.UNTOUCHED, None
        )
    assert fake.calls == [] and record.links is None
    assert record.stats() == torn


def test_best_effort_regains_a_route_as_a_reroute():
    """None -> path counts (the flow moved onto a route), and counters
    accumulate across calls."""
    record = TrackedFlow("f", OLD)
    fake = FakeAdmission()
    for new in (None, NEW, NEW, OLD):
        refresh(record, new, False, fake.release, fake.admit)
    assert record.stats() == FlowRerouteStats("f", reroutes=2)
    assert fake.calls == []
