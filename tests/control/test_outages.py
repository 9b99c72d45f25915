"""The outage schedule: explicit events, the sampled process,
determinism, and its replay on the packet engine."""

import pytest

from repro.control import (
    LinkStateController,
    OutageFiring,
    arm_outages,
    compute_outage_schedule,
)
from repro.scenario.spec import OutageEvent, OutageSpec, TopologySpec
from repro.sched.fifo import FifoScheduler
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams


def ring_network(num_switches=5):
    """A duplex ring: every single-link failure leaves an alternate path."""
    sim = Simulator()
    names = [f"S-{i}" for i in range(num_switches)]
    links = []
    for here, there in zip(names, names[1:] + names[:1]):
        links += [{"src": here, "dst": there}, {"src": there, "dst": here}]
    net = TopologySpec.graph(
        names, links, [("h-0", names[0]), ("h-1", names[num_switches // 2])]
    ).build(sim, lambda name, link: FifoScheduler())
    return sim, net


def outage_rng(seed=1):
    return RandomStreams(seed).stream("outage:process")


def arm(sim, controller, spec, rng=None, horizon=60.0):
    """Compute ``spec``'s schedule over ``horizon`` and arm it — what
    the scenario runner does with the run's duration."""
    schedule = compute_outage_schedule(
        spec, controller.link_state, rng, horizon
    )
    arm_outages(sim, controller, schedule.firings)
    return schedule


def outages_fired(schedule):
    """Failure firings that took at least one link down."""
    return sum(1 for f in schedule.firings if not f.up and f.links)


class TestExplicitEvents:
    def test_fail_and_repair_fire_on_schedule(self):
        sim, net = ring_network()
        controller = LinkStateController(net)
        spec = OutageSpec(
            events=(OutageEvent(link="S-0->S-1", at=1.0, duration=2.0),)
        )
        schedule = arm(sim, controller, spec, horizon=10.0)
        assert schedule.firings == (
            OutageFiring(1.0, ("S-0->S-1",), up=False),
            OutageFiring(3.0, ("S-0->S-1",), up=True),
        )
        sim.run(until=1.5)
        assert controller.link_state["S-0->S-1"] is False
        assert not net.links["S-0->S-1"].up
        sim.run(until=3.5)
        assert controller.link_state["S-0->S-1"] is True
        assert net.links["S-0->S-1"].up
        assert outages_fired(schedule) == 1
        assert (controller.outages, controller.restores) == (1, 1)

    def test_overlapping_windows_merge(self):
        """A second failure of an already-down link merges into the first
        outage; the earlier repair wins and the later one no-ops."""
        sim, net = ring_network()
        controller = LinkStateController(net)
        spec = OutageSpec(
            events=(
                OutageEvent(link="S-0->S-1", at=1.0, duration=2.0),
                OutageEvent(link="S-0->S-1", at=2.0, duration=5.0),
            )
        )
        schedule = arm(sim, controller, spec, horizon=10.0)
        sim.run_until_idle()
        assert controller.outages == 1
        assert controller.restores == 1
        assert controller.link_state["S-0->S-1"] is True
        # Four firings, each one simulator event; two of them no-ops.
        assert len(schedule.firings) == 4
        assert sim.events_processed == 4
        assert [t.up for t in schedule.transitions] == [False, True]


class TestSampledProcess:
    def _spec(self, **kwargs):
        defaults = dict(
            rate_per_second=0.5, mean_duration_seconds=0.5, start_after=0.0
        )
        defaults.update(kwargs)
        return OutageSpec(**defaults)

    def test_requires_rng(self):
        sim, net = ring_network()
        with pytest.raises(ValueError, match="rng"):
            arm(sim, LinkStateController(net), self._spec())

    def test_same_seed_same_schedule(self):
        histories = []
        for _ in range(2):
            sim, net = ring_network()
            controller = LinkStateController(net)
            events = []
            original = controller.fail_link

            def spy(name, _orig=original, _events=events, _sim=sim):
                _events.append((_sim.now, name))
                _orig(name)

            controller.fail_link = spy
            arm(sim, controller, self._spec(), outage_rng(seed=9))
            sim.run(until=60.0)
            histories.append(events)
        assert histories[0] == histories[1]
        assert len(histories[0]) > 3

    def test_different_seed_different_schedule(self):
        schedules = []
        for seed in (1, 2):
            sim, net = ring_network()
            controller = LinkStateController(net)
            schedule = arm(
                sim, controller, self._spec(), outage_rng(seed=seed)
            )
            sim.run(until=60.0)
            schedules.append((outages_fired(schedule), controller.outages))
        assert schedules[0] != schedules[1]

    def test_correlated_links_fail_together(self):
        sim, net = ring_network()
        controller = LinkStateController(net)
        spec = self._spec(correlated_links=3, max_outages=1)
        arm(sim, controller, spec, outage_rng(), horizon=120.0)
        sim.run(until=120.0)
        assert controller.outages == 3  # one sampled event, three links
        assert controller.restores == 3  # repaired together

    def test_max_outages_stops_the_process(self):
        sim, net = ring_network()
        controller = LinkStateController(net)
        schedule = arm(
            sim, controller, self._spec(max_outages=2), outage_rng(),
            horizon=600.0,
        )
        sim.run(until=600.0)
        assert outages_fired(schedule) == 2
        assert controller.outages == 2

    def test_candidates_restrict_the_victim_pool(self):
        sim, net = ring_network()
        controller = LinkStateController(net)
        spec = self._spec(links=("S-0->S-1",), max_outages=4)
        arm(sim, controller, spec, outage_rng(), horizon=600.0)
        sim.run(until=600.0)
        assert controller.outages >= 1
        # Only the named candidate ever failed.
        for name, link in net.links.items():
            if name != "S-0->S-1":
                assert link.up

    def test_replay_draws_nothing(self):
        """Every draw happens while the schedule is computed: running the
        armed firings leaves the stream where the computation left it."""
        sim, net = ring_network()
        controller = LinkStateController(net)
        rng = outage_rng()
        arm(sim, controller, self._spec(), rng)
        state = rng.getstate()
        sim.run(until=60.0)
        assert controller.outages > 3
        assert rng.getstate() == state

    def test_one_event_per_firing_including_empty_dues(self):
        """A sampled outage that finds its one candidate already down
        fails nothing, yet is still one simulator event."""
        sim, net = ring_network()
        controller = LinkStateController(net)
        spec = self._spec(
            links=("S-0->S-1",), rate_per_second=2.0,
            mean_duration_seconds=5.0,
        )
        schedule = arm(sim, controller, spec, outage_rng(), horizon=30.0)
        assert any(not f.up and not f.links for f in schedule.firings)
        sim.run(until=30.0)
        assert sim.events_processed == len(schedule.firings)


class TestClockFreeReplay:
    """The transitions the packet controller applies, replaying the
    armed firings, must be exactly ``compute_outage_schedule``'s — same
    draws, same order, same times — since the fluid engine compiles
    those transitions into epoch boundaries paired with packet runs."""

    HORIZON = 60.0

    def _recorded(self, spec, seed):
        sim, net = ring_network()
        controller = LinkStateController(net)
        events = []
        fail, restore = controller.fail_link, controller.restore_link

        def spy_fail(name):
            if controller.link_state.get(name, False):
                events.append((sim.now, name, False))
            fail(name)

        def spy_restore(name):
            if not controller.link_state.get(name, True):
                events.append((sim.now, name, True))
            restore(name)

        controller.fail_link = spy_fail
        controller.restore_link = spy_restore
        arm(
            sim,
            controller,
            spec,
            outage_rng(seed=seed) if spec.rate_per_second > 0 else None,
            self.HORIZON,
        )
        sim.run(until=self.HORIZON)
        return events, sorted(net.links)

    @pytest.mark.parametrize("seed", [1, 9, 23])
    def test_sampled_process_replays_exactly(self, seed):
        spec = OutageSpec(
            rate_per_second=0.5, mean_duration_seconds=0.5,
            start_after=0.0,
        )
        events, link_names = self._recorded(spec, seed)
        assert len(events) > 3
        schedule = compute_outage_schedule(
            spec, link_names, outage_rng(seed=seed), self.HORIZON
        ).transitions
        assert [(t.time, t.link, t.up) for t in schedule] == events

    def test_explicit_plus_sampled_with_cap_replays_exactly(self):
        spec = OutageSpec(
            events=(
                OutageEvent(link="S-0->S-1", at=1.0, duration=2.0),
                OutageEvent(link="S-0->S-1", at=2.0, duration=9.0),
            ),
            rate_per_second=0.4,
            mean_duration_seconds=1.0,
            start_after=0.0,
            max_outages=4,
        )
        events, link_names = self._recorded(spec, seed=5)
        schedule = compute_outage_schedule(
            spec, link_names, outage_rng(seed=5), self.HORIZON
        ).transitions
        assert [(t.time, t.link, t.up) for t in schedule] == events
        # The overlapping-window merge collapsed to effective
        # transitions only, and the cap held on both sides.
        downs = sum(1 for t in schedule if not t.up)
        assert 0 < downs <= 4 + 1  # explicit pair merged to one down
