"""Shape tests for the dynamic-adaptation experiment."""

import pytest

from repro.experiments import dynamics

PHASE = 40.0


@pytest.fixture(scope="module")
def result():
    return dynamics.run(phase_seconds=PHASE, seed=1)


class TestDynamicsShape:
    def test_three_phases_recorded(self, result):
        assert [p.name for p in result.phases] == ["A", "B", "C"]

    def test_all_phases_carried_traffic(self, result):
        for phase in result.phases:
            assert phase.received > 1000, phase.name

    def test_loss_burst_concentrates_in_phase_b(self, result):
        """Section 3: a delay increase causes a brief degradation while the
        client re-adapts; the settled phases lose (much) less."""
        a = result.phase("A").loss_rate
        b = result.phase("B").loss_rate
        c = result.phase("C").loss_rate
        assert b > a
        assert b > c

    def test_settled_losses_near_target(self, result):
        """Outside transitions, the 1 % loss target is roughly honoured."""
        assert result.phase("C").loss_rate < 0.03

    def test_offset_tracks_load_up_and_down(self, result):
        before = result.offset_at(0.9 * PHASE)
        loaded = result.offset_at(1.9 * PHASE)
        after = result.offset_at(2.9 * PHASE)
        assert loaded > 1.5 * before
        assert after < 0.5 * loaded

    def test_narrative_holds_on_a_second_seed(self):
        """Not just a lucky seed: losses peak in B and the play-back
        point tracks the load up and back down on seed 2 as well."""
        other = dynamics.run(phase_seconds=PHASE, seed=2)
        assert other.phase("B").loss_rate > other.phase("A").loss_rate
        assert other.phase("B").loss_rate > other.phase("C").loss_rate
        loaded = other.offset_at(1.9 * PHASE)
        assert loaded > 1.5 * other.offset_at(0.9 * PHASE)
        assert other.offset_at(2.9 * PHASE) < 0.5 * loaded

    def test_client_keeps_adapting(self, result):
        assert result.adaptations > 10

    def test_offset_history_monotone_times(self, result):
        times = [t for t, __ in result.offset_history]
        assert times == sorted(times)

    def test_render(self, result):
        text = result.render()
        for token in ("phase", "loss", "mean offset", "adaptations"):
            assert token in text

    def test_phase_lookup_unknown(self, result):
        with pytest.raises(KeyError):
            result.phase("D")


class TestDeterminism:
    def test_same_seed_same_history(self):
        a = dynamics.run(phase_seconds=10.0, seed=9)
        b = dynamics.run(phase_seconds=10.0, seed=9)
        assert a.offset_history == b.offset_history
        assert [p.received for p in a.phases] == [p.received for p in b.phases]
