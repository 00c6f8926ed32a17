"""Tests for the fabric resilience study (checkpoint cadence sweep)."""

import pytest

from repro.experiments import resilience
from repro.experiments.registry import experiment


#: (ranks, checkpoint interval) -> steps replayed after the kill, for
#: the quick study (6 steps, rank killed at step 4)
QUICK_REPLAYED_STEPS = {(2, 1): 0, (2, 2): 1, (4, 1): 0, (4, 2): 1}


@pytest.fixture(scope="module")
def study():
    return resilience.resilience_study(quick=True, rank_counts=(2,),
                                       intervals=(1, 3), steps=4)


class TestResilienceStudy:
    def test_every_point_recovers_bit_identically(self, study):
        for p in study.points.values():
            assert p["faultfree_identical"] is True
            assert p["recovered_identical"] is True
            assert p["rank_restarts"] == 1

    def test_replayed_steps_follow_the_cadence(self, study):
        """A sparser cadence replays more: the kill lands at step 3,
        so interval 1 restores the step-2 checkpoint (0 replayed) and
        interval 3 restores step 0 (``(kill-1) - last_ckpt`` = 2)."""
        assert study.kill_step == 3
        assert study.points[(2, 1)]["replayed_steps"] == 0
        assert study.points[(2, 3)]["replayed_steps"] == 2

    def test_render_and_stats_mirror(self, study):
        text = study.render()
        assert "FABRIC RESILIENCE STUDY" in text
        assert "rec-ident" in text
        assert resilience.LAST_RUN_STATS["rank_restarts"] == \
            sum(p["rank_restarts"] for p in study.points.values())
        assert resilience.LAST_RUN_STATS["recovery_wall_s"] >= 0.0

    def test_registered_in_the_experiment_registry(self):
        spec = experiment("resilience")
        assert "fault tolerance" in spec.description


class TestQuickStudyPinned:
    """The quick study as ``python -m repro.experiments resilience
    --quick`` runs it (2 and 4 ranks, checkpoint intervals 1 and 2)."""

    @pytest.fixture(scope="class")
    def quick(self):
        # keep the module fixture's numbers in LAST_RUN_STATS
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(resilience, "LAST_RUN_STATS", {})
            return resilience.resilience_study(quick=True)

    def test_every_point_recovers_bit_identically(self, quick):
        assert set(quick.points) == set(QUICK_REPLAYED_STEPS)
        for point, p in quick.points.items():
            assert p["faultfree_identical"] is True, point
            assert p["recovered_identical"] is True, point

    def test_recovery_accounting_is_exact(self, quick):
        assert quick.kill_step == 4
        for point, p in quick.points.items():
            assert p["rank_restarts"] == 1, point
            assert p["replayed_steps"] == QUICK_REPLAYED_STEPS[point], point
