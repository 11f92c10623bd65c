"""Unit tests for the campaign engine: seeds, validation, reports."""

import numpy as np
import pytest

from repro.analysis import LatencyPoint, RocPoint
from repro.campaigns import (
    Campaign,
    CampaignSuite,
    CanonicalScenario,
    OneShotCloner,
    ProbePlacementSearch,
    ProfileFittingCloner,
    campaign_streams,
    clone_gap,
)
from repro.campaigns.engine import (
    OP_ENROLL,
    SLOT_ADVERSARY,
    SLOT_ATTACK,
    SLOT_CLEAN,
    ArmReport,
    ArmRound,
)
from repro.core.divot import Action
from repro.core.runtime import Telemetry
from repro.protocols import registry

registry.load_all()


class TestCampaignStreams:
    def test_pure_function_of_coordinates(self):
        a = campaign_streams(7, "jtag", 1, SLOT_CLEAN, 2)
        b = campaign_streams(7, "jtag", 1, SLOT_CLEAN, 2)
        assert a.entropy == b.entropy
        x = np.random.default_rng(a).integers(0, 1 << 30, 4)
        y = np.random.default_rng(b).integers(0, 1 << 30, 4)
        np.testing.assert_array_equal(x, y)

    def test_every_coordinate_separates_streams(self):
        base = campaign_streams(7, "jtag", 1, SLOT_CLEAN, 2)
        variants = [
            campaign_streams(8, "jtag", 1, SLOT_CLEAN, 2),
            campaign_streams(7, "spi", 1, SLOT_CLEAN, 2),
            campaign_streams(7, "jtag", 2, SLOT_CLEAN, 2),
            campaign_streams(7, "jtag", 1, SLOT_ATTACK, 2),
            campaign_streams(7, "jtag", 1, SLOT_ADVERSARY, 2),
            campaign_streams(7, "jtag", 1, SLOT_CLEAN, OP_ENROLL),
        ]
        for other in variants:
            assert base.entropy != other.entropy


class TestCampaignValidation:
    def test_empty_strategies_rejected(self):
        with pytest.raises(ValueError):
            Campaign("jtag", strategies=[])

    def test_arm_ids_must_parallel_strategies(self):
        with pytest.raises(ValueError):
            Campaign("jtag", strategies=[CanonicalScenario()], arm_ids=[0, 1])

    def test_arm_ids_must_be_unique(self):
        with pytest.raises(ValueError):
            Campaign(
                "jtag",
                strategies=[CanonicalScenario(), OneShotCloner()],
                arm_ids=[3, 3],
            )

    def test_rounds_floor(self):
        with pytest.raises(ValueError):
            Campaign("jtag", n_rounds=0)

    def test_duplicate_strategy_names_rejected(self):
        with pytest.raises(ValueError):
            Campaign(
                "jtag",
                strategies=[CanonicalScenario(), CanonicalScenario()],
            )

    def test_suite_needs_protocols(self):
        with pytest.raises(ValueError):
            CampaignSuite(protocols=[])


def _report(samples, strategy="s", arm=0):
    rounds = tuple(
        ArmRound(
            round_index=i,
            action=Action.PROCEED,
            score=1.0,
            tampered=False,
            peak_error=0.0,
            clean_statistic=0.0,
            attack_statistic=float(s),
        )
        for i, s in enumerate(samples)
    )
    return ArmReport(
        arm=arm,
        strategy=strategy,
        statistic="auth",
        rounds=rounds,
        roc=(RocPoint(threshold=0.0, fpr=0.0, tpr=1.0),),
        auc=1.0,
        latency=(LatencyPoint(threshold=0.0, fpr=0.0, rounds_to_detect=1),),
    )


class TestCloneGap:
    def test_separated_samples_give_full_gap(self):
        base = _report([0.8, 0.9], strategy="clone-oneshot")
        adapt = _report([0.1, 0.2], strategy="clone-fit")
        best = clone_gap(base, adapt)
        assert best["gap"] == pytest.approx(1.0)
        assert best["tpr_oneshot"] == 1.0 and best["tpr_adaptive"] == 0.0
        assert 0.2 < best["threshold"] <= 0.8
        assert best["baseline"] == "clone-oneshot"
        assert best["adaptive"] == "clone-fit"

    def test_identical_samples_give_zero_gap(self):
        best = clone_gap(_report([0.5, 0.6]), _report([0.5, 0.6]))
        assert best["gap"] == pytest.approx(0.0)

    def test_partial_overlap(self):
        base = _report([0.2, 0.8])
        adapt = _report([0.2, 0.3])
        best = clone_gap(base, adapt)
        assert best["gap"] == pytest.approx(0.5)
        assert best["threshold"] == pytest.approx(0.8)


@pytest.fixture(scope="module")
def small_outcome():
    """One tiny two-arm campaign, shared by the report-shape tests."""
    campaign = Campaign(
        "jtag",
        strategies=[CanonicalScenario(), ProbePlacementSearch(n_positions=2)],
        seed=11,
        n_rounds=3,
    )
    return campaign.run()


class TestCampaignOutcome:
    def test_arms_report_every_round(self, small_outcome):
        assert {r.strategy for r in small_outcome.arms} == {
            "canonical", "probe-search"
        }
        for report in small_outcome.arms:
            assert len(report.rounds) == 3
            assert [r.round_index for r in report.rounds] == [0, 1, 2]
            assert len(report.clean_samples) == 3
            assert len(report.attack_samples) == 3
            assert 0.0 <= report.auc <= 1.0

    def test_arm_lookup(self, small_outcome):
        assert small_outcome.arm("canonical").strategy == "canonical"
        with pytest.raises(KeyError):
            small_outcome.arm("no-such-arm")

    def test_canonical_attack_is_always_caught(self, small_outcome):
        report = small_outcome.arm("canonical")
        assert report.first_detection_round == 1
        assert all(r.detected for r in report.rounds)

    def test_merged_events_round_major(self, small_outcome):
        events = small_outcome.merged_events().events
        assert len(events) == 2 * 3
        assert [e.time_s for e in events] == [0.0, 0.0, 1.0, 1.0, 2.0, 2.0]
        assert events[0].bus == "jtag/canonical/attack"
        assert events[0].protocol == "jtag"

    def test_canonical_bytes_exclude_execution_provenance(
        self, small_outcome
    ):
        for shards in (2, 4):
            rerun = Campaign(
                "jtag",
                strategies=[
                    CanonicalScenario(), ProbePlacementSearch(n_positions=2)
                ],
                seed=11,
                n_rounds=3,
                shards=shards,
                backend="process",
            ).run()
            assert rerun.shards != small_outcome.shards
            assert rerun.canonical_bytes() == small_outcome.canonical_bytes()

    def test_different_seed_changes_bytes(self, small_outcome):
        other = Campaign(
            "jtag",
            strategies=[
                CanonicalScenario(), ProbePlacementSearch(n_positions=2)
            ],
            seed=12,
            n_rounds=3,
        ).run()
        assert other.canonical_bytes() != small_outcome.canonical_bytes()


class TestTelemetryPublication:
    def test_campaign_cells_and_clone_gap_published(self):
        telemetry = Telemetry()
        Campaign(
            "spi",
            strategies=[OneShotCloner(), ProfileFittingCloner()],
            seed=3,
            n_rounds=3,
            telemetry=telemetry,
        ).run()
        cells = telemetry.snapshot()["campaigns"]
        assert "spi/clone-oneshot" in cells
        assert "spi/clone-fit" in cells
        assert cells["spi/clone-fit"]["rounds"] == 3
        gap = cells["spi/clone_gap"]
        assert gap["baseline"] == "clone-oneshot"
        assert {"gap", "threshold", "tpr_oneshot", "tpr_adaptive"} <= set(gap)

    def test_no_gap_cell_without_both_cloners(self):
        telemetry = Telemetry()
        Campaign(
            "spi",
            strategies=[OneShotCloner()],
            seed=3,
            n_rounds=2,
            telemetry=telemetry,
        ).run()
        assert "spi/clone_gap" not in telemetry.snapshot()["campaigns"]
