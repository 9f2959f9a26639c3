"""Tests for Wilson intervals and campaign rate tables."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import (
    RateTable,
    rates_differ,
    wilson_interval,
)


class TestWilson:
    def test_half_centered(self):
        est = wilson_interval(50, 100)
        assert est.rate == 0.5
        assert est.low < 0.5 < est.high
        assert est.high - est.low < 0.25

    def test_extreme_zero(self):
        est = wilson_interval(0, 20)
        assert est.low == 0.0
        assert 0.0 < est.high < 0.3

    def test_extreme_full(self):
        est = wilson_interval(20, 20)
        assert est.high == 1.0
        assert 0.7 < est.low < 1.0

    def test_more_trials_tighter(self):
        wide = wilson_interval(5, 10)
        narrow = wilson_interval(500, 1000)
        assert (narrow.high - narrow.low) < (wide.high - wide.low)

    def test_known_value(self):
        # canonical check: 8/10 at 95% -> approx [0.490, 0.943]
        est = wilson_interval(8, 10)
        assert est.low == pytest.approx(0.490, abs=0.01)
        assert est.high == pytest.approx(0.943, abs=0.01)

    def test_zero_trials(self):
        est = wilson_interval(0, 0)
        assert math.isnan(est.rate)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(-1, 3)

    def test_confidence_levels_nest(self):
        narrow = wilson_interval(30, 100, confidence=0.90)
        wide = wilson_interval(30, 100, confidence=0.99)
        assert wide.low <= narrow.low
        assert wide.high >= narrow.high

    def test_custom_confidence_approximation(self):
        est = wilson_interval(30, 100, confidence=0.975)
        ref_low = wilson_interval(30, 100, confidence=0.95)
        ref_high = wilson_interval(30, 100, confidence=0.99)
        assert ref_high.low <= est.low <= ref_low.low

    @given(st.integers(0, 200), st.integers(1, 200))
    @settings(max_examples=100)
    def test_interval_contains_point_estimate(self, successes, trials):
        successes = min(successes, trials)
        est = wilson_interval(successes, trials)
        assert est.low <= est.rate + 1e-12
        assert est.high >= est.rate - 1e-12
        assert 0.0 <= est.low <= est.high <= 1.0


class TestComparisons:
    def test_clearly_different(self):
        a = wilson_interval(95, 100)
        b = wilson_interval(5, 100)
        assert rates_differ(a, b)

    def test_indistinguishable(self):
        a = wilson_interval(5, 10)
        b = wilson_interval(6, 10)
        assert not rates_differ(a, b)


class TestRateTable:
    def test_record_and_rows(self):
        table = RateTable()
        table.record(("chainer", 1000), 249, 250)
        table.record(("chainer", 1), 1, 250)
        rows = table.rows()
        assert len(rows) == 2
        assert table.get(("chainer", 1000)).percent == pytest.approx(99.6)
        assert "249/250" in rows[1]

    def test_str_rendering(self):
        est = wilson_interval(10, 20)
        text = str(est)
        assert "50.0%" in text
        assert "10/20" in text


# ---------------------------------------------------------------------------
# Journal-record aggregation (campaign engine support)
# ---------------------------------------------------------------------------

from repro.analysis.campaign import (  # noqa: E402
    CampaignStats,
    campaign_rate_table,
    group_records,
    successful_outcomes,
)


def _record(status="ok", attempts=1, timed_out=False, duration=1.0,
            outcome=None, **payload):
    return {"status": status, "attempts": attempts, "timed_out": timed_out,
            "duration": duration, "outcome": outcome, "payload": payload}


class TestCampaignStats:
    def test_counts_and_throughput(self):
        records = [
            _record(outcome={"v": 1}),
            _record(outcome={"v": 2}, attempts=3, timed_out=True),
            _record(status="failed", attempts=2),
        ]
        stats = CampaignStats.from_records(records, wall_time=2.0,
                                           workers=4)
        assert stats.total == 3
        assert stats.ok == 2
        assert stats.failed == 1
        assert stats.retries == 3  # (3-1) + (2-1)
        assert stats.timeouts == 1
        assert stats.trials_per_second == pytest.approx(1.5)
        assert "retries=3" in stats.summary()

    def test_fully_replayed_campaign_reports_zero_throughput(self):
        records = [_record(outcome={})] * 4
        stats = CampaignStats.from_records(records, wall_time=0.5,
                                           executed=0, skipped=4)
        assert stats.trials_per_second == 0.0
        assert stats.skipped == 4

    def test_as_dict_round_trips_through_json(self):
        import json
        stats = CampaignStats.from_records([_record()], wall_time=1.0)
        payload = json.loads(json.dumps(stats.as_dict()))
        assert payload["total"] == 1
        assert payload["trials_per_second"] == 1.0


class TestGroupRecords:
    def test_groups_by_payload_fields_preserving_order(self):
        records = [
            _record(outcome={"v": 1}, model="alexnet", fw="tf"),
            _record(outcome={"v": 2}, model="vgg16", fw="tf"),
            _record(outcome={"v": 3}, model="alexnet", fw="tf"),
        ]
        groups = group_records(records, ("model", "fw"))
        assert [r["outcome"]["v"] for r in groups[("alexnet", "tf")]] == \
            [1, 3]
        assert len(groups[("vgg16", "tf")]) == 1

    def test_missing_payload_fields_group_under_none(self):
        groups = group_records([_record()], ("model",))
        assert (None,) in groups

    def test_successful_outcomes_skips_failed(self):
        records = [_record(outcome={"v": 1}),
                   _record(status="failed"),
                   _record(outcome={"v": 3})]
        assert [o["v"] for o in successful_outcomes(records)] == [1, 3]


class TestCampaignRateTable:
    def test_rates_exclude_failed_trials(self):
        records = [
            _record(outcome={"collapsed": True}, cell="a"),
            _record(outcome={"collapsed": False}, cell="a"),
            _record(status="failed", cell="a"),
            _record(outcome={"collapsed": True}, cell="b"),
        ]
        table = campaign_rate_table(records, ("cell",),
                                    lambda o: o["collapsed"])
        a = table.get(("a",))
        assert (a.successes, a.trials) == (1, 2)  # failed trial excluded
        assert table.get(("b",)).percent == 100.0


class TestOutcomeHistogram:
    def test_from_records_counts_classified_outcomes(self):
        records = [
            dict(_record(outcome={"v": 1}), outcome_class="masked"),
            dict(_record(outcome={"v": 2}), outcome_class="masked"),
            dict(_record(outcome={"v": 3}), outcome_class="degraded"),
            dict(_record(status="failed"), outcome_class="crashed"),
        ]
        stats = CampaignStats.from_records(records, wall_time=1.0)
        assert stats.outcomes == {"masked": 2, "degraded": 1, "crashed": 1}

    def test_unstamped_records_take_the_label_rule(self):
        # no outcome_class: classify_trial_record(status, outcome) labels it
        records = [_record(), _record(outcome={"finals": [0.5]}),
                   _record(status="failed")]
        stats = CampaignStats.from_records(records, wall_time=1.0)
        assert stats.outcomes == {"crashed": 2, "masked": 1}
        assert "outcomes: masked=1, crashed=2" in stats.summary()

    def test_summary_orders_by_severity(self):
        records = [
            dict(_record(status="failed"), outcome_class="crashed"),
            dict(_record(), outcome_class="collapsed"),
            dict(_record(), outcome_class="masked"),
        ]
        stats = CampaignStats.from_records(records, wall_time=1.0)
        assert ("outcomes: masked=1, collapsed=1, crashed=1"
                in stats.summary())

    def test_from_dict_defaults_outcomes_for_old_payloads(self):
        stats = CampaignStats.from_records([_record()], wall_time=1.0)
        payload = stats.as_dict()
        payload.pop("outcomes", None)  # pre-taxonomy payload
        assert CampaignStats.from_dict(payload).outcomes == {}

    def test_outcomes_round_trip_through_as_dict(self):
        records = [dict(_record(), outcome_class="masked")]
        stats = CampaignStats.from_records(records, wall_time=1.0)
        clone = CampaignStats.from_dict(stats.as_dict())
        assert clone.outcomes == {"masked": 1}


class TestOtherOutcomeBucket:
    """Unknown outcome labels: bucketed under `other`, warned once, and
    merged back into the single-histogram wire format."""

    @pytest.fixture(autouse=True)
    def fresh_warning_slate(self):
        from repro.analysis import campaign as module
        module._warned_outcome_labels.clear()
        yield
        module._warned_outcome_labels.clear()

    def records(self):
        return [
            dict(_record(), outcome_class="masked"),
            dict(_record(), outcome_class="rwc"),  # a paper-era label
            dict(_record(), outcome_class="rwc"),
        ]

    def test_unknown_label_lands_in_other(self):
        with pytest.warns(UserWarning, match="unknown outcome label 'rwc'"):
            stats = CampaignStats.from_records(self.records(),
                                               wall_time=1.0)
        assert stats.outcomes == {"masked": 1}
        assert stats.other_outcomes == {"rwc": 2}

    def test_warns_once_per_label(self):
        import warnings as warnings_module
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            CampaignStats.from_records(self.records(), wall_time=1.0)
            CampaignStats.from_records(self.records(), wall_time=1.0)
        assert len([w for w in caught
                    if "unknown outcome label" in str(w.message)]) == 1

    def test_round_trips_through_to_dict(self):
        with pytest.warns(UserWarning):
            stats = CampaignStats.from_records(self.records(),
                                               wall_time=1.0)
        payload = stats.to_dict()
        # the wire format stays a single histogram
        assert payload["outcomes"] == {"masked": 1, "rwc": 2}
        assert "other_outcomes" not in payload
        clone = CampaignStats.from_dict(payload)
        assert clone.outcomes == stats.outcomes
        assert clone.other_outcomes == stats.other_outcomes

    def test_from_dict_rebuckets_archived_unknowns(self):
        payload = {"total": 2, "outcomes": {"masked": 1, "sdc": 1}}
        with pytest.warns(UserWarning, match="'sdc'"):
            stats = CampaignStats.from_dict(payload)
        assert stats.outcomes == {"masked": 1}
        assert stats.other_outcomes == {"sdc": 1}

    def test_summary_marks_other_labels(self):
        with pytest.warns(UserWarning):
            stats = CampaignStats.from_records(self.records(),
                                               wall_time=1.0)
        assert "masked=1, rwc=2 (other)" in stats.summary()

    def test_canonical_labels_pinned_to_health_taxonomy(self):
        from repro.analysis.campaign import CANONICAL_OUTCOMES
        from repro.health.outcome import OUTCOMES
        assert CANONICAL_OUTCOMES == tuple(OUTCOMES)
