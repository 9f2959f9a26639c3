"""Campaign-level statistics: binomial confidence intervals, comparisons,
and journal-record aggregation.

The paper reports raw collapse/RWC percentages over 250 trainings.  At the
reduced trial counts of this reproduction, raw percentages are noisy; this
module provides Wilson score intervals for the rates, two-proportion
comparisons, and a `RateTable` container used by the extended analyses.

It also understands the campaign engine's journal records
(:mod:`repro.experiments.runner` emits them as plain dicts): throughput
accounting via :class:`CampaignStats` and grouping helpers so harnesses can
aggregate a finished — or resumed — campaign straight from its JSONL
journal.  Only mappings are consumed here, keeping ``analysis`` below
``experiments`` in the dependency stack.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping

from ..health.outcome import OUTCOMES, classify_trial_record

#: Canonical outcome-class labels, in severity order.
CANONICAL_OUTCOMES = OUTCOMES

#: labels already warned about, so a campaign with thousands of records
#: carrying one misspelled label warns once, not thousands of times
_warned_outcome_labels: set[str] = set()


def _split_outcomes(outcomes: Mapping) -> tuple[dict, dict]:
    """Split an outcome histogram into canonical and ``other`` buckets.

    Unknown labels (archives written by newer/older classifiers, or plain
    typos) used to flow into ``CampaignStats.outcomes`` unchecked, where
    downstream rate math silently treated them as zero-count canonical
    classes.  They now land in a separate ``other`` bucket — preserved
    label-for-label so ``to_dict``/``from_dict`` round-trips — with a
    once-per-label warning.
    """
    known: dict[str, int] = {}
    other: dict[str, int] = {}
    for label, count in outcomes.items():
        label = str(label)
        if label in CANONICAL_OUTCOMES:
            known[label] = int(count)
            continue
        other[label] = int(count)
        if label not in _warned_outcome_labels:
            _warned_outcome_labels.add(label)
            warnings.warn(
                f"unknown outcome label {label!r} bucketed under 'other' "
                f"(canonical labels: {', '.join(CANONICAL_OUTCOMES)})",
                stacklevel=3)
    return known, other


def outcome_label(record: Mapping) -> str:
    """A journal record's outcome class: the ``outcome_class`` it was
    journaled with, else ``classify_trial_record(status, outcome)``, the
    rule the runner stamps with.  Every reader that counts outcomes (the
    campaign trailer, ``watch``, the serve rollups, the atlas) labels a
    record by it."""
    return record.get("outcome_class") or classify_trial_record(
        str(record.get("status") or "failed"), record.get("outcome"))


@dataclass(frozen=True)
class RateEstimate:
    """A binomial rate with its Wilson score confidence interval."""

    successes: int
    trials: int
    low: float
    high: float

    @property
    def rate(self) -> float:
        return self.successes / self.trials if self.trials else float("nan")

    @property
    def percent(self) -> float:
        return 100.0 * self.rate

    def overlaps(self, other: "RateEstimate") -> bool:
        """True when the two intervals overlap (rates not distinguishable)."""
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:
        return (f"{self.percent:.1f}% "
                f"[{100 * self.low:.1f}, {100 * self.high:.1f}] "
                f"({self.successes}/{self.trials})")


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> RateEstimate:
    """Wilson score interval for a binomial proportion.

    Unlike the normal approximation, Wilson behaves sensibly at the extremes
    (0/n and n/n) that fault-injection campaigns regularly produce.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(f"invalid counts: {successes}/{trials}")
    if trials == 0:
        return RateEstimate(0, 0, float("nan"), float("nan"))
    z = _z_for_confidence(confidence)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials)
    )
    return RateEstimate(successes, trials,
                        max(0.0, center - margin),
                        min(1.0, center + margin))


def _z_for_confidence(confidence: float) -> float:
    table = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}
    if confidence in table:
        return table[confidence]
    if not 0.5 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0.5, 1): {confidence}")
    # Beasley-Springer-Moro style rational approximation of the normal
    # quantile, adequate for reporting purposes.
    p = 1.0 - (1.0 - confidence) / 2.0
    t = math.sqrt(-2.0 * math.log(1.0 - p))
    return t - ((0.010328 * t + 0.802853) * t + 2.515517) / (
        ((0.001308 * t + 0.189269) * t + 1.432788) * t + 1.0
    )


def rates_differ(a: RateEstimate, b: RateEstimate) -> bool:
    """Conservative check: intervals are disjoint => rates differ."""
    return not a.overlaps(b)


@dataclass
class CampaignStats:
    """Throughput accounting for one campaign run.

    Built from journal records (plain dicts with ``status``, ``attempts``,
    ``timed_out`` and ``duration`` keys).  ``executed``/``skipped`` separate
    fresh work from records replayed out of the journal on ``--resume``;
    ``trials_per_second`` is computed over *executed* trials only, so a
    fully-replayed campaign reports zero throughput instead of infinity.
    """

    total: int
    ok: int
    failed: int
    retries: int
    timeouts: int
    executed: int
    skipped: int
    workers: int
    wall_time: float
    #: records that ran the opt-in post-injection structural validation
    #: (``--validate-checkpoints``), and the summed severity-``error``
    #: count across them.  Zero/zero when validation was off.
    validated: int = 0
    structural_findings: int = 0
    #: classified-outcome histogram (``masked``/``degraded``/``collapsed``/
    #: ``crashed`` — see :mod:`repro.health.outcome`), one label per record
    #: by :func:`outcome_label`: records journaled before the classifier
    #: existed are classified from their status and outcome.
    outcomes: dict = field(default_factory=dict)
    #: non-canonical outcome labels (and their counts) seen in the input —
    #: kept apart from ``outcomes`` so rate math over canonical classes
    #: cannot silently absorb a typo'd or future label
    other_outcomes: dict = field(default_factory=dict)

    @classmethod
    def from_records(cls, records: Iterable[Mapping], *,
                     wall_time: float, workers: int = 1,
                     executed: int | None = None,
                     skipped: int = 0) -> "CampaignStats":
        records = list(records)
        ok = sum(1 for r in records if r.get("status") == "ok")
        failed = sum(1 for r in records if r.get("status") == "failed")
        retries = sum(max(0, int(r.get("attempts", 1)) - 1) for r in records)
        timeouts = sum(1 for r in records if r.get("timed_out"))
        histogram: dict[str, int] = {}
        for record in records:
            label = outcome_label(record)
            histogram[label] = histogram.get(label, 0) + 1
        outcomes, other = _split_outcomes(histogram)
        validated = sum(1 for r in records
                        if r.get("structural_findings") is not None)
        structural = sum(int(r.get("structural_findings") or 0)
                         for r in records)
        return cls(
            total=len(records), ok=ok, failed=failed, retries=retries,
            timeouts=timeouts,
            executed=len(records) - skipped if executed is None else executed,
            skipped=skipped, workers=workers, wall_time=wall_time,
            validated=validated, structural_findings=structural,
            outcomes=outcomes, other_outcomes=other,
        )

    @property
    def trials_per_second(self) -> float:
        if self.executed <= 0 or self.wall_time <= 0:
            return 0.0
        return self.executed / self.wall_time

    def as_dict(self) -> dict:
        payload = asdict(self)
        # archives carry one histogram: other labels merged back in, so the
        # wire format predates (and survives) the canonical/other split
        other = payload.pop("other_outcomes")
        if other:
            payload["outcomes"] = {**payload["outcomes"], **other}
        payload["trials_per_second"] = round(self.trials_per_second, 3)
        # to the microsecond: at milliseconds a campaign of a few dozen ms
        # rebuilt from its archive reported a rate >1% off the stored one
        payload["wall_time"] = round(self.wall_time, 6)
        return payload

    def to_dict(self) -> dict:
        """JSON-safe summary counters (the result protocol)."""
        return self.as_dict()

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CampaignStats":
        """Rebuild stats from an archived ``to_dict`` payload.

        Tolerates extra keys (``trials_per_second`` is derived, not stored)
        and missing ones, so reports can be regenerated from archives
        written by older versions.
        """
        fields = cls.__dataclass_fields__  # type: ignore[attr-defined]
        defaults: dict = {name: 0 for name in fields}
        defaults["workers"] = 1
        defaults["wall_time"] = 0.0
        defaults["outcomes"] = {}
        defaults["other_outcomes"] = {}
        known = {name: payload[name] for name in fields if name in payload}
        outcomes, other = _split_outcomes(known.get("outcomes") or {})
        known["outcomes"] = outcomes
        known["other_outcomes"] = {
            **other, **(known.get("other_outcomes") or {})}
        return cls(**{**defaults, **known})

    def summary(self) -> str:
        text = (
            f"{self.total} trials ({self.ok} ok, {self.failed} failed) "
            f"in {self.wall_time:.1f}s — "
            f"{self.trials_per_second:.2f} trials/s, "
            f"workers={self.workers}, retries={self.retries}, "
            f"timeouts={self.timeouts}, resumed={self.skipped}"
        )
        if self.validated:
            text += (f" — validated={self.validated}, "
                     f"structural_findings={self.structural_findings}")
        if self.outcomes or self.other_outcomes:
            # fixed severity order, then the non-canonical labels
            parts = [f"{name}={self.outcomes[name]}"
                     for name in CANONICAL_OUTCOMES if name in self.outcomes]
            parts += [f"{name}={count} (other)" for name, count
                      in sorted(self.other_outcomes.items())]
            text += " — outcomes: " + ", ".join(parts)
        return text


def group_records(records: Iterable[Mapping],
                  key_fields: tuple[str, ...]) -> dict[tuple, list[Mapping]]:
    """Group journal records by fields of their ``payload``, keeping order.

    The campaign engine journals every trial with the payload that produced
    it, so a harness (or an offline analysis) can rebuild its per-cell
    aggregation from the JSONL file alone.
    """
    groups: dict[tuple, list[Mapping]] = {}
    for record in records:
        payload = record.get("payload") or {}
        key = tuple(payload.get(name) for name in key_fields)
        groups.setdefault(key, []).append(record)
    return groups


def successful_outcomes(records: Iterable[Mapping]) -> list[Mapping]:
    """Outcome dicts of ``status == "ok"`` records, in record order."""
    return [r["outcome"] for r in records
            if r.get("status") == "ok" and r.get("outcome") is not None]


def campaign_rate_table(records: Iterable[Mapping],
                        key_fields: tuple[str, ...],
                        success) -> "RateTable":
    """Wilson-interval rates per cell, straight from journal records.

    *success* is a predicate over outcome dicts; failed trials are excluded
    from both numerator and denominator (they carry no outcome).
    """
    table = RateTable()
    for key, group in group_records(records, key_fields).items():
        outcomes = successful_outcomes(group)
        hits = sum(1 for outcome in outcomes if success(outcome))
        table.record(key, hits, len(outcomes))
    return table


@dataclass
class RateTable:
    """Named binomial rates collected over a campaign grid."""

    confidence: float = 0.95
    cells: dict[tuple, RateEstimate] = field(default_factory=dict)

    def record(self, key: tuple, successes: int, trials: int) -> RateEstimate:
        estimate = wilson_interval(successes, trials, self.confidence)
        self.cells[key] = estimate
        return estimate

    def get(self, key: tuple) -> RateEstimate:
        return self.cells[key]

    def rows(self) -> list[list[object]]:
        """Render-ready rows: key fields + rate + interval."""
        out = []
        for key in sorted(self.cells, key=str):
            estimate = self.cells[key]
            out.append([
                *key,
                f"{estimate.percent:.1f}%",
                f"[{100 * estimate.low:.1f}, {100 * estimate.high:.1f}]",
                f"{estimate.successes}/{estimate.trials}",
            ])
        return out
