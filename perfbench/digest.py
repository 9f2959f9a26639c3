"""Outcome digests: what a campaign computed, reduced to comparable hashes.

A trial's *entry* is its ``trial_id``, its ``outcome_class`` and the exact
IEEE-754 bits of every accuracy-curve value.  Two execution modes agree on a
trial when their entries are equal; a workload's digest is sha256 over its
sorted entries.  Digests are read back from the journals a campaign wrote,
so a journal edited after the fact fails the check.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")


def float_bits(value) -> str:
    """The float64 bit pattern of *value* as 16 hex digits (NaN included)."""
    return struct.pack(">d", float(value)).hex()


def trial_entry(record: dict) -> str:
    """The canonical digest line of one journal record."""
    outcome = record.get("outcome") or {}
    curve = ",".join(float_bits(v) for v in outcome.get("curve", ()))
    return f"{record['trial_id']}|{record.get('outcome_class')}|{curve}"


def entry_hash(entry: str) -> str:
    return hashlib.sha256(entry.encode("utf-8")).hexdigest()


def digest(entries) -> str:
    """sha256 over the sorted entries of one set of trials."""
    return hashlib.sha256("\n".join(sorted(entries)).encode("utf-8")
                          ).hexdigest()


def read_journal(path: str) -> list[dict]:
    """Every record of a JSONL journal (a torn final line is skipped, the
    way the runner itself replays journals)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if index != len(lines) - 1:
                raise
    return records


def load_golden(path: str = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_entries(records: list[dict], expected: dict[str, str]) -> list[str]:
    """Trial ids whose entry differs from *expected* (trial id -> entry
    hash), or that are missing from it, or that did not finish ``ok``."""
    bad = []
    for record in records:
        want = expected.get(record["trial_id"])
        if (record.get("status") != "ok" or want is None
                or entry_hash(trial_entry(record)) != want):
            bad.append(record["trial_id"])
    return bad
