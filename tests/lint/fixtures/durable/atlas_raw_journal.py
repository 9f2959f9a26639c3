"""Positive fixture (placed under repro.atlas): a journal read that
bypasses repro.durable.JsonlTail, so a torn final line parses as garbage
and the read cannot resume from a durable offset."""

import json


def load_rows(journal_path):
    with open(journal_path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]
