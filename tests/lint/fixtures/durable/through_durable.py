"""Negative fixture: commits, locks and journal reads through
repro.durable (clean even under repro.atlas)."""

from repro import durable


def commit_catalog(payload, catalog_path):
    durable.write_json(catalog_path, payload)


def locked(path, work):
    with durable.Lease(path).acquire(timeout=60.0):
        return work()


def load_rows(journal_path):
    return durable.JsonlTail(journal_path).poll()
