"""Positive fixture: a hand-rolled commit outside repro.durable.

The temp file is fsynced, yet the directory never is, and nothing proves
the sequence under crashes: only repro.durable may rename."""

import json
import os


def commit_catalog(payload, catalog_path):
    tmp = catalog_path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, catalog_path)
