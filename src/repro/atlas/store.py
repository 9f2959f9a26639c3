"""The atlas's columnar segment store.

Layout under one root directory::

    <root>/catalog.json            # per-source ingest progress, atomic
    <root>/segments/<h12>-<chunk:06d>.seg

One segment holds up to :data:`CHUNK_ROWS` trial rows of one journal
source, column-major: a single JSON header line (column spec, per-segment
string vocabularies, row count) followed by the raw little-endian column
bytes in :data:`COLUMNS` order.  ``numpy`` archives were rejected for the
job — zip containers embed timestamps — because the store's core contract
is **byte determinism**: a segment's name and content are pure functions
of ``(source key, chunk index, the journal lines in that chunk, the
joined telemetry)``.  Chunk boundaries fall at fixed row indices of the
source journal, so *how* the journal arrived (one append or fifty,
ingests interleaved anywhere, a ``kill -9`` between any two writes) never
changes the final bytes: re-running ingest converges on the identical
store, which :meth:`AtlasStore.fingerprint` makes checkable in one call.

Commits are :func:`repro.durable.atomic_write` calls, and the catalog is
only written *after* the segments it references, so a crash window leaves
at worst an orphaned-but-correct segment that the next ingest re-creates
bit-for-bit before completing the catalog.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from ..durable import atomic_write

#: Rows per full segment.  A boundary every CHUNK_ROWS journal rows is a
#: positional property of the source file, which is what makes segment
#: contents independent of ingest timing.
CHUNK_ROWS = 512

#: The atlas row schema: ``(column name, column kind)``.  ``str`` columns
#: are dictionary-encoded per segment (sorted vocab in the header, int32
#: codes in the body); ``i16``/``f64`` are raw little-endian scalars.
COLUMNS: tuple[tuple[str, str], ...] = (
    ("campaign", "str"),
    ("trial_id", "str"),
    ("model", "str"),
    ("framework", "str"),
    ("precision", "i16"),
    ("layer", "str"),
    ("bit", "i16"),
    ("mode", "str"),
    ("outcome", "str"),
    ("status", "str"),
    ("duration", "f64"),
)

#: Sentinels for integer dimensions: a trial whose flips disagree on the
#: value is MULTI; a trial with no provenance at all is UNKNOWN.
MULTI = -1
UNKNOWN = -2

_DTYPES = {"i16": "<i2", "f64": "<f8", "str": "<i4"}


def source_hash(source_key: str) -> str:
    """The 12-hex prefix naming every segment of one source."""
    return hashlib.sha1(source_key.encode("utf-8")).hexdigest()[:12]


def segment_name(source_key: str, chunk_index: int) -> str:
    return f"{source_hash(source_key)}-{chunk_index:06d}.seg"


def encode_segment(source_key: str, chunk_index: int,
                   rows: list[dict]) -> bytes:
    """Serialize *rows* deterministically (header line + column bytes)."""
    header: dict = {
        "version": 1,
        "source": source_key,
        "chunk": chunk_index,
        "rows": len(rows),
        "columns": [],
    }
    bodies: list[bytes] = []
    for name, kind in COLUMNS:
        spec: dict = {"name": name, "kind": kind}
        if kind == "str":
            values = [str(row[name]) for row in rows]
            vocab = sorted(set(values))
            codes = {value: index for index, value in enumerate(vocab)}
            spec["vocab"] = vocab
            body = np.asarray([codes[v] for v in values],
                              dtype=_DTYPES[kind]).tobytes()
        else:
            dtype = _DTYPES[kind]
            cast = float if kind == "f64" else int
            body = np.asarray([cast(row[name]) for row in rows],
                              dtype=dtype).tobytes()
        header["columns"].append(spec)
        bodies.append(body)
    head = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return head + b"\n" + b"".join(bodies)


def decode_segment(data: bytes) -> dict[str, list | np.ndarray]:
    """The inverse of :func:`encode_segment`: ``{column: values}``."""
    newline = data.index(b"\n")
    header = json.loads(data[:newline].decode("utf-8"))
    cursor = newline + 1
    rows = int(header["rows"])
    out: dict[str, list | np.ndarray] = {}
    for spec in header["columns"]:
        dtype = np.dtype(_DTYPES[spec["kind"]])
        size = rows * dtype.itemsize
        values = np.frombuffer(data[cursor:cursor + size], dtype=dtype)
        cursor += size
        if spec["kind"] == "str":
            vocab = spec["vocab"]
            out[spec["name"]] = [vocab[code] for code in values]
        else:
            out[spec["name"]] = values
    return out


class AtlasStore:
    """The on-disk atlas: deterministic segments plus a progress catalog."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(self.segments_dir, exist_ok=True)

    @property
    def segments_dir(self) -> str:
        return os.path.join(self.root, "segments")

    @property
    def catalog_path(self) -> str:
        return os.path.join(self.root, "catalog.json")

    # -- catalog -----------------------------------------------------------

    def catalog(self) -> dict:
        try:
            with open(self.catalog_path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return {"version": 1, "sources": {}}

    def write_catalog(self, catalog: dict) -> None:
        atomic_write(self.catalog_path,
                     json.dumps(catalog, sort_keys=True,
                                indent=2).encode("utf-8") + b"\n")

    # -- segments ----------------------------------------------------------

    def clean_tmp(self) -> int:
        """Remove stray ``*.tmp`` files a killed commit left behind."""
        removed = 0
        for name in os.listdir(self.segments_dir):
            if name.endswith(".tmp"):
                try:
                    os.unlink(os.path.join(self.segments_dir, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    def commit_segment(self, source_key: str, chunk_index: int,
                       rows: list[dict]) -> str:
        """Atomically (re)write one segment; returns its file name.

        Idempotent by construction: the same inputs always produce the
        same bytes under the same name, so replaying a commit — the
        kill-9 recovery path — is a no-op at the byte level.
        """
        name = segment_name(source_key, chunk_index)
        atomic_write(os.path.join(self.segments_dir, name),
                     encode_segment(source_key, chunk_index, rows))
        return name

    def segment_bytes(self, name: str) -> bytes:
        with open(os.path.join(self.segments_dir, name), "rb") as handle:
            return handle.read()

    # -- reads -------------------------------------------------------------

    def ordered_segments(self) -> list[str]:
        """Catalog-ordered segment names (sources sorted by key)."""
        catalog = self.catalog()
        names: list[str] = []
        for key in sorted(catalog.get("sources", {})):
            names.extend(catalog["sources"][key].get("segments", []))
        return names

    def load(self) -> dict[str, list | np.ndarray]:
        """Every column concatenated across segments, catalog order."""
        parts: dict[str, list] = {name: [] for name, _ in COLUMNS}
        for segment in self.ordered_segments():
            decoded = decode_segment(self.segment_bytes(segment))
            for name, _ in COLUMNS:
                parts[name].append(decoded[name])
        out: dict[str, list | np.ndarray] = {}
        for name, kind in COLUMNS:
            if kind == "str":
                out[name] = [v for chunk in parts[name] for v in chunk]
            elif parts[name]:
                out[name] = np.concatenate(parts[name])
            else:
                out[name] = np.asarray([], dtype=_DTYPES[kind])
        return out

    def row_count(self) -> int:
        catalog = self.catalog()
        return sum(entry.get("rows", 0)
                   for entry in catalog.get("sources", {}).values())

    def fingerprint(self) -> str:
        """One hash over the whole store (catalog + every segment byte) —
        the byte-identity oracle the determinism tests assert on."""
        digest = hashlib.sha1()
        catalog = self.catalog()
        digest.update(json.dumps(catalog, sort_keys=True,
                                 separators=(",", ":")).encode("utf-8"))
        for name in self.ordered_segments():
            digest.update(name.encode("utf-8"))
            digest.update(self.segment_bytes(name))
        return digest.hexdigest()
