"""Injection logs: the record that makes *equivalent injection* possible.

Every successful corruption is recorded as an :class:`InjectionRecord`.  A
log can be serialized to JSON, remapped to another framework's checkpoint
paths, and replayed — flipping the *same bits in the same order at the same
model location* even though the target file stores its weights differently
(paper §IV-C and §V-E).

A campaign applies its flips as arrays and hands the log a :class:`FlipSet`
of columns; the records are built from those columns only when a caller
reads them, so a trial that only needs the mutated checkpoint (a flip
campaign's) builds no per-flip object.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

LOG_FORMAT_VERSION = 1


@dataclass
class InjectionRecord:
    """One successful corruption event.

    ``bit_msb`` is the flipped bit in paper MSB order (0 = sign) for
    ``bit_range`` mode; for ``bit_mask`` mode ``mask``/``shift`` are set
    instead; for ``scaling_factor`` mode ``factor`` is set.  ``old``/``new``
    store the exact values as hex bit patterns plus a human-readable repr.
    """

    location: str
    flat_index: int
    kind: str  # "bit_range" | "bit_mask" | "scaling_factor" | "integer"
    precision: int
    bit_msb: int | None = None
    mask: str | None = None
    shift: int | None = None
    factor: float | None = None
    old_bits: str = ""
    new_bits: str = ""
    old_value: float = 0.0
    new_value: float = 0.0
    attempts: int = 1


#: :class:`FlipSet`'s per-flip arrays, in field order, with their dtypes.
FLIP_ARRAYS = (("ordinal", np.int64), ("target", np.int64),
               ("flat_index", np.int64), ("param", np.int64),
               ("attempts", np.int64), ("old_bits", np.uint64),
               ("new_bits", np.uint64), ("old_value", np.float64),
               ("new_value", np.float64))


@dataclass(eq=False)
class FlipSet:
    """Applied flips as columns, one entry per flip, in attempt order.

    ``ordinal`` is the flip's attempt in its plan.  ``target`` indexes
    ``templates``, one per plan target: the record fields every flip on that
    target shares (location, kind, precision and the mode's fixed
    parameters), and the name of the field the flip's own corruption
    parameter ``param`` fills (``bit_msb`` for ``bit_range``, ``shift`` for
    ``bit_mask``, else ``None``).  ``old_bits``/``new_bits`` hold the raw bit
    patterns.  :meth:`column` renders one record field for every flip and
    :meth:`records` the records themselves.
    """

    templates: list[tuple[dict, str | None]]
    ordinal: np.ndarray
    target: np.ndarray
    flat_index: np.ndarray
    param: np.ndarray
    attempts: np.ndarray
    old_bits: np.ndarray
    new_bits: np.ndarray
    old_value: np.ndarray
    new_value: np.ndarray

    @classmethod
    def merge(cls, templates: list[tuple[dict, str | None]],
              parts: list[tuple]) -> "FlipSet":
        """One set from *parts* (tuples of arrays in :data:`FLIP_ARRAYS`
        order, each sorted or not), ordered by ``ordinal``."""
        columns = [np.concatenate([part[k] for part in parts]
                                  or [np.zeros(0, dtype)], dtype=dtype)
                   for k, (_, dtype) in enumerate(FLIP_ARRAYS)]
        order = np.argsort(columns[0], kind="stable")
        return cls(templates, *(column[order] for column in columns))

    def __len__(self) -> int:
        return len(self.ordinal)

    def column(self, name: str) -> list:
        """Record field *name* of every flip, as :meth:`records` holds it."""
        if name in ("flat_index", "attempts", "old_value", "new_value"):
            return getattr(self, name).tolist()
        if name in ("old_bits", "new_bits"):
            return ["%x" % bits for bits in getattr(self, name).tolist()]
        values = np.array([shared[name] for shared, _ in self.templates],
                          dtype=object)[self.target]
        own = np.array([field == name for _, field in self.templates],
                       dtype=bool)[self.target]
        if own.any():
            values[own] = self.param[own]
        return values.tolist()

    def records(self) -> list[InjectionRecord]:
        names = [spec.name for spec in fields(InjectionRecord)]
        return [InjectionRecord(*row)
                for row in zip(*(self.column(name) for name in names))]


class InjectionLog:
    """An ordered collection of injection records plus campaign metadata.

    A campaign's log holds its flips as a :class:`FlipSet` and builds the
    records when they are first read — :attr:`records`, iteration,
    :meth:`to_json`, :meth:`remap`, :meth:`summary`, replay — after which
    the record list is the log's content.  ``len()`` builds none.
    """

    def __init__(self, config: dict | None = None,
                 records: list[InjectionRecord] | None = None,
                 version: int = LOG_FORMAT_VERSION, *,
                 flips: FlipSet | None = None):
        self.config = {} if config is None else config
        self.version = version
        self._flips = flips
        self._records = (records if records is not None
                         else [] if flips is None else None)

    @property
    def flips(self) -> FlipSet | None:
        """The flips as columns while the log holds them: ``None`` once the
        records were built, or for a log made from records."""
        return self._flips

    @property
    def records(self) -> list[InjectionRecord]:
        if self._records is None:
            self._records = self._flips.records()
            self._flips = None
        return self._records

    def append(self, record: InjectionRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        if self._records is None:
            return len(self._flips)
        return len(self._records)

    def __iter__(self):
        return iter(self.records)

    def locations(self) -> list[str]:
        """Distinct corrupted locations, in first-seen order."""
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.location, None)
        return list(seen)

    # -- serialization -------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "config": self.config,
            "records": [asdict(record) for record in self.records],
        }
        return json.dumps(payload, indent=2)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def from_json(cls, text: str) -> "InjectionLog":
        payload = json.loads(text)
        version = payload.get("version", 0)
        if version != LOG_FORMAT_VERSION:
            raise ValueError(f"unsupported injection log version: {version}")
        records = [InjectionRecord(**entry) for entry in payload["records"]]
        return cls(config=payload.get("config", {}), records=records,
                   version=version)

    @classmethod
    def load(cls, path: str | Path) -> "InjectionLog":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # -- equivalent injection -------------------------------------------------
    def remap(self, location_map: dict[str, str]) -> "InjectionLog":
        """Return a new log with locations substituted via *location_map*.

        This is the paper's path-translation step: e.g. mapping Chainer's
        ``predictor/conv1_1`` onto TensorFlow's
        ``model_weights/block1_conv1``.  Locations absent from the map are
        kept unchanged.  Remapping uses longest-prefix matching so a whole
        layer group can be remapped with one entry.
        """
        prefixes = sorted(location_map, key=len, reverse=True)

        def translate(location: str) -> str:
            for prefix in prefixes:
                if location == prefix:
                    return location_map[prefix]
                if location.startswith(prefix.rstrip("/") + "/"):
                    suffix = location[len(prefix.rstrip("/")):]
                    return location_map[prefix].rstrip("/") + suffix
            return location

        remapped = [
            InjectionRecord(**{**asdict(record),
                               "location": translate(record.location)})
            for record in self.records
        ]
        return InjectionLog(config=dict(self.config), records=remapped,
                            version=self.version)

    def summary(self) -> dict:
        """Aggregate view: counts per location and per flipped bit position."""
        per_location: dict[str, int] = {}
        per_bit: dict[int, int] = {}
        for record in self.records:
            per_location[record.location] = (
                per_location.get(record.location, 0) + 1
            )
            if record.bit_msb is not None:
                per_bit[record.bit_msb] = per_bit.get(record.bit_msb, 0) + 1
        return {
            "total": len(self.records),
            "per_location": per_location,
            "per_bit_msb": dict(sorted(per_bit.items())),
        }
