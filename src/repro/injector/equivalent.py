"""Equivalent injection (paper §IV-C): replay a recorded bit-flip sequence
on another framework's checkpoint.

Frameworks store the same model's weights in different layouts, so replaying
the *flat index* of each flip is meaningless across frameworks.  What *is*
preserved — and what the paper replays — is the sequence of (location,
bit position) pairs: the same number of corruptions, in the same order, with
the same flipped bits, applied inside the equivalent layer.  Element indices
are redrawn at the target (set ``reuse_indices=True`` to keep them when the
layouts do match, e.g. replaying onto a copy of the same checkpoint).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import hdf5
from . import bitops
from .corrupter import CorruptionError
from .engine import validate_engine
from .log import InjectionLog, InjectionRecord


@dataclass
class ReplayConfig:
    """Settings for :func:`replay_log` (the seed/map kwargs, unified).

    Attributes
    ----------
    location_map:
        Optional path translation (source framework path -> target framework
        path); applied with longest-prefix matching before replay.
    reuse_indices:
        Replay at the recorded flat indices instead of redrawing random ones.
        Requires the recorded index to be in range at the target.
    seed:
        RNG seed for index redraws.
    """

    location_map: dict[str, str] | None = None
    reuse_indices: bool = False
    seed: int | None = None

    def replace(self, **overrides) -> "ReplayConfig":
        """A copy with *overrides* applied; unknown names raise TypeError."""
        fields = self.__dataclass_fields__  # type: ignore[attr-defined]
        unknown = sorted(set(overrides) - set(fields))
        if unknown:
            raise TypeError(
                f"unknown ReplayConfig field(s): {', '.join(unknown)}; "
                f"valid fields are {', '.join(sorted(fields))}"
            )
        payload = {name: getattr(self, name) for name in fields}
        payload.update(overrides)
        return type(self)(**payload)


@dataclass
class ReplayResult:
    """Outcome of replaying an injection log on a target checkpoint."""

    log: InjectionLog
    replayed: int = 0
    skipped: int = 0
    nev_introduced: int = 0
    skipped_records: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-safe summary counters (the result protocol)."""
        return {
            "replayed": self.replayed,
            "skipped": self.skipped,
            "nev_introduced": self.nev_introduced,
        }

    def summary(self) -> str:
        """One human-readable line (the result protocol)."""
        return (
            f"{self.replayed} records replayed, {self.skipped} skipped, "
            f"{self.nev_introduced} N-EVs"
        )


class _ElementAccess:
    """Per-dataset element I/O for replay, selected by engine.

    The scalar engine reads and writes elements through the byte-addressed
    ``read_flat``/``write_flat`` path.  The vectorized engine caches one
    flat array per dataset — a ``Dataset.view()`` alias where storage is
    contiguous, a read/modify/write copy (committed by :meth:`finalize`)
    where it is chunked-but-writable — so an N-record replay costs O(1)
    array operations per dataset instead of N byte-range file operations.
    Both paths compute identical values in identical order.
    """

    def __init__(self, engine: str):
        self._vectorized = engine == "vectorized"
        self._flats: dict[str, np.ndarray] = {}
        self._dirty: dict[str, hdf5.Dataset] = {}

    def _flat(self, dataset: hdf5.Dataset) -> np.ndarray | None:
        if dataset.name in self._flats:
            return self._flats[dataset.name]
        view = dataset.view()
        if view is not None and view.flags.writeable:
            flat = view.reshape(-1)
        elif dataset.supports_inplace_writes:
            flat = dataset.read().reshape(-1)
            self._dirty[dataset.name] = dataset
        else:
            return None  # compressed chunks: keep per-element semantics
        self._flats[dataset.name] = flat
        return flat

    def read(self, dataset: hdf5.Dataset, index: int):
        if self._vectorized:
            flat = self._flat(dataset)
            if flat is not None:
                return flat[index]
        return dataset.read_flat(index)

    def write(self, dataset: hdf5.Dataset, index: int, value) -> None:
        if self._vectorized:
            flat = self._flat(dataset)
            if flat is not None:
                flat[index] = value
                return
        dataset.write_flat(index, value)

    def finalize(self) -> None:
        for name, dataset in self._dirty.items():
            dataset.write(self._flats[name].reshape(dataset.shape))
        self._dirty.clear()


def replay_log(
    target_path: str,
    log: InjectionLog,
    location_map: dict[str, str] | None = None,
    reuse_indices: bool = False,
    seed: int | None = None,
    config: ReplayConfig | None = None,
    engine: str = "vectorized",
) -> ReplayResult:
    """Replay *log* onto the checkpoint at *target_path*.

    Settings live in a :class:`ReplayConfig` (pass ``config=``); the
    individual ``location_map``/``reuse_indices``/``seed`` keywords build
    one when ``config`` is omitted.  A config *plus* non-default keywords
    raises ``TypeError``: use ``config.replace(...)`` instead.
    ``engine`` selects the apply path exactly as in
    :class:`~repro.injector.corrupter.CheckpointCorrupter`.
    """
    if isinstance(location_map, ReplayConfig):
        raise TypeError(
            "pass ReplayConfig via the config= keyword; the third "
            "positional argument is the legacy location_map"
        )
    legacy = {}
    if location_map is not None:
        legacy["location_map"] = location_map
    if reuse_indices:
        legacy["reuse_indices"] = reuse_indices
    if seed is not None:
        legacy["seed"] = seed
    if config is None:
        config = ReplayConfig(**legacy)
    elif legacy:
        raise TypeError(
            "replay_log() takes config= or the location_map/reuse_indices/"
            f"seed keywords, not both (got {', '.join(sorted(legacy))}); "
            "use config.replace(...) instead")
    validate_engine(engine)

    if config.location_map:
        log = log.remap(config.location_map)
    rng = np.random.default_rng(config.seed)
    out_log = InjectionLog(config={"replayed_from": dict(log.config)})
    result = ReplayResult(log=out_log)
    access = _ElementAccess(engine)
    with hdf5.File(target_path, "r+") as handle:
        for record in log:
            dataset = _resolve_target(handle, record.location, rng)
            if dataset is None:
                result.skipped += 1
                result.skipped_records.append(
                    f"missing location: {record.location}"
                )
                continue
            if dataset.size == 0:
                result.skipped += 1
                result.skipped_records.append(
                    f"not a corruptible dataset: {record.location}"
                )
                continue
            new_record = _replay_one(dataset, record, rng,
                                     config.reuse_indices, access)
            if new_record is None:
                result.skipped += 1
                result.skipped_records.append(
                    f"not replayable here: {record.location} ({record.kind})"
                )
                continue
            result.replayed += 1
            if bitops.is_nan_or_inf(new_record.new_value):
                result.nev_introduced += 1
            out_log.append(new_record)
        access.finalize()
    return result


def _resolve_target(
    handle: hdf5.File, location: str, rng: np.random.Generator
) -> hdf5.Dataset | None:
    """Resolve a (possibly remapped) record location to a target dataset.

    Frameworks name the datasets inside a layer group differently (Chainer's
    ``W`` vs PyTorch's ``weight`` vs Keras's ``kernel:0``), so a remapped
    path's leaf may not exist at the target.  Resolution order:

    1. the exact path, when it is a dataset;
    2. the exact path, when it is a group: a random float dataset inside it;
    3. the parent group of the path: a random float dataset inside it.

    This mirrors the paper's semantics — the replayed flips land *somewhere
    in the equivalent model location*, not at a bitwise-identical address.
    """
    def pick_from(group: hdf5.Group) -> hdf5.Dataset | None:
        floats = [d for d in group.datasets() if d.dtype.kind == "f"]
        if not floats:
            return None
        return floats[int(rng.integers(0, len(floats)))]

    try:
        obj = handle[location]
    except KeyError:
        obj = None
    if isinstance(obj, hdf5.Dataset):
        return obj
    if isinstance(obj, hdf5.Group):
        return pick_from(obj)
    parent = location.rstrip("/").rsplit("/", 1)[0]
    if parent:
        try:
            parent_obj = handle[parent]
        except KeyError:
            return None
        if isinstance(parent_obj, hdf5.Group):
            return pick_from(parent_obj)
    return None


def _replay_one(
    dataset: hdf5.Dataset,
    record: InjectionRecord,
    rng: np.random.Generator,
    reuse_indices: bool,
    access: _ElementAccess,
) -> InjectionRecord | None:
    if dataset.dtype.kind != "f":
        return None
    precision = bitops.precision_of_dtype(dataset.dtype)
    if reuse_indices:
        if record.flat_index >= dataset.size:
            return None
        index = record.flat_index
    else:
        index = int(rng.integers(0, dataset.size))
    old = access.read(dataset, index)

    if record.kind == "bit_range":
        if record.bit_msb is None or record.bit_msb >= precision:
            return None
        bit_lsb = bitops.msb_to_lsb(record.bit_msb, precision)
        new = bitops.flip_bit(old, bit_lsb, precision)
        replayed = InjectionRecord(
            location=dataset.name, flat_index=index, kind="bit_range",
            precision=precision, bit_msb=record.bit_msb,
        )
    elif record.kind == "bit_mask":
        if record.mask is None or record.shift is None:
            return None
        mask = bitops.parse_mask(record.mask)
        if mask.bit_length() + record.shift > precision:
            return None
        new = bitops.apply_xor_mask(old, mask, record.shift, precision)
        replayed = InjectionRecord(
            location=dataset.name, flat_index=index, kind="bit_mask",
            precision=precision, mask=record.mask, shift=record.shift,
        )
    elif record.kind == "scaling_factor":
        if record.factor is None:
            return None
        dtype = bitops.dtype_for_precision(precision)
        with np.errstate(over="ignore", invalid="ignore"):
            new = (np.asarray(old, dtype=dtype) * dtype.type(record.factor))[()]
        replayed = InjectionRecord(
            location=dataset.name, flat_index=index, kind="scaling_factor",
            precision=precision, factor=record.factor,
        )
    elif record.kind == "stuck_at":
        if record.bit_msb is None or record.bit_msb >= precision:
            return None
        bit_lsb = bitops.msb_to_lsb(record.bit_msb, precision)
        bits = bitops.float_to_bits(old, precision)
        if record.shift:  # shift field doubles as stuck_value for this kind
            bits |= 1 << bit_lsb
        else:
            bits &= ~(1 << bit_lsb)
        new = bitops.bits_to_float(bits, precision)
        replayed = InjectionRecord(
            location=dataset.name, flat_index=index, kind="stuck_at",
            precision=precision, bit_msb=record.bit_msb, shift=record.shift,
        )
    elif record.kind == "zero_value":
        dtype = bitops.dtype_for_precision(precision)
        new = dtype.type(0.0)
        replayed = InjectionRecord(
            location=dataset.name, flat_index=index, kind="zero_value",
            precision=precision,
        )
    else:
        return None

    access.write(dataset, index, new)
    replayed.old_bits = format(bitops.float_to_bits(old, precision), "x")
    replayed.new_bits = format(bitops.float_to_bits(new, precision), "x")
    replayed.old_value = float(old)
    replayed.new_value = float(new)
    return replayed


def build_location_map(
    source_layers: dict[str, str], target_layers: dict[str, str]
) -> dict[str, str]:
    """Derive a replay location map from two frameworks' layer-path tables.

    Both inputs map *canonical layer names* (e.g. ``"conv1"``) to that
    framework's HDF5 path prefix.  The result maps source paths to target
    paths for every layer present in both.
    """
    mapping: dict[str, str] = {}
    for layer, source_path in source_layers.items():
        target_path = target_layers.get(layer)
        if target_path is not None:
            mapping[source_path] = target_path
    if not mapping:
        raise CorruptionError("no common layers between the two frameworks")
    return mapping
