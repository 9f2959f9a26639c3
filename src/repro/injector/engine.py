"""The batched injection engine: plan sampling + scalar/vectorized apply.

A corruption campaign used to be one interleaved loop — draw a location,
draw an index, draw a probability, corrupt one element through a byte-range
file read/write.  This module splits that loop into two stages shared by
every injector front end (checkpoint files, live models):

1. **Planning** (:func:`sample_plan`): all of the campaign's (location,
   index, probability, corruption-parameter) tuples are pre-sampled from
   the campaign RNG in batched draws, producing an :class:`InjectionPlan`.
2. **Application** (:func:`apply_plan`): the plan is executed against an
   element store by one of two engines.  The ``"scalar"`` engine walks the
   plan attempt by attempt through per-element reads and writes — the
   reference implementation.  The ``"vectorized"`` engine groups attempts
   per dataset and applies them through array views of the storage
   (``hdf5.Dataset.view()`` / flattened model arrays) in rounds: round *r*
   takes each attempt that is the *r*-th on its flat index, so attempts
   sharing an index (read-after-write chains) apply in order with no
   index repeated within a round.  It falls back to the ordinal-ordered
   scalar path only where batching cannot be exact: integer flips
   (data-dependent draws) and NaN/extreme-guard offenders (retry draws),
   together with the later attempts on an offender's index.

Both engines consume apply-stage randomness in the same global attempt
order, so for any seed they produce **bit-identical** files, logs, and
counters; the property tests in ``tests/injector/test_engine_equivalence``
lock that in across every corruption mode, precision, and guard scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# numpy 2 imports numpy.ma on the first np.unique; importing it with this
# module pays that once, before a campaign forks, not in every trial child
import numpy.ma  # noqa: F401

from .. import telemetry
from . import bitops
from .config import InjectorConfig
from .log import InjectionRecord


class CorruptionError(RuntimeError):
    """Raised when a corruption campaign cannot proceed."""


#: Valid values for the ``engine=`` selector on the injector entry points.
ENGINES = ("scalar", "vectorized")


def validate_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


# ---------------------------------------------------------------------------
# plan targets
# ---------------------------------------------------------------------------

@dataclass
class PlanTarget:
    """One corruptible array as the planner sees it.

    ``span``/``base`` encode the drawable index range: a drawn raw index in
    ``[0, span)`` maps to flat element ``base + raw`` (``target_slice``
    confinement sets ``base`` to the slice origin and ``span`` to the
    leading-axis stride).  ``precision`` is the *effective* float width
    after ``precision_mismatch`` resolution, or ``None`` when the target is
    not corruptible as a float.
    """

    name: str
    size: int
    kind: str
    dtype: np.dtype
    precision: int | None
    span: int
    base: int
    strict_mismatch: str | None = None


def _resolve_precision(name: str, dtype: np.dtype,
                       config: InjectorConfig) -> tuple[int | None, str | None]:
    actual = bitops.precision_of_dtype(dtype)
    if actual == config.float_precision:
        return actual, None
    if config.precision_mismatch == "strict":
        return None, (
            f"dataset {name!r} is {actual}-bit but "
            f"float_precision={config.float_precision}"
        )
    if config.precision_mismatch == "skip":
        return None, None
    return actual, None  # adapt


def dataset_target(dataset, config: InjectorConfig) -> PlanTarget:
    """Build a :class:`PlanTarget` from an :class:`repro.hdf5.Dataset`."""
    shape = dataset.shape
    dtype = dataset.dtype
    precision = strict = None
    if dtype.kind == "f":
        precision, strict = _resolve_precision(dataset.name, dtype, config)
    if config.target_slice is None or not shape:
        span, base = dataset.size, 0
    else:
        stride = 1
        for dim in shape[1:]:
            stride *= dim
        span, base = stride, config.target_slice * stride
    return PlanTarget(name=dataset.name, size=dataset.size, kind=dtype.kind,
                      dtype=dtype, precision=precision, span=span, base=base,
                      strict_mismatch=strict)


def array_target(name: str, array: np.ndarray,
                 config: InjectorConfig) -> PlanTarget:
    """Build a :class:`PlanTarget` from an in-memory model array.

    Model arrays are addressed whole (``target_slice`` applies to
    checkpoint datasets only, matching the historical runtime injector).
    """
    dtype = array.dtype
    precision = strict = None
    if dtype.kind == "f":
        precision, strict = _resolve_precision(name, dtype, config)
    return PlanTarget(name=name, size=array.size, kind=dtype.kind,
                      dtype=dtype, precision=precision, span=array.size,
                      base=0, strict_mismatch=strict)


# ---------------------------------------------------------------------------
# plan sampling
# ---------------------------------------------------------------------------

@dataclass
class InjectionPlan:
    """A fully-sampled campaign: one row per injection attempt.

    ``draws`` holds the first-try corruption parameter (MSB-order bit for
    ``bit_range``, mask shift for ``bit_mask``) for accepted float
    attempts, and ``-1`` where no parameter draw applies.
    """

    config: InjectorConfig
    targets: list[PlanTarget]
    locations: np.ndarray
    indices: np.ndarray
    accepts: np.ndarray
    draws: np.ndarray

    @property
    def attempts(self) -> int:
        return len(self.locations)


def sample_plan(rng: np.random.Generator, config: InjectorConfig,
                targets: list[PlanTarget], attempts: int) -> InjectionPlan:
    """Pre-sample every attempt of a campaign in batched RNG draws.

    The canonical draw order is: locations, element indices, probability
    acceptances, then first-try corruption parameters over the accepted
    float attempts (in attempt order).  Batched draws are element-wise
    identical to the equivalent sequence of scalar draws from the same
    generator state, so the plan *is* the campaign's randomness — both
    apply engines consume it identically.
    """
    if not targets:
        raise CorruptionError("no corruptible targets")
    n = int(attempts)
    telemetry.count("inject.attempts", n)
    with telemetry.span("inject.plan", attempts=n, targets=len(targets)):
        locations = rng.integers(0, len(targets), size=n)
        if n:
            spans = np.array([t.span for t in targets], dtype=np.int64)
            bases = np.array([t.base for t in targets], dtype=np.int64)
            indices = bases[locations] + rng.integers(0, spans[locations])
            accepts = rng.random(n) < config.injection_probability
        else:
            indices = np.zeros(0, dtype=np.int64)
            accepts = np.zeros(0, dtype=bool)

        # strict precision mismatches abort the campaign before any mutation
        for t_idx in np.unique(locations[accepts]):
            message = targets[int(t_idx)].strict_mismatch
            if message:
                raise CorruptionError(message)

        draws = np.full(n, -1, dtype=np.int64)
        if n and config.corruption_mode in ("bit_range", "bit_mask"):
            precisions = np.array([t.precision or 0 for t in targets],
                                  dtype=np.int64)
            kind_f = np.array([t.kind == "f" for t in targets], dtype=bool)
            drawing = accepts & kind_f[locations] & (precisions[locations] > 0)
            if drawing.any():
                prec = precisions[locations[drawing]]
                if config.corruption_mode == "bit_range":
                    lasts = np.minimum(config.effective_last_bit, prec - 1)
                    draws[drawing] = rng.integers(config.first_bit, lasts + 1)
                else:
                    width = bitops.mask_width(config.bit_mask)
                    draws[drawing] = rng.integers(0, prec - width + 1)
        return InjectionPlan(config=config, targets=targets,
                             locations=locations, indices=indices,
                             accepts=accepts, draws=draws)


# ---------------------------------------------------------------------------
# element stores
# ---------------------------------------------------------------------------

class DatasetStore:
    """Element access over open HDF5 datasets.

    The scalar engine goes through ``read_flat``/``write_flat`` (the
    byte-addressed reference path).  The vectorized engine asks for
    :meth:`flat`: a writable array aliasing the dataset's storage via
    :meth:`~repro.hdf5.Dataset.view`, or — for chunked storage — a
    read/modify/write fallback copy committed by :meth:`finalize`.
    """

    def __init__(self, datasets):
        self._datasets = list(datasets)
        self._flats: dict[int, np.ndarray] = {}
        self._dirty: set[int] = set()

    def read_element(self, t_idx: int, index: int):
        return self._datasets[t_idx].read_flat(int(index))

    def write_element(self, t_idx: int, index: int, value) -> None:
        self._datasets[t_idx].write_flat(int(index), value)

    def flat(self, t_idx: int) -> np.ndarray:
        try:
            return self._flats[t_idx]
        except KeyError:
            pass
        dataset = self._datasets[t_idx]
        view = dataset.view()
        if view is not None and view.flags.writeable:
            flat = view.reshape(-1)
        else:
            flat = dataset.read().reshape(-1)
            self._dirty.add(t_idx)
        self._flats[t_idx] = flat
        return flat

    def finalize(self) -> None:
        for t_idx in sorted(self._dirty):
            dataset = self._datasets[t_idx]
            dataset.write(self._flats[t_idx].reshape(dataset.shape))
        self._dirty.clear()


class ArrayStore:
    """Element access over in-memory model arrays (runtime injection)."""

    def __init__(self, arrays):
        self._arrays = list(arrays)
        self._flats: dict[int, np.ndarray] = {}
        self._dirty: set[int] = set()

    def read_element(self, t_idx: int, index: int):
        return self.flat(t_idx)[int(index)]

    def write_element(self, t_idx: int, index: int, value) -> None:
        self.flat(t_idx)[int(index)] = value

    def flat(self, t_idx: int) -> np.ndarray:
        try:
            return self._flats[t_idx]
        except KeyError:
            pass
        array = self._arrays[t_idx]
        flat = array.reshape(-1)
        if not np.shares_memory(flat, array):  # non-contiguous: copy + commit
            self._dirty.add(t_idx)
        self._flats[t_idx] = flat
        return flat

    def finalize(self) -> None:
        for t_idx in sorted(self._dirty):
            array = self._arrays[t_idx]
            array[...] = self._flats[t_idx].reshape(array.shape)
        self._dirty.clear()


class _FlatAccess:
    """Adapter giving the sequential pass element access over store views,
    so its reads observe the batch scatters already applied there."""

    def __init__(self, store):
        self._store = store

    def read_element(self, t_idx: int, index: int):
        return self._store.flat(t_idx)[int(index)]

    def write_element(self, t_idx: int, index: int, value) -> None:
        self._store.flat(t_idx)[int(index)] = value


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

@dataclass
class ApplyCounters:
    """Per-campaign outcome tallies, identical across engines."""

    successes: int = 0
    skipped_probability: int = 0
    skipped_retries: int = 0
    nev_introduced: int = 0


def apply_plan(plan: InjectionPlan, store, rng: np.random.Generator,
               engine: str = "vectorized"
               ) -> tuple[list[InjectionRecord], ApplyCounters]:
    """Execute *plan* against *store*, returning (records, counters).

    Records come back in attempt order regardless of engine; fallback
    (read/modify/write) arrays are committed before returning.
    """
    validate_engine(engine)
    with telemetry.span("inject.apply", engine=engine,
                        attempts=plan.attempts) as apply_span:
        if engine == "scalar":
            records, counters = _apply_scalar(plan, store, rng)
        else:
            records, counters = _apply_vectorized(plan, store, rng)
        store.finalize()
        if telemetry.enabled():
            touched = sum(r.precision for r in records) // 8
            telemetry.count("inject.bytes_touched", touched)
            apply_span.set(successes=counters.successes,
                           nev_introduced=counters.nev_introduced,
                           bytes_touched=touched)
            # per-flip provenance: which layer, which bit, what changed, as
            # one ``flips`` event of columns.  Emitted identically by both
            # engines (records are already in attempt order), after the
            # mutation — never on the apply path, so instrumented campaigns
            # stay bit-identical.
            telemetry.emit_flips(records)
    return records, counters


def _apply_scalar(plan, store, rng):
    config = plan.config
    counters = ApplyCounters()
    records: list[InjectionRecord] = []
    for i in range(plan.attempts):
        if not plan.accepts[i]:
            counters.skipped_probability += 1
            continue
        t_idx = int(plan.locations[i])
        target = plan.targets[t_idx]
        index = int(plan.indices[i])
        if target.kind in ("i", "u"):
            records.append(_apply_integer(store, t_idx, target, index, rng))
            counters.successes += 1
            continue
        if target.kind != "f" or target.precision is None:
            counters.skipped_retries += 1
            continue
        record = _apply_float(store, t_idx, target, index,
                              int(plan.draws[i]), rng, config)
        if record is None:
            counters.skipped_retries += 1
            continue
        counters.successes += 1
        if bitops.is_nan_or_inf(record.new_value):
            counters.nev_introduced += 1
        records.append(record)
    return records, counters


def _apply_vectorized(plan, store, rng):
    config = plan.config
    targets = plan.targets
    n = plan.attempts
    counters = ApplyCounters()
    slots: list[InjectionRecord | None] = [None] * n
    if n == 0:
        return [], counters
    acc = plan.accepts
    loc = plan.locations
    counters.skipped_probability = int(n - acc.sum())

    kinds = np.array([t.kind for t in targets])
    precs = np.array([t.precision or 0 for t in targets], dtype=np.int64)
    is_int = acc & np.isin(kinds[loc], ("i", "u"))
    is_float = acc & (kinds[loc] == "f") & (precs[loc] > 0)
    counters.skipped_retries += int((acc & ~is_int & ~is_float).sum())

    # Batch phase: per dataset, apply the float attempts in rounds of
    # unique flat indices; guard offenders go to the sequential queue.
    sequential: list[int] = np.flatnonzero(is_int).tolist()
    for t_idx in np.unique(loc[is_float]):
        sequential.extend(_apply_rounds(
            plan, store, int(t_idx), np.flatnonzero(is_float & (loc == t_idx)),
            slots, counters))

    # Sequential phase, in global attempt order — the only consumer of
    # apply-stage RNG (integer widths, guard retries), so draw order
    # matches the scalar engine exactly.  Guard offenders re-evaluate
    # their (deterministic) first try against the value the earlier rounds
    # left and fail it again without consuming randomness; the later
    # attempts on their index follow them in order.
    telemetry.count("inject.sequential_fallback",
                    len(sequential) - int(is_int.sum()))
    access = _FlatAccess(store)
    for i in sorted(sequential):
        t_idx = int(loc[i])
        target = targets[t_idx]
        index = int(plan.indices[i])
        if target.kind in ("i", "u"):
            slots[i] = _apply_integer(access, t_idx, target, index, rng)
            counters.successes += 1
            continue
        record = _apply_float(access, t_idx, target, index,
                              int(plan.draws[i]), rng, config)
        if record is None:
            counters.skipped_retries += 1
            continue
        counters.successes += 1
        if bitops.is_nan_or_inf(record.new_value):
            counters.nev_introduced += 1
        slots[i] = record
    return [record for record in slots if record is not None], counters


# -- shared element-wise pieces ---------------------------------------------

def _draw_param(rng, config, precision: int) -> int:
    if config.corruption_mode == "bit_range":
        last = min(config.effective_last_bit, precision - 1)
        return int(rng.integers(config.first_bit, last + 1))
    if config.corruption_mode == "bit_mask":
        width = bitops.mask_width(config.bit_mask)
        return int(rng.integers(0, precision - width + 1))
    return -1


def _float_candidate(old, precision: int, config,
                     param: int) -> tuple[np.floating, InjectionRecord]:
    mode = config.corruption_mode
    if mode == "bit_range":
        bit_lsb = bitops.msb_to_lsb(param, precision)
        new = bitops.flip_bit(old, bit_lsb, precision)
        record = InjectionRecord(
            location="", flat_index=-1, kind="bit_range",
            precision=precision, bit_msb=param,
        )
    elif mode == "bit_mask":
        mask = bitops.parse_mask(config.bit_mask)
        width = bitops.mask_width(config.bit_mask)
        new = bitops.apply_xor_mask(old, mask, param, precision)
        record = InjectionRecord(
            location="", flat_index=-1, kind="bit_mask",
            precision=precision, mask=format(mask, f"0{width}b"),
            shift=param,
        )
    elif mode == "scaling_factor":
        dtype = bitops.dtype_for_precision(precision)
        with np.errstate(over="ignore", invalid="ignore"):
            new = (np.asarray(old, dtype=dtype)
                   * dtype.type(config.scaling_factor))[()]
        record = InjectionRecord(
            location="", flat_index=-1, kind="scaling_factor",
            precision=precision, factor=config.scaling_factor,
        )
    elif mode == "stuck_at":
        bit_msb = min(config.stuck_bit, precision - 1)
        bit_lsb = bitops.msb_to_lsb(bit_msb, precision)
        bits = bitops.float_to_bits(old, precision)
        if config.stuck_value:
            bits |= 1 << bit_lsb
        else:
            bits &= ~(1 << bit_lsb)
        new = bitops.bits_to_float(bits, precision)
        record = InjectionRecord(
            location="", flat_index=-1, kind="stuck_at",
            precision=precision, bit_msb=bit_msb,
            shift=config.stuck_value,
        )
    elif mode == "zero_value":
        dtype = bitops.dtype_for_precision(precision)
        new = dtype.type(0.0)
        record = InjectionRecord(
            location="", flat_index=-1, kind="zero_value",
            precision=precision,
        )
    else:  # pragma: no cover - config validation prevents this
        raise CorruptionError(f"unknown corruption mode: {mode!r}")
    record.old_bits = format(bitops.float_to_bits(old, precision), "x")
    record.new_bits = format(bitops.float_to_bits(new, precision), "x")
    record.old_value = float(old)
    record.new_value = float(new)
    return new, record


def _apply_float(store, t_idx: int, target: PlanTarget, index: int,
                 planned_param: int, rng, config) -> InjectionRecord | None:
    precision = target.precision
    old = store.read_element(t_idx, index)
    draw_free = config.corruption_mode in ("scaling_factor", "stuck_at",
                                           "zero_value")
    for attempt in range(1, config.max_retries + 1):
        if attempt > 1:
            telemetry.count("inject.guard_retries")
        param = planned_param if attempt == 1 else _draw_param(rng, config,
                                                               precision)
        new, record = _float_candidate(old, precision, config, param)
        if not config.allow_NaN_values and bitops.is_nan_or_inf(new):
            if draw_free:
                return None  # retrying recomputes the same value
            continue
        if (config.extreme_guard is not None
                and bitops.is_extreme(new, config.extreme_guard)):
            if draw_free:
                return None
            continue
        store.write_element(t_idx, index, new)
        record.location = target.name
        record.flat_index = index
        record.attempts = attempt
        return record
    return None


def _apply_integer(store, t_idx: int, target: PlanTarget, index: int,
                   rng) -> InjectionRecord:
    old = int(store.read_element(t_idx, index))
    new = bitops.flip_integer_bit(old, rng)
    info = np.iinfo(target.dtype)
    if not info.min <= new <= info.max:
        # The flipped value no longer fits the stored width; wrap the way
        # a store of the raw bits would.
        new = int(np.asarray(new).astype(target.dtype)[()])
    store.write_element(t_idx, index, new)
    return InjectionRecord(
        location=target.name, flat_index=index, kind="integer",
        precision=target.dtype.itemsize * 8,
        old_bits=format(old & ((1 << 64) - 1), "x"),
        new_bits=format(new & ((1 << 64) - 1), "x"),
        old_value=float(old), new_value=float(new),
    )


# -- batched pieces ----------------------------------------------------------

def _batch_candidates(olds: np.ndarray, precision: int, draws: np.ndarray,
                      config) -> np.ndarray:
    mode = config.corruption_mode
    if mode == "bit_range":
        return bitops.flip_bits_array(olds, precision - 1 - draws, precision)
    if mode == "bit_mask":
        mask = bitops.parse_mask(config.bit_mask)
        return bitops.apply_xor_mask_array(olds, mask, draws, precision)
    if mode == "scaling_factor":
        return bitops.scale_array(olds, config.scaling_factor, precision)
    if mode == "stuck_at":
        bit_msb = min(config.stuck_bit, precision - 1)
        return bitops.stuck_at_array(olds,
                                     bitops.msb_to_lsb(bit_msb, precision),
                                     config.stuck_value, precision)
    if mode == "zero_value":
        return bitops.zero_array(len(olds), precision)
    raise CorruptionError(f"unknown corruption mode: {mode!r}")  # pragma: no cover


def _apply_rounds(plan, store, t_idx: int, ordinals: np.ndarray, slots,
                  counters) -> list[int]:
    """Apply one target's float attempts (*ordinals*) in array rounds.

    Round *r* holds every attempt that is the *r*-th, in attempt order, on
    its flat index: one gather, kernel and scatter over indices unique
    within the round, reading what the rounds before it wrote — the
    scalar engine's read-after-write chain.  A guard offender leaves the
    rounds, and so does every later attempt on its index; the returned
    ordinals run sequentially, where the offender's retry draws happen in
    global attempt order.
    """
    config = plan.config
    target = plan.targets[t_idx]
    idx = plan.indices[ordinals]
    # each attempt's rank among the attempts on its index, in attempt
    # order: its position in a stable sort by index, minus its group's
    positions = np.arange(len(idx))
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    starts = np.r_[True, sorted_idx[1:] != sorted_idx[:-1]]
    ranks = np.empty_like(positions)
    ranks[order] = positions - np.maximum.accumulate(
        np.where(starts, positions, 0))
    by_round = np.argsort(ranks, kind="stable")
    bounds = np.cumsum(np.bincount(ranks))

    flat = store.flat(t_idx)
    diverted = np.zeros(len(idx), dtype=bool)
    applied, olds, news = [], [], []
    lo = 0
    for rank, hi in enumerate(bounds.tolist()):
        members = by_round[lo:hi]
        lo = hi
        if diverted.any():
            members = members[~diverted[members]]
        at = idx[members]
        old = flat[at]
        new = _batch_candidates(old, target.precision,
                                plan.draws[ordinals[members]], config)
        bad = _guard_violations(new, config)
        if bad.any():
            diverted |= np.isin(idx, at[bad]) & (ranks >= rank)
            keep = ~bad
            members, at, old, new = members[keep], at[keep], old[keep], \
                new[keep]
        flat[at] = new
        applied.append(members)
        olds.append(old)
        news.append(new)
    done = ordinals[np.concatenate(applied)]
    news = np.concatenate(news)
    counters.successes += len(done)
    counters.nev_introduced += int(bitops.is_nan_or_inf_array(news).sum())
    _fill_records(slots, done, plan, target, np.concatenate(olds), news)
    return ordinals[diverted].tolist()


def _guard_violations(news: np.ndarray, config) -> np.ndarray:
    bad = np.zeros(news.shape, dtype=bool)
    if not config.allow_NaN_values:
        bad |= bitops.is_nan_or_inf_array(news)
    if config.extreme_guard is not None:
        bad |= bitops.is_extreme_array(news, config.extreme_guard)
    return bad


def _fill_records(slots, ordinals, plan, target, olds, news) -> None:
    """Batch-build the records for one target's accepted float attempts.

    Hot path: at 1k+ attempts, record construction rivals the array kernels
    in cost, so records are assembled from pre-listified columns and
    instantiated via ``__new__`` + ``__dict__`` rather than the dataclass
    ``__init__`` — same field values, a fraction of the per-record work.
    """
    config = plan.config
    precision = target.precision
    mode = config.corruption_mode
    old_bits = bitops.float_to_bits_array(olds, precision).tolist()
    new_bits = bitops.float_to_bits_array(news, precision).tolist()
    old_values = np.asarray(olds, dtype=np.float64).tolist()
    new_values = np.asarray(news, dtype=np.float64).tolist()
    ordinal_arr = np.asarray(ordinals, dtype=np.int64)
    ordinal_list = ordinal_arr.tolist()
    flat_indices = plan.indices[ordinal_arr].tolist()

    base = {"location": target.name, "kind": mode, "precision": precision,
            "bit_msb": None, "mask": None, "shift": None, "factor": None,
            "attempts": 1}
    draw_key = None
    draw_list = None
    if mode == "bit_range":
        draw_key = "bit_msb"
        draw_list = plan.draws[ordinal_arr].tolist()
    elif mode == "bit_mask":
        mask = bitops.parse_mask(config.bit_mask)
        base["mask"] = format(mask, f"0{bitops.mask_width(config.bit_mask)}b")
        draw_key = "shift"
        draw_list = plan.draws[ordinal_arr].tolist()
    elif mode == "scaling_factor":
        base["factor"] = config.scaling_factor
    elif mode == "stuck_at":
        base["bit_msb"] = min(config.stuck_bit, precision - 1)
        base["shift"] = config.stuck_value

    new = InjectionRecord.__new__
    for j, i in enumerate(ordinal_list):
        record = new(InjectionRecord)
        fields = dict(base)
        fields["flat_index"] = flat_indices[j]
        fields["old_bits"] = "%x" % old_bits[j]
        fields["new_bits"] = "%x" % new_bits[j]
        fields["old_value"] = old_values[j]
        fields["new_value"] = new_values[j]
        if draw_key is not None:
            fields[draw_key] = draw_list[j]
        record.__dict__ = fields
        slots[i] = record
