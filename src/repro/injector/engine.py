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
   together with the later attempts on an offender's index.  The applied
   flips come back as one columnar :class:`~repro.injector.log.FlipSet`:
   the rounds keep the arrays they computed, and element-wise flips join
   them as rows, merged by attempt ordinal.

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
from .log import FLIP_ARRAYS, FlipSet


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
               engine: str = "vectorized") -> tuple[FlipSet, ApplyCounters]:
    """Execute *plan* against *store*, returning (flips, counters).

    The flips come back as one :class:`~repro.injector.log.FlipSet` in
    attempt order regardless of engine; fallback (read/modify/write) arrays
    are committed before returning.  Every accepted attempt either applies
    one flip or is retry-skipped, so the counters follow from the flips.
    """
    validate_engine(engine)
    with telemetry.span("inject.apply", engine=engine,
                        attempts=plan.attempts) as apply_span:
        apply = _apply_scalar if engine == "scalar" else _apply_vectorized
        parts = apply(plan, store, rng)
        store.finalize()
        flips = FlipSet.merge(
            [_record_template(target, plan.config) for target in plan.targets],
            parts)
        accepted = int(plan.accepts.sum())
        counters = ApplyCounters(
            successes=len(flips),
            skipped_probability=plan.attempts - accepted,
            skipped_retries=accepted - len(flips),
            nev_introduced=int(
                bitops.is_nan_or_inf_array(flips.new_value).sum()))
        if telemetry.enabled():
            touched = sum(flips.column("precision")) // 8
            telemetry.count("inject.bytes_touched", touched)
            apply_span.set(successes=counters.successes,
                           nev_introduced=counters.nev_introduced,
                           bytes_touched=touched)
            # per-flip provenance: which layer, which bit, what changed, as
            # one ``flips`` event of columns.  Emitted identically by both
            # engines (the flips are already in attempt order), after the
            # mutation — never on the apply path, so instrumented campaigns
            # stay bit-identical.
            telemetry.emit_flips(flips)
    return flips, counters


def _record_template(target: PlanTarget, config) -> tuple[dict, str | None]:
    """The record fields every flip on *target* shares, and the field each
    flip's own corruption parameter fills (``None`` when there is none)."""
    mode = config.corruption_mode
    shared = {"location": target.name, "kind": mode,
              "precision": target.precision, "bit_msb": None, "mask": None,
              "shift": None, "factor": None}
    if target.kind in ("i", "u"):
        shared.update(kind="integer", precision=target.dtype.itemsize * 8)
    elif mode == "bit_range":
        return shared, "bit_msb"
    elif mode == "bit_mask":
        width = bitops.mask_width(config.bit_mask)
        shared["mask"] = format(bitops.parse_mask(config.bit_mask),
                                f"0{width}b")
        return shared, "shift"
    elif mode == "scaling_factor":
        shared["factor"] = config.scaling_factor
    elif mode == "stuck_at" and target.precision:
        shared.update(bit_msb=min(config.stuck_bit, target.precision - 1),
                      shift=config.stuck_value)
    return shared, None


def _rows_part(rows) -> tuple:
    """Element-wise flips (tuples in :data:`FLIP_ARRAYS` order, ``None``
    for an attempt that applied nothing) as arrays."""
    rows = [row for row in rows if row is not None]
    return tuple(np.array([row[k] for row in rows], dtype=dtype)
                 for k, (_, dtype) in enumerate(FLIP_ARRAYS))


def _apply_scalar(plan, store, rng):
    return [_rows_part(_apply_one(store, plan, i, rng)
                       for i in np.flatnonzero(plan.accepts).tolist())]


def _apply_vectorized(plan, store, rng):
    targets = plan.targets
    if plan.attempts == 0:
        return []
    acc = plan.accepts
    loc = plan.locations

    kinds = np.array([t.kind for t in targets])
    precs = np.array([t.precision or 0 for t in targets], dtype=np.int64)
    is_int = acc & np.isin(kinds[loc], ("i", "u"))
    is_float = acc & (kinds[loc] == "f") & (precs[loc] > 0)

    # Batch phase: per dataset, apply the float attempts in rounds of
    # unique flat indices; guard offenders go to the sequential queue.
    parts = []
    sequential: list[int] = np.flatnonzero(is_int).tolist()
    for t_idx in np.unique(loc[is_float]):
        part, diverted = _apply_rounds(
            plan, store, int(t_idx), np.flatnonzero(is_float & (loc == t_idx)))
        parts.append(part)
        sequential.extend(diverted)

    # Sequential phase, in global attempt order — the only consumer of
    # apply-stage RNG (integer widths, guard retries), so draw order
    # matches the scalar engine exactly.  Guard offenders re-evaluate
    # their (deterministic) first try against the value the earlier rounds
    # left and fail it again without consuming randomness; the later
    # attempts on their index follow them in order.
    telemetry.count("inject.sequential_fallback",
                    len(sequential) - int(is_int.sum()))
    access = _FlatAccess(store)
    parts.append(_rows_part(_apply_one(access, plan, i, rng)
                            for i in sorted(sequential)))
    return parts


# -- shared element-wise pieces ---------------------------------------------

def _draw_param(rng, config, precision: int) -> int:
    if config.corruption_mode == "bit_range":
        last = min(config.effective_last_bit, precision - 1)
        return int(rng.integers(config.first_bit, last + 1))
    if config.corruption_mode == "bit_mask":
        width = bitops.mask_width(config.bit_mask)
        return int(rng.integers(0, precision - width + 1))
    return -1


def _float_candidate(old, precision: int, config, param: int) -> np.floating:
    mode = config.corruption_mode
    if mode == "bit_range":
        return bitops.flip_bit(old, bitops.msb_to_lsb(param, precision),
                               precision)
    if mode == "bit_mask":
        return bitops.apply_xor_mask(old, bitops.parse_mask(config.bit_mask),
                                     param, precision)
    if mode == "scaling_factor":
        dtype = bitops.dtype_for_precision(precision)
        with np.errstate(over="ignore", invalid="ignore"):
            return (np.asarray(old, dtype=dtype)
                    * dtype.type(config.scaling_factor))[()]
    if mode == "stuck_at":
        bit_msb = min(config.stuck_bit, precision - 1)
        bit_lsb = bitops.msb_to_lsb(bit_msb, precision)
        bits = bitops.float_to_bits(old, precision)
        if config.stuck_value:
            bits |= 1 << bit_lsb
        else:
            bits &= ~(1 << bit_lsb)
        return bitops.bits_to_float(bits, precision)
    if mode == "zero_value":
        return bitops.dtype_for_precision(precision).type(0.0)
    raise CorruptionError(f"unknown corruption mode: {mode!r}")  # pragma: no cover


def _apply_one(store, plan, i: int, rng) -> tuple | None:
    """Apply attempt *i* through element reads and writes; its flip as a
    row in :data:`~repro.injector.log.FLIP_ARRAYS` order, or ``None`` when
    it applies nothing."""
    t_idx = int(plan.locations[i])
    target = plan.targets[t_idx]
    index = int(plan.indices[i])
    if target.kind in ("i", "u"):
        return _apply_integer(store, i, t_idx, target, index, rng)
    if target.kind != "f" or target.precision is None:
        return None
    return _apply_float(store, i, t_idx, target, index, int(plan.draws[i]),
                        rng, plan.config)


def _apply_float(store, i: int, t_idx: int, target: PlanTarget, index: int,
                 planned_param: int, rng, config) -> tuple | None:
    precision = target.precision
    old = store.read_element(t_idx, index)
    draw_free = config.corruption_mode in ("scaling_factor", "stuck_at",
                                           "zero_value")
    for attempt in range(1, config.max_retries + 1):
        if attempt > 1:
            telemetry.count("inject.guard_retries")
        param = planned_param if attempt == 1 else _draw_param(rng, config,
                                                               precision)
        new = _float_candidate(old, precision, config, param)
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
        return (i, t_idx, index, param, attempt,
                bitops.float_to_bits(old, precision),
                bitops.float_to_bits(new, precision), float(old), float(new))
    return None


def _apply_integer(store, i: int, t_idx: int, target: PlanTarget, index: int,
                   rng) -> tuple:
    old = int(store.read_element(t_idx, index))
    # flipping a low bit of a signed type's minimum (INT64_MIN, say)
    # leaves the type's range: the dataset keeps the flip's raw bits
    new = bitops.wrap_integer(bitops.flip_integer_bit(old, rng), target.dtype)
    store.write_element(t_idx, index, new)
    mask = (1 << 64) - 1
    return (i, t_idx, index, -1, 1, old & mask, new & mask, float(old),
            float(new))


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


def _apply_rounds(plan, store, t_idx: int,
                  ordinals: np.ndarray) -> tuple[tuple, list[int]]:
    """Apply one target's float attempts (*ordinals*) in array rounds.

    Round *r* holds every attempt that is the *r*-th, in attempt order, on
    its flat index: one gather, kernel and scatter over indices unique
    within the round, reading what the rounds before it wrote — the
    scalar engine's read-after-write chain.  A guard offender leaves the
    rounds, and so does every later attempt on its index; the returned
    ordinals run sequentially, where the offender's retry draws happen in
    global attempt order.  The applied flips come back as arrays in
    :data:`~repro.injector.log.FLIP_ARRAYS` order.
    """
    config = plan.config
    precision = plan.targets[t_idx].precision
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
        new = _batch_candidates(old, precision,
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
    members = np.concatenate(applied)
    done = ordinals[members]
    olds = np.concatenate(olds)
    news = np.concatenate(news)
    # a flip can leave a signaling NaN, which the cast quiets: a correct
    # value, but numpy flags it as an invalid operation
    with np.errstate(invalid="ignore"):
        values = olds.astype(np.float64), news.astype(np.float64)
    part = (done, np.full(len(done), t_idx), idx[members], plan.draws[done],
            np.ones(len(done), dtype=np.int64),
            bitops.float_to_bits_array(olds, precision),
            bitops.float_to_bits_array(news, precision), *values)
    return part, ordinals[diverted].tolist()


def _guard_violations(news: np.ndarray, config) -> np.ndarray:
    bad = np.zeros(news.shape, dtype=bool)
    if not config.allow_NaN_values:
        bad |= bitops.is_nan_or_inf_array(news)
    if config.extreme_guard is not None:
        bad |= bitops.is_extreme_array(news, config.extreme_guard)
    return bad
