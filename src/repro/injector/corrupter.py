"""The HDF5 checkpoint file corrupter (paper §IV-B).

The corrupter opens a checkpoint in ``r+`` mode and performs *injection
attempts*: each attempt picks a random location (HDF5 dataset), a random
element inside it, and — with ``injection_probability`` — corrupts that
element according to ``corruption_mode``.  All successful corruptions are
recorded in an :class:`~repro.injector.log.InjectionLog`, which can later be
replayed on another framework's checkpoint (*equivalent injection*).

Campaigns run on the batched injection engine
(:mod:`repro.injector.engine`): the attempt tuples are pre-sampled into an
:class:`~repro.injector.engine.InjectionPlan` and applied either in
vectorized batches over ``Dataset.view()`` arrays (``engine="vectorized"``,
the default) or element by element through the byte-addressed path
(``engine="scalar"``, the reference implementation).  Both engines are
bit-identical for any seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .. import hdf5, telemetry
from . import bitops  # noqa: F401  (re-exported convenience)
from .config import InjectorConfig
from .engine import (
    CorruptionError,
    DatasetStore,
    apply_plan,
    dataset_target,
    sample_plan,
    validate_engine,
)
from .log import InjectionLog

__all__ = [
    "CheckpointCorrupter",
    "CorruptionError",
    "CorruptionResult",
    "corrupt_checkpoint",
    "count_entries",
    "expand_locations",
    "resolve_attempts",
]


@dataclass
class CorruptionResult:
    """Outcome of one corruption campaign."""

    log: InjectionLog
    attempts: int = 0
    successes: int = 0
    skipped_probability: int = 0
    skipped_retries: int = 0
    nev_introduced: int = 0
    locations: list[str] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        return self.successes / self.attempts if self.attempts else 0.0

    def to_dict(self) -> dict:
        """JSON-safe summary counters (the result protocol)."""
        return {
            "attempts": self.attempts,
            "successes": self.successes,
            "skipped_probability": self.skipped_probability,
            "skipped_retries": self.skipped_retries,
            "nev_introduced": self.nev_introduced,
            "locations": len(self.locations),
            "success_rate": round(self.success_rate, 4),
        }

    def summary(self) -> str:
        """One human-readable line (the result protocol)."""
        return (
            f"{self.successes}/{self.attempts} attempts corrupted over "
            f"{len(self.locations)} locations "
            f"({self.skipped_probability} probability-skipped, "
            f"{self.skipped_retries} retry-skipped, "
            f"{self.nev_introduced} N-EVs)"
        )


def expand_locations(
    handle: hdf5.File | hdf5.Group, locations: list[str] | None = None
) -> list[str]:
    """Resolve configured locations into concrete dataset paths.

    ``None`` (or empty) means *every* dataset in the file.  A location naming
    a group expands to every dataset below it ("all sublocations inside a
    location will be corrupted", Table I).  A dataset reachable through
    several configured locations (e.g. a group *and* one of its children)
    is listed once, at its first appearance — duplicates would silently
    skew the uniform location draw toward it.
    """
    return [dataset.name for dataset in _expand_datasets(handle, locations)]


def _expand_datasets(handle: hdf5.File | hdf5.Group,
                     locations: list[str] | None) -> list[hdf5.Dataset]:
    """:func:`expand_locations` as dataset handles, each resolved once."""
    if not locations:
        return handle.datasets()
    expanded: dict[str, hdf5.Dataset] = {}
    for location in locations:
        try:
            obj = handle[location]
        except KeyError:
            raise CorruptionError(
                f"location not found in checkpoint: {location!r}"
            ) from None
        if isinstance(obj, hdf5.Dataset):
            expanded.setdefault(obj.name, obj)
        else:
            below = obj.datasets()
            if not below:
                raise CorruptionError(
                    f"location {location!r} contains no datasets"
                )
            for dataset in below:
                expanded.setdefault(dataset.name, dataset)
    return list(expanded.values())


def count_entries(handle: hdf5.File | hdf5.Group,
                  locations: list[str]) -> int:
    """Total corruptible entries over *locations* (product of dims each)."""
    total = 0
    for location in locations:
        dataset = handle[location]
        total += dataset.size
    return total


def resolve_attempts(config: InjectorConfig, total_entries: int) -> int:
    """Turn the ``injection_type``/``injection_attempts`` pair into a count."""
    if config.injection_type == "count":
        return int(config.injection_attempts)
    fraction = float(config.injection_attempts) / 100.0
    return int(math.ceil(total_entries * fraction))


class CheckpointCorrupter:
    """Drives a corruption campaign over one HDF5 checkpoint file."""

    def __init__(self, config: InjectorConfig, engine: str = "vectorized"):
        self.config = config
        self.engine = validate_engine(engine)
        self.rng = np.random.default_rng(config.seed)

    # -- public entry points ---------------------------------------------------
    def corrupt(self, path: str | None = None) -> CorruptionResult:
        """Open ``config.hdf5_file`` (or *path*) in ``r+`` and run a campaign."""
        target = path or self.config.hdf5_file
        if not target:
            raise CorruptionError("no hdf5_file configured")
        with hdf5.File(target, "r+") as handle:
            return self.corrupt_open_file(handle)

    def corrupt_open_file(self, handle: hdf5.File) -> CorruptionResult:
        """Run a campaign against an already-open writable file."""
        with telemetry.span("inject", engine=self.engine) as span:
            result = self._corrupt_open_file(handle)
            span.set(attempts=result.attempts, successes=result.successes,
                     nev_introduced=result.nev_introduced,
                     locations=len(result.locations))
            return result

    def _corrupt_open_file(self, handle: hdf5.File) -> CorruptionResult:
        config = self.config
        datasets = [
            dataset for dataset in _expand_datasets(
                handle, None if config.use_random_locations
                else config.locations_to_corrupt)
            if dataset.size > 0 and dataset.supports_inplace_writes
            and (config.target_slice is None
                 or (dataset.shape and config.target_slice < dataset.shape[0]))
        ]
        if not datasets:
            raise CorruptionError("no corruptible datasets in checkpoint")

        locations = [dataset.name for dataset in datasets]
        attempts = resolve_attempts(
            config, sum(dataset.size for dataset in datasets))
        targets = [dataset_target(dataset, config) for dataset in datasets]
        plan = sample_plan(self.rng, config, targets, attempts)
        flips, counters = apply_plan(plan, DatasetStore(datasets),
                                     self.rng, engine=self.engine)
        return CorruptionResult(
            log=InjectionLog(config=config.to_dict(), flips=flips),
            attempts=attempts, successes=counters.successes,
            skipped_probability=counters.skipped_probability,
            skipped_retries=counters.skipped_retries,
            nev_introduced=counters.nev_introduced, locations=locations,
        )


def corrupt_checkpoint(
    path: str, config: InjectorConfig | None = None,
    engine: str = "vectorized", **overrides
) -> CorruptionResult:
    """One-call convenience wrapper around :class:`CheckpointCorrupter`.

    Either build the configuration from ``**overrides`` (``config=None``),
    or pass a ready :class:`InjectorConfig`.  Mixing both — a config *plus*
    keyword overrides — is deprecated; call
    ``config.replace(**overrides)`` yourself instead.
    """
    if config is None:
        config = InjectorConfig(hdf5_file=path, **overrides)
    elif overrides:
        warnings.warn(
            "passing both config= and keyword overrides to "
            "corrupt_checkpoint() is deprecated; use "
            "config.replace(**overrides) instead",
            DeprecationWarning, stacklevel=2,
        )
        config = config.replace(hdf5_file=path, **overrides)
    return CheckpointCorrupter(config, engine=engine).corrupt(path)
