"""In-memory (runtime) fault injection into a live model.

PyTorchFI/TensorFI-style tools — the related work the paper positions
against — perturb weights *inside the running process*.  This module
provides that style of injection over :class:`repro.nn.Model`, driven by
the same :class:`~repro.injector.config.InjectorConfig` semantics and
producing the same :class:`~repro.injector.log.InjectionLog` records.

Its main purpose here is validation: with deterministic training, flipping
a set of bits in the live model at an epoch boundary must produce *exactly*
the same continuation as flipping the same bits in a checkpoint file and
restarting from it — the paper's claim that checkpoint alteration is a
faithful stand-in for runtime SDC in the data segment.  The
``runtime_equivalence`` experiment asserts this bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..nn.model import Model
from . import bitops
from .config import InjectorConfig
from .corrupter import CorruptionError, CorruptionResult
from .engine import ArrayStore, apply_plan, array_target, sample_plan, \
    validate_engine
from .log import InjectionLog


class ModelCorrupter:
    """Runtime injector over a live model's parameters and buffers.

    Locations are ``"<layer>/<key>"`` strings (e.g. ``"conv1/W"``); a bare
    layer name targets all of its arrays.  Only float arrays are corrupted
    (the integer path has no in-memory analogue worth modelling — optimizer
    counters live outside the model).  Campaigns run on the same
    plan/engine machinery as :class:`~repro.injector.corrupter
    .CheckpointCorrupter`, over :class:`~repro.injector.engine.ArrayStore`
    instead of an open file.
    """

    def __init__(self, config: InjectorConfig, engine: str = "vectorized"):
        self.config = config
        self.engine = validate_engine(engine)
        self.rng = np.random.default_rng(config.seed)

    # -- location handling -----------------------------------------------------
    def _arrays(self, model: Model) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for (layer, key), value in model.named_parameters().items():
            out[f"{layer}/{key}"] = value
        for (layer, key), value in model.named_state().items():
            out[f"{layer}/{key}"] = value
        return out

    def _expand(self, model: Model) -> dict[str, np.ndarray]:
        arrays = self._arrays(model)
        config = self.config
        if config.use_random_locations or not config.locations_to_corrupt:
            selected = arrays
        else:
            selected = {}
            for location in config.locations_to_corrupt:
                clean = location.strip("/")
                if clean in arrays:
                    selected[clean] = arrays[clean]
                    continue
                prefixed = {name: arr for name, arr in arrays.items()
                            if name.startswith(clean + "/")}
                if not prefixed:
                    raise CorruptionError(
                        f"location not found in model: {location!r}"
                    )
                selected.update(prefixed)
        selected = {
            name: arr for name, arr in selected.items()
            if arr.dtype.kind == "f" and arr.size > 0
        }
        if not selected:
            raise CorruptionError("no corruptible float arrays selected")
        return selected

    # -- campaign ----------------------------------------------------------------
    def corrupt_model(self, model: Model) -> CorruptionResult:
        """Run a campaign against *model*'s arrays, mutating them in place."""
        config = self.config
        arrays = self._expand(model)
        names = sorted(arrays)
        total = sum(arr.size for arr in arrays.values())
        from .corrupter import resolve_attempts
        attempts = resolve_attempts(config, total)

        targets = [array_target(name, arrays[name], config)
                   for name in names]
        plan = sample_plan(self.rng, config, targets, attempts)
        store = ArrayStore([arrays[name] for name in names])
        flips, counters = apply_plan(plan, store, self.rng,
                                     engine=self.engine)
        return CorruptionResult(
            log=InjectionLog(config=config.to_dict(), flips=flips),
            attempts=attempts, successes=counters.successes,
            skipped_probability=counters.skipped_probability,
            skipped_retries=counters.skipped_retries,
            nev_introduced=counters.nev_introduced, locations=names,
        )


def apply_log_to_model(model: Model, log: InjectionLog) -> int:
    """Replay an injection log's exact bits onto a live model.

    Records must carry model-style locations (``"<layer>/<key>"``) *or*
    checkpoint paths whose last two components identify the array — the
    helper strips known facade prefixes.  Returns the number of records
    applied.  Used to prove checkpoint-vs-runtime equivalence.
    """
    arrays: dict[str, np.ndarray] = {}
    for (layer, key), value in model.named_parameters().items():
        arrays[f"{layer}/{key}"] = value
    for (layer, key), value in model.named_state().items():
        arrays[f"{layer}/{key}"] = value

    applied = 0
    for record in log:
        name = record.location.strip("/")
        if name not in arrays:
            # try the last two path components (strip facade prefixes)
            parts = name.split("/")
            name = "/".join(parts[-2:])
        if name not in arrays:
            continue
        array = arrays[name].reshape(-1)
        if record.flat_index >= array.size:
            continue
        new_bits = int(record.new_bits, 16)
        precision = bitops.precision_of_dtype(array.dtype)
        array[record.flat_index] = bitops.bits_to_float(new_bits, precision)
        applied += 1
    return applied
