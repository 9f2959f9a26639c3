"""Parameterized fault injector for HDF5 checkpoint files (paper §IV).

The injector corrupts a previously saved checkpoint *in place*; when training
resumes from the altered file, it continues "as if nothing happened" — which
is precisely how a silent data corruption manifests.  Because only the HDF5
file is touched, the injector is application- and framework-independent.

Quick use::

    from repro.injector import InjectorConfig, CheckpointCorrupter

    config = InjectorConfig(
        hdf5_file="ckpt_epoch20.h5",
        injection_type="count", injection_attempts=1000,
        corruption_mode="bit_range", first_bit=2, last_bit=63,  # skip exp MSB
        float_precision=64, seed=7,
    )
    result = CheckpointCorrupter(config).corrupt()
    result.log.save("flips.json")          # for equivalent injection later

    # derive variants without mutating the original config
    fp32 = config.replace(float_precision=32, last_bit=31)

Campaigns run on a two-stage engine (:mod:`repro.injector.engine`): every
attempt's (location, index, bit) tuple is pre-sampled into an
:class:`InjectionPlan`, then applied either in vectorized batches over
``hdf5.Dataset.view()`` arrays (``engine="vectorized"``, the default) or
element by element through the byte-addressed path (``engine="scalar"``,
the reference implementation).  Both engines are bit-identical for any
seed — same file bytes, same log — so the scalar path stays available as
an oracle::

    CheckpointCorrupter(config, engine="scalar").corrupt()

``CorruptionResult``, ``ReplayResult``, and the campaign statistics all
share one reporting protocol: ``to_dict()`` for JSON-safe counters and
``summary()`` for a one-line human rendering.
"""

from . import bitops
from .config import InjectorConfig
from .corrupter import (
    CheckpointCorrupter,
    CorruptionError,
    CorruptionResult,
    corrupt_checkpoint,
    count_entries,
    expand_locations,
    resolve_attempts,
)
from .engine import (
    ENGINES,
    InjectionPlan,
    PlanTarget,
    sample_plan,
)
from .equivalent import (
    ReplayConfig,
    ReplayResult,
    build_location_map,
    replay_log,
)
from .log import InjectionLog, InjectionRecord

__all__ = [
    "CheckpointCorrupter",
    "CorruptionError",
    "CorruptionResult",
    "ENGINES",
    "InjectionLog",
    "InjectionPlan",
    "InjectionRecord",
    "InjectorConfig",
    "PlanTarget",
    "ReplayConfig",
    "ReplayResult",
    "bitops",
    "build_location_map",
    "corrupt_checkpoint",
    "count_entries",
    "expand_locations",
    "replay_log",
    "resolve_attempts",
    "sample_plan",
]
