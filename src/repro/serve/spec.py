"""The canonical campaign description: :class:`CampaignSpec`.

A campaign — thousands of independent corrupt-train-classify trials — used
to be described by each harness's private argparse/kwargs soup.  This
module makes the description itself a first-class, serializable object:
one ``CampaignSpec`` fully determines a campaign's *trial plan* (the exact
list of :class:`~repro.experiments.runner.TrialTask` payloads), so the
same JSON document drives

* the ``repro-experiments run`` CLI (which builds a spec from its flags),
* the harness ``run()`` entry points (which accept a spec directly), and
* ``POST /campaigns`` on the :mod:`repro.serve` front door.

Plans are *byte-identical* across those entry points by construction:
every path funnels through the one registered plan builder for the spec's
``kind``.  Trial payloads are pure functions of the spec, so a plan built
on the submitting host equals the plan a remote scheduler would build.

The class mirrors :class:`repro.injector.config.InjectorConfig`'s API
conventions: eager ``validate()`` on construction, a tolerant
``from_dict`` (foreign keys from future writers are dropped), a *strict*
``replace()`` (a typo'd override silently changing nothing is the worst
failure mode for an injection campaign), and a ``version`` field so old
journals and queued submissions stay loadable as the schema grows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.runner import TrialTask

#: Current on-the-wire schema version of :meth:`CampaignSpec.to_dict`.
SPEC_VERSION = 1

#: kind -> callable(spec, cache) -> list[TrialTask].  Harnesses register
#: their plan builder with :func:`plan_builder`; the builder must be a pure
#: function of (spec, cache) so CLI and HTTP submissions of the same spec
#: produce byte-identical plans.
PLAN_BUILDERS: dict[str, Callable] = {}


def plan_builder(kind: str) -> Callable:
    """Register the trial-plan builder for campaign *kind*."""

    def register(func: Callable) -> Callable:
        PLAN_BUILDERS[kind] = func
        return func

    return register


def ensure_builders() -> None:
    """Import every shipped harness so its plan builder is registered.

    Importing the experiment registry imports each harness module, and
    module import is what runs the :func:`plan_builder` decorators.  Kept
    lazy (not at module import) because the harnesses themselves import
    this module to register.
    """
    from ..experiments import registry  # noqa: F401  (import side effect)


def registered_kinds() -> list[str]:
    ensure_builders()
    return sorted(PLAN_BUILDERS)


def _is_int(value) -> bool:
    """An integer that is not a bool (``isinstance(True, int)`` holds)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class CampaignSpec:
    """Everything needed to (re)build one campaign's trial plan.

    Attributes
    ----------
    kind:
        The campaign family — an id with a registered plan builder
        (``fig3``, ``table5``, ``table6``, ...).
    scale:
        Experiment scale name (one of :data:`SCALES`).  Stored by name,
        not object, so specs serialize.
    seed:
        Master seed; per-trial injection seeds derive from it
        deterministically inside the plan builder.
    params:
        Kind-specific grid parameters (e.g. ``{"pairs": [...],
        "bitflips": [1, 10]}`` for fig3).  Must be a JSON document;
        builders fill in their defaults for missing keys.
    engine:
        Injector apply path for every trial (``scalar`` | ``vectorized``).
    batch_trials:
        Stacks up to that many same-group trials into one shared training
        pass (:mod:`repro.batched`); ``1`` trains each trial alone.
        ``None`` leaves the size to whatever runs the campaign: an
        in-process run stacks as many as fit memory, a pool or a serve
        shard runs chunks of one.
    health_probe / validate_checkpoints:
        Per-trial observability/validation flags, forwarded verbatim into
        trial payloads.
    retries / trial_timeout:
        Runner limits (see :func:`repro.experiments.runner.run_campaign`).
    priority:
        Scheduler weight: higher-priority campaigns are served first by
        :mod:`repro.serve.scheduler`; equal priorities share round-robin.
    max_trials:
        Optional cap truncating the built plan — a cheap way to smoke a
        big grid.
    version:
        Schema version of the serialized form (see :data:`SPEC_VERSION`).
    """

    kind: str
    scale: str = "tiny"
    seed: int = 42
    params: dict = field(default_factory=dict)
    engine: str = "vectorized"
    batch_trials: int | None = None
    health_probe: bool = False
    validate_checkpoints: bool = False
    retries: int = 1
    trial_timeout: float | None = None
    priority: int = 0
    max_trials: int | None = None
    version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        self.validate()

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        # local import: harness modules import this module to register
        # their plan builders, so a module-level experiments import here
        # would re-enter a partially-initialized package
        from ..experiments.common import SCALES

        if not self.kind or not isinstance(self.kind, str):
            raise ValueError("kind must be a non-empty string")
        if not isinstance(self.scale, str) or self.scale not in SCALES:
            raise ValueError(
                f"unknown scale {self.scale!r}; choose from {sorted(SCALES)}"
            )
        if not _is_int(self.seed):
            raise ValueError("seed must be an integer")
        if not isinstance(self.params, dict):
            raise ValueError("params must be a dict")
        try:
            json.dumps(self.params, allow_nan=False)
        except (TypeError, ValueError):
            raise ValueError("params must be a JSON document "
                             "(finite numbers, strings, lists, dicts)"
                             ) from None
        if self.engine not in ("scalar", "vectorized"):
            raise ValueError(f"bad engine: {self.engine!r}")
        if self.batch_trials is not None and (
                not _is_int(self.batch_trials) or self.batch_trials < 1):
            raise ValueError("batch_trials must be a positive integer "
                             "when set")
        for flag in ("health_probe", "validate_checkpoints"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"{flag} must be a boolean")
        if self.trial_timeout is not None and (
                isinstance(self.trial_timeout, bool)
                or not isinstance(self.trial_timeout, (int, float))
                or not self.trial_timeout > 0):
            raise ValueError("trial_timeout must be a positive number "
                             "when set")
        if not _is_int(self.retries) or self.retries < 0:
            raise ValueError("retries must be a non-negative integer")
        if not _is_int(self.priority):
            raise ValueError("priority must be an integer")
        if self.max_trials is not None and (
                not _is_int(self.max_trials) or self.max_trials < 1):
            raise ValueError("max_trials must be a positive integer when set")
        if not _is_int(self.version) or self.version < 1:
            raise ValueError("version must be a positive integer")
        if self.version > SPEC_VERSION:
            raise ValueError(
                f"spec version {self.version} is newer than this reader "
                f"understands (max {SPEC_VERSION})")

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "scale": self.scale,
            "seed": self.seed,
            "params": self.params,
            "engine": self.engine,
            "batch_trials": self.batch_trials,
            "health_probe": self.health_probe,
            "validate_checkpoints": self.validate_checkpoints,
            "retries": self.retries,
            "trial_timeout": self.trial_timeout,
            "priority": self.priority,
            "max_trials": self.max_trials,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        """Build from a dict, tolerating foreign keys.

        Unknown keys are dropped (submissions from future writers stay
        loadable); known keys are validated exactly as the constructor
        does.  An unsupported ``version`` raises ``ValueError``.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"campaign spec must be a JSON object, got "
                f"{type(payload).__name__}")
        known = {
            key: payload[key]
            for key in cls.__dataclass_fields__  # type: ignore[attr-defined]
            if key in payload
        }
        return cls(**known)

    def replace(self, **overrides) -> "CampaignSpec":
        """A copy with *overrides* applied, re-validated.

        Unlike :meth:`from_dict`, unknown override names raise
        ``TypeError`` — mirroring
        :meth:`repro.injector.config.InjectorConfig.replace`.
        """
        fields = self.__dataclass_fields__  # type: ignore[attr-defined]
        unknown = sorted(set(overrides) - set(fields))
        if unknown:
            raise TypeError(
                f"unknown CampaignSpec field(s): {', '.join(unknown)}; "
                f"valid fields are {', '.join(sorted(fields))}")
        payload = self.to_dict()
        payload.update(overrides)
        return type(self).from_dict(payload)

    def canonical_json(self) -> str:
        """The spec as deterministic JSON (sorted keys, no whitespace
        variance) — suitable for hashing or byte-wise comparison."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    # -- planning / execution ----------------------------------------------

    def runner_kwargs(self) -> dict:
        """The :func:`~repro.experiments.runner.run_campaign` kwargs this
        spec pins (everything except the execution-site knobs ``workers``,
        ``journal`` and ``resume``, which belong to where the campaign
        runs, not what it is)."""
        return {
            "trial_timeout": self.trial_timeout,
            "retries": self.retries,
            "batch_trials": self.batch_trials,
        }

    def build_tasks(self, cache=None) -> "list[TrialTask]":
        """The campaign's full trial plan, via the registered builder.

        Deterministic: the same spec (and baseline cache contents) always
        yields the same ordered task list with the same payloads — the
        property that makes CLI and HTTP submissions byte-identical and
        sharded execution resumable.
        """
        ensure_builders()
        try:
            builder = PLAN_BUILDERS[self.kind]
        except KeyError:
            raise ValueError(
                f"no plan builder registered for kind {self.kind!r}; "
                f"registered: {sorted(PLAN_BUILDERS)}") from None
        if cache is None:
            from ..experiments.common import DEFAULT_CACHE
            cache = DEFAULT_CACHE
        tasks = builder(self, cache)
        if self.max_trials is not None:
            tasks = tasks[: self.max_trials]
        return list(tasks)


def coerce_spec(spec) -> CampaignSpec:
    """*spec* itself, checked to be a :class:`CampaignSpec`.

    The spec object is the one canonical campaign description; a payload
    ``dict`` would skip its validation and versioning, so it is refused
    with a pointer to :meth:`CampaignSpec.from_dict`.
    """
    if isinstance(spec, CampaignSpec):
        return spec
    hint = ("; build one with CampaignSpec.from_dict(payload)"
            if isinstance(spec, dict) else "")
    raise TypeError(f"expected CampaignSpec, got {type(spec).__name__}{hint}")


def run_spec(spec, *, cache=None, workers: int = 1, journal=None,
             resume: bool = False):
    """Execute *spec*'s full plan through the ordinary campaign runner.

    The single-host counterpart of submitting the spec to a
    :mod:`repro.serve` scheduler: same plan, same journal records
    (bit-identical modulo runtime fields like duration/worker).
    """
    from ..experiments.runner import run_campaign

    spec = coerce_spec(spec)
    tasks = spec.build_tasks(cache)
    return run_campaign(tasks, workers=workers, journal=journal,
                        resume=resume, **spec.runner_kwargs())
