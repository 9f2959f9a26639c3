"""Figure 3 — Sensitivity to different bit-flip rates — and the flip trial.

Three framework/model pairs resume from the epoch-20 checkpoint with 1, 10,
100, or 1000 bit-flips injected (exponent MSB excluded, so nothing
collapses); each curve averages several trainings, plotted against the
error-free 100-epoch baseline.  Paper shape: no visible degradation at any
flip rate.

Fig 3, Table V (:mod:`.table5_single_bitflip`) and Table VI
(:mod:`.table6_multibit_masks`) all follow the paper's §V protocol: copy
the checkpoint, flip bits, resume, and compare against the error-free
restart.  Each is a :class:`FlipCampaign` declaration plus its trial grid
and its table; this module holds the protocol once.  Its one trial body,
:func:`run_flip_trials`, resumes a chunk of trials in one stacked training
pass (:mod:`repro.batched`) — bit-identical per trial to that trial's
:func:`~.common.resume_training`, a stack of one (the ``tests/batched``
oracle) — and a sequential trial is a chunk of one.  Trials run on the campaign engine
(:mod:`repro.experiments.runner`): journaled, resumable, parallel under
``workers`` and stacked under ``batch_trials`` (by default, in one
process, in chunks as large as memory allows).
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import hdf5, telemetry
from ..analysis import group_records, render_curves
from ..health import DEFAULT_TOLERANCE, classify_curve, last_finite
from ..injector import CheckpointCorrupter, InjectorConfig
from .common import (
    DEFAULT_CACHE,
    SAFE_FIRST_BIT,
    ExperimentResult,
    ExperimentScale,
    ResumeOutcome,
    SessionSpec,
    baseline_structure,
    corrupted_copy,
    get_scale,
    resume_training_batched,
    spec_from_payload,
    spec_group_key,
    spec_to_payload,
    stacked_trial_bytes,
    structural_findings_count,
    weights_root,
)
from .runner import TrialTask, batch_trial_kind, run_campaign, trial_kind

# submodule import (not the package) so registration works while
# repro.serve's own __init__ is still executing
from ..serve.spec import CampaignSpec, coerce_spec, plan_builder


# ---------------------------------------------------------------------------
# The flip campaign: one declaration per paper artifact, one trial body
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlipCampaign:
    """A paper artifact as a flip campaign over the §V protocol.

    ``injection`` maps a payload to the kind's injector fields (mode,
    attempts, bits).  A trial resumes ``resume_epochs(scale)`` epochs, is
    classified against ``payload[reference]`` at ``tolerance``, and
    journals ``result(outcome)``.  ``table`` renders a finished campaign
    from its ``ok`` records grouped by the payload ``cell``.  The trial
    grid is the kind's registered plan builder, which trains baselines up
    front so that trial payloads carry only paths and seeds.
    """

    kind: str
    injection: Callable[[dict], dict]
    resume_epochs: Callable[[ExperimentScale], int]
    reference: str
    result: Callable[[ResumeOutcome], dict]
    cell: tuple[str, ...]
    table: Callable[[CampaignSpec, dict, object], ExperimentResult]
    tolerance: float = DEFAULT_TOLERANCE


def make_spec(kind: str, scale="tiny", seed: int = 42,
              params: dict | None = None, **overrides) -> CampaignSpec:
    """The canonical :class:`CampaignSpec` of a flip campaign; *overrides*
    are spec fields (``engine``, ``batch_trials``, ``max_trials``, ...)."""
    return CampaignSpec(kind=kind, scale=get_scale(scale).name, seed=seed,
                        params=params or {}, **overrides)


def run_flip_trials(campaign: FlipCampaign,
                    payloads: list[dict]) -> list[dict]:
    """The flip trial body: one journal outcome per payload, in order.

    Each trial corrupts a private copy of its baseline checkpoint with the
    kind's injector recipe; all copies resume in one stacked training pass
    (the payloads share a spec, hence a baseline) and each is classified
    against its reference curve.  A copy differs from its baseline only in
    dataset payload bytes, so both its ``r+`` open and the resume load
    borrow the baseline's structure, parsed once per process."""
    spec = spec_from_payload(payloads[0]["spec"])
    with tempfile.TemporaryDirectory() as workdir:
        paths, findings = [], []
        for index, payload in enumerate(payloads):
            path = corrupted_copy(payload["checkpoint"], workdir,
                                  f"{campaign.kind}-{index}")
            config = InjectorConfig(
                hdf5_file=path, float_precision=32,
                locations_to_corrupt=[weights_root(spec.framework)],
                use_random_locations=False, seed=payload["injection_seed"],
                **campaign.injection(payload))
            corrupter = CheckpointCorrupter(
                config, engine=payload.get("engine", "vectorized"))
            # stamp the flip provenance events with the trial identity: a
            # chunk interleaves many trials' events in one process stream
            with telemetry.tag_scope(trial_id=payload.get("trial_id")), \
                    hdf5.File(path, "r+", template=baseline_structure(
                        payload["checkpoint"])) as handle:
                corrupter.corrupt_open_file(handle)
            paths.append(path)
            findings.append(structural_findings_count(path)
                            if payload.get("validate_checkpoints") else None)
        outcomes = resume_training_batched(
            spec, paths, epochs=campaign.resume_epochs(spec.scale),
            health_probe=any(p.get("health_probe") for p in payloads),
            trial_ids=[p.get("trial_id") for p in payloads],
            template=baseline_structure(payloads[0]["checkpoint"]))
    results = []
    for payload, outcome, found in zip(payloads, outcomes, findings):
        verdict = classify_curve(outcome.accuracy_curve,
                                 payload.get(campaign.reference),
                                 collapsed=outcome.collapsed,
                                 tolerance=campaign.tolerance)
        result = {**campaign.result(outcome),
                  "outcome_class": verdict.outcome}
        if found is not None:
            result["structural_findings"] = found
        results.append(result)
    return results


def cell_values(records: list[dict], summarize, width: int) -> list:
    """One table cell's values: *summarize* of its ``ok`` records, or
    *width* NaNs when it has none (every trial failed or timed out, or
    ``max_trials`` cut the cell from the plan)."""
    return summarize(records) if records else [float("nan")] * width


def run_flip_campaign(campaign: FlipCampaign, spec, *, cache=None,
                      workers: int = 1, journal=None,
                      resume: bool = False) -> ExperimentResult:
    """Run *spec*'s plan (``spec.build_tasks``, which applies
    ``max_trials``) and render its table from each cell's ``ok`` records."""
    spec = coerce_spec(spec)
    if spec.kind != campaign.kind:
        raise ValueError(
            f"a {spec.kind!r} spec cannot run as {campaign.kind!r}")
    cache = cache or DEFAULT_CACHE
    result = run_campaign(spec.build_tasks(cache), workers=workers,
                          journal=journal, resume=resume,
                          **spec.runner_kwargs())
    cells = group_records(
        [record for record in result.record_dicts()
         if record["status"] == "ok"], campaign.cell)
    artifact = campaign.table(spec, cells, cache)
    artifact.extra.update(campaign=result.stats.as_dict(),
                          spec=spec.to_dict())
    return artifact


# ---------------------------------------------------------------------------
# Fig 3
# ---------------------------------------------------------------------------

EXPERIMENT_ID = "fig3"
TITLE = "Fig 3: Accuracy vs epochs at different bit-flip rates"

DEFAULT_PAIRS = (
    ("chainer_like", "alexnet"),
    ("torch_like", "vgg16"),
    ("tf_like", "resnet50"),
)
DEFAULT_BITFLIPS = (1, 10, 100, 1000)


def build_tasks(scale, seed, pairs, bitflips, trainings, cache,
                engine: str = "vectorized", health_probe: bool = False,
                validate_checkpoints: bool = False) -> \
        tuple[list[TrialTask], dict[tuple[str, str], tuple]]:
    tasks: list[TrialTask] = []
    baselines: dict[tuple[str, str], tuple] = {}
    for framework, model in pairs:
        spec = SessionSpec(framework, model, scale, seed=seed)
        baseline = cache.get(spec)
        baselines[(framework, model)] = (spec, baseline)
        for flips in bitflips:
            for trial in range(trainings):
                tasks.append(TrialTask(
                    trial_id=(f"fig3/{scale.name}/{framework}/{model}/"
                              f"{seed}/{flips}/{trial}"),
                    kind="fig3",
                    payload={
                        "spec": spec_to_payload(spec),
                        "framework": framework,
                        "model": model,
                        "flips": flips,
                        "trial": trial,
                        "checkpoint": baseline.checkpoint_path,
                        "baseline_curve":
                            baseline.resumed_curve[:scale.resume_epochs],
                        "injection_seed": seed * 3_000 + flips * 17 + trial,
                        "engine": engine,
                        "health_probe": health_probe,
                        "validate_checkpoints": validate_checkpoints,
                    },
                ))
    return tasks, baselines


def _grid(spec: CampaignSpec):
    """Decode the spec's parameter grid (defaults filled in)."""
    scale = get_scale(spec.scale)
    pairs = [tuple(pair) for pair in spec.params.get("pairs", DEFAULT_PAIRS)]
    bitflips = tuple(spec.params.get("bitflips", DEFAULT_BITFLIPS))
    trainings = spec.params.get("trainings", scale.curve_trainings)
    return scale, pairs, bitflips, trainings


@plan_builder(EXPERIMENT_ID)
def _plan(spec: CampaignSpec, cache) -> list[TrialTask]:
    scale, pairs, bitflips, trainings = _grid(spec)
    tasks, _ = build_tasks(scale, spec.seed, pairs, bitflips, trainings,
                           cache, engine=spec.engine,
                           health_probe=spec.health_probe,
                           validate_checkpoints=spec.validate_checkpoints)
    return tasks


def _mean_curve(records: list[dict]) -> list[float]:
    curves = [record["outcome"]["curve"] for record in records]
    width = max(len(c) for c in curves)
    padded = np.full((len(curves), width), np.nan)
    for i, curve in enumerate(curves):
        padded[i, :len(curve)] = curve
    return [float(v) for v in np.nanmean(padded, axis=0)]


def _table(spec: CampaignSpec, cells: dict, cache) -> ExperimentResult:
    scale, pairs, bitflips, _ = _grid(spec)
    panels: dict[str, dict[str, list[float]]] = {}
    rows = []
    for framework, model in pairs:
        baseline = cache.get(SessionSpec(framework, model, scale,
                                         seed=spec.seed))
        series = {"baseline": baseline.resumed_curve[:scale.resume_epochs]}
        for flips in bitflips:
            series[f"{flips} flips"] = cell_values(
                cells.get((framework, model, flips), []), _mean_curve,
                scale.resume_epochs)
        panels[f"{framework}/{model}"] = series
        for name, curve in series.items():
            rows.append([f"{framework}/{model}", name,
                         round(last_finite(curve), 4)])
    rendered = "\n\n".join(
        render_curves(series, title=f"{TITLE} — {panel}")
        for panel, series in panels.items()
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE,
        headers=["panel", "series", "final accuracy"], rows=rows,
        rendered=rendered, extra={"scale": scale.name, "curves": panels})


FIG3 = FlipCampaign(
    kind=EXPERIMENT_ID,
    injection=lambda payload: {"corruption_mode": "bit_range",
                               "first_bit": SAFE_FIRST_BIT,
                               "injection_attempts": payload["flips"]},
    resume_epochs=lambda scale: scale.resume_epochs,
    reference="baseline_curve",
    # None (collapsed epoch) -> NaN so the curve is JSON-journal-safe
    result=lambda outcome: {"curve": [
        a if a is not None else math.nan for a in outcome.accuracy_curve]},
    cell=("framework", "model", "flips"), table=_table,
)


@trial_kind(EXPERIMENT_ID)
def run_trial(payload: dict) -> dict:
    return run_trial_batch([payload])[0]


@batch_trial_kind(EXPERIMENT_ID, group_key=spec_group_key,
                  trial_bytes=stacked_trial_bytes)
def run_trial_batch(payloads: list[dict]) -> list[dict]:
    return run_flip_trials(FIG3, payloads)


def run(scale="tiny", seed: int = 42, pairs=DEFAULT_PAIRS,
        bitflips=DEFAULT_BITFLIPS, cache=None, workers: int = 1,
        journal=None, resume: bool = False,
        trial_timeout: float | None = None, retries: int = 1,
        engine: str = "vectorized", health_probe: bool = False,
        validate_checkpoints: bool = False,
        batch_trials: int | None = None,
        spec=None) -> ExperimentResult:
    """Regenerate Fig 3 (accuracy curves per flip rate).

    Pass ``spec`` (a :class:`CampaignSpec`; a dict raises ``TypeError``)
    to pin the whole campaign in one object — the legacy keyword grid is
    folded into an equivalent spec otherwise, so both invocation styles
    build byte-identical trial plans.
    """
    if spec is None:
        spec = make_spec(
            EXPERIMENT_ID, scale, seed,
            {"pairs": [list(pair) for pair in pairs],
             "bitflips": list(bitflips)},
            engine=engine, health_probe=health_probe,
            validate_checkpoints=validate_checkpoints, retries=retries,
            trial_timeout=trial_timeout, batch_trials=batch_trials)
    return run_flip_campaign(FIG3, spec, cache=cache, workers=workers,
                             journal=journal, resume=resume)
