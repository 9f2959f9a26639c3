"""Table V — Model sensitivity to 1 bit-flip (RWC).

One bit-flip (exponent MSB excluded, per §V-C) is injected into the
epoch-20 checkpoint; training resumes and its test-accuracy trajectory is
compared against the error-free restart.  RWC counts the trainings whose
trajectory is *exactly* unchanged — possible only because training is
deterministic.  Paper shape: a large majority of trainings restart with no
change.

"Restarted With no Change" compares the accuracy after the first
post-restart epoch: over the full remaining schedule, the chaotic
amplification of training dynamics at reduced scale (1 %-granularity test
accuracy) would drive RWC toward zero for reasons unrelated to the flip's
severity.  A flip campaign (:class:`~.fig3_bitflip_rates.FlipCampaign`).
"""

from __future__ import annotations

from ..analysis import count_rwc, render_table
from .common import (
    SAFE_FIRST_BIT,
    ExperimentResult,
    SessionSpec,
    get_scale,
    spec_group_key,
    spec_to_payload,
    stacked_trial_bytes,
)
from .fig3_bitflip_rates import (
    FlipCampaign,
    cell_values,
    make_spec,
    run_flip_campaign,
    run_flip_trials,
)
from .runner import TrialTask, batch_trial_kind, trial_kind
from ..serve.spec import CampaignSpec, plan_builder

EXPERIMENT_ID = "table5"
TITLE = "Table V: Model sensitivity to 1 bit-flip (RWC)"

DEFAULT_FRAMEWORKS = ("chainer_like", "torch_like", "tf_like")
DEFAULT_MODELS = ("resnet50", "vgg16", "alexnet")


def _grid(spec: CampaignSpec):
    """Decode the spec's parameter grid (defaults filled in)."""
    scale = get_scale(spec.scale)
    frameworks = tuple(spec.params.get("frameworks", DEFAULT_FRAMEWORKS))
    models = tuple(spec.params.get("models", DEFAULT_MODELS))
    return scale, frameworks, models


@plan_builder(EXPERIMENT_ID)
def build_tasks(spec: CampaignSpec, cache) -> list[TrialTask]:
    """The campaign's trials, ``scale.trainings`` per (model, framework)."""
    scale, frameworks, models = _grid(spec)
    seed = spec.seed
    tasks: list[TrialTask] = []
    for model in models:
        for framework in frameworks:
            session = SessionSpec(framework, model, scale, seed=seed)
            baseline = cache.get(session)
            for trial in range(scale.trainings):
                tasks.append(TrialTask(
                    trial_id=(f"table5/{scale.name}/{framework}/{model}/"
                              f"{seed}/{trial}"),
                    kind="table5",
                    payload={
                        "spec": spec_to_payload(session),
                        "framework": framework,
                        "model": model,
                        "trial": trial,
                        "checkpoint": baseline.checkpoint_path,
                        "baseline_restart": baseline.resumed_curve[:1],
                        "injection_seed": seed * 5_000 + trial,
                        "engine": spec.engine,
                        "health_probe": spec.health_probe,
                        "validate_checkpoints": spec.validate_checkpoints,
                    },
                ))
    return tasks


def _rwc(records: list[dict]) -> list:
    """RWC count and percentage of one cell's trials."""
    stats = count_rwc(records[0]["payload"]["baseline_restart"],
                      [record["outcome"]["finals"] for record in records])
    return [stats.unchanged,
            round(100.0 * stats.unchanged / stats.trainings, 1)]


def _table(spec: CampaignSpec, cells: dict, cache) -> ExperimentResult:
    scale, frameworks, models = _grid(spec)
    headers = ["Model", "Trainings"]
    for framework in frameworks:
        headers.extend([f"{framework} RWC", "%"])
    rows = []
    for model in models:
        row_cells = [cells.get((model, framework), [])
                     for framework in frameworks]
        row: list[object] = [model, max(map(len, row_cells), default=0)]
        for records in row_cells:
            row.extend(cell_values(records, _rwc, 2))
        rows.append(row)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers, rows=rows,
        rendered=render_table(headers, rows, title=TITLE),
        extra={"scale": scale.name})


TABLE5 = FlipCampaign(
    kind=EXPERIMENT_ID,
    injection=lambda payload: {"corruption_mode": "bit_range",
                               "first_bit": SAFE_FIRST_BIT,
                               "injection_attempts": 1},
    resume_epochs=lambda scale: 1,
    reference="baseline_restart",
    # RWC is *exact* equality with the error-free restart, so any finite
    # drop counts as degraded
    tolerance=0.0,
    result=lambda outcome: {"finals": [
        a for a in outcome.accuracy_curve if a is not None][-1:]},
    cell=("model", "framework"), table=_table,
)


@trial_kind(EXPERIMENT_ID)
def run_trial(payload: dict) -> dict:
    return run_trial_batch([payload])[0]


@batch_trial_kind(EXPERIMENT_ID, group_key=spec_group_key,
                  trial_bytes=stacked_trial_bytes)
def run_trial_batch(payloads: list[dict]) -> list[dict]:
    return run_flip_trials(TABLE5, payloads)


def run(scale="tiny", seed: int = 42,
        frameworks=DEFAULT_FRAMEWORKS, models=DEFAULT_MODELS,
        cache=None, workers: int = 1, journal=None, resume: bool = False,
        trial_timeout: float | None = None, retries: int = 1,
        engine: str = "vectorized", health_probe: bool = False,
        validate_checkpoints: bool = False,
        batch_trials: int | None = None,
        spec=None) -> ExperimentResult:
    """Regenerate Table V (RWC under one bit-flip); see
    :func:`.fig3_bitflip_rates.run` for ``spec``."""
    if spec is None:
        spec = make_spec(
            EXPERIMENT_ID, scale, seed,
            {"frameworks": list(frameworks), "models": list(models)},
            engine=engine, health_probe=health_probe,
            validate_checkpoints=validate_checkpoints, retries=retries,
            trial_timeout=trial_timeout, batch_trials=batch_trials)
    return run_flip_campaign(TABLE5, spec, cache=cache, workers=workers,
                             journal=journal, resume=resume)
