"""Table VI — Multi-bit mask injection (DRAM error patterns).

The five multi-bit masks come from Bautista-Gomez et al.'s large-scale DRAM
study ([43] in the paper).  Each mask is XORed into 10 weights of ResNet50
on all three frameworks; each configuration is trained 10 times.  Reported:
average final accuracy (AvgI-Acc, collapsed trainings excluded, as in the
paper) and the number of trainings that produced an N-EV.

A flip campaign (:class:`~.fig3_bitflip_rates.FlipCampaign`), and the
collapse-heavy one: stacked chunks routinely lose trials to NaN
mid-training, which the batched trainer prunes without perturbing the
survivors.
"""

from __future__ import annotations

from ..analysis import mean_excluding_collapsed, render_table
from .common import (
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

EXPERIMENT_ID = "table6"
TITLE = "Table VI: Multi-bit mask applied to DL framework training"

#: (active bit count, mask) rows exactly as in the paper.
PAPER_MASKS: tuple[tuple[int, str], ...] = (
    (3, "10001010"),
    (4, "01101010"),
    (4, "10110010"),
    (5, "11110001"),
    (6, "11101101"),
)

DEFAULT_FRAMEWORKS = ("chainer_like", "torch_like", "tf_like")
DEFAULT_MODEL = "resnet50"
WEIGHTS_PER_TRAINING = 10


def _grid(spec: CampaignSpec):
    """Decode the spec's parameter grid (defaults filled in)."""
    scale = get_scale(spec.scale)
    frameworks = tuple(spec.params.get("frameworks", DEFAULT_FRAMEWORKS))
    model = spec.params.get("model", DEFAULT_MODEL)
    masks = [tuple(row) for row in spec.params.get("masks", PAPER_MASKS)]
    trainings = spec.params.get("trainings", min(scale.trainings, 10))
    return scale, frameworks, model, masks, trainings


@plan_builder(EXPERIMENT_ID)
def build_tasks(spec: CampaignSpec, cache) -> list[TrialTask]:
    """The campaign's trials, ``trainings`` per (mask, framework)."""
    scale, frameworks, model, masks, trainings = _grid(spec)
    seed = spec.seed
    baselines = {}
    for framework in frameworks:
        session = SessionSpec(framework, model, scale, seed=seed)
        baselines[framework] = (session, cache.get(session))
    tasks: list[TrialTask] = []
    for _, mask in masks:
        for framework in frameworks:
            session, baseline = baselines[framework]
            for trial in range(trainings):
                tasks.append(TrialTask(
                    trial_id=(f"table6/{scale.name}/{framework}/{model}/"
                              f"{seed}/{mask}/{trial}"),
                    kind="table6",
                    payload={
                        "spec": spec_to_payload(session),
                        "framework": framework,
                        "mask": mask,
                        "trial": trial,
                        "checkpoint": baseline.checkpoint_path,
                        "baseline_curve":
                            baseline.resumed_curve[:scale.resume_epochs],
                        "health_probe": spec.health_probe,
                        # int(mask, 2), not hash(mask): string hashing is
                        # randomized per process, which would desync seeds
                        # between a journaled campaign and its resume.
                        "injection_seed": (seed * 7_000
                                           + int(mask, 2) % 1000 + trial),
                        "engine": spec.engine,
                        "validate_checkpoints": spec.validate_checkpoints,
                    },
                ))
    return tasks


def _avg_and_nev(records: list[dict]) -> list:
    """AvgI-Acc (collapsed trainings excluded) and N-EV count of a cell."""
    outcomes = [record["outcome"] for record in records]
    collapsed = [outcome["collapsed"] for outcome in outcomes]
    avg = mean_excluding_collapsed(
        [outcome["final_accuracy"] for outcome in outcomes], collapsed)
    return [round(100.0 * avg, 1), sum(collapsed)]


def _table(spec: CampaignSpec, cells: dict, cache) -> ExperimentResult:
    scale, frameworks, model, masks, _ = _grid(spec)
    headers = ["Bits", "Mask"]
    for framework in frameworks:
        headers.extend([f"{framework} AvgI-Acc", "N-EV"])
    # row 0: error-free accuracy (the paper's all-zero mask row)
    row0: list[object] = [0, "00000000"]
    for framework in frameworks:
        reference = cache.get(SessionSpec(framework, model, scale,
                                          seed=spec.seed)).resumed_curve
        final = reference[min(scale.resume_epochs, len(reference)) - 1]
        row0.extend([round(100.0 * final, 1), ""])
    rows: list[list[object]] = [row0]
    for bits, mask in masks:
        row: list[object] = [bits, mask]
        for framework in frameworks:
            row.extend(cell_values(cells.get((framework, mask), []),
                                   _avg_and_nev, 2))
        rows.append(row)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, headers=headers, rows=rows,
        rendered=render_table(headers, rows, title=TITLE),
        extra={"scale": scale.name, "model": model,
               "weights_per_training": WEIGHTS_PER_TRAINING})


TABLE6 = FlipCampaign(
    kind=EXPERIMENT_ID,
    injection=lambda payload: {"corruption_mode": "bit_mask",
                               "bit_mask": payload["mask"],
                               "injection_attempts": WEIGHTS_PER_TRAINING},
    resume_epochs=lambda scale: scale.resume_epochs,
    reference="baseline_curve",
    result=lambda outcome: {"final_accuracy": outcome.final_accuracy,
                            "collapsed": outcome.collapsed},
    cell=("framework", "mask"), table=_table,
)


@trial_kind(EXPERIMENT_ID)
def run_trial(payload: dict) -> dict:
    return run_trial_batch([payload])[0]


@batch_trial_kind(EXPERIMENT_ID, group_key=spec_group_key,
                  trial_bytes=stacked_trial_bytes)
def run_trial_batch(payloads: list[dict]) -> list[dict]:
    return run_flip_trials(TABLE6, payloads)


def run(scale="tiny", seed: int = 42, frameworks=DEFAULT_FRAMEWORKS,
        model: str = DEFAULT_MODEL, masks=PAPER_MASKS,
        cache=None, workers: int = 1, journal=None, resume: bool = False,
        trial_timeout: float | None = None, retries: int = 1,
        engine: str = "vectorized", health_probe: bool = False,
        validate_checkpoints: bool = False,
        batch_trials: int | None = None,
        spec=None) -> ExperimentResult:
    """Regenerate Table VI (multi-bit DRAM masks); see
    :func:`.fig3_bitflip_rates.run` for ``spec``."""
    if spec is None:
        spec = make_spec(
            EXPERIMENT_ID, scale, seed,
            {"frameworks": list(frameworks), "model": model,
             "masks": [[bits, mask] for bits, mask in masks]},
            engine=engine, health_probe=health_probe,
            validate_checkpoints=validate_checkpoints, retries=retries,
            trial_timeout=trial_timeout, batch_trials=batch_trials)
    return run_flip_campaign(TABLE6, spec, cache=cache, workers=workers,
                             journal=journal, resume=resume)
