"""The batched trial-execution engine: stack N replicas, train them once.

This is the compute core of ``--batch-trials``: callers load N independently
corrupted checkpoints into N ordinary (model, optimizer) pairs — through
exactly the same facade path a sequential trial uses, so the corrupted bytes
entering the stack are identical by construction — and this module stacks
them and drives one :class:`repro.nn.BatchedTrainer` over the shared
forward/backward pass.
"""

from __future__ import annotations

import numpy as np

from ..nn.model import Model
from ..nn.optim import Optimizer
from ..nn.trainer import BatchedTrainer, TrainingHistory
from .stacking import stack_models, stack_optimizers


def run_stacked_training(
    models: list[Model],
    optimizers: list[Optimizer],
    train_images: np.ndarray,
    train_labels: np.ndarray,
    epochs: int,
    *,
    start_epoch: int = 0,
    batch_size: int = 32,
    x_test: np.ndarray | None = None,
    labels_test: np.ndarray | None = None,
    probes: list | None = None,
    trial_ids: list | None = None,
) -> tuple[BatchedTrainer, list[TrainingHistory]]:
    """Stack *models*/*optimizers* and train them for *epochs* together.

    Returns the trainer (whose :meth:`~repro.nn.BatchedTrainer.trial_arrays`
    yields each trial's final weights, pruned or not) and the per-trial
    histories.  The replica lists are consumed by stacking — treat them as
    dead after this call.  *trial_ids* stamp each trial's ``epoch`` events.
    """
    if len(models) != len(optimizers):
        raise ValueError(
            f"{len(models)} models but {len(optimizers)} optimizers"
        )
    stacked_model = stack_models(models)
    stacked_optimizer = stack_optimizers(optimizers)
    trainer = BatchedTrainer(stacked_model, stacked_optimizer,
                             batch_size=batch_size, probes=probes,
                             trial_ids=trial_ids)
    trainer.epoch = start_epoch
    histories = trainer.fit(train_images, train_labels, epochs,
                            x_test=x_test, labels_test=labels_test)
    return trainer, histories
