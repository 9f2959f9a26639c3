"""Batched multi-fault trial execution.

Amortizes training cost across independent fault-injection trials: N weight
replicas — each corrupted by its own injection plan — are stacked along a
leading "trial" axis and driven through :mod:`repro.nn` in one shared
forward/backward pass per mini-batch.  Every per-trial result (final
weights, health-probe stats, outcome label) is bit-identical to training
that trial alone, which runs the same kernels as a stack of one;
``tests/batched`` holds the oracle battery that enforces this.

See ``docs/batched-execution.md`` for the stacking layout and memory model.
"""

from ..nn.trainer import BatchedTrainer
from .engine import run_stacked_training
from .stacking import stack_models, stack_optimizers

__all__ = [
    "BatchedTrainer",
    "run_stacked_training",
    "stack_models",
    "stack_optimizers",
]
