"""Simulated Horovod-style data-parallel training.

The paper trains on Summit with Horovod and observes that distributed
gradient reduction is a source of nondeterminism: Horovod fuses small
tensors into buffers whose reduction order depends on arrival timing, and
floating-point addition is not associative.  Setting
``HOROVOD_FUSION_THRESHOLD=0`` disables fusion and restores a deterministic
order (Code 1, line 8).

This module reproduces that mechanism in-process: a
:class:`DataParallelTrainer` shards every batch across *n* simulated
workers, accumulates per-worker gradients, and all-reduces them.  With
``fusion_threshold == 0`` partial sums are combined in fixed worker order;
otherwise tensors are grouped into fusion buffers and each buffer's worker
contributions are summed in an *unseeded* random order — genuinely
nondeterministic across runs, exactly the failure mode the paper had to
disable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..nn import functional as F
from ..nn.model import Model
from ..nn.optim import Optimizer
from ..nn.trainer import Trainer


@dataclass
class AllReduceStats:
    """Bookkeeping of one epoch's reductions (for tests/inspection)."""

    reductions: int = 0
    fused_buffers: int = 0
    deterministic: bool = True


class SimulatedHorovod:
    """Gradient all-reduce with Horovod-style fusion semantics."""

    def __init__(self, num_workers: int, fusion_threshold: int | None = None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        if fusion_threshold is None:
            fusion_threshold = int(
                os.environ.get("HOROVOD_FUSION_THRESHOLD", "67108864")
            )
        self.fusion_threshold = fusion_threshold
        self._entropy = np.random.default_rng()  # deliberately unseeded

    def allreduce(
        self, per_worker: list[dict[str, np.ndarray]]
    ) -> tuple[dict[str, np.ndarray], AllReduceStats]:
        """Average per-worker gradient dicts (same keys on every worker)."""
        if len(per_worker) != self.num_workers:
            raise ValueError(
                f"expected {self.num_workers} gradient sets, got "
                f"{len(per_worker)}"
            )
        stats = AllReduceStats(deterministic=self.fusion_threshold == 0)
        keys = list(per_worker[0])
        averaged: dict[str, np.ndarray] = {}
        if self.fusion_threshold == 0:
            # tensor-by-tensor, fixed worker order: deterministic
            for key in keys:
                total = per_worker[0][key].astype(np.float64).copy()
                for worker in range(1, self.num_workers):
                    total += per_worker[worker][key]
                averaged[key] = (total / self.num_workers).astype(
                    per_worker[0][key].dtype
                )
                stats.reductions += 1
            return averaged, stats

        # fusion enabled: pack tensors into buffers up to the threshold,
        # then sum each buffer's worker contributions in random order
        buffers: list[list[str]] = [[]]
        buffer_bytes = 0
        for key in keys:
            nbytes = per_worker[0][key].nbytes
            if buffer_bytes + nbytes > self.fusion_threshold and buffers[-1]:
                buffers.append([])
                buffer_bytes = 0
            buffers[-1].append(key)
            buffer_bytes += nbytes
        for buffer_keys in buffers:
            stats.fused_buffers += 1
            order = self._entropy.permutation(self.num_workers)
            for key in buffer_keys:
                total = np.zeros_like(per_worker[0][key], dtype=np.float32)
                for worker in order:
                    total = total + per_worker[worker][key].astype(np.float32)
                averaged[key] = (total / self.num_workers).astype(
                    per_worker[0][key].dtype
                )
                stats.reductions += 1
        return averaged, stats


class DataParallelTrainer(Trainer):
    """Single-process simulation of Horovod data-parallel training.

    Each mini-batch is split into ``num_workers`` shards; gradients are
    computed shard-by-shard on the (shared) model replica, all-reduced via
    :class:`SimulatedHorovod`, and applied once.  With a deterministic
    reduction (fusion threshold 0) the result is bit-identical across runs;
    with fusion enabled, runs diverge — reproducing §V-A3.  Everything
    around the step (shuffle, loss and accuracy accounting, collapse rule,
    :meth:`fit`) is :class:`~repro.nn.Trainer`'s.
    """

    def __init__(self, model: Model, optimizer: Optimizer,
                 num_workers: int = 2, batch_size: int = 32,
                 fusion_threshold: int | None = None):
        super().__init__(model, optimizer, batch_size=batch_size)
        self.num_workers = num_workers
        self.horovod = SimulatedHorovod(num_workers, fusion_threshold)

    def _step(self, batch: np.ndarray,
              labels: np.ndarray) -> tuple[list[float], list[int]]:
        """Forward and backward shard by shard, then one all-reduce and
        one optimizer step; the loss is the shard-size-weighted mean."""
        shards = np.array_split(np.arange(len(labels)), self.num_workers)
        per_worker: list[dict[str, np.ndarray]] = []
        loss, correct = 0.0, 0
        for shard in shards:
            if shard.size == 0:
                continue
            logits = self.model.forward(batch[shard], training=True)
            shard_loss, grad = F.softmax_cross_entropy_with_grad(
                logits, labels[shard]
            )
            loss += float(shard_loss) * shard.size
            correct += int(np.sum(
                np.argmax(logits, axis=1) == labels[shard]
            ))
            self.model.backward(grad)
            per_worker.append({
                f"{layer.name}/{key}": layer.grads[key].copy()
                for layer in self.model.parameter_layers()
                for key in layer.grads
            })
        # a final short batch may fill fewer workers; pad by repeating the
        # last shard's gradients
        while len(per_worker) < self.num_workers:
            per_worker.append(per_worker[-1])
        averaged, _ = self.horovod.allreduce(per_worker)
        # in place: the optimizer's flat gradient buffer holds these arrays
        for layer in self.model.parameter_layers():
            for key, grad in layer.grads.items():
                grad[...] = averaged[f"{layer.name}/{key}"]
        self.optimizer.step(self.model)
        return [loss / len(labels)], [correct]
