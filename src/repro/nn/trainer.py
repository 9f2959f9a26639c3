"""Deterministic training loop with per-epoch metrics and collapse detection."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .. import telemetry
from . import functional as F
from .model import Model
from .optim import Optimizer
from .rng import stream


@dataclass
class EpochMetrics:
    """Metrics of one completed epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float
    test_loss: float | None = None
    test_accuracy: float | None = None
    collapsed: bool = False


@dataclass
class TrainingHistory:
    """Accumulated epoch metrics plus collapse bookkeeping."""

    epochs: list[EpochMetrics] = field(default_factory=list)

    def append(self, metrics: EpochMetrics) -> None:
        self.epochs.append(metrics)

    @property
    def collapsed(self) -> bool:
        return any(m.collapsed for m in self.epochs)

    def accuracies(self, split: str = "test") -> list[float]:
        key = "test_accuracy" if split == "test" else "train_accuracy"
        return [getattr(m, key) for m in self.epochs]

    def final_accuracy(self, split: str = "test") -> float | None:
        values = [v for v in self.accuracies(split) if v is not None]
        return values[-1] if values else None


def _epoch_event(metrics: EpochMetrics, duration: float) -> None:
    """One trial's ``epoch`` telemetry event: its metrics and wall time."""
    telemetry.event("epoch", **asdict(metrics), duration=duration)


class Trainer:
    """Mini-batch SGD training with deterministic shuffling.

    Shuffling for epoch *e* is drawn from the named stream
    ``("shuffle", e)`` — a pure function of the global seed and the epoch —
    so resuming from a checkpoint at epoch 20 replays exactly the batches an
    uninterrupted run would have seen (the property the paper's
    deterministic-training methodology depends on).
    """

    def __init__(self, model: Model, optimizer: Optimizer,
                 batch_size: int = 32,
                 stop_on_collapse: bool = True,
                 epoch_callback: Callable[[int, "Trainer"], None] | None = None,
                 scheduler=None,
                 augmenter=None,
                 health_probe=None):
        self.model = model
        self.optimizer = optimizer
        self.batch_size = batch_size
        self.stop_on_collapse = stop_on_collapse
        self.epoch_callback = epoch_callback
        self.scheduler = scheduler
        self.augmenter = augmenter  # callable(images, epoch) -> images
        # duck-typed repro.health.ModelHealthProbe: observe(model, opt, epoch)
        self.health_probe = health_probe
        self.history = TrainingHistory()
        self.epoch = 0

    def run_epoch(self, x: np.ndarray, labels: np.ndarray) -> EpochMetrics:
        """Train one epoch; returns its metrics (not yet evaluated on test)."""
        self.epoch += 1
        if self.scheduler is not None:
            # schedules are functions of the epoch number, so a restart at
            # epoch k resumes the schedule rather than restarting it
            self.scheduler.apply(self.epoch)
        for layer in self.model.layers():
            layer.on_epoch_start(self.epoch)
        order = stream("shuffle", self.epoch).permutation(x.shape[0])
        if self.augmenter is not None:
            # augmentation is keyed by epoch, so restarts replay it exactly
            x = self.augmenter(x, self.epoch)
        losses: list[float] = []
        correct = 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for start in range(0, x.shape[0], self.batch_size):
                idx = order[start:start + self.batch_size]
                batch = x[idx]
                batch_labels = labels[idx]
                logits = self.model.forward(batch, training=True)
                loss, grad = F.softmax_cross_entropy_with_grad(
                    logits, batch_labels
                )
                losses.append(float(loss))
                correct += int(
                    np.sum(np.argmax(logits, axis=1) == batch_labels)
                )
                self.model.backward(grad)
                self.optimizer.step(self.model)
        train_loss = float(np.mean(losses)) if losses else float("nan")
        return EpochMetrics(
            epoch=self.epoch,
            train_loss=train_loss,
            train_accuracy=correct / x.shape[0],
            collapsed=(not np.isfinite(train_loss)
                       or self.model.has_nonfinite_parameters()),
        )

    def fit(self, x: np.ndarray, labels: np.ndarray,
            epochs: int,
            x_test: np.ndarray | None = None,
            labels_test: np.ndarray | None = None) -> TrainingHistory:
        """Train for *epochs* epochs, evaluating after each one."""
        with telemetry.span("train", epochs=epochs,
                            batch_size=self.batch_size) as span:
            for _ in range(epochs):
                epoch_start = time.perf_counter()
                metrics = self.run_epoch(x, labels)
                if x_test is not None and not metrics.collapsed:
                    with np.errstate(over="ignore", invalid="ignore",
                                     divide="ignore"):
                        test_loss, test_acc = self.model.evaluate(
                            x_test, labels_test, self.batch_size
                        )
                    metrics.test_loss = test_loss
                    metrics.test_accuracy = test_acc
                    if not np.isfinite(test_loss):
                        metrics.collapsed = True
                self.history.append(metrics)
                _epoch_event(metrics, time.perf_counter() - epoch_start)
                if self.health_probe is not None:
                    # read-only, RNG-free: probed runs stay bit-identical
                    self.health_probe.observe(self.model, self.optimizer,
                                              self.epoch)
                if self.epoch_callback is not None:
                    self.epoch_callback(self.epoch, self)
                if metrics.collapsed and self.stop_on_collapse:
                    break
            span.set(epochs_run=len(self.history.epochs),
                     final_accuracy=self.history.final_accuracy(),
                     collapsed=self.history.collapsed)
        return self.history


# ---------------------------------------------------------------------------
# Batched multi-trial training
# ---------------------------------------------------------------------------

class _TrialModelView:
    """Read-only Model-like slice of one live trial in a stacked model.

    Duck-typed for :class:`repro.health.ModelHealthProbe` — it only needs
    ``named_parameters()``/``named_state()``, and slice *position* of every
    stacked array is bitwise the corresponding sequential trial's array.
    """

    def __init__(self, model: Model, position: int):
        self._model = model
        self._position = position

    def named_parameters(self):
        return {key: value[self._position]
                for key, value in self._model.named_parameters().items()}

    def named_state(self):
        return {key: value[self._position]
                for key, value in self._model.named_state().items()}


class _TrialOptimizerView:
    """Optimizer slice companion to :class:`_TrialModelView`: per-trial slot
    buffers, shared scalars (``step_count``) passed through unchanged."""

    def __init__(self, optimizer: Optimizer, position: int):
        self._optimizer = optimizer
        self._position = position

    def state_arrays(self):
        out = {}
        for key, value in self._optimizer.state_arrays().items():
            array = np.asarray(value)
            out[key] = array[self._position] if array.ndim else array
        return out


class BatchedTrainer:
    """Train T stacked weight replicas through one shared pass per batch.

    The model must have been stacked by :func:`repro.batched.stack_models`
    (every concrete layer carries ``layer.trials`` and a leading trial axis
    on its arrays).  Semantics mirror :class:`Trainer` *per trial*: the same
    shuffle stream, the same loss/accuracy accounting, the same collapse
    rule (non-finite train loss or any non-finite weight/state), the same
    skip-eval-then-stop behaviour for collapsed trials.  The only difference
    is mechanical: a collapsed trial is *pruned* from the stack (fancy-index
    slicing, which copies survivors' bytes verbatim) instead of breaking the
    loop, so survivors keep training while dead trials stop consuming
    compute — the batched analogue of ``stop_on_collapse``.

    ``probes`` takes one health probe per original trial; each is observed
    through a per-trial slice view, so probe histories are bit-identical to
    sequentially probed runs.  Schedulers and augmenters are not supported —
    campaign resume paths use neither; callers needing them fall back to the
    sequential :class:`Trainer`.

    Telemetry keeps :class:`Trainer`'s shape: each live trial emits its
    ``epoch`` events (tagged with its ``trial_ids`` entry), and the ``train``
    span's ``final_accuracy``/``collapsed`` hold one value per trial (a
    bare value when there is one trial).
    """

    def __init__(self, model: Model, optimizer: Optimizer,
                 batch_size: int = 32,
                 probes: list | None = None,
                 trial_ids: list | None = None):
        trials = None
        for layer in model.layers():
            if layer.trials is not None:
                trials = layer.trials
                break
        if trials is None:
            raise ValueError(
                "model has no trial axis; stack it with "
                "repro.batched.stack_models first"
            )
        if probes is not None and len(probes) != trials:
            raise ValueError(
                f"got {len(probes)} probes for {trials} trials"
            )
        self.model = model
        self.optimizer = optimizer
        self.batch_size = batch_size
        self.probes = probes
        self.trials = trials
        self.trial_ids = trial_ids or [None] * trials
        self.histories = [TrainingHistory() for _ in range(trials)]
        #: original trial index occupying each live stack position
        self.active = list(range(trials))
        #: final (params, state) slices of pruned trials, keyed by original
        #: trial index — captured at prune time so collapsed trials' weights
        #: stay available for the bit-identity oracle
        self.snapshots: dict[int, dict[tuple[str, str], np.ndarray]] = {}
        self.epoch = 0

    # -- core loop ---------------------------------------------------------
    def run_epoch(self, x: np.ndarray,
                  labels: np.ndarray) -> list[EpochMetrics]:
        """One epoch over all live trials; returns per-position metrics."""
        self.epoch += 1
        for layer in self.model.layers():
            layer.on_epoch_start(self.epoch)
        order = stream("shuffle", self.epoch).permutation(x.shape[0])
        live = len(self.active)
        losses: list[list[float]] = [[] for _ in range(live)]
        correct = np.zeros(live, dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for start in range(0, x.shape[0], self.batch_size):
                idx = order[start:start + self.batch_size]
                batch = x[idx]
                batch_labels = labels[idx]
                stacked = np.broadcast_to(batch, (live,) + batch.shape)
                logits = self.model.forward(stacked, training=True)
                batch_losses, grad = F.softmax_cross_entropy_with_grad(
                    logits, batch_labels
                )
                for pos in range(live):
                    losses[pos].append(float(batch_losses[pos]))
                correct += np.sum(
                    np.argmax(logits, axis=-1) == batch_labels, axis=-1
                )
                self.model.backward(grad)
                self.optimizer.step(self.model)
        nonfinite = self._nonfinite_trials()
        metrics = []
        for pos in range(live):
            train_loss = (float(np.mean(losses[pos])) if losses[pos]
                          else float("nan"))
            collapsed = (not np.isfinite(train_loss)) or bool(nonfinite[pos])
            metrics.append(EpochMetrics(
                epoch=self.epoch,
                train_loss=train_loss,
                train_accuracy=int(correct[pos]) / x.shape[0],
                collapsed=collapsed,
            ))
        return metrics

    def fit(self, x: np.ndarray, labels: np.ndarray, epochs: int,
            x_test: np.ndarray | None = None,
            labels_test: np.ndarray | None = None) -> list[TrainingHistory]:
        """Train for *epochs*; returns one history per original trial."""
        with telemetry.span("train", epochs=epochs,
                            batch_size=self.batch_size,
                            trials=self.trials) as span:
            for _ in range(epochs):
                if not self.active:
                    break
                epoch_start = time.perf_counter()
                metrics = self.run_epoch(x, labels)
                if x_test is not None and not all(m.collapsed
                                                  for m in metrics):
                    with np.errstate(over="ignore", invalid="ignore",
                                     divide="ignore"):
                        test_losses, test_accs = self._evaluate(
                            x_test, labels_test
                        )
                    for pos, m in enumerate(metrics):
                        if m.collapsed:
                            continue
                        m.test_loss = float(test_losses[pos])
                        m.test_accuracy = float(test_accs[pos])
                        if not np.isfinite(m.test_loss):
                            m.collapsed = True
                duration = time.perf_counter() - epoch_start
                for trial, m in zip(self.active, metrics):
                    self.histories[trial].append(m)
                    with telemetry.tag_scope(trial_id=self.trial_ids[trial]):
                        _epoch_event(m, duration)
                if self.probes is not None:
                    for pos, trial in enumerate(self.active):
                        self.probes[trial].observe(
                            _TrialModelView(self.model, pos),
                            _TrialOptimizerView(self.optimizer, pos),
                            self.epoch,
                        )
                keep = np.array([not m.collapsed for m in metrics],
                                dtype=bool)
                if not keep.all():
                    self._prune(keep)
            finals = [h.final_accuracy() for h in self.histories]
            collapsed = [h.collapsed for h in self.histories]
            single = self.trials == 1
            span.set(
                epochs_run=max(len(h.epochs) for h in self.histories),
                final_accuracy=finals[0] if single else finals,
                collapsed=collapsed[0] if single else collapsed,
            )
        return self.histories

    # -- helpers -----------------------------------------------------------
    def _evaluate(self, x: np.ndarray,
                  labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked mirror of ``Model.evaluate``: per-trial (loss, accuracy)."""
        live = len(self.active)
        outputs = []
        for start in range(0, x.shape[0], self.batch_size):
            batch = x[start:start + self.batch_size]
            stacked = np.broadcast_to(batch, (live,) + batch.shape)
            outputs.append(self.model.forward(stacked, training=False))
        logits = np.concatenate(outputs, axis=1)
        probs = F.softmax(logits)
        return F.cross_entropy(probs, labels), F.accuracy(logits, labels)

    def _nonfinite_trials(self) -> np.ndarray:
        """Per-position mirror of ``Model.has_nonfinite_parameters``."""
        live = len(self.active)
        mask = np.zeros(live, dtype=bool)
        for layer in self.model.layers():
            for group in (layer.params, layer.state):
                for value in group.values():
                    flat = value.astype(np.float64).reshape(live, -1)
                    mask |= ~np.isfinite(flat).all(axis=1)
        return mask

    def trial_arrays(self, trial: int) -> dict[tuple[str, str], np.ndarray]:
        """Final weights + state of one trial, live or pruned."""
        if trial in self.snapshots:
            return self.snapshots[trial]
        position = self.active.index(trial)
        return self._slice_arrays(position)

    def _slice_arrays(self,
                      position: int) -> dict[tuple[str, str], np.ndarray]:
        out: dict[tuple[str, str], np.ndarray] = {}
        for layer in self.model.layers():
            for group in (layer.params, layer.state):
                for key, value in group.items():
                    out[(layer.name, key)] = value[position].copy()
        return out

    def _prune(self, keep: np.ndarray) -> None:
        """Drop collapsed trials from the stack.

        Survivor slices are fancy-index copies — their bytes are untouched,
        which is what keeps post-prune training bit-identical to sequential
        runs of the surviving trials.
        """
        for position, trial in enumerate(self.active):
            if not keep[position]:
                self.snapshots[trial] = self._slice_arrays(position)
        survivors = int(keep.sum())
        for layer in self.model.layers():
            for group in (layer.params, layer.state, layer.grads):
                for key, value in group.items():
                    group[key] = value[keep]
            layer.trials = survivors
        for slots in self.optimizer.slot_dicts():
            for key, value in slots.items():
                slots[key] = value[keep]
        self.active = [trial for trial, kept in zip(self.active, keep)
                       if kept]
