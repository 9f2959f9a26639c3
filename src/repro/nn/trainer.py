"""Deterministic training loop with per-epoch metrics and collapse detection."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .. import telemetry
from . import functional as F
from .layers import inference_pass
from .model import Model
from .optim import Optimizer
from .rng import stream

#: Trial-images one inference pass of :meth:`BatchedTrainer._evaluate`
#: holds at most (it holds at least one eval batch).  On one image a tiny
#: model's forward costs more in per-layer calls than in arithmetic, and a
#: pass pays those calls once for all its batches.  Passes this size cut a
#: smoke ResNet-50 evaluation (two trials, batch size 1, 50 images) from
#: 167 ms to 50 ms on a 2-vCPU Xeon host; 64 or 128 gained under 15% more
#: while the pass's memory (2.3 MiB at 32) doubled each time.  Above 16
#: trial-images a batch a pass is one batch, as every eval was before.
EVAL_PASS_IMAGES = 32


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

    def final_accuracy(self) -> float | None:
        """The last test accuracy measured, or None."""
        values = [m.test_accuracy for m in self.epochs
                  if m.test_accuracy is not None]
        return values[-1] if values else None


def _epoch_event(metrics: EpochMetrics, duration: float) -> None:
    """One trial's ``epoch`` telemetry event: its metrics and wall time."""
    telemetry.event("epoch", **asdict(metrics), duration=duration)


class _TrialView:
    """Read-only slice of one live trial of a stack, for a health probe.

    Model-like (``named_parameters``/``named_state``) over the stacked
    model and optimizer-like (``state_arrays``, shared scalars such as
    ``step_count`` passed through) over the stacked optimizer; slice
    *position* of every stacked array is bitwise that trial's own array.
    """

    def __init__(self, trainer: "BatchedTrainer", position: int):
        self._trainer = trainer
        self._position = position

    def _slice(self, arrays: dict) -> dict:
        return {key: value[self._position] if np.ndim(value) else value
                for key, value in arrays.items()}

    def named_parameters(self):
        return self._slice(self._trainer.model.named_parameters())

    def named_state(self):
        return self._slice(self._trainer.model.named_state())

    def state_arrays(self):
        return self._slice(self._trainer.optimizer.state_arrays())


class BatchedTrainer:
    """The epoch loop: T stacked weight replicas trained through one shared
    pass per batch, or an unstacked model as a stack of one.

    Shuffling for epoch *e* is drawn from the named stream ``("shuffle",
    e)`` — a pure function of the global seed and the epoch — and the
    *scheduler* and *augmenter* (``augmenter(images, epoch) -> images``)
    are keyed by the epoch too, so resuming from a checkpoint at epoch 20
    replays exactly what an uninterrupted run would have seen (the
    property the paper's deterministic-training methodology depends on).

    A model stacked by :func:`repro.batched.stack_models` has a leading
    trial axis on every array.  An unstacked model gains a unit trial axis
    at the model boundary only, on its logits, as :meth:`Layer.forward`
    does on its activations; :meth:`run_epoch` and :meth:`fit` then return
    its one result rather than a list.

    Per trial, an epoch's loss is the float64 mean of its batch losses, and
    a non-finite train loss, weight, state or test loss collapses the
    trial: it gets no test metrics and is *pruned* from the stack
    (fancy-index slicing copies the survivors' bytes verbatim).  With no
    survivor the arrays stay as they are and the loop stops.

    ``probes`` holds one health probe per trial, observing it through a
    slice view, so probe histories are bit-identical to the trial trained
    alone.  Telemetry: each live trial emits its ``epoch`` events (tagged
    with its ``trial_ids`` entry); the ``train`` span carries ``trials``
    and ``final_accuracy``/``collapsed`` per trial (bare for one trial).
    """

    def __init__(self, model: Model, optimizer: Optimizer,
                 batch_size: int = 32,
                 probes: list | None = None,
                 trial_ids: list | None = None,
                 epoch_callback: Callable[[int, "BatchedTrainer"], None]
                 | None = None,
                 scheduler=None,
                 augmenter=None):
        trials = next((layer.trials for layer in model.layers()
                       if layer.trials is not None), None)
        #: whether the model carries a trial axis; without one it runs as
        #: a stack of one
        self.stacked = trials is not None
        trials = trials if self.stacked else 1
        if probes is not None and len(probes) != trials:
            raise ValueError(
                f"got {len(probes)} probes for {trials} trials"
            )
        self.model = model
        self.optimizer = optimizer
        self.batch_size = batch_size
        self.probes = probes
        self.epoch_callback = epoch_callback
        self.scheduler = scheduler
        self.augmenter = augmenter
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
    def run_epoch(self, x: np.ndarray, labels: np.ndarray):
        """One epoch over all live trials; returns per-position metrics
        (not yet evaluated on test), or an unstacked model's one."""
        self.epoch += 1
        if self.scheduler is not None:
            self.scheduler.apply(self.epoch)
        for layer in self.model.layers():
            layer.on_epoch_start(self.epoch)
        order = stream("shuffle", self.epoch).permutation(x.shape[0])
        if self.augmenter is not None:
            x = self.augmenter(x, self.epoch)
        live = len(self.active)
        losses: list[list[float]] = [[] for _ in range(live)]
        correct = np.zeros(live, dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for start in range(0, x.shape[0], self.batch_size):
                idx = order[start:start + self.batch_size]
                batch_losses, batch_correct = self._step(x[idx], labels[idx])
                for pos in range(live):
                    losses[pos].append(float(batch_losses[pos]))
                correct += batch_correct
        nonfinite = self._nonfinite_trials()
        metrics = []
        for pos in range(live):
            train_loss = (float(np.mean(losses[pos])) if losses[pos]
                          else float("nan"))
            metrics.append(EpochMetrics(
                epoch=self.epoch, train_loss=train_loss,
                train_accuracy=int(correct[pos]) / x.shape[0],
                collapsed=not np.isfinite(train_loss) or bool(nonfinite[pos]),
            ))
        return metrics if self.stacked else metrics[0]

    def fit(self, x: np.ndarray, labels: np.ndarray, epochs: int,
            x_test: np.ndarray | None = None,
            labels_test: np.ndarray | None = None):
        """Train for *epochs*, evaluating after each one; returns one
        history per original trial, or an unstacked model's one."""
        with telemetry.span("train", epochs=epochs,
                            batch_size=self.batch_size,
                            trials=self.trials) as span:
            for _ in range(epochs):
                if not self.active:
                    break
                epoch_start = time.perf_counter()
                metrics = self.run_epoch(x, labels)
                if not self.stacked:
                    metrics = [metrics]
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
                    # read-only, RNG-free: probed runs stay bit-identical
                    for pos, trial in enumerate(self.active):
                        self.probes[trial].observe(*self._views(pos),
                                                   self.epoch)
                if self.epoch_callback is not None:
                    self.epoch_callback(self.epoch, self)
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
        return self.histories if self.stacked else self.histories[0]

    def _step(self, batch: np.ndarray,
              labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Train every live trial on one batch; returns per-trial losses
        and per-trial counts of correct predictions."""
        logits = self._forward(batch, training=True)
        losses, grad = F.softmax_cross_entropy_with_grad(logits, labels)
        correct = np.sum(np.argmax(logits, axis=-1) == labels, axis=-1)
        self.model.backward(grad if self.stacked else grad[0])
        self.optimizer.step(self.model)
        return losses, correct

    # -- helpers -----------------------------------------------------------
    def _forward(self, batch: np.ndarray, training: bool) -> np.ndarray:
        """Every live trial's logits on *batch*, with the trial axis."""
        if not self.stacked:
            return self.model.forward(batch, training=training)[None]
        stacked = np.broadcast_to(batch, (len(self.active),) + batch.shape)
        return self.model.forward(stacked, training=training)

    def _evaluate(self, x: np.ndarray,
                  labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked mirror of ``Model.evaluate``: per-trial (loss, accuracy).

        The eval batches of ``batch_size`` images run in inference passes
        of as many whole batches as fit :data:`EVAL_PASS_IMAGES`
        trial-images, at least one; a ragged last batch is a pass of its
        own.  Each batch keeps the GEMMs its own forward runs, so the
        logits are bitwise those of one forward per batch.
        """
        batch = self.batch_size
        step = batch * max(1, EVAL_PASS_IMAGES // (len(self.active) * batch))
        whole = x.shape[0] - x.shape[0] % batch
        bounds = [*range(0, whole, step), whole, x.shape[0]]
        outputs = []
        for start, stop in zip(bounds, bounds[1:]):
            if stop > start:
                with inference_pass(max(1, (stop - start) // batch)):
                    outputs.append(self._forward(x[start:stop],
                                                 training=False))
        logits = np.concatenate(outputs, axis=1)
        probs = F.softmax(logits)
        return F.cross_entropy(probs, labels), F.accuracy(logits, labels)

    def _views(self, position: int) -> tuple:
        """The model and optimizer a probe observes for *position*."""
        if not self.stacked:
            return self.model, self.optimizer
        view = _TrialView(self, position)
        return view, view

    def _nonfinite_trials(self) -> np.ndarray:
        """Per-position mirror of ``Model.has_nonfinite_parameters``."""
        live = len(self.active)
        mask = np.zeros(live, dtype=bool)
        for layer in self.model.layers():
            for group in (layer.params, layer.state):
                for value in group.values():
                    # isfinite on the array's own width: a float64 cast
                    # flags a flipped-in signaling NaN as invalid
                    mask |= ~np.isfinite(value).reshape(live, -1).all(axis=1)
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
                    stack = value if self.stacked else value[None]
                    out[(layer.name, key)] = stack[position].copy()
        return out

    def _prune(self, keep: np.ndarray) -> None:
        """Drop collapsed trials from the stack.

        Survivor slices are fancy-index copies — their bytes are untouched,
        which is what keeps post-prune training bit-identical to sequential
        runs of the surviving trials.  With no survivor the arrays stay as
        they are: the loop stops, and a lone model keeps the weights it
        collapsed with.
        """
        for position, trial in enumerate(self.active):
            if not keep[position]:
                self.snapshots[trial] = self._slice_arrays(position)
        self.active = [trial for trial, kept in zip(self.active, keep)
                       if kept]
        if not self.active:
            return
        for layer in self.model.layers():
            for group in (layer.params, layer.state, layer.grads):
                for key, value in group.items():
                    group[key] = value[keep]
            layer.trials = len(self.active)
        for slots in self.optimizer.slot_dicts():
            for key, value in slots.items():
                slots[key] = value[keep]


class Trainer(BatchedTrainer):
    """The epoch loop over one unstacked model, as a stack of one.

    *health_probe* (a duck-typed :class:`repro.health.ModelHealthProbe`)
    observes the model and optimizer after every epoch; :attr:`history`
    holds the epochs trained so far.
    """

    def __init__(self, model: Model, optimizer: Optimizer,
                 batch_size: int = 32,
                 epoch_callback: Callable[[int, "Trainer"], None] | None = None,
                 scheduler=None,
                 augmenter=None,
                 health_probe=None):
        super().__init__(
            model, optimizer, batch_size=batch_size,
            probes=None if health_probe is None else [health_probe],
            epoch_callback=epoch_callback, scheduler=scheduler,
            augmenter=augmenter,
        )

    @property
    def history(self) -> TrainingHistory:
        return self.histories[0]
