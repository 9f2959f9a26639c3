"""Shared experiment infrastructure: scales, baseline caching, and the
inject-and-resume primitive every table/figure builds on.

The paper's protocol (§V-A):

1. train a model deterministically, checkpointing each epoch to HDF5;
2. take the epoch-20 checkpoint, corrupt a copy of it with the injector;
3. resume training from the corrupted copy and compare the accuracy
   trajectory against the error-free continuation.

Because training is deterministic, the baseline (checkpoint file + accuracy
trajectory) for a (framework, model, precision, scale, seed) tuple is a pure
function of its key; :class:`BaselineCache` trains it once and reuses it
across trials and experiments.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .. import hdf5
from ..batched import run_stacked_training
from ..data import synthetic_cifar10
from ..frameworks import get_facade, set_global_determinism
from ..health import ModelHealthProbe, last_finite
from ..nn import SGD, Trainer, rng
from ..nn.layers import Layer
from ..nn.model import Model
from .locking import FileLock


# ---------------------------------------------------------------------------
# Scales
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity for runtime.

    ``paper`` mirrors the paper's configuration (250 trainings, checkpoint at
    epoch 20, 100 total epochs, full-width models); ``small`` and ``tiny``
    shrink trial counts, epochs, widths, and dataset size for CPU runs; the
    ``smoke`` scale exists for the test suite.
    """

    name: str
    train_size: int
    test_size: int
    image_size: int
    checkpoint_epoch: int
    total_epochs: int
    resume_epochs: int  # epochs trained after restart for curve experiments
    nev_resume_epochs: int  # epochs needed to detect a collapse
    trainings: int  # trials per experiment cell
    curve_trainings: int  # averaged trainings for figure curves
    predictions: int  # repeated predictions for Table VIII
    prediction_images: int
    batch_size: int
    width_mult: dict[str, float] = field(default_factory=dict)
    resnet_image_size: int = 32
    #: running-stats momentum for batch-norm models; small-data scales use a
    #: lower value so eval-mode statistics track the 53-BN ResNet stack.
    bn_momentum: float = 0.9

    def width(self, model: str) -> float:
        return self.width_mult.get(model, 1.0)

    def model_image_size(self, model: str) -> int:
        return self.resnet_image_size if model == "resnet50" else self.image_size


SCALES: dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke", train_size=60, test_size=50, image_size=16,
        checkpoint_epoch=1, total_epochs=3, resume_epochs=2,
        nev_resume_epochs=1, trainings=2, curve_trainings=2, predictions=2,
        prediction_images=50, batch_size=32,
        width_mult={"alexnet": 0.0625, "vgg16": 0.0625, "resnet50": 0.03125},
        resnet_image_size=16,
        bn_momentum=0.5,
    ),
    "tiny": ExperimentScale(
        name="tiny", train_size=200, test_size=100, image_size=32,
        checkpoint_epoch=2, total_epochs=8, resume_epochs=6,
        nev_resume_epochs=1, trainings=6, curve_trainings=3, predictions=4,
        prediction_images=100, batch_size=32,
        width_mult={"alexnet": 0.125, "vgg16": 0.125, "resnet50": 0.0625},
        resnet_image_size=16,
        bn_momentum=0.5,
    ),
    "small": ExperimentScale(
        name="small", train_size=500, test_size=200, image_size=32,
        checkpoint_epoch=4, total_epochs=14, resume_epochs=10,
        nev_resume_epochs=1, trainings=25, curve_trainings=5, predictions=10,
        prediction_images=200, batch_size=32,
        width_mult={"alexnet": 0.25, "vgg16": 0.125, "resnet50": 0.125},
        resnet_image_size=32,
        bn_momentum=0.7,
    ),
    "paper": ExperimentScale(
        name="paper", train_size=50000, test_size=10000, image_size=32,
        checkpoint_epoch=20, total_epochs=100, resume_epochs=80,
        nev_resume_epochs=1, trainings=250, curve_trainings=10,
        predictions=10, prediction_images=1000, batch_size=128,
        width_mult={"alexnet": 1.0, "vgg16": 1.0, "resnet50": 1.0},
        resnet_image_size=32,
    ),
}


def get_scale(scale: str | ExperimentScale) -> ExperimentScale:
    """Resolve a scale by name (or pass an ExperimentScale through)."""
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(SCALES)}"
        ) from None


# ---------------------------------------------------------------------------
# Session specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SessionSpec:
    """Everything defining one deterministic training session."""

    framework: str
    model: str
    scale: ExperimentScale
    policy: str = "float32"
    seed: int = 42
    learning_rate: float = 0.01
    momentum: float = 0.9
    dropout: float = 0.2
    include_optimizer: bool = True

    def cache_key(self) -> str:
        parts = (
            self.framework, self.model, self.scale.name, self.policy,
            str(self.seed), f"{self.learning_rate}", f"{self.momentum}",
            f"{self.dropout}", str(self.scale.train_size),
            str(self.scale.total_epochs), str(self.scale.checkpoint_epoch),
            str(self.include_optimizer),
            str(self.scale.width(self.model)),
            str(self.scale.model_image_size(self.model)),
            str(self.scale.bn_momentum),
        )
        return "_".join(parts).replace("/", "-")

    @property
    def effective_learning_rate(self) -> float:
        """ResNet's batch-normalized stack tolerates (and, on small data,
        needs) a higher learning rate than the plain conv nets."""
        if self.model == "resnet50" and self.scale.train_size <= 1000:
            return max(self.learning_rate, 0.05)
        return self.learning_rate

    def model_kwargs(self) -> dict:
        kwargs = {
            "width_mult": self.scale.width(self.model),
            "policy": self.policy,
            "image_size": self.scale.model_image_size(self.model),
        }
        if self.model in ("alexnet", "vgg16"):
            kwargs["dropout"] = self.dropout
        if self.model == "resnet50":
            kwargs["bn_momentum"] = self.scale.bn_momentum
        return kwargs


def spec_to_payload(spec: SessionSpec) -> dict:
    """A JSON-serializable dict that round-trips through
    :func:`spec_from_payload` — campaign trial payloads and journal records
    carry specs in this form."""
    payload = asdict(spec)
    payload["scale"] = asdict(spec.scale)
    return payload


def spec_from_payload(payload: dict) -> SessionSpec:
    """Rebuild a :class:`SessionSpec` from :func:`spec_to_payload` output."""
    payload = dict(payload)
    scale = payload.pop("scale")
    if isinstance(scale, dict):
        scale = ExperimentScale(**scale)
    return SessionSpec(scale=get_scale(scale), **payload)


def spec_group_key(payload: dict) -> str:
    """Batch-compatibility key for ``--batch-trials`` chunking.

    Trials whose payloads share this key resume from checkpoints of the
    same spec — same architecture, dataset, schedule, and stored epoch — so
    their trainings can be stacked into one batched pass
    (:func:`resume_training_batched`)."""
    return json.dumps(payload.get("spec"), sort_keys=True)


def make_dataset(spec: SessionSpec):
    """The deterministic train/test pair for a spec (after seeding).

    The pair is a pure function of the global seed, the RNG namespace and
    its three sizes, so a process builds each pair once and hands every
    caller the same read-only arrays, each in splits of its own.
    """
    return tuple(replace(split) for split in _dataset(
        rng.current_seed(), rng.current_namespace(), spec.scale.train_size,
        spec.scale.test_size, spec.scale.model_image_size(spec.model)))


@functools.lru_cache(maxsize=2)
def _dataset(seed: int, namespace: str, train_size: int, test_size: int,
             image_size: int):
    splits = synthetic_cifar10(train_size=train_size, test_size=test_size,
                               image_size=image_size)
    for split in splits:
        split.images.flags.writeable = False
        split.labels.flags.writeable = False
    return splits


def build_session_model(spec: SessionSpec) -> Model:
    """Build the spec's model through its framework facade."""
    facade = get_facade(spec.framework)
    return facade.build_model(spec.model, **spec.model_kwargs())


# ---------------------------------------------------------------------------
# Baseline cache
# ---------------------------------------------------------------------------

@dataclass
class Baseline:
    """Artifacts of one error-free training."""

    spec: SessionSpec
    checkpoint_path: str  # epoch == scale.checkpoint_epoch
    final_path: str  # epoch == scale.total_epochs
    accuracy_curve: list[float]  # test accuracy, epochs 1..total
    resumed_curve: list[float]  # test accuracy of the error-free restart
    final_accuracy: float


def _fsync_path(path: str) -> None:
    """Flush *path*'s written bytes to disk before it is committed."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class BaselineCache:
    """Disk cache of baseline trainings keyed by :meth:`SessionSpec.cache_key`.

    The default cache root lives under the system temp directory and is
    shared between the test suite, benchmarks, and examples; set the
    ``REPRO_CACHE_DIR`` environment variable to relocate it.

    The cache is safe for concurrent use by campaign workers: entries are
    committed by writing the checkpoints first and an atomically-replaced
    ``meta.json`` last (its presence is the commit marker), and a per-key
    lock file ensures exactly one process trains a missing baseline while
    the others wait and then read the result.  A truncated or torn
    ``meta.json`` (crash mid-write predating the atomic protocol) is
    detected and retrained rather than poisoning every subsequent run.
    """

    #: max seconds a worker waits for another process to finish training a
    #: baseline before giving up (paper-scale baselines are minutes, not
    #: hours, at the scales this cache serves).
    lock_timeout: float = 3600.0

    def __init__(self, root: str | None = None):
        self._root = root
        if root is not None:
            os.makedirs(root, exist_ok=True)

    @property
    def root(self) -> str:
        """Cache root; ``REPRO_CACHE_DIR`` is honored at *use* time so the
        module-level :data:`DEFAULT_CACHE` can be redirected after import
        (test isolation, campaign workers on scratch disks)."""
        return self._root or os.environ.get(
            "REPRO_CACHE_DIR",
            os.path.join(tempfile.gettempdir(), "repro_baseline_cache"),
        )

    def get(self, spec: SessionSpec) -> Baseline:
        key = spec.cache_key()
        directory = os.path.join(self.root, key)
        os.makedirs(directory, exist_ok=True)
        meta_path = os.path.join(directory, "meta.json")
        ckpt = os.path.join(directory, "checkpoint.h5")
        final = os.path.join(directory, "final.h5")

        cached = self._load(spec, directory)
        if cached is not None:
            return cached

        with FileLock(os.path.join(directory, ".lock"),
                      timeout=self.lock_timeout):
            # another worker may have trained while we waited for the lock
            cached = self._load(spec, directory)
            if cached is not None:
                return cached

            # train into temp names, then commit: checkpoints first,
            # meta.json last — readers only trust complete entries.
            suffix = f".tmp.{os.getpid()}"
            baseline = self._train(spec, ckpt + suffix, final + suffix)
            # save_checkpoint leaves the bytes in the page cache; the
            # renames below are durable *before* unsynced data is, so a
            # crash in between would commit a name pointing at garbage
            _fsync_path(ckpt + suffix)
            _fsync_path(final + suffix)
            os.replace(ckpt + suffix, ckpt)
            os.replace(final + suffix, final)
            meta = {
                "accuracy_curve": baseline.accuracy_curve,
                "resumed_curve": baseline.resumed_curve,
                "final_accuracy": baseline.final_accuracy,
            }
            with open(meta_path + suffix, "w") as handle:
                json.dump(meta, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(meta_path + suffix, meta_path)
            return replace(baseline, checkpoint_path=ckpt, final_path=final)

    def _load(self, spec: SessionSpec, directory: str) -> Baseline | None:
        """A committed cache entry, or None if absent/corrupt/incomplete."""
        meta_path = os.path.join(directory, "meta.json")
        ckpt = os.path.join(directory, "checkpoint.h5")
        final = os.path.join(directory, "final.h5")
        try:
            with open(meta_path) as handle:
                meta = json.load(handle)
            curve = meta["accuracy_curve"]
            resumed = meta["resumed_curve"]
            final_accuracy = meta["final_accuracy"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            return None  # missing, truncated, or torn — retrain
        if not (os.path.exists(ckpt) and os.path.exists(final)):
            return None
        return Baseline(
            spec=spec, checkpoint_path=ckpt, final_path=final,
            accuracy_curve=curve, resumed_curve=resumed,
            final_accuracy=final_accuracy,
        )

    def _train(self, spec: SessionSpec, ckpt: str, final: str) -> Baseline:
        scale = spec.scale
        facade = get_facade(spec.framework)
        set_global_determinism(spec.framework, spec.seed)
        train, test = make_dataset(spec)
        model = build_session_model(spec)
        optimizer = SGD(lr=spec.effective_learning_rate,
                        momentum=spec.momentum)

        def callback(epoch: int, trainer: Trainer) -> None:
            if epoch == scale.checkpoint_epoch:
                facade.save_checkpoint(
                    ckpt, model, optimizer, epoch=epoch,
                    include_optimizer=spec.include_optimizer,
                )

        trainer = Trainer(model, optimizer, batch_size=scale.batch_size,
                          epoch_callback=callback)
        history = trainer.fit(train.images, train.labels,
                              epochs=scale.total_epochs,
                              x_test=test.images, labels_test=test.labels)
        facade.save_checkpoint(final, model, optimizer,
                               epoch=scale.total_epochs,
                               include_optimizer=spec.include_optimizer)
        return baseline_from_history(spec, ckpt, final, history)


def baseline_from_history(spec: SessionSpec, ckpt: str, final: str,
                          history) -> Baseline:
    """Build a :class:`Baseline` from a finished training history.

    ``final_accuracy`` is the *last finite* test accuracy
    (:func:`repro.health.last_finite`) — the same definition
    :func:`resume_training` reports — so a NaN/None-tailed curve (a
    collapsed baseline) yields the last real measurement instead of NaN.
    """
    curve = [m.test_accuracy for m in history.epochs]
    return Baseline(
        spec=spec, checkpoint_path=ckpt, final_path=final,
        accuracy_curve=curve,
        resumed_curve=curve[spec.scale.checkpoint_epoch:],
        final_accuracy=last_finite(curve),
    )


#: Module-level default cache shared by all experiments.
DEFAULT_CACHE = BaselineCache()


# ---------------------------------------------------------------------------
# Inject-and-resume primitive
# ---------------------------------------------------------------------------

@dataclass
class ResumeOutcome:
    """Result of resuming training from a (possibly corrupted) checkpoint."""

    accuracy_curve: list[float]  # test accuracy per resumed epoch
    collapsed: bool
    final_accuracy: float
    model: Model | None = None
    health: list = field(default_factory=list)  # HealthSnapshots, if probed


def resume_training(spec: SessionSpec, checkpoint_path: str,
                    epochs: int | None = None,
                    keep_model: bool = False,
                    health_probe: bool = False) -> ResumeOutcome:
    """Load *checkpoint_path* and continue training deterministically:
    :func:`resume_training_batched` over one checkpoint, a stack of one."""
    return resume_training_batched(spec, [checkpoint_path], epochs=epochs,
                                   keep_models=keep_model,
                                   health_probe=health_probe)[0]


def resume_training_batched(spec: SessionSpec, checkpoint_paths: list[str],
                            epochs: int | None = None,
                            keep_models: bool = False,
                            health_probe: bool = False,
                            trial_ids: list[str] | None = None,
                            template: hdf5.Structure | None = None,
                            ) -> list[ResumeOutcome]:
    """Load N checkpoints and continue training them deterministically.

    Replays exactly the batches an uninterrupted run would see from the
    stored epoch onward; corrupted values in each checkpoint flow into its
    model unchecked.  Every checkpoint loads through the same facade path,
    then the replicas are stacked along a leading trial axis and trained in
    one shared forward/backward pass (:mod:`repro.batched`).  Outcome *i* —
    curve, collapse verdict, final accuracy, probe history, and (with
    *keep_models*) final weights — is bit-identical to training checkpoint
    *i* alone, as a stack of one.

    All checkpoints must come from the same spec (same architecture and
    stored epoch); that is what makes their trials batchable.

    *health_probe* attaches a :class:`repro.health.ModelHealthProbe` to
    each trial, first observing the checkpoint as loaded; its snapshots
    come back in ``ResumeOutcome.health``.  Probing is read-only and
    RNG-free, so probed and unprobed resumes are bit-identical.

    *trial_ids* (aligned with *checkpoint_paths*) are stamped onto the
    per-trial ``epoch`` and probe ``health`` events: every trial in the
    batch emits into one shared process stream, so without the stamp the
    events are per-trial indistinguishable.

    *template* is the checkpoints' shared parsed structure
    (:func:`baseline_structure`); by default the first checkpoint is
    parsed for it.
    """
    if not checkpoint_paths:
        return []
    scale = spec.scale
    facade = get_facade(spec.framework)
    set_global_determinism(spec.framework, spec.seed)
    train, test = make_dataset(spec)
    models, optimizers, start_epochs = [], [], []
    # Sibling checkpoints in a batch are byte-copies of one baseline whose
    # corruption touched only dataset payloads, so their structure — and
    # hence every dataset offset — is identical.  Parse it at most once
    # and let every file borrow its metadata tree (the template is ignored
    # for any checkpoint whose size differs).
    if template is None:
        template = hdf5.File(checkpoint_paths[0], "r").structure
    for path in checkpoint_paths:
        model = build_session_model(spec)
        optimizer = SGD(lr=spec.effective_learning_rate,
                        momentum=spec.momentum)
        start_epochs.append(
            facade.load_checkpoint(path, model, optimizer,
                                   template=template))
        models.append(model)
        optimizers.append(optimizer)
    if len(set(start_epochs)) != 1:
        raise ValueError(
            f"checkpoints stored at differing epochs: {sorted(set(start_epochs))}"
        )
    start_epoch = start_epochs[0]
    trial_ids = trial_ids or [None] * len(checkpoint_paths)
    probes = None
    if health_probe:
        probes = [ModelHealthProbe(trial_id=tid) for tid in trial_ids]
        # epoch-0 snapshot: the (corrupted) checkpoint state itself, so the
        # propagation join can see where the flip landed before any update
        for model, optimizer, probe in zip(models, optimizers, probes):
            probe.observe(model, optimizer, epoch=start_epoch)
    if epochs is None:
        epochs = scale.total_epochs - start_epoch
    trainer, histories = run_stacked_training(
        models, optimizers, train.images, train.labels, epochs,
        start_epoch=start_epoch, batch_size=scale.batch_size, probes=probes,
        x_test=test.images, labels_test=test.labels, trial_ids=trial_ids,
    )
    outcomes = []
    for trial, history in enumerate(histories):
        curve = [m.test_accuracy for m in history.epochs]
        model = None
        if keep_models:
            model = build_session_model(spec)
            for (layer_name, key), value in trainer.trial_arrays(
                    trial).items():
                model.set_parameter(layer_name, key, value)
        outcomes.append(ResumeOutcome(
            accuracy_curve=curve,
            collapsed=history.collapsed,
            final_accuracy=last_finite(curve),
            model=model,
            health=probes[trial].history if probes is not None else [],
        ))
    return outcomes


def stacked_trial_bytes(payload: dict) -> int:
    """Bytes one more trial adds to a stacked resume of its spec group.

    The flip kinds register this as their ``trial_bytes``
    (:func:`~.runner.batch_trial_kind`); the runner sizes their chunks by
    it.  A stacked trial holds its parameters and state, their gradients
    and SGD velocity, and the activations a training forward keeps for the
    backward, at the spec's batch size; the activations count twice, to
    cover the backward's transients.  They are read off the layers after a
    one-image training forward of a throwaway replica, once per spec group
    and process.
    """
    return _stacked_trial_bytes(spec_group_key(payload))


@functools.lru_cache(maxsize=16)
def _stacked_trial_bytes(group: str) -> int:
    spec = spec_from_payload(json.loads(group))
    model = build_session_model(spec)
    weights = [*model.named_parameters().values(),
               *model.named_state().values()]
    grads = [grad for layer in model.layers() for grad in layer.grads.values()]
    size = spec.scale.model_image_size(spec.model)
    model.forward(np.zeros((1, 3, size, size), dtype=np.float32),
                  training=True)
    kept = _kept_arrays(model.net, {})
    return (sum(a.nbytes for a in weights)
            + 2 * sum(g.nbytes for g in grads)  # gradients and velocity
            + 2 * spec.scale.batch_size * sum(a.nbytes for a in kept))


def _kept_arrays(layer, found: dict) -> list[np.ndarray]:
    """The arrays *layer* and its sublayers hold outside their params,
    grads and state (what a forward leaves for the backward), each buffer
    once."""
    pending = [value for name, value in vars(layer).items()
               if name not in ("params", "grads", "state")]
    while pending:
        value = pending.pop()
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            found[id(value)] = value
        elif isinstance(value, (list, tuple)):
            pending.extend(value)
        elif isinstance(value, Layer):
            _kept_arrays(value, found)
    return list(found.values())


def corrupted_copy(checkpoint_path: str, workdir: str, tag: str) -> str:
    """Copy a baseline checkpoint into *workdir* for corruption."""
    target = os.path.join(workdir, f"{tag}.h5")
    shutil.copy(checkpoint_path, target)
    return target


def baseline_structure(checkpoint_path: str) -> hdf5.Structure:
    """The parsed structure of a baseline checkpoint, once per process.

    Keyed on the file's identity — path, inode, size and mtime — so a
    baseline rewritten on disk is parsed again.  Only the metadata is
    kept, not the file's bytes.  A byte-copy whose corruption touched
    only dataset payloads shares it (``hdf5.File(..., template=)``).
    """
    stat = os.stat(checkpoint_path)
    return _parse_structure(os.path.abspath(checkpoint_path), stat.st_ino,
                            stat.st_size, stat.st_mtime_ns)


@functools.lru_cache(maxsize=8)
def _parse_structure(path: str, inode: int, size: int,
                     mtime_ns: int) -> hdf5.Structure:
    with hdf5.File(path, "r") as handle:
        return handle.structure


def structural_findings_count(checkpoint_path: str) -> int:
    """Severity-``error`` findings from a structural walk of the checkpoint.

    The opt-in ``--validate-checkpoints`` post-injection step: after the
    injector has done its work, re-walk the file with
    :func:`repro.hdf5.validate.validate_file` and count the structural
    errors.  A payload-only injection yields 0; a flip that escaped into
    metadata shows up as a positive count on the journal record.
    """
    from ..hdf5.validate import validate_file

    report = validate_file(checkpoint_path)
    return sum(1 for finding in report.findings
               if finding.severity == "error")


#: §V-C: "we omit the most significant bit of the exponent" (MSB-order bit
#: 1, whose flip collapses training): safe-range injections start at bit 2.
SAFE_FIRST_BIT = 2


def weights_root(framework: str) -> str:
    """The checkpoint group holding model weights (excludes optimizer state)."""
    return {
        "chainer_like": "predictor",
        "torch_like": "state_dict",
        "tf_like": "model_weights",
    }[framework]


# ---------------------------------------------------------------------------
# Experiment result container
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    """Uniform result record for every table/figure harness."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[object]]
    rendered: str
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": self.headers,
            "rows": self.rows,
            "scale": self.extra.get("scale"),
        }
        if "campaign" in self.extra:
            payload["campaign"] = self.extra["campaign"]
        return json.dumps(payload, indent=2, default=str)


def with_scale(spec: SessionSpec, scale: str | ExperimentScale) -> SessionSpec:
    """A copy of *spec* at a different scale."""
    return replace(spec, scale=get_scale(scale))
