"""The flip kinds' per-trial footprint, from which the runner sizes their
chunks when a campaign leaves ``batch_trials`` unset.

Paper-width trials must not stack on an 8 GB host, smoke trials stack 16
deep, and the estimate must cover what one more stacked trial really
allocates in a training step.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import pytest

from repro.batched import run_stacked_training
from repro.experiments import runner
from repro.experiments.common import (
    SCALES,
    BaselineCache,
    SessionSpec,
    build_session_model,
    get_scale,
    make_dataset,
    spec_to_payload,
    stacked_trial_bytes,
)
from repro.frameworks import get_facade, set_global_determinism
from repro.nn import SGD

SMOKE = get_scale("smoke")
#: perfbench's canonical cell: smoke ResNet-50 trained one image at a time
SMOKE_BS1 = dataclasses.replace(SMOKE, name="footprint_bs1", batch_size=1)

SMOKE_SPECS = {
    "alexnet-bs32": SessionSpec("chainer_like", "alexnet", SMOKE),
    "resnet50-bs1": SessionSpec("tf_like", "resnet50", SMOKE_BS1),
}


def payload(spec: SessionSpec) -> dict:
    return {"spec": spec_to_payload(spec)}


def chunk_size(spec: SessionSpec) -> int:
    """What an in-process campaign of *spec*'s fig3 trials stacks."""
    return runner._chunk_size("fig3", payload(spec), None, workers=1)


@pytest.fixture
def eight_gb_free(monkeypatch):
    monkeypatch.setattr(runner, "_free_memory", lambda: 8 * 2**30)


@pytest.mark.parametrize("framework, model", [("tf_like", "resnet50"),
                                              ("torch_like", "vgg16")])
def test_paper_width_trials_do_not_stack(eight_gb_free, framework, model):
    spec = SessionSpec(framework, model, SCALES["paper"])
    assert spec.scale.batch_size == 128
    assert chunk_size(spec) == 1


@pytest.mark.parametrize("name", sorted(SMOKE_SPECS))
def test_smoke_trials_stack_sixteen(eight_gb_free, name):
    assert chunk_size(SMOKE_SPECS[name]) == runner.MAX_STACK == 16


@pytest.mark.parametrize("kind", ["fig3", "table5", "table6"])
def test_flip_kinds_register_the_footprint(kind):
    assert runner.BATCH_TRIAL_KINDS[kind].trial_bytes is stacked_trial_bytes


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return BaselineCache(str(tmp_path_factory.mktemp("footprint")))


def step_peak(spec: SessionSpec, checkpoint: str, trials: int) -> int:
    """``tracemalloc`` peak of loading *trials* replicas the way a flip
    chunk does and training the stack one step."""
    facade = get_facade(spec.framework)
    set_global_determinism(spec.framework, spec.seed)
    train, _ = make_dataset(spec)
    size = spec.scale.batch_size
    tracemalloc.start()
    try:
        models, optimizers = [], []
        for _ in range(trials):
            model = build_session_model(spec)
            optimizer = SGD(lr=spec.effective_learning_rate,
                            momentum=spec.momentum)
            facade.load_checkpoint(checkpoint, model, optimizer)
            models.append(model)
            optimizers.append(optimizer)
        run_stacked_training(models, optimizers, train.images[:size],
                             train.labels[:size], 1, batch_size=size)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(SMOKE_SPECS))
def test_estimate_covers_a_stacked_step(cache, name):
    spec = SMOKE_SPECS[name]
    checkpoint = cache.get(spec).checkpoint_path
    one = step_peak(spec, checkpoint, 1)
    four = step_peak(spec, checkpoint, 4)
    assert (four - one) / 3 <= stacked_trial_bytes(payload(spec))
