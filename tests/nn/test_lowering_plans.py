"""The lowering's cached index plans, col2im's chunks, and the input layer
whose gradient a model never forms.

A model's first layer is fed the data batch; no caller of
:meth:`Model.backward` reads the gradient w.r.t. that batch, so the stem
skips ``grad_cols @ W`` and its ``col2im``.  A standalone layer still
returns its input gradient (``test_layers.py`` checks it against finite
differences).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.batched import stack_models
from repro.models import build_model
from repro.nn import functional as F
from repro.nn.layers import AvgPool2D, Conv2D, MaxPool2D

PLANS = [
    (F._gather_plan, (3, 6, 8, 3, 1, 1)),
    (F._scatter_plan, (3, 6, 8, 3, 2, 1)),
    (F._tile_plan, (1, 6, 8, 2)),
]


@pytest.mark.parametrize("build, key", PLANS,
                         ids=[build.__name__ for build, _ in PLANS])
def test_plans_are_cached_read_only_and_bounded(build, key):
    plan = build(*key)
    assert build(*key) is plan
    assert not plan.flags.writeable
    with pytest.raises(ValueError):
        plan[0] = 0
    assert build.cache_info().maxsize is not None


def chunk_bytes(cols, x_shape, kernel, stride, pad):
    """Work-array bytes one image adds to a col2im chunk: its columns
    beside the sentinel, its gathered terms and its running sum."""
    n, c, h, w = x_shape
    plan = F._scatter_plan(c, h, w, kernel, stride, pad)
    return (cols.size // n + 1 + plan.size + c * h * w) * cols.itemsize


@pytest.mark.parametrize("kernel, stride, pad", [
    (3, 1, 1), (3, 2, 1), (5, 2, 2), (2, 1, 0), (1, 2, 0)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_col2im_chunks_leave_the_bytes_unchanged(monkeypatch, kernel, stride,
                                                 pad, dtype):
    """The golden fixture's col2im cases fit one chunk; split the same kind
    of call into one image a chunk and into chunks of two with a shorter
    last one, and every byte and stride stays."""
    x_shape = (7, 3, 6, 8)
    out_h = F.conv_output_size(6, kernel, stride, pad)
    out_w = F.conv_output_size(8, kernel, stride, pad)
    rng = np.random.default_rng(kernel * 10 + stride)
    cols = rng.standard_normal((7 * out_h * out_w, 3 * kernel * kernel))
    cols[rng.random(cols.shape) < 0.1] = -0.0
    cols[rng.random(cols.shape) < 0.03] = np.nan
    cols[rng.random(cols.shape) < 0.03] = np.inf
    cols = cols.astype(dtype)
    whole = F.col2im(cols, x_shape, kernel, stride, pad)
    image = chunk_bytes(cols, x_shape, kernel, stride, pad)
    assert 7 * image <= F.COL2IM_CHUNK_BYTES  # one chunk by default
    for budget in (1, 2 * image):
        monkeypatch.setattr(F, "COL2IM_CHUNK_BYTES", budget)
        split = F.col2im(cols, x_shape, kernel, stride, pad)
        assert split.tobytes() == whole.tobytes()
        assert split.strides == whole.strides


@pytest.mark.parametrize("pad", [0, 1])
def test_col2im_work_arrays_stay_within_a_chunk(pad):
    """Beside the columns and the result, col2im holds one chunk of work
    arrays and a copy of its plan, however many images the columns hold:
    here 3.7-5.3 MB of columns go through 1 MiB chunks."""
    x_shape = n, c, h, w = 128, 8, 12, 12
    out_h, out_w = (F.conv_output_size(size, 3, 1, pad) for size in (h, w))
    rng = np.random.default_rng(2)
    cols = rng.standard_normal((n * out_h * out_w, c * 9)).astype(np.float32)
    assert cols.nbytes > 3 * F.COL2IM_CHUNK_BYTES
    F.col2im(cols, x_shape, 3, 1, pad)  # builds the cached plan
    tracemalloc.start()
    try:
        out = F.col2im(cols, x_shape, 3, 1, pad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result_bytes = out.base.nbytes if out.base is not None else out.nbytes
    plan_bytes = F._scatter_plan(c, h, w, 3, 1, pad).nbytes
    # an add may buffer each of its three operands
    ufunc_bytes = 3 * np.getbufsize() * cols.itemsize
    assert peak <= (result_bytes + F.COL2IM_CHUNK_BYTES + plan_bytes
                    + ufunc_bytes)


@pytest.fixture
def col2im_calls(monkeypatch):
    """The ``x_shape`` of every col2im call, in call order."""
    calls = []
    real = F.col2im

    def recording(cols, x_shape, *args):
        calls.append(tuple(x_shape))
        return real(cols, x_shape, *args)

    monkeypatch.setattr(F, "col2im", recording)
    return calls


def lowered_layers(model):
    return [layer for layer in model.layers()
            if isinstance(layer, (Conv2D, MaxPool2D, AvgPool2D))]


def test_alexnet_step_skips_only_the_stem_col2im(col2im_calls):
    model = build_model("alexnet", width_mult=0.0625, image_size=16)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 3, 16, 16)).astype(np.float32)
    logits = model.forward(x, training=True)
    _, grad = F.softmax_cross_entropy_with_grad(logits, np.arange(32) % 10)
    assert model.backward(grad) is None
    assert len(col2im_calls) == len(lowered_layers(model)) - 1
    assert x.shape not in col2im_calls
    stem = model.get_layer("conv1")
    assert np.any(stem.grads["W"] != 0) and np.any(stem.grads["b"] != 0)


def test_stacked_resnet_bs1_step_skips_only_the_stem_col2im(col2im_calls):
    trials = 3
    model = stack_models([
        build_model("resnet50", width_mult=0.03125, image_size=16)
        for _ in range(trials)])
    rng = np.random.default_rng(1)
    x = rng.standard_normal((trials, 1, 3, 16, 16)).astype(np.float32)
    logits = model.forward(x, training=True)
    _, grad = F.softmax_cross_entropy_with_grad(logits, np.array([4]))
    assert model.backward(grad) is None
    assert len(col2im_calls) == len(lowered_layers(model)) - 1
    assert (trials, 3, 16, 16) not in col2im_calls
    assert np.any(model.get_layer("conv1").grads["W"] != 0)
