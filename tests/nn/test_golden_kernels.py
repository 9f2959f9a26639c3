"""Golden bytes of the layer kernels, and the BLAS layers against their
plain formulas.

``data/kernels.json`` records, per case, the sha256 of each array a layer
produces (C order), its shape and its dtype: the forward output, the
gradient w.r.t. the input, every parameter gradient and the state after
the step.  It covers BatchNorm2D (training and eval), MaxPool2D,
AvgPool2D, GlobalAvgPool2D, Flatten, ReLU and Dropout under the float16,
float32 and float64 policies, at 1 and 4 images.  Those kernels use only
IEEE add, multiply, divide and sqrt, fixed-order reductions and seeded
draws, so their bytes do not depend on the host.  Inputs come from the
lowering fixture's integer hash, carry -0.0 throughout, and NaN and both
infinities in image 0's channel 0 only, so a batch-norm's other channels
keep finite statistics.

Conv2D, Dense and LocalResponseNorm run BLAS or ``np.power``, whose bytes
can vary by host.  They are checked instead, bit for bit, against the
single-trial formulas written out below (``cols @ W.T + b``,
``grad_mat.T @ cols``, the LRN window sums), with ``needs_input_grad`` on
and off.

The fixture is frozen: a mismatch means a kernel changed, not that the
file is stale.  To write what the kernels return now (to diff against the
fixture), run::

    PYTHONPATH=src python -m tests.nn.test_golden_kernels OUT.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.nn import POLICIES, rng
from repro.nn import functional as F
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    LocalResponseNorm,
    MaxPool2D,
    ReLU,
)

from .test_golden_lowering import values

FIXTURE = pathlib.Path(__file__).parent / "data" / "kernels.json"

IMAGES = (1, 4)
#: channels, height, width of every 4-D input
CHW = (4, 6, 6)
#: name -> builder of the parameterless layers (the policy only picks the
#: input dtype); the pools cover a tiling and an overlapping geometry
PLAIN = {
    "maxpool_k2s2": lambda: MaxPool2D("pool", kernel=2),
    "maxpool_k3s2": lambda: MaxPool2D("pool", kernel=3, stride=2),
    "avgpool_k2s2": lambda: AvgPool2D("pool", kernel=2),
    "avgpool_k3s2": lambda: AvgPool2D("pool", kernel=3, stride=2),
    "gap": lambda: GlobalAvgPool2D("gap"),
    "flatten": lambda: Flatten("flat"),
    "relu": lambda: ReLU("relu"),
    "dropout": lambda: Dropout("drop", 0.5),
}


def activations(shape, dtype, name: str) -> np.ndarray:
    """The lowering fixture's values with NaN and infinities moved to the
    first four entries (in C order: image 0, channel 0, the top row):
    elsewhere finite, with -0.0 kept."""
    x = values(shape, dtype, name)
    x[~np.isfinite(x)] = 0.75
    x.reshape(-1)[:4] = [np.nan, np.inf, -np.inf, -0.0]
    return x


def digest(array: np.ndarray) -> dict:
    return {
        "sha256": hashlib.sha256(array.tobytes()).hexdigest(),
        "shape": list(array.shape),
        "dtype": array.dtype.name,
    }


def run_step(layer, x, training: bool, name: str) -> dict[str, dict]:
    """Digests of one forward and backward through *layer*."""
    out = layer.forward(x, training=training)
    grad = activations(out.shape, out.dtype, f"{name}/grad")
    arrays = {"out": out, "dx": layer.backward(grad)}
    for key, value in layer.grads.items():
        arrays[f"grads/{key}"] = value
    for key, value in layer.state.items():
        arrays[f"state/{key}"] = value
    return {f"{name}/{key}": digest(value) for key, value in arrays.items()}


def fill(layer, name: str):
    """Give *layer*'s parameters and state finite hashed values (a running
    variance its magnitude), not their init defaults; returns *layer*."""
    compute = layer.policy.compute_dtype
    for group in (layer.params, layer.state):
        for key, value in group.items():
            fresh = values(value.shape, compute, f"{name}/{key}")
            fresh[~np.isfinite(fresh)] = 0.5
            if key == "running_var":
                fresh = np.abs(fresh)
            group[key] = fresh.astype(value.dtype)
    return layer


def steps():
    """``(name, layer, input, training)`` of every fixture case."""
    for policy in POLICIES.values():
        compute = policy.compute_dtype
        for images in IMAGES:
            shape = (images,) + CHW
            for mode in ("train", "eval"):
                name = f"batchnorm/{mode}/{policy.name}/n{images}"
                layer = fill(BatchNorm2D("bn", CHW[0], policy=policy), name)
                yield (name, layer, activations(shape, compute, name),
                       mode == "train")
            for kind, build in PLAIN.items():
                name = f"{kind}/{policy.name}/n{images}"
                layer = build()
                layer.on_epoch_start(3)
                yield name, layer, activations(shape, compute, name), True


def build_cases() -> dict[str, dict]:
    saved = rng.current_seed()
    rng.seed_all(0)  # Dropout's masks derive from the global seed
    cases: dict[str, dict] = {}
    try:
        with np.errstate(all="ignore"):
            for name, layer, x, training in steps():
                cases.update(run_step(layer, x, training, name))
    finally:
        rng.seed_all(saved)
    return cases


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def built() -> dict[str, dict]:
    return build_cases()


def test_fixture_covers_every_case(golden, built):
    assert sorted(golden) == sorted(built)


@pytest.mark.parametrize("kind", ["batchnorm", *PLAIN])
def test_kernels_are_byte_identical(golden, built, kind):
    names = [name for name in golden if name.split("/")[0] == kind]
    assert names
    wrong = [name for name in names if built[name] != golden[name]]
    assert not wrong, f"{len(wrong)} of {len(names)} differ: {wrong[:5]}"


# ---------------------------------------------------------------------------
# BLAS and np.power layers against their single-trial formulas
# ---------------------------------------------------------------------------

def conv_reference(layer: Conv2D, x, grad):
    compute = layer.policy.compute_dtype
    k, s, p, o = layer.kernel, layer.stride, layer.pad, layer.out_channels
    n, _, h, w = x.shape
    out_h = F.conv_output_size(h, k, s, p)
    out_w = F.conv_output_size(w, k, s, p)
    cols = F.im2col(x, k, s, p)
    weight = layer.params["W"].astype(compute, copy=False).reshape(o, -1)
    out = cols @ weight.T
    np.add(out, layer.params["b"].astype(compute, copy=False), out=out)
    out = out.reshape(n, out_h, out_w, o).transpose(0, 3, 1, 2)
    grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, o)
    grads = {"W": (grad_mat.T @ cols).reshape(layer.params["W"].shape),
             "b": grad_mat.sum(axis=0)}
    dx = None
    if layer.needs_input_grad:
        dx = F.col2im(grad_mat @ weight, x.shape, k, s, p)
    return out, dx, grads


def dense_reference(layer: Dense, x, grad):
    compute = layer.policy.compute_dtype
    weight = layer.params["W"].astype(compute, copy=False)
    out = x @ weight.T
    np.add(out, layer.params["b"].astype(compute, copy=False), out=out)
    grads = {"W": grad.T @ x, "b": grad.sum(axis=0)}
    dx = np.matmul(grad, weight) if layer.needs_input_grad else None
    return out, dx, grads


def lrn_reference(layer: LocalResponseNorm, x, grad):
    def window_sum(squares):
        half = layer.size // 2
        channels = squares.shape[1]
        padded = np.pad(squares, ((0, 0), (half, half), (0, 0), (0, 0)))
        total = np.zeros_like(squares)
        for offset in range(layer.size):
            total += padded[:, offset:offset + channels]
        return total

    norm = layer.k + (layer.alpha / layer.size) * window_sum(x * x)
    scale = norm ** (-layer.beta)
    out = x * scale
    direct = grad * scale
    cross_coeff = grad * x * (norm ** (-layer.beta - 1.0))
    cross = (-2.0 * layer.beta * layer.alpha / layer.size) * x \
        * window_sum(cross_coeff)
    return out, direct + cross, {}


BLAS = {
    "conv_k3s1p1": (lambda policy: Conv2D("conv", 4, 6, kernel=3, stride=1,
                                          pad=1, policy=policy),
                    conv_reference),
    "conv_k3s2p1": (lambda policy: Conv2D("conv", 4, 6, kernel=3, stride=2,
                                          pad=1, policy=policy),
                    conv_reference),
    "conv_k1s1p0": (lambda policy: Conv2D("conv", 4, 6, kernel=1,
                                          policy=policy),
                    conv_reference),
    "conv_k5s2p2": (lambda policy: Conv2D("conv", 4, 6, kernel=5, stride=2,
                                          pad=2, policy=policy),
                    conv_reference),
    "dense": (lambda policy: Dense("fc", 24, 10, policy=policy),
              dense_reference),
    "lrn": (lambda policy: LocalResponseNorm("lrn", size=3),
            lrn_reference),
}


def strides(array: np.ndarray) -> list:
    """Strides of the dimensions longer than one (the rest carry none)."""
    return [stride if size > 1 else None
            for size, stride in zip(array.shape, array.strides)]


def channels_last(array: np.ndarray) -> np.ndarray:
    """*array* in NHWC memory, viewed as NCHW: the layout a Conv2D's
    output hands the layers after it."""
    if array.ndim != 4:
        return array
    return np.ascontiguousarray(array.transpose(0, 2, 3, 1)).transpose(
        0, 3, 1, 2)


@pytest.mark.parametrize("layout", ["contiguous", "channels_last"])
@pytest.mark.parametrize("needs_input_grad", [True, False])
@pytest.mark.parametrize("images", IMAGES)
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("kind", sorted(BLAS))
def test_blas_layers_match_their_formulas(kind, policy, images,
                                          needs_input_grad, layout):
    """Forward output, input gradient and parameter gradients, bit for bit,
    with the strides of the output and input gradient."""
    build, reference = BLAS[kind]
    name = f"{kind}/{policy}/n{images}"
    layer = fill(build(policy), name)
    layer.needs_input_grad = needs_input_grad
    compute = POLICIES[policy].compute_dtype
    shape = (images, 24) if kind == "dense" else (images,) + CHW
    x = activations(shape, compute, name)
    if layout == "channels_last":
        x = channels_last(x)
    out = layer.forward(x, training=True)
    grad = activations(out.shape, compute, f"{name}/grad")
    if layout == "channels_last":
        grad = channels_last(grad)
    dx = layer.backward(grad)
    want_out, want_dx, want_grads = reference(layer, x, grad)
    assert (out.shape, out.dtype) == (want_out.shape, want_out.dtype)
    assert strides(out) == strides(want_out)
    assert out.tobytes() == want_out.tobytes()
    if want_dx is None:
        assert dx is None
    else:
        assert (dx.shape, dx.dtype) == (want_dx.shape, want_dx.dtype)
        assert strides(dx) == strides(want_dx)
        assert dx.tobytes() == want_dx.tobytes()
    assert sorted(layer.grads) == sorted(want_grads)
    for key, want in want_grads.items():
        got = layer.grads[key]
        assert got.shape == layer.params[key].shape == want.shape
        assert got.tobytes() == want.tobytes(), f"grads[{key}]"


if __name__ == "__main__":  # pragma: no cover
    cases = build_cases()
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        # one case a line, so a diff names the cases that moved
        out.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(cases[name], sort_keys=True)}"
            for name in sorted(cases)) + "\n}\n")
