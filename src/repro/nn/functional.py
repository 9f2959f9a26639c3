"""Vectorized numerical primitives: im2col convolution lowering, pooling
patch extraction, softmax, and cross-entropy.

Everything operates on NCHW tensors and is written as pure numpy with no
Python-level loops over spatial positions.  The convolution lowering moves
data through per-image index plans, built once per geometry and cached.
What Python loops remain run over the kernel window (a single image's
im2col slice copies, col2im's in-order adds), at most kernel_size**2
steps, and, in col2im, over chunks of images sized to stay in cache.
"""

from __future__ import annotations

import functools

import numpy as np

#: Work-array bytes (column copy, gathered terms, running sum) per chunk of
#: images in :func:`col2im`.  Chunks this size stay in a core's L2 cache,
#: which made col2im fastest among 256 KiB to 4 MiB chunks on a 2-vCPU Xeon
#: host, and they keep col2im's memory beside its columns and result fixed
#: at any batch size.
COL2IM_CHUNK_BYTES = 1 << 20


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size: input {size}, kernel {kernel}, "
            f"stride {stride}, pad {pad}"
        )
    return out


def pad_nchw(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial axes of an NCHW tensor.

    Equivalent to ``np.pad(x, ((0,0),(0,0),(p,p),(p,p)))`` but a plain
    allocate-and-assign: ``np.pad`` spends more time in its generic Python
    dispatch than in the copy at the call rates the conv layers hit.
    """
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    padded[:, :, pad:pad + h, pad:pad + w] = x
    return padded


@functools.lru_cache(maxsize=128)
def _gather_plan(c: int, h: int, w: int, kernel: int, stride: int,
                 pad: int) -> np.ndarray:
    """Per-image im2col plan: entry ``(oy * out_w + ox) * c * kernel**2 +
    (ch * kernel + ky) * kernel + kx`` is the flat index, in one padded
    ``(c, h + 2 * pad, w + 2 * pad)`` image, of the cell that window
    ``(oy, ox)`` reads at channel ``ch`` and offset ``(ky, kx)``."""
    hp, wp = h + 2 * pad, w + 2 * pad
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    window = (np.arange(c)[:, None, None] * (hp * wp)
              + np.arange(kernel)[:, None] * wp + np.arange(kernel))
    origin = (np.arange(out_h)[:, None] * (stride * wp)
              + np.arange(out_w) * stride)
    plan = (origin.reshape(-1, 1) + window.reshape(1, -1)).reshape(-1)
    plan.setflags(write=False)
    return plan


@functools.lru_cache(maxsize=128)
def _scatter_plan(c: int, h: int, w: int, kernel: int, stride: int,
                  pad: int) -> np.ndarray:
    """Per-image col2im plan, flattened from ``(kernel**2, c * h * w)``:
    row ``ky * kernel + kx`` holds, for every unpadded input cell, the
    index in one image's flattened columns of the value offset ``(ky, kx)``
    adds to that cell, or the sentinel index one past the end where no
    window puts that offset on it."""
    gather = _gather_plan(c, h, w, kernel, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    offsets = kernel * kernel
    plan = np.full((offsets, c * hp * wp), gather.size, dtype=np.intp)
    # for a fixed offset distinct windows read distinct cells, so every
    # (offset, cell) pair is written at most once
    plan[np.arange(gather.size) % offsets, gather] = np.arange(gather.size)
    plan = np.ascontiguousarray(
        plan.reshape(offsets, c, hp, wp)[:, :, pad:pad + h, pad:pad + w]
    ).reshape(-1)
    plan.setflags(write=False)
    return plan


@functools.lru_cache(maxsize=128)
def _tile_plan(c: int, h: int, w: int, kernel: int) -> np.ndarray:
    """col2im plan for windows that tile an unpadded input exactly
    (stride == kernel): im2col's plan is then a permutation, and its
    inverse gives each input cell's one value in the flattened columns."""
    plan = np.argsort(_gather_plan(c, h, w, kernel, kernel, 0))
    plan.setflags(write=False)
    return plan


def _gather(rows: np.ndarray, plan: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """``rows[:, plan]`` as a C-ordered array, written to *out* if given.
    Plans hold in-range indices only, so ``mode="wrap"`` never wraps: it
    just skips the default mode's per-index range check, about a quarter of
    the take's time."""
    return rows.take(plan, axis=1, out=out, mode="wrap")


def im2col(x: np.ndarray, kernel: int, stride: int, pad: int,
           trials: int | None = None) -> np.ndarray:
    """Lower NCHW input patches into a matrix of shape
    ``(N * out_h * out_w, C * kernel * kernel)``.

    The column order matches the OIHW weight layout flattened with C-order
    reshape, so a convolution becomes a single GEMM.

    With *trials* given, the batch axis folds that many equal groups of
    images (the trial-stacked conv) and the result is one matrix per group,
    ``(trials, N // trials * out_h * out_w, C * kernel * kernel)``.  Each
    group's matrix has the memory order this function returns for that
    group alone: a Fortran-ordered view for a single multi-channel image,
    C order otherwise.  The order picks the GEMM variant BLAS runs, and the
    variants round differently, so a stacked conv must not fold the groups
    into one matrix first.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    group = n // trials if trials else n
    rows = ((trials, group * out_h * out_w) if trials
            else (n * out_h * out_w,))
    if pad > 0:
        x = pad_nchw(x, pad)
    if c == 1 or group > 1:
        # several images (or channel planes) a group: one gather through
        # the per-image plan writes the C-ordered matrix directly
        plan = _gather_plan(c, h, w, kernel, stride, pad)
        return _gather(x.reshape(n, -1), plan).reshape(
            *rows, c * kernel * kernel)
    # one image a group: slice copies into (c, ky, kx, oy, ox) order, whose
    # per-image (oy, ox) x (c, ky, kx) reshape is a Fortran-ordered view
    cols = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            cols[:, :, ky, kx, :, :] = x[:, :, ky:y_max:stride, kx:x_max:stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(
        *rows, c * kernel * kernel
    )


def col2im(cols: np.ndarray, x_shape: tuple[int, int, int, int],
           kernel: int, stride: int, pad: int) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back onto the input.

    The images go in chunks of about :data:`COL2IM_CHUNK_BYTES` of work
    arrays.  For a chunk, one gather through the per-image plan lines up,
    for every input cell, the value each window offset adds to it, or a
    +0.0 sentinel where it adds none; the offsets are then summed in
    ``(ky, kx)`` order onto a +0.0 start.  A running sum that starts at
    +0.0 is never -0.0, so adding a +0.0 sentinel leaves it bit for bit as
    it was: each cell gets the rounding of adding its contributions one
    window offset at a time.  With padding the result is the interior view
    of a padded array.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    per_image = out_h * out_w * c * kernel * kernel
    rows = cols.reshape(n, per_image)
    if (stride == kernel and pad == 0
            and h == out_h * kernel and w == out_w * kernel):
        # non-overlapping windows that tile the input exactly (1x1 convs,
        # the common pooling geometry): every cell receives exactly one
        # contribution, so the scatter-add is a pure copy, which keeps -0.0
        return _gather(rows, _tile_plan(c, h, w, kernel)).reshape(n, c, h, w)
    plan = _scatter_plan(c, h, w, kernel, stride, pad)
    offsets = kernel * kernel
    image_bytes = (per_image + 1 + plan.size + c * h * w) * cols.itemsize
    step = max(1, min(n, COL2IM_CHUNK_BYTES // image_bytes))
    source = np.empty((step, per_image + 1), dtype=cols.dtype)
    source[:, per_image] = 0.0
    terms = np.empty((step, plan.size), dtype=cols.dtype)
    total = np.empty((step, c, h, w), dtype=cols.dtype)
    padded = np.empty((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    out = padded[:, :, pad:pad + h, pad:pad + w]
    # np.take copies a read-only index array on every call: copy the
    # cached plan once, not once per chunk
    plan = np.array(plan)
    for first in range(0, n, step):
        m = min(step, n - first)
        source[:m, :per_image] = rows[first:first + m]
        _gather(source[:m], plan, out=terms[:m])
        chunk = terms[:m].reshape(m, offsets, c, h, w)
        # the running sum stays contiguous; only the last add writes the
        # result, strided when pad > 0
        part, result = total[:m], out[first:first + m]
        for offset in range(offsets):
            np.add(part if offset else 0.0, chunk[:, offset],
                   out=result if offset == offsets - 1 else part)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the class (last) axis, for ``(N, C)``
    logits and trial-stacked ``(T, N, C)`` logits alike."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=-1, keepdims=True)


# The loss helpers below reduce over the trailing (batch, class) axes, so
# one call on trial-stacked ``(T, N, C)`` input returns per-trial ``(T,)``
# results, and slice t of each is bitwise the call on trial t's ``(N, C)``
# slice.  On ``(N, C)`` input they return numpy scalars of the compute
# dtype; callers that do arithmetic on them convert them to Python floats.

def cross_entropy(probs: np.ndarray, labels: np.ndarray,
                  eps: float = 1e-12) -> np.ndarray:
    """Mean negative log-likelihood of integer *labels* under *probs*."""
    n = probs.shape[-2]
    # fancy indexing lays a stack's (T, N) picks out trial-minor; the mean
    # must walk each trial's N contiguously, as it does for one trial, or
    # numpy sums them in another order (and other bits) from N = 8 on
    picked = np.ascontiguousarray(probs[..., np.arange(n), labels])
    return -np.mean(np.log(np.clip(picked, eps, None)), axis=-1)


def softmax_cross_entropy_with_grad(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Loss value and gradient w.r.t. logits in one pass."""
    probs = softmax(logits)
    loss = cross_entropy(probs, labels)
    n = logits.shape[-2]
    grad = probs.copy()
    grad[..., np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def accuracy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Top-1 classification accuracy in [0, 1]."""
    return np.mean(np.argmax(logits, axis=-1) == labels, axis=-1)
