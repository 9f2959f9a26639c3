"""Vectorized numerical primitives: im2col convolution lowering, pooling
patch extraction, softmax, and cross-entropy.

Everything operates on NCHW tensors and is written as pure numpy with no
Python-level loops over batch elements or spatial positions (the loops that
do remain are over the kernel window, bounded by kernel_size**2).
"""

from __future__ import annotations

import numpy as np


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


def im2col(x: np.ndarray, kernel: int, stride: int, pad: int,
           trials: int | None = None) -> np.ndarray:
    """Lower NCHW input patches into a matrix of shape
    ``(N * out_h * out_w, C * kernel * kernel)``.

    The column order matches the OIHW weight layout flattened with C-order
    reshape, so a convolution becomes a single GEMM.

    With *trials* given, the batch axis folds that many equal groups of
    images (the trial-stacked conv) and the result is one matrix per group,
    ``(trials, N // trials * out_h * out_w, C * kernel * kernel)``,
    reshaped straight from the patch array.  Each group's matrix then has
    the memory order this function returns for that group alone: a
    Fortran-ordered view for a single image, C order otherwise.  The order
    picks the GEMM variant BLAS runs, and the variants round differently,
    so a stacked conv must not fold the groups into one matrix first.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    rows = ((trials, n // trials * out_h * out_w) if trials
            else (n * out_h * out_w,))
    if pad > 0:
        x = pad_nchw(x, pad)
    if c == 1:
        # single-channel (the pooling layers fold channels into the batch):
        # writing straight into the output layout skips the transpose copy
        cols = np.empty((n, out_h, out_w, kernel, kernel), dtype=x.dtype)
        for ky in range(kernel):
            y_max = ky + stride * out_h
            for kx in range(kernel):
                x_max = kx + stride * out_w
                cols[..., ky, kx] = x[:, 0, ky:y_max:stride, kx:x_max:stride]
        return cols.reshape(*rows, kernel * kernel)
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
    """Inverse of :func:`im2col`: scatter-add columns back onto the input."""
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    if (stride == kernel and pad == 0
            and h == out_h * kernel and w == out_w * kernel):
        # non-overlapping windows that tile the input exactly (the common
        # pooling geometry): every cell receives exactly one contribution,
        # so the scatter-add collapses to a single strided reshuffle
        return np.ascontiguousarray(
            cols.reshape(n, out_h, out_w, c, kernel, kernel)
            .transpose(0, 3, 1, 4, 2, 5)
        ).reshape(n, c, h, w)
    cols = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(
        0, 3, 4, 5, 1, 2
    )
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += (
                cols[:, :, ky, kx, :, :]
            )
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the class (last) axis.

    The reduction axis is ``-1`` rather than the historical hard-coded ``1``
    so the same kernel serves plain ``(N, C)`` logits and trial-stacked
    ``(T, N, C)`` logits; for 2-D inputs the two spellings are the same
    reduction, bit for bit.
    """
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, labels: np.ndarray,
                  eps: float = 1e-12) -> float:
    """Mean negative log-likelihood of integer *labels* under *probs*."""
    n = probs.shape[0]
    picked = probs[np.arange(n), labels]
    return float(-np.mean(np.log(np.clip(picked, eps, None))))


def softmax_cross_entropy_with_grad(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss value and gradient w.r.t. logits in one pass."""
    probs = softmax(logits)
    loss = cross_entropy(probs, labels)
    grad = probs.copy()
    grad[np.arange(logits.shape[0]), labels] -= 1.0
    grad /= logits.shape[0]
    return loss, grad


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy in [0, 1]."""
    return float(np.mean(np.argmax(logits, axis=-1) == labels))


# ---------------------------------------------------------------------------
# Trial-stacked variants
# ---------------------------------------------------------------------------
#
# The batched multi-fault engine trains T weight replicas at once; logits
# arrive stacked as (T, N, C).  Each helper below reduces per trial with the
# same contiguous-axis reduction the scalar helper performs on one trial's
# (N, C) slice, so slice t of every result is bitwise what the sequential
# code would have produced.

def cross_entropy_stacked(probs: np.ndarray, labels: np.ndarray,
                          eps: float = 1e-12) -> np.ndarray:
    """Per-trial mean NLL of integer *labels* under stacked ``(T, N, C)``
    probabilities; returns shape ``(T,)``."""
    n = probs.shape[1]
    picked = probs[:, np.arange(n), labels]
    return -np.mean(np.log(np.clip(picked, eps, None)), axis=-1)


def softmax_cross_entropy_with_grad_stacked(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked analogue of :func:`softmax_cross_entropy_with_grad`:
    per-trial losses ``(T,)`` and the gradient w.r.t. ``(T, N, C)`` logits."""
    probs = softmax(logits)
    losses = cross_entropy_stacked(probs, labels)
    n = logits.shape[1]
    grad = probs.copy()
    grad[:, np.arange(n), labels] -= 1.0
    grad /= n
    return losses, grad


def accuracy_stacked(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-trial top-1 accuracy of stacked ``(T, N, C)`` logits: ``(T,)``."""
    return np.mean(np.argmax(logits, axis=-1) == labels, axis=-1)
