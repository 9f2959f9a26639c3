"""Golden outputs of the convolution lowering (``im2col`` / ``col2im``).

``data/lowering.json`` records, per case, the sha256 of an output's bytes
(C order), its shape, and the strides of every dimension longer than one.
The strides matter as much as the bytes: they pick the GEMM variant BLAS
runs on a ``cols`` matrix, and the variants round differently, so a kernel
that returns the same values in another memory order can still change every
trained weight.

The grid crosses kernel 1/2/3/5, stride 1/2, pad 0/1/2, channels 1/3/4 and
1/2/32 images, in float32 and float64.  ``im2col`` runs with ``trials``
None, 1, and one group per image, on contiguous and channels-last inputs;
``col2im`` runs on C- and Fortran-ordered columns.  A few non-tiling pooling
geometries (stride equal to kernel, size not a multiple of it) ride along.
Inputs come from an integer hash of the case name, not from a random
generator whose stream could change between numpy releases, and carry -0.0,
NaN and infinities.  The outputs are pure data movement plus fixed-order
IEEE adds, so they do not depend on the host.  ``col2im`` columns carry
infinities of one sign per case: ``inf + -inf`` yields the platform's
default NaN, whose sign bit differs between architectures.

The fixture is frozen: a mismatch means the lowering changed, not that the
file is stale.  To write what the kernels return now (to diff against the
fixture), run::

    PYTHONPATH=src python -m tests.nn.test_golden_lowering OUT.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import zlib

import numpy as np
import pytest

from repro.nn import functional as F

FIXTURE = pathlib.Path(__file__).parent / "data" / "lowering.json"

KERNELS = (1, 2, 3, 5)
STRIDES = (1, 2)
PADS = (0, 1, 2)
CHANNELS = (1, 3, 4)
IMAGES = (1, 2, 32)
DTYPES = (np.float32, np.float64)
#: (height, width): 6x8 tiles exactly under kernel 2 stride 2; the rest
#: of the grid overlaps, leaves gaps, or pads
SIZE = (6, 8)
#: stride == kernel, no padding, but the size is not a multiple of the
#: kernel: the overlapping col2im path on a pooling geometry
UNTILED = [((7, 5), k, k, c, n) for k in (2, 3) for c in (1, 3)
           for n in (2, 32)]


def _mix(count: int, salt: int) -> np.ndarray:
    """splitmix64 of ``salt + arange(count)``: integer arithmetic only, so
    the same bits on every host and numpy release."""
    z = (np.arange(count, dtype=np.uint64) + np.uint64(salt)) \
        * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def values(shape, dtype, name: str, inf_signs=(1.0, -1.0)) -> np.ndarray:
    """Finite values of magnitude 1/16..16 with full random mantissas (so
    sums round and their order shows), 12% -0.0, 3% NaN and 4% infinities
    drawn from *inf_signs*."""
    count = int(np.prod(shape))
    z = _mix(count, zlib.crc32(name.encode()))
    if dtype == np.float64:
        bits = ((z >> np.uint64(63)) << np.uint64(63)) \
            | ((np.uint64(1019) + ((z >> np.uint64(52)) & np.uint64(7)))
               << np.uint64(52)) \
            | (z & np.uint64((1 << 52) - 1))
        out = bits.view(np.float64)
    else:
        low = (z & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        bits = (low & np.uint32(0x80000000)) \
            | ((np.uint32(123) + ((low >> np.uint32(23)) & np.uint32(7)))
               << np.uint32(23)) \
            | (low & np.uint32((1 << 23) - 1))
        out = bits.view(np.float32)
    pick = (z >> np.uint64(40)) % np.uint64(100)
    out[pick < 12] = -0.0
    out[(pick >= 12) & (pick < 15)] = np.nan
    out[(pick >= 15) & (pick < 17)] = inf_signs[0] * np.inf
    out[(pick >= 17) & (pick < 19)] = inf_signs[-1] * np.inf
    return out.reshape(shape)


def record(array: np.ndarray) -> dict:
    return {
        "sha256": hashlib.sha256(array.tobytes()).hexdigest(),
        "shape": list(array.shape),
        "strides": [stride if size > 1 else None
                    for size, stride in zip(array.shape, array.strides)],
    }


def geometries():
    for kernel in KERNELS:
        for stride in STRIDES:
            for pad in PADS:
                for channels in CHANNELS:
                    for images in IMAGES:
                        yield SIZE, kernel, stride, pad, channels, images
    for (size, kernel, stride, channels, images) in UNTILED:
        yield size, kernel, stride, 0, channels, images


def build_cases() -> dict[str, dict]:
    cases: dict[str, dict] = {}
    for (h, w), kernel, stride, pad, channels, images in geometries():
        geometry = f"{h}x{w}/k{kernel}s{stride}p{pad}/c{channels}/n{images}"
        out_h = F.conv_output_size(h, kernel, stride, pad)
        out_w = F.conv_output_size(w, kernel, stride, pad)
        for dtype in DTYPES:
            tag = np.dtype(dtype).name
            for layout in ("contiguous", "channels_last"):
                name = f"im2col/{tag}/{layout}/{geometry}"
                x = values((images, channels, h, w), dtype, name)
                if layout == "channels_last":
                    x = np.ascontiguousarray(
                        x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
                for trials in dict.fromkeys((None, 1, images)):
                    cases[f"{name}/t{trials}"] = record(
                        F.im2col(x, kernel, stride, pad, trials=trials))
            signs = (1.0,) if dtype == np.float32 else (-1.0,)
            rows = images * out_h * out_w
            width = channels * kernel * kernel
            for layout in ("C", "F"):
                name = f"col2im/{tag}/{layout}/{geometry}"
                cols = np.asarray(values((rows, width), dtype, name, signs),
                                  order=layout)
                cases[name] = record(F.col2im(
                    cols, (images, channels, h, w), kernel, stride, pad))
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


@pytest.mark.parametrize("kind", ["im2col", "col2im"])
def test_lowering_is_byte_identical(golden, built, kind):
    names = [name for name in golden if name.startswith(kind + "/")]
    assert names
    wrong = [name for name in names if built[name] != golden[name]]
    assert not wrong, f"{len(wrong)} of {len(names)} differ: {wrong[:5]}"


def test_overlapping_col2im_turns_a_lone_negative_zero_positive():
    # kernel 1, stride 2: every cell is reached by one window or by none,
    # and the running sum each one lands in starts at +0.0
    cols = np.full((4, 1), -0.0)
    out = F.col2im(cols, (1, 1, 3, 3), 1, 2, 0)
    assert out[0, 0, 0, 0] == 0.0 and not np.signbit(out).any()


def test_exact_tiling_col2im_keeps_negative_zero():
    cols = np.full((4, 4), -0.0)
    out = F.col2im(cols, (1, 1, 4, 4), 2, 2, 0)
    assert np.signbit(out).all()


if __name__ == "__main__":  # pragma: no cover
    cases = build_cases()
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        # one case a line, so a diff names the cases that moved
        out.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: {json.dumps(cases[name], sort_keys=True)}"
            for name in sorted(cases)) + "\n}\n")
