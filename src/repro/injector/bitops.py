"""IEEE-754 bit-level operations used by the checkpoint corrupter.

Bit indexing conventions
------------------------
Two conventions appear in the paper and both are supported explicitly:

* **LSB order** (`bit 0` = least-significant mantissa bit, `bit P-1` = sign):
  the layout drawn in Fig. 2.  All internal arithmetic uses LSB order.
* **MSB order** (`bit 0` = sign, `bit 1` = exponent MSB, ...): the order used
  by the injector's ``bit_range`` setting — the paper's example "``first_bit=2``
  ... starts at the second bit of the exponent" only works in this order.
  Public APIs taking paper-style ranges are suffixed ``_msb``.

Conversion: ``lsb = precision - 1 - msb``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: numpy float dtype and matching unsigned view dtype per precision.
_FLOAT_DTYPES: dict[int, tuple[np.dtype, np.dtype]] = {
    16: (np.dtype(np.float16), np.dtype(np.uint16)),
    32: (np.dtype(np.float32), np.dtype(np.uint32)),
    64: (np.dtype(np.float64), np.dtype(np.uint64)),
}


@dataclass(frozen=True)
class FloatLayout:
    """IEEE-754 field geometry (LSB bit positions) for one precision."""

    precision: int
    mantissa_bits: int
    exponent_bits: int

    @property
    def sign_bit(self) -> int:
        return self.precision - 1

    @property
    def exponent_msb(self) -> int:
        """LSB-order position of the exponent's most-significant bit."""
        return self.precision - 2

    @property
    def exponent_lsb(self) -> int:
        return self.mantissa_bits


FLOAT_LAYOUTS: dict[int, FloatLayout] = {
    16: FloatLayout(16, 10, 5),
    32: FloatLayout(32, 23, 8),
    64: FloatLayout(64, 52, 11),
}


def supported_precisions() -> tuple[int, ...]:
    """Float widths the injector understands (16, 32, 64)."""
    return tuple(sorted(_FLOAT_DTYPES))


def dtype_for_precision(precision: int) -> np.dtype:
    """The numpy float dtype of a given bit width."""
    try:
        return _FLOAT_DTYPES[precision][0]
    except KeyError:
        raise ValueError(f"unsupported float precision: {precision}") from None


def precision_of_dtype(dtype: np.dtype) -> int:
    """Bit width of a float dtype (raises for non-floats)."""
    dtype = np.dtype(dtype)
    if dtype.kind != "f":
        raise TypeError(f"not a float dtype: {dtype}")
    return dtype.itemsize * 8


def float_to_bits(value, precision: int) -> int:
    """Return the raw IEEE-754 bit pattern of *value* as a Python int."""
    float_dtype, uint_dtype = _FLOAT_DTYPES[precision]
    return int(np.asarray(value, dtype=float_dtype).view(uint_dtype)[()])


def bits_to_float(bits: int, precision: int) -> np.floating:
    """Reinterpret integer *bits* as a float of the given precision."""
    float_dtype, uint_dtype = _FLOAT_DTYPES[precision]
    return np.asarray(bits & ((1 << precision) - 1), dtype="u8").astype(
        uint_dtype
    ).view(float_dtype)[()]


def flip_bit(value, bit_lsb: int, precision: int) -> np.floating:
    """Flip one bit (LSB-order position) of a floating-point value."""
    if not 0 <= bit_lsb < precision:
        raise ValueError(f"bit {bit_lsb} out of range for {precision}-bit float")
    bits = float_to_bits(value, precision)
    return bits_to_float(bits ^ (1 << bit_lsb), precision)


def apply_xor_mask(value, mask: int, shift: int, precision: int) -> np.floating:
    """XOR *mask* (an int bit pattern), shifted left by *shift*, into *value*.

    Matches the paper's ``bit_mask`` mode: the mask string is padded with
    zeros on both sides and XORed against the value's bit pattern.
    """
    if shift < 0:
        raise ValueError("shift must be non-negative")
    if mask < 0:
        raise ValueError("mask must be non-negative")
    if mask.bit_length() + shift > precision:
        raise ValueError(
            f"mask of {mask.bit_length()} bits at shift {shift} exceeds "
            f"{precision}-bit precision"
        )
    bits = float_to_bits(value, precision)
    return bits_to_float(bits ^ (mask << shift), precision)


def msb_to_lsb(bit_msb: int, precision: int) -> int:
    """Convert a paper-style MSB-order bit index to LSB order."""
    if not 0 <= bit_msb < precision:
        raise ValueError(f"bit {bit_msb} out of range for {precision}-bit float")
    return precision - 1 - bit_msb


def lsb_to_msb(bit_lsb: int, precision: int) -> int:
    """Convert an LSB-order bit index to paper MSB order."""
    return precision - 1 - bit_lsb


def parse_mask(mask: str | int) -> int:
    """Parse a bit-mask setting: either a '101101' string or an int pattern."""
    if isinstance(mask, int):
        if mask < 0:
            raise ValueError("mask must be non-negative")
        return mask
    stripped = mask.strip()
    if not stripped or set(stripped) - {"0", "1"}:
        raise ValueError(f"mask must be a binary string, got {mask!r}")
    return int(stripped, 2)


def mask_width(mask: str | int) -> int:
    """Width of the mask pattern (length of the string form)."""
    if isinstance(mask, str):
        return len(mask.strip())
    return max(mask.bit_length(), 1)


def is_nan_or_inf(value) -> bool:
    """True when *value* is NaN or +-Inf (the paper's hard N-EV criterion)."""
    value = float(value)
    return math.isnan(value) or math.isinf(value)


def is_extreme(value, threshold: float = 1e30) -> bool:
    """True when *value* is NaN/Inf or its magnitude exceeds *threshold*.

    The paper's "extreme values" are finite numbers so large that the network
    collapses when computing with them; 1e30 is far above any trained-weight
    magnitude while far below the fp32 overflow limit, so overflow to Inf
    happens within one or two multiply-accumulates, mirroring the paper's
    observed collapses.
    """
    value = float(value)
    return is_nan_or_inf(value) or abs(value) > threshold


def flip_integer_bit(value: int, rng: np.random.Generator) -> int:
    """Flip one random bit of a Python integer, using its ``bin()`` form.

    Mirrors the paper's integer path: Python integers have unlimited
    precision, so the corruptible bits are those of ``bin(value)``; one is
    chosen uniformly and flipped.  The sign is preserved.
    """
    magnitude = abs(int(value))
    width = max(magnitude.bit_length(), 1)
    bit = int(rng.integers(0, width))
    flipped = magnitude ^ (1 << bit)
    return -flipped if value < 0 else flipped


def wrap_integer(value: int, dtype) -> int:
    """The value an integer *dtype* holds after storing *value*'s raw bits.

    Keeps the low ``bits`` bits of *value* in two's complement and reads
    them back at *dtype*: the wrap a C cast of an overflowing integer
    makes, for any Python integer, however far out of range.
    """
    info = np.iinfo(dtype)
    raw = int(value) % (1 << info.bits)
    return raw - (1 << info.bits) if raw > info.max else raw


# -- array kernels (vectorized injection engine) -----------------------------
#
# Each kernel is the batched counterpart of the scalar primitive above: it
# takes a float array of one precision plus per-element parameters and
# returns the corrupted values, computed through a uint view of the whole
# batch.  Scalar and array kernels must agree bit for bit — the engine
# equivalence property test locks that in.

def float_to_bits_array(values: np.ndarray, precision: int) -> np.ndarray:
    """Raw IEEE-754 bit patterns of a float array, as the matching uint."""
    float_dtype, uint_dtype = _FLOAT_DTYPES[precision]
    return np.ascontiguousarray(values, dtype=float_dtype).view(uint_dtype)


def bits_to_float_array(bits: np.ndarray, precision: int) -> np.ndarray:
    """Reinterpret a uint bit-pattern array as floats of *precision*."""
    float_dtype, uint_dtype = _FLOAT_DTYPES[precision]
    return np.ascontiguousarray(bits, dtype=uint_dtype).view(float_dtype)


def flip_bits_array(values: np.ndarray, bits_lsb: np.ndarray,
                    precision: int) -> np.ndarray:
    """Flip one (LSB-order) bit per element of a float array."""
    _, uint_dtype = _FLOAT_DTYPES[precision]
    patterns = float_to_bits_array(values, precision)
    masks = uint_dtype.type(1) << np.asarray(bits_lsb).astype(uint_dtype)
    return bits_to_float_array(patterns ^ masks, precision)


def apply_xor_mask_array(values: np.ndarray, mask: int, shifts: np.ndarray,
                         precision: int) -> np.ndarray:
    """XOR one mask pattern, shifted per element, into a float array."""
    _, uint_dtype = _FLOAT_DTYPES[precision]
    patterns = float_to_bits_array(values, precision)
    masks = uint_dtype.type(mask) << np.asarray(shifts).astype(uint_dtype)
    return bits_to_float_array(patterns ^ masks, precision)


def scale_array(values: np.ndarray, factor: float,
                precision: int) -> np.ndarray:
    """Multiply a float array by *factor* at the target precision."""
    float_dtype, _ = _FLOAT_DTYPES[precision]
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.asarray(values, dtype=float_dtype)
                * float_dtype.type(factor))


def stuck_at_array(values: np.ndarray, bit_lsb: int, stuck_value: int,
                   precision: int) -> np.ndarray:
    """Force one (LSB-order) bit of every element to a fixed value."""
    _, uint_dtype = _FLOAT_DTYPES[precision]
    patterns = float_to_bits_array(values, precision)
    mask = uint_dtype.type(1) << uint_dtype.type(bit_lsb)
    if stuck_value:
        patterns = patterns | mask
    else:
        patterns = patterns & ~mask
    return bits_to_float_array(patterns, precision)


def zero_array(count: int, precision: int) -> np.ndarray:
    """A batch of zeroed values at the target precision."""
    float_dtype, _ = _FLOAT_DTYPES[precision]
    return np.zeros(count, dtype=float_dtype)


def is_nan_or_inf_array(values: np.ndarray) -> np.ndarray:
    """Elementwise :func:`is_nan_or_inf` over a float array."""
    return ~np.isfinite(np.asarray(values))


def is_extreme_array(values: np.ndarray,
                     threshold: float = 1e30) -> np.ndarray:
    """Elementwise :func:`is_extreme` over a float array."""
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):
        return ~np.isfinite(values) | (np.abs(values) > threshold)


def count_flipped_bits(old, new, precision: int) -> int:
    """Hamming distance between the bit patterns of two floats."""
    return int(
        bin(float_to_bits(old, precision) ^ float_to_bits(new, precision))
        .count("1")
    )
