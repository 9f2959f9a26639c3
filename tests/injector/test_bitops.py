"""Unit and property tests for IEEE-754 bit operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.injector import bitops


class TestFloatBitsRoundtrip:
    @pytest.mark.parametrize("precision", [16, 32, 64])
    def test_roundtrip_simple(self, precision):
        value = 0.25
        bits = bitops.float_to_bits(value, precision)
        back = bitops.bits_to_float(bits, precision)
        assert float(back) == value

    def test_paper_example_exponent_msb_flip(self):
        """The paper's §V-B example: flipping the exponent MSB of 0.25
        (64-bit) yields ~4.49e+307."""
        flipped = bitops.flip_bit(0.25, 62, 64)  # bit 62 = exponent MSB (LSB order)
        assert float(flipped) == pytest.approx(4.49423283715579e307, rel=1e-10)

    def test_known_bit_patterns(self):
        assert bitops.float_to_bits(1.0, 64) == 0x3FF0000000000000
        assert bitops.float_to_bits(1.0, 32) == 0x3F800000
        assert bitops.float_to_bits(-2.0, 64) == 0xC000000000000000
        assert bitops.float_to_bits(0.0, 16) == 0x0000

    @given(st.floats(allow_nan=False, width=64))
    def test_roundtrip_property_f64(self, value):
        bits = bitops.float_to_bits(value, 64)
        assert float(bitops.bits_to_float(bits, 64)) == value

    @given(st.floats(allow_nan=False, width=32))
    def test_roundtrip_property_f32(self, value):
        bits = bitops.float_to_bits(value, 32)
        assert float(bitops.bits_to_float(bits, 32)) == np.float32(value)


class TestFlipBit:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64),
           st.integers(min_value=0, max_value=63))
    @settings(max_examples=200)
    def test_flip_is_involution(self, value, bit):
        once = bitops.flip_bit(value, bit, 64)
        twice = bitops.flip_bit(once, bit, 64)
        assert bitops.float_to_bits(twice, 64) == bitops.float_to_bits(value, 64)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64),
           st.integers(min_value=0, max_value=63))
    @settings(max_examples=200)
    def test_flip_changes_exactly_one_bit(self, value, bit):
        flipped = bitops.flip_bit(value, bit, 64)
        assert bitops.count_flipped_bits(value, flipped, 64) == 1

    def test_sign_bit_flip_negates(self):
        flipped = bitops.flip_bit(3.5, 63, 64)
        assert float(flipped) == -3.5

    def test_out_of_range_bit_rejected(self):
        with pytest.raises(ValueError):
            bitops.flip_bit(1.0, 64, 64)
        with pytest.raises(ValueError):
            bitops.flip_bit(1.0, -1, 64)

    def test_mantissa_flip_is_small_perturbation(self):
        """Low-mantissa flips barely move a normal value (paper's key
        observation about why models absorb most flips)."""
        flipped = bitops.flip_bit(1.0, 0, 64)
        assert abs(float(flipped) - 1.0) < 1e-15


class TestMask:
    def test_parse_mask_string(self):
        assert bitops.parse_mask("101101") == 0b101101
        assert bitops.parse_mask("00000001") == 1

    def test_parse_mask_rejects_garbage(self):
        with pytest.raises(ValueError):
            bitops.parse_mask("10a1")
        with pytest.raises(ValueError):
            bitops.parse_mask("")

    def test_mask_width_keeps_leading_zeros(self):
        assert bitops.mask_width("00000001") == 8
        assert bitops.mask_width("1") == 1

    def test_apply_mask_at_zero_shift(self):
        out = bitops.apply_xor_mask(1.0, 0b1, 0, 64)
        assert bitops.float_to_bits(out, 64) == 0x3FF0000000000001

    def test_apply_mask_overflowing_precision_rejected(self):
        with pytest.raises(ValueError):
            bitops.apply_xor_mask(1.0, 0b11111111, 60, 64)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64),
           st.integers(min_value=1, max_value=255),
           st.integers(min_value=0, max_value=56))
    @settings(max_examples=200)
    def test_mask_is_involution(self, value, mask, shift):
        once = bitops.apply_xor_mask(value, mask, shift, 64)
        twice = bitops.apply_xor_mask(once, mask, shift, 64)
        assert bitops.float_to_bits(twice, 64) == bitops.float_to_bits(value, 64)


class TestIndexOrders:
    def test_msb_lsb_conversion(self):
        assert bitops.msb_to_lsb(0, 64) == 63  # sign
        assert bitops.msb_to_lsb(1, 64) == 62  # exponent MSB
        assert bitops.msb_to_lsb(63, 64) == 0
        assert bitops.lsb_to_msb(0, 64) == 63

    @given(st.integers(min_value=0, max_value=63))
    def test_conversion_roundtrip(self, bit):
        assert bitops.lsb_to_msb(bitops.msb_to_lsb(bit, 64), 64) == bit

    def test_layouts(self):
        assert bitops.FLOAT_LAYOUTS[64].exponent_msb == 62
        assert bitops.FLOAT_LAYOUTS[64].sign_bit == 63
        assert bitops.FLOAT_LAYOUTS[32].exponent_msb == 30
        assert bitops.FLOAT_LAYOUTS[16].exponent_msb == 14
        assert bitops.FLOAT_LAYOUTS[16].exponent_lsb == 10


class TestNEVPredicates:
    def test_nan_inf(self):
        assert bitops.is_nan_or_inf(float("nan"))
        assert bitops.is_nan_or_inf(float("inf"))
        assert bitops.is_nan_or_inf(float("-inf"))
        assert not bitops.is_nan_or_inf(1e308)

    def test_extreme(self):
        assert bitops.is_extreme(4.5e307)
        assert bitops.is_extreme(float("nan"))
        assert not bitops.is_extreme(1e20)
        assert bitops.is_extreme(1e20, threshold=1e19)


class TestIntegerFlip:
    def test_flip_preserves_sign(self):
        rng = np.random.default_rng(0)
        for value in (-100, -1, 1, 100):
            out = bitops.flip_integer_bit(value, rng)
            assert (out < 0) == (value < 0) or out == 0

    def test_flip_changes_value(self):
        rng = np.random.default_rng(0)
        assert bitops.flip_integer_bit(100, rng) != 100

    def test_flip_zero(self):
        rng = np.random.default_rng(0)
        assert bitops.flip_integer_bit(0, rng) == 1  # only bit of bin(0)

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    @settings(max_examples=100)
    def test_flip_within_bit_length(self, value):
        rng = np.random.default_rng(abs(value) % 2**32)
        out = bitops.flip_integer_bit(value, rng)
        assert abs(out).bit_length() <= max(abs(value).bit_length(), 1)


INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64]


class TestWrapInteger:
    @pytest.mark.parametrize("dtype", INTEGER_DTYPES)
    def test_matches_the_cast_wherever_the_cast_works(self, dtype):
        """In range, and overflowing upward as far as numpy takes a
        Python int (uint64's top), the wrap is numpy's C cast."""
        info = np.iinfo(dtype)
        values = {info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max,
                  2**64 - 1}
        values |= {info.max + 2**k for k in range(64)
                   if info.max + 2**k < 2**64}
        for value in sorted(v for v in values if v >= info.min):
            assert bitops.wrap_integer(value, dtype) == \
                int(np.asarray(value).astype(dtype)[()]), value

    @given(st.integers(min_value=-(2**63), max_value=2**64 - 1),
           st.sampled_from(INTEGER_DTYPES))
    @settings(max_examples=200)
    def test_matches_the_cast_property(self, value, dtype):
        assert bitops.wrap_integer(value, dtype) == \
            int(np.asarray(value).astype(dtype)[()])

    @pytest.mark.parametrize("k", [0, 1, 31, 62])
    def test_int64_min_flip_keeps_its_raw_bits(self, k):
        assert bitops.wrap_integer(-(2**63 + 2**k), np.int64) == \
            2**63 - 2**k


class TestPrecisionHelpers:
    def test_dtype_for_precision(self):
        assert bitops.dtype_for_precision(16) == np.float16
        assert bitops.dtype_for_precision(32) == np.float32
        assert bitops.dtype_for_precision(64) == np.float64
        with pytest.raises(ValueError):
            bitops.dtype_for_precision(128)

    def test_precision_of_dtype(self):
        assert bitops.precision_of_dtype(np.dtype(np.float16)) == 16
        with pytest.raises(TypeError):
            bitops.precision_of_dtype(np.dtype(np.int32))
