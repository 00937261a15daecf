"""Unit tests for IEEE-754 bit manipulation helpers."""

import numpy as np
import pytest

from repro.utils.floatbits import (
    EXPONENT_BITS,
    FLIP_KINDS,
    MANTISSA_BITS,
    NEAR_INF_MINIMUM_MAGNITUDE,
    apply_flip_kind,
    flip_adjacent_double_bit,
    flip_bit,
    flip_exponent_msb,
    flip_mantissa_lsb,
    is_extreme,
    make_near_inf,
    near_inf_fallback,
    uint_view,
)

FLOAT_DTYPES = [np.float32, np.float64]
UINT_OF = {np.float32: np.uint32, np.float64: np.uint64}


def bit_pattern(values, dtype):
    """Raw IEEE-754 bits of ``values`` in ``dtype`` (NaN-safe comparisons)."""
    return np.asarray(values, dtype=dtype).view(UINT_OF[dtype])


class TestFlipBit:
    def test_flip_sign_bit_negates(self):
        flipped = flip_bit(np.float32(3.5), 31, dtype=np.float32)
        assert float(flipped) == -3.5

    def test_flip_is_involution(self):
        value = np.float32(123.456)
        twice = flip_bit(flip_bit(value, 12), 12)
        assert float(twice) == pytest.approx(float(value))

    def test_flip_mantissa_bit_small_change(self):
        value = np.float32(1.0)
        flipped = flip_bit(value, 0)
        assert abs(float(flipped) - 1.0) < 1e-6
        assert float(flipped) != 1.0

    def test_out_of_range_bit_raises(self):
        with pytest.raises(ValueError):
            flip_bit(np.float32(1.0), 32)

    def test_array_input_flips_every_element(self):
        values = np.ones(5, dtype=np.float32)
        flipped = flip_bit(values, 31)
        assert np.all(flipped == -1.0)

    def test_non_float_input_is_read_in_the_requested_format(self):
        flipped = flip_bit(np.array([1, 2, 3]), 31, dtype=np.float32)
        assert flipped.dtype == np.float32
        assert flipped.tolist() == [-1.0, -2.0, -3.0]

    def test_requested_format_without_bit_map_rejected(self):
        with pytest.raises(TypeError):
            flip_bit([1.0], 3, dtype=np.float16)


class TestExponentFlip:
    def test_flip_exponent_msb_makes_huge_value(self):
        # 0.7 has biased exponent 126 (MSB clear); setting the MSB multiplies
        # the magnitude by 2^128, producing a huge but representable value.
        flipped = flip_exponent_msb(np.float32(0.7))
        assert np.isfinite(flipped)
        assert abs(float(flipped)) > 1e30

    def test_flip_exponent_msb_of_one_point_five_is_nan(self):
        # 1.5 sits at biased exponent 127: the flip lands on the all-ones
        # exponent with a non-zero mantissa, which IEEE-754 defines as NaN —
        # exactly the "one error type can transit to another" effect the
        # paper describes for bit-flips.
        assert np.isnan(flip_exponent_msb(np.float32(1.5)))

    def test_flip_exponent_msb_float64(self):
        flipped = flip_exponent_msb(np.float64(0.7), dtype=np.float64)
        assert abs(float(flipped)) > 1e300 or np.isinf(flipped)

    def test_exponent_bit_counts(self):
        assert EXPONENT_BITS[np.dtype(np.float32)] == 8
        assert MANTISSA_BITS[np.dtype(np.float32)] == 23
        assert EXPONENT_BITS[np.dtype(np.float64)] == 11
        assert MANTISSA_BITS[np.dtype(np.float64)] == 52


class TestFlipMechanisms:
    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_mantissa_lsb_moves_one_ulp(self, dtype):
        # 1.5 has a clear mantissa LSB, so the flip adds exactly one ULP.
        value = dtype(1.5)
        flipped = flip_mantissa_lsb(value, dtype=dtype)
        assert flipped.dtype == dtype
        assert flipped == np.nextafter(value, dtype(np.inf))

    def test_mantissa_lsb_is_involution(self):
        values = np.random.default_rng(3).normal(size=16).astype(np.float32)
        twice = flip_mantissa_lsb(flip_mantissa_lsb(values))
        assert np.array_equal(bit_pattern(twice, np.float32), bit_pattern(values, np.float32))

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_adjacent_double_bit_flips_the_top_two_exponent_bits(self, dtype):
        values = np.array([0.7, -1.25, 3.0, 1e-3], dtype=dtype)
        flipped = flip_adjacent_double_bit(values, dtype=dtype)
        msb = MANTISSA_BITS[np.dtype(dtype)] + EXPONENT_BITS[np.dtype(dtype)] - 1
        mask = (1 << msb) | (1 << (msb - 1))
        changed = bit_pattern(flipped, dtype) ^ bit_pattern(values, dtype)
        assert changed.tolist() == [mask] * len(values)

    @pytest.mark.parametrize("kind", FLIP_KINDS)
    def test_apply_flip_kind_dispatches_to_its_mechanism(self, kind):
        values = np.array([[0.7, -1.25], [3.0, 1e-3]], dtype=np.float64)
        expected = {
            "exponent_msb": flip_exponent_msb,
            "mantissa_lsb": flip_mantissa_lsb,
            "adjacent_double_bit": flip_adjacent_double_bit,
            "stuck_zero": lambda x, dtype: np.zeros_like(x),
        }[kind](values, dtype=np.float64)
        flipped = apply_flip_kind(kind, values, dtype=np.float64)
        assert flipped.shape == values.shape and flipped.dtype == np.float64
        assert np.array_equal(bit_pattern(flipped, np.float64), bit_pattern(expected, np.float64))

    @pytest.mark.parametrize("kind", FLIP_KINDS)
    def test_apply_flip_kind_scalar_in_scalar_out(self, kind):
        flipped = apply_flip_kind(kind, 0.7, dtype=np.float32)
        assert np.ndim(flipped) == 0
        assert flipped.dtype == np.float32

    def test_apply_flip_kind_rejects_unknown_kind(self):
        with pytest.raises(KeyError):
            apply_flip_kind("sign_bit", 1.0)


class TestValueFactories:
    def test_make_near_inf_is_finite_and_large(self):
        value = make_near_inf(1.7)
        assert np.isfinite(value)
        assert abs(float(value)) > 1e10

    def test_make_near_inf_zero_base_falls_back(self):
        value = make_near_inf(0.0)
        assert np.isfinite(value)
        assert abs(float(value)) > 1e10

    def test_make_near_inf_array(self):
        values = make_near_inf(np.array([1.0, -2.0, 0.5]))
        assert values.shape == (3,)
        assert np.all(np.isfinite(values))
        assert np.all(np.abs(values) > 1e10)

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_fallback_is_finite_and_above_the_near_inf_floor(self, dtype):
        fallback = near_inf_fallback(dtype)
        assert np.isfinite(dtype(fallback))
        assert fallback > NEAR_INF_MINIMUM_MAGNITUDE
        assert fallback * 16.0 == float(np.finfo(dtype).max)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_make_near_inf_falls_back_when_the_flip_shrinks_the_value(self, sign):
        # 2.0 already has its exponent MSB set: the flip clears it and the
        # value collapses to zero, so the signed fallback is injected instead.
        assert float(flip_exponent_msb(np.float32(2.0))) == 0.0
        value = make_near_inf(sign * 2.0)
        assert float(value) == sign * near_inf_fallback(np.float32)

    def test_make_near_inf_falls_back_when_the_flip_yields_nan(self):
        assert np.isnan(flip_exponent_msb(np.float32(1.5)))
        assert float(make_near_inf(1.5)) == near_inf_fallback(np.float32)

    def test_make_near_inf_keeps_a_genuine_flip_in_float64(self):
        value = make_near_inf(0.7, dtype=np.float64)
        assert isinstance(value, np.float64)
        assert value == flip_exponent_msb(0.7, dtype=np.float64)
        assert np.isfinite(value) and value > NEAR_INF_MINIMUM_MAGNITUDE


class TestClassification:
    def test_is_extreme_flags_inf_nan_near_inf(self):
        data = np.array([1.0, np.inf, np.nan, 5e12, -3.0])
        mask = is_extreme(data)
        assert mask.tolist() == [False, True, True, True, False]

    def test_is_extreme_respects_threshold(self):
        data = np.array([5e9, 5e12])
        assert is_extreme(data, near_inf_threshold=1e10).tolist() == [False, True]
        assert is_extreme(data, near_inf_threshold=1e13).tolist() == [False, False]


class TestUintView:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_view_shares_memory_and_width(self, dtype):
        array = np.array([1.0, 2.0], dtype=dtype)
        view = uint_view(array)
        assert view.dtype.itemsize == array.dtype.itemsize
        assert view.dtype.kind == "u"
        view[0] ^= 1 << (8 * array.dtype.itemsize - 2)
        assert array[0] != 1.0 and array[1] == 2.0

    def test_rejects_non_float(self):
        with pytest.raises(TypeError):
            uint_view(np.zeros(3, dtype=np.int64))


@pytest.mark.parametrize("dtype", FLOAT_DTYPES)
def test_element_exponent_flip_matches_array_flip(dtype):
    """Flipping one element as a scalar and assigning it back, as fault
    injection does, writes the bits the array-wide flip has at that position
    and touches nothing else; a second flip restores the original bits.
    The values cover a finite, an INF, a NaN and a zero result."""
    host = (np.arange(1, 7, dtype=dtype) / 3.0).reshape(2, 3)
    whole = flip_exponent_msb(host, dtype=dtype)
    for position in np.ndindex(host.shape):
        array = host.copy()
        array[position] = flip_exponent_msb(array[position], dtype=dtype)
        expected = host.copy()
        expected[position] = whole[position]
        np.testing.assert_array_equal(bit_pattern(array, dtype), bit_pattern(expected, dtype))
        array[position] = flip_exponent_msb(array[position], dtype=dtype)
        np.testing.assert_array_equal(bit_pattern(array, dtype), bit_pattern(host, dtype))
