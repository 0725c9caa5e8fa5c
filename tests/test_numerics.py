"""Formats, quantization, the direct-form oracle and accumulator sizing."""

import time
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dafir.numerics import (
    Coefficient,
    CoefficientSet,
    DirectFormFir,
    FixedFormat,
    Sample,
    dequantize,
    direct_fir,
    min_signed_width,
    quantize_coefficient,
    required_accumulator_width,
)

FMT8 = FixedFormat(8)
FMT16 = FixedFormat(16)


def quantize_oracle(value: Fraction, width: int) -> tuple[int, bool]:
    # Independent round-half-to-even on exact rationals: split into integer
    # part and remainder, then resolve the tie by hand.
    scaled = value * (1 << (width - 1))
    floor = scaled.numerator // scaled.denominator
    rem = scaled - floor
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and floor % 2 == 1):
        floor += 1
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    return max(lo, min(hi, floor)), not lo <= floor <= hi


class TestFixedFormat:
    def test_range(self):
        assert FMT16.min_value == -32768
        assert FMT16.max_value == 32767
        assert FMT16.scale == 32768

    @pytest.mark.parametrize("width", [0, 1, 65, -3])
    def test_width_caps(self, width):
        with pytest.raises(ValueError):
            FixedFormat(width)

    def test_check_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FMT8.check(128)
        with pytest.raises(ValueError):
            Coefficient(-129, FMT8)
        with pytest.raises(ValueError):
            Sample(40000, FMT16)


class TestQuantize:
    def test_zero(self):
        coeff, saturated = quantize_coefficient(0.0, FMT16)
        assert coeff.value == 0 and not saturated

    def test_negative_one_is_min_code(self):
        coeff, saturated = quantize_coefficient("-1.0", FMT16)
        assert coeff.value == -32768 and not saturated

    def test_near_half_rounds_up(self):
        # 0.4999999 * 128 = 63.9999872, nearest integer 64
        coeff, saturated = quantize_coefficient("0.4999999", FMT8)
        assert coeff.value == 64 and not saturated
        assert quantize_oracle(Fraction(4999999, 10000000), 8) == (64, False)

    def test_saturation_above_max(self):
        coeff, saturated = quantize_coefficient("1.5", FMT16)
        assert coeff.value == 32767 and saturated

    def test_saturation_threshold(self):
        # Anything at or above (2^(w-1) - 0.5) / 2^(w-1) lands on the max code.
        threshold = Fraction(127 * 2 + 1, 256)  # 127.5 / 128
        coeff, saturated = quantize_coefficient(threshold, FMT8)
        assert coeff.value == 127 and saturated
        below = threshold - Fraction(1, 10**9)
        coeff, saturated = quantize_coefficient(below, FMT8)
        assert coeff.value == 127 and not saturated

    def test_ties_go_to_even(self):
        assert quantize_coefficient(Fraction(5, 256), FMT8)[0].value == 2  # 2.5 -> 2
        assert quantize_coefficient(Fraction(7, 256), FMT8)[0].value == 4  # 3.5 -> 4

    def test_text_is_decimal_not_float(self):
        # "0.1" must mean 1/10 exactly; 0.1 * 32768 = 3276.8 rounds to 3277.
        assert quantize_coefficient("0.1", FMT16)[0].value == 3277

    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=10**6),
        st.sampled_from([4, 8, 12, 16]),
    )
    def test_matches_rational_oracle(self, value, width):
        fmt = FixedFormat(width)
        coeff, saturated = quantize_coefficient(value, fmt)
        assert (coeff.value, saturated) == quantize_oracle(value, width)

    @given(st.integers(-128, 127))
    def test_idempotent_on_codes(self, code):
        coeff = Coefficient(code, FMT8)
        again, saturated = quantize_coefficient(dequantize(coeff), FMT8)
        assert again == coeff and not saturated

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_always_in_range(self, value):
        coeff, _ = quantize_coefficient(value, FMT8)
        assert FMT8.contains(coeff.value)

    def test_rejects_garbage_text(self):
        with pytest.raises(ValueError):
            quantize_coefficient("not-a-number", FMT8)

    @pytest.mark.parametrize(
        "text, want",
        [
            ("1e999999999", (32767, True)),
            ("-1e999999999", (-32768, True)),
            ("1e-999999999", (0, False)),
            ("Infinity", ValueError),
        ],
        ids=["1e999999999", "-1e999999999", "1e-999999999", "Infinity"],
    )
    def test_extreme_text_is_bounded(self, text, want):
        # Exact conversion of these would build integers with a billion digits.
        start = time.perf_counter()
        if want is ValueError:
            with pytest.raises(ValueError):
                quantize_coefficient(text, FMT16)
        else:
            coeff, saturated = quantize_coefficient(text, FMT16)
            assert (coeff.value, saturated) == want
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("width", [2, 64])
    def test_exponent_clamp_edges_match_rational_oracle(self, width):
        for text in ("9.9e64", "1e65", "-1e65", "9.9e-64", "1e-64", "9.9e-65", "-1e-65"):
            got = quantize_coefficient(text, FixedFormat(width))
            assert (got[0].value, got[1]) == quantize_oracle(Fraction(Decimal(text)), width)


class TestDirectFir:
    def test_identity_tap(self):
        assert direct_fir([5, 7, 9], [1, 0, 0]) == [5, 7, 9]

    def test_pairwise_sums(self):
        assert direct_fir([1, 2, 3], [1, 1]) == [1, 3, 5]

    def test_hand_computed(self):
        # y(2) = -3*7 + 2*(-1) + 5*4 = -3
        assert direct_fir([4, -1, 7], [-3, 2, 5]) == [-12, 11, -3]

    def test_coefficient_set_input(self):
        coeffs = CoefficientSet.from_integers([-3, 2, 5], FMT8)
        assert direct_fir([4, -1, 7], coeffs) == [-12, 11, -3]

    def test_format_mismatch_rejected(self):
        fir = DirectFormFir([1, 2], input_format=FMT8)
        with pytest.raises(ValueError):
            fir.push(Sample(0, FMT16))
        with pytest.raises(ValueError):
            fir.push(1000)

    def test_reset_clears_delay_line(self):
        fir = DirectFormFir([1, 1])
        fir.push(10)
        fir.reset()
        assert fir.push(3) == 3

    @given(
        st.lists(st.integers(-100, 100), min_size=1, max_size=6),
        st.lists(st.integers(-50, 50), min_size=1, max_size=20),
        st.lists(st.integers(-50, 50), min_size=1, max_size=20),
        st.integers(-5, 5),
        st.integers(-5, 5),
    )
    def test_linearity(self, taps, xs, zs, a, b):
        n = min(len(xs), len(zs))
        xs, zs = xs[:n], zs[:n]
        mixed = [a * x + b * z for x, z in zip(xs, zs)]
        lhs = direct_fir(mixed, taps)
        rhs = [
            a * yx + b * yz
            for yx, yz in zip(direct_fir(xs, taps), direct_fir(zs, taps))
        ]
        assert lhs == rhs


class TestAccumulatorWidth:
    def test_single_tap_two_bit(self):
        # worst case (-2) * (-2) = 4, which needs 4 signed bits
        assert required_accumulator_width(1, 2, 2) == 4

    def test_eight_taps_at_sixteen_bits(self):
        assert required_accumulator_width(8, 16, 16) == 35

    def test_two_taps_four_bits(self):
        assert required_accumulator_width(2, 4, 4) == 9

    @pytest.mark.parametrize("K,W,L", [(0, 4, 4), (1, 1, 4), (1, 4, 1)])
    def test_rejects_bad_parameters(self, K, W, L):
        with pytest.raises(ValueError):
            required_accumulator_width(K, W, L)

    @settings(deadline=None)
    @given(st.integers(1, 2), st.integers(2, 4), st.integers(2, 4))
    def test_sound_on_exhaustive_small_cases(self, K, W, L):
        width = required_accumulator_width(K, W, L)
        bound = 1 << (width - 1)
        coeff_range = range(-(1 << (W - 1)), 1 << (W - 1))
        sample_range = range(-(1 << (L - 1)), 1 << (L - 1))
        # extremes dominate, but sweep everything at these sizes
        for coeffs in product(coeff_range, repeat=K):
            for samples in product(sample_range, repeat=K):
                total = sum(a * x for a, x in zip(coeffs, samples))
                assert -bound < total < bound


class TestMinSignedWidth:
    @pytest.mark.parametrize(
        "value,width",
        [(0, 1), (-1, 1), (1, 2), (-2, 2), (127, 8), (-128, 8), (128, 9), (-65536, 17), (65535, 17)],
    )
    def test_known_widths(self, value, width):
        assert min_signed_width(value) == width

    @given(st.integers(-(10**9), 10**9))
    def test_is_minimal(self, value):
        w = min_signed_width(value)
        assert -(1 << (w - 1)) <= value <= (1 << (w - 1)) - 1
        if w > 1:
            smaller = 1 << (w - 2)
            assert not (-smaller <= value <= smaller - 1)
