"""Formats, quantization, the direct-form oracle and accumulator sizing."""

import random
import sys
import time
from decimal import (
    MAX_EMAX,
    MIN_EMIN,
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    localcontext,
)
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dafir.numerics import (
    CoefficientSet,
    DirectFormFir,
    FixedFormat,
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


def decimal_oracle(text: str, width: int) -> tuple[int, bool]:
    # Exact at any length and exponent: the context keeps every digit and
    # traps any rounding, so the only rounding is the explicit half-even
    # one, and the code is clamped before it becomes an int.
    context = Context(prec=len(text) + 40, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
    with localcontext(context):
        scaled = Decimal(text) * (1 << (width - 1))
        code = scaled.to_integral_value(ROUND_HALF_EVEN)
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    return int(max(lo, min(hi, code))), not lo <= code <= hi


# Number-shaped text: sign, up to 80 digits either side of a point, an exponent of up to 12 digits.
NUMBER_TEXT = st.from_regex(
    r"[+-]?[0-9]{0,80}\.?[0-9]{0,80}([eE][+-]?[0-9]{1,12})?", fullmatch=True
)


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
            CoefficientSet.from_integers([-129], FMT8)
        with pytest.raises(ValueError):
            DirectFormFir([1], FMT16).push(40000)

    @pytest.mark.parametrize("value", [2.9, 2.0, True, False, "3", Fraction(2), Decimal(2)])
    def test_check_takes_only_ints(self, value):
        # Type before range: 2.9 is refused, never truncated to 2.
        with pytest.raises(TypeError):
            FMT8.check(value)
        with pytest.raises(TypeError):
            CoefficientSet.from_integers([value], FMT8)

    def test_coefficient_set_holds_plain_ints(self):
        coeffs = CoefficientSet.from_integers([3, -5], FMT8)
        assert coeffs == CoefficientSet((3, -5), FMT8)
        assert coeffs.values == (3, -5) and len(coeffs) == 2
        with pytest.raises(ValueError):
            CoefficientSet((), FMT8)

    @pytest.mark.parametrize(
        "values, error, message",
        [
            ([3, True, 2.5], TypeError, "coefficient must be an int, got bool True"),
            ([3, 2.5, True], TypeError, "coefficient must be an int, got float 2.5"),
            ([3, 128, -129], ValueError, "coefficient 128 outside signed 8-bit range [-128, 127]"),
            ([-129, 3, 2.5], ValueError, "coefficient -129 outside signed 8-bit range [-128, 127]"),
            ([-128, 127, False], TypeError, "coefficient must be an int, got bool False"),
        ],
    )
    def test_coefficient_set_names_the_first_bad_value(self, values, error, message):
        # The whole set is checked at once; the first bad value raises what FixedFormat.check does.
        with pytest.raises(error) as raised:
            CoefficientSet.from_integers(values, FMT8)
        assert str(raised.value) == message
        with pytest.raises(error) as direct:
            for value in values:
                FMT8.check(value, "coefficient")
        assert str(direct.value) == message
        assert CoefficientSet.from_integers([-128, 127, 0], FMT8).values == (-128, 127, 0)


class TestQuantize:
    def test_zero(self):
        assert quantize_coefficient(0.0, FMT16) == (0, False)

    def test_negative_one_is_min_code(self):
        assert quantize_coefficient("-1.0", FMT16) == (-32768, False)

    def test_near_half_rounds_up(self):
        # 0.4999999 * 128 = 63.9999872, nearest integer 64
        assert quantize_coefficient("0.4999999", FMT8) == (64, False)
        assert quantize_oracle(Fraction(4999999, 10000000), 8) == (64, False)

    def test_saturation_above_max(self):
        assert quantize_coefficient("1.5", FMT16) == (32767, True)

    def test_saturation_threshold(self):
        # Anything at or above (2^(w-1) - 0.5) / 2^(w-1) lands on the max code.
        threshold = Fraction(127 * 2 + 1, 256)  # 127.5 / 128
        assert quantize_coefficient(threshold, FMT8) == (127, True)
        below = threshold - Fraction(1, 10**9)
        assert quantize_coefficient(below, FMT8) == (127, False)

    def test_ties_go_to_even(self):
        assert quantize_coefficient(Fraction(5, 256), FMT8)[0] == 2  # 2.5 -> 2
        assert quantize_coefficient(Fraction(7, 256), FMT8)[0] == 4  # 3.5 -> 4

    def test_text_is_decimal_not_float(self):
        # "0.1" must mean 1/10 exactly; 0.1 * 32768 = 3276.8 rounds to 3277.
        assert quantize_coefficient("0.1", FMT16)[0] == 3277

    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=10**6),
        st.sampled_from([4, 8, 12, 16]),
    )
    def test_matches_rational_oracle(self, value, width):
        assert quantize_coefficient(value, FixedFormat(width)) == quantize_oracle(value, width)

    @settings(max_examples=300)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(2, 64))
    @example(5e-324, 64)  # the least subnormal
    @example(-2.2250738585072014e-308, 2)  # the least normal, negated
    @example(sys.float_info.max, 64)
    @example(-sys.float_info.max, 16)
    @example(-0.0, 8)
    @example(0.9999999999999999, 53)
    def test_floats_match_rational_oracle(self, value, width):
        # A float is its exact binary value: all 64 bits of it, subnormals included.
        got = quantize_coefficient(value, FixedFormat(width))
        assert got == quantize_oracle(Fraction(value), width)

    @given(
        st.integers(2, 64),
        st.integers(-(1 << 20), 1 << 20),
        st.sampled_from([float, Decimal, str]),
    )
    @example(2, 0, str)  # "25e-2": 0.25, halfway between the W=2 codes 0 and 1
    @example(64, -(1 << 20), float)
    def test_exact_ties_match_rational_oracle(self, width, k, kind):
        # (2k + 1) / 2^width lies halfway between two codes of the 2^-(width-1) grid.
        tie = Fraction(2 * k + 1, 1 << width)
        text = f"{(2 * k + 1) * 5**width}e-{width}"  # the same value in decimal, exactly
        value = float(tie) if kind is float else kind(text)
        assert Fraction(Decimal(value)) == tie
        got = quantize_coefficient(value, FixedFormat(width))
        assert got == quantize_oracle(tie, width)

    @settings(max_examples=300)
    @given(
        st.decimals(min_value=-(10**70), max_value=10**70, allow_nan=False, allow_infinity=False),
        st.integers(2, 64),
    )
    # Mantissas longer than the 130 digits kept: just above, at and below a
    # tie, and all nines below the greatest value that is not clamped.
    @example(Decimal("0.25" + "0" * 200 + "1"), 2)
    @example(Decimal("-0.25" + "0" * 200), 2)
    @example(Decimal("0.2" + "4" * 200), 2)
    @example(Decimal("9." + "9" * 200 + "e64"), 64)
    @example(Decimal("-1." + "0" * 200 + "1e-64"), 64)
    @example(Decimal("0E+70"), 16)
    def test_decimals_match_rational_oracle(self, value, width):
        got = quantize_coefficient(value, FixedFormat(width))
        assert got == quantize_oracle(Fraction(value), width)

    @settings(deadline=None, max_examples=300)
    @given(NUMBER_TEXT, st.integers(2, 64))
    @example("1e999999999999", 16)
    @example("0E70", 2)  # zero, however large its exponent
    @example("-0e999999999999", 64)
    @example("-0.000000000000000000000000000000000000000000000000000000000000000055", 64)
    @example("0.2500000000000000000000000000000000000000000000000000000000000000001", 2)
    def test_number_text_matches_exact_decimal_oracle(self, text, width):
        try:
            Decimal(text)
        except InvalidOperation:
            with pytest.raises(ValueError):
                quantize_coefficient(text, FixedFormat(width))
        else:
            assert quantize_coefficient(text, FixedFormat(width)) == decimal_oracle(text, width)

    @given(st.integers(-128, 127))
    def test_idempotent_on_codes(self, code):
        assert quantize_coefficient(dequantize(code, FMT8), FMT8) == (code, False)

    def test_dequantize_checks_the_code(self):
        assert dequantize(-128, FMT8) == -1
        with pytest.raises(ValueError):
            dequantize(128, FMT8)
        with pytest.raises(TypeError):
            dequantize(1.0, FMT8)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_always_in_range(self, value):
        code, _ = quantize_coefficient(value, FMT8)
        assert FMT8.contains(code)

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
            assert quantize_coefficient(text, FMT16) == want
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("width", [2, 64])
    def test_exponent_clamp_edges_match_rational_oracle(self, width):
        for text in ("9.9e64", "1e65", "-1e65", "9.9e-64", "1e-64", "9.9e-65", "-1e-65"):
            got = quantize_coefficient(text, FixedFormat(width))
            assert got == quantize_oracle(Fraction(Decimal(text)), width)

    @pytest.mark.parametrize(
        "text, want",
        [
            ("0.25" + "0" * 10**6 + "1", (1, False)),  # just above the W=2 tie at 0.25
            ("0.25" + "0" * 10**6, (0, False)),  # the tie itself goes to even
            ("-0.25" + "0" * 10**6 + "1", (-1, False)),
            ("0." + "9" * 10**6, (1, True)),
        ],
        ids=["above-tie", "tie", "below-negative-tie", "nines"],
    )
    def test_long_mantissa_is_bounded(self, text, want):
        start = time.perf_counter()
        assert quantize_coefficient(text, FixedFormat(2)) == want
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("width", [2, 16, 64])
    def test_long_random_mantissa_matches_exact_oracle(self, width):
        rng = random.Random(width)
        text = "-0." + "".join(rng.choice("0123456789") for _ in range(10**6))
        start = time.perf_counter()
        got = quantize_coefficient(text, FixedFormat(width))
        assert time.perf_counter() - start < 0.5
        assert got == decimal_oracle(text, width)

    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(
            st.text(),
            NUMBER_TEXT,
        )
    )
    @example("0." + "1" * 10**6)
    @example("1" * 10**5 + "." + "1" * 10**5)
    @example("1e-99999999999999999999")
    @example("-0." + "0" * 63 + "5" + "0" * 10**5 + "1")
    def test_any_text_quantizes_within_the_bound_or_is_refused(self, text):
        start = time.perf_counter()
        try:
            code, _ = quantize_coefficient(text, FMT16)
        except ValueError:
            pass
        else:
            assert FMT16.contains(code)
        assert time.perf_counter() - start < 0.5


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
            fir.push(1000)

    def test_non_integers_rejected_not_truncated(self):
        # With or without an input format, 2.9 is not taken as 2 nor True as 1.
        for fir in (DirectFormFir([3, 5]), DirectFormFir([3, 5], FixedFormat(4))):
            for sample in (2.9, True, "2"):
                with pytest.raises(TypeError):
                    fir.push(sample)
        with pytest.raises(TypeError):
            direct_fir([2.9, True], [3, 5], FixedFormat(4))
        with pytest.raises(TypeError):
            DirectFormFir([3, 5.0])

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
