"""Fixed-point formats, coefficient quantization and the direct-form FIR oracle.

Everything here is exact integer (or rational) arithmetic. Samples and
coefficients are plain ``int`` values within a signed two's-complement
:class:`FixedFormat`, whose :meth:`~FixedFormat.check` is the one test of
their type and range; quantization maps real values onto the Q1.(W-1)
grid with round-half-to-even and saturation. :func:`direct_fir` is the
golden reference every table-driven evaluation path is checked against,
so it deliberately uses Python's unbounded integers and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_05UP, Context, Decimal, InvalidOperation
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "AccumulatorOverflow",
    "CoefficientSet",
    "DirectFormFir",
    "FixedFormat",
    "dequantize",
    "direct_fir",
    "min_signed_width",
    "quantize_coefficient",
    "required_accumulator_width",
]

RealLike = Union[int, float, str, Fraction, Decimal]

MIN_WIDTH = 2
MAX_WIDTH = 64


class AccumulatorOverflow(OverflowError):
    """An accumulator left its declared signed range (a sizing bug, not data)."""


@dataclass(frozen=True)
class FixedFormat:
    """Signed two's-complement word description.

    ``width`` counts all bits including the sign bit; representable values
    are the integers in [-2^(width-1), 2^(width-1) - 1].
    """

    width: int

    def __post_init__(self) -> None:
        if not (MIN_WIDTH <= self.width <= MAX_WIDTH):
            raise ValueError(f"width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {self.width}")

    @property
    def min_value(self) -> int:
        return -(1 << (self.width - 1))

    @property
    def max_value(self) -> int:
        return (1 << (self.width - 1)) - 1

    @property
    def scale(self) -> int:
        """Scale factor of the Q1.(width-1) interpretation, i.e. 2^(width-1)."""
        return 1 << (self.width - 1)

    def contains(self, value: int) -> bool:
        return self.min_value <= value <= self.max_value

    def check(self, value: int, what: str = "value") -> int:
        """``value`` itself if it is an ``int`` (not a ``bool``) within range.

        Nothing is coerced: a float, a bool or a numeric string raises
        TypeError, so 2.9 is never silently taken as 2.
        """
        _require_int(value, what)
        if not self.contains(value):
            raise ValueError(
                f"{what} {value} outside signed {self.width}-bit range "
                f"[{self.min_value}, {self.max_value}]"
            )
        return value


def _all_in(values: Sequence[int], fmt: FixedFormat) -> bool:
    """Whether every one of ``values`` is an ``int`` within ``fmt``, checked at C level."""
    lo, hi = fmt.min_value, fmt.max_value
    return set(map(type, values)) == {int} and lo <= min(values) and max(values) <= hi


def _require_int(value: int, what: str) -> int:
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {type(value).__name__} {value!r}")
    return value


@dataclass(frozen=True)
class CoefficientSet:
    """Ordered taps of a filter, each an ``int`` within one coefficient format."""

    values: tuple[int, ...]
    format: FixedFormat

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValueError("a filter needs at least one tap")
        if not _all_in(self.values, self.format):
            for value in self.values:  # raises what the first bad value raises
                self.format.check(value, "coefficient")

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_integers(cls, values: Sequence[int], fmt: FixedFormat) -> "CoefficientSet":
        return cls(tuple(values), fmt)

    @classmethod
    def from_reals(
        cls, reals: Sequence[RealLike], fmt: FixedFormat
    ) -> tuple["CoefficientSet", tuple[bool, ...]]:
        """Quantize real-valued taps; returns the set plus per-tap saturation flags."""
        pairs = [quantize_coefficient(r, fmt) for r in reals]
        return cls(tuple(code for code, _ in pairs), fmt), tuple(flag for _, flag in pairs)


# Every rounding tie point of every width up to MAX_WIDTH is an odd multiple
# of 2^-width, so a multiple of 10^-MAX_WIDTH. A value below 10^(MAX_WIDTH+1)
# rounded to this context's digits, the last below 10^-MAX_WIDTH, is exact
# or, by ROUND_05UP, ends in a digit other than 0: either way it lies
# between the same two tie points as the value and quantizes alike, while a
# long mantissa costs no integer of its length.
_CUT = Context(prec=2 * MAX_WIDTH + 2, rounding=ROUND_05UP)


def _to_ratio(real: RealLike) -> tuple[int, int]:
    """(numerator, denominator > 0) of ``real``, or of a value that quantizes alike."""
    # Text goes through Decimal so "0.1" means the decimal 1/10, not the
    # nearest binary float; floats are taken at their exact binary value.
    if isinstance(real, str):
        try:
            real = Decimal(real)
        except InvalidOperation as exc:
            raise ValueError(f"cannot parse {real!r} as a number") from exc
    elif isinstance(real, float):
        real = Decimal(real)
    elif isinstance(real, (int, Fraction)):
        return real.as_integer_ratio()
    elif not isinstance(real, Decimal):
        raise TypeError(f"unsupported value type {type(real).__name__}")
    if not real.is_finite():
        raise ValueError(f"cannot quantize the non-finite value {real}")
    # Beyond 10^(+-MAX_WIDTH) every code of every width saturates or rounds to
    # zero, and 0 at any exponent (0E70) is 0. Clamping first keeps
    # as_integer_ratio from building an integer with as many digits as the exponent.
    if not real or real.adjusted() < -MAX_WIDTH:
        return 0, 1
    if real.adjusted() > MAX_WIDTH:
        return (1 << MAX_WIDTH if real > 0 else -(1 << MAX_WIDTH)), 1
    return _CUT.plus(real).as_integer_ratio()


def quantize_coefficient(real: RealLike, fmt: FixedFormat) -> tuple[int, bool]:
    """Map a real value onto the Q1.(width-1) integer grid.

    Rounds real * 2^(width-1) to the nearest integer with ties to even,
    then saturates to the representable range. Returns the code and a
    flag telling whether saturation clipped the value.
    """
    num, den = _to_ratio(real)
    code, rest = divmod(num << (fmt.width - 1), den)  # floor, and 0 <= rest < den
    if 2 * rest > den or (2 * rest == den and code & 1):  # past half, or a tie to an odd floor
        code += 1
    lo, hi = fmt.min_value, fmt.max_value
    return max(lo, min(hi, code)), not lo <= code <= hi


def dequantize(code: int, fmt: FixedFormat) -> Fraction:
    """Exact real value a coefficient code of format ``fmt`` stands for."""
    return Fraction(fmt.check(code, "code"), fmt.scale)


def required_accumulator_width(num_taps: int, coeff_width: int, input_width: int) -> int:
    """Smallest provably safe signed width for a K-tap inner product.

    Returns W + L + ceil(log2(K)). For every representable coefficient and
    sample, |sum_k A_k * x_k| < 2^(result-1). Note that sizing "one extra
    bit for K parallel terms" undercounts: K=8, W=16, L=16 needs 35 bits,
    not 34, because the most negative product is -2^(W-1) * -2^(L-1) =
    +2^(W+L-2), and eight of those reach 2^33.
    """
    if num_taps < 1:
        raise ValueError("num_taps must be at least 1")
    if coeff_width < 2 or input_width < 2:
        raise ValueError("widths must be at least 2")
    return coeff_width + input_width + (num_taps - 1).bit_length()


def min_signed_width(value: int) -> int:
    """Fewest two's-complement bits that can hold ``value``."""
    if value >= 0:
        return value.bit_length() + 1
    return (-value - 1).bit_length() + 1


def _tap_values(coeffs: Union[CoefficientSet, Sequence[int]]) -> tuple[int, ...]:
    if isinstance(coeffs, CoefficientSet):
        return coeffs.values
    return tuple(_require_int(v, "tap") for v in coeffs)


class DirectFormFir:
    """Streaming direct-form FIR evaluator; the golden oracle.

    Owns a private delay line initialised to zeros, so outputs are emitted
    from the very first sample (warm-up included). One instance per thread;
    instances are independent.
    """

    def __init__(
        self,
        coeffs: Union[CoefficientSet, Sequence[int]],
        input_format: FixedFormat | None = None,
    ) -> None:
        self._taps = _tap_values(coeffs)
        self._check = _require_int if input_format is None else input_format.check
        self._delay = [0] * len(self._taps)

    def push(self, sample: int) -> int:
        self._delay.insert(0, self._check(sample, "sample"))
        self._delay.pop()
        return sum(a * x for a, x in zip(self._taps, self._delay))

    def reset(self) -> None:
        self._delay = [0] * len(self._taps)


def direct_fir(
    samples: Iterable[int],
    coeffs: Union[CoefficientSet, Sequence[int]],
    input_format: FixedFormat | None = None,
) -> list[int]:
    """y(n) = sum_i taps[i] * x(n-i), with x(m) = 0 for m < 0, exactly."""
    fir = DirectFormFir(coeffs, input_format)
    return [fir.push(s) for s in samples]
