"""Distributed-arithmetic FIR engine: tables, partitioning, bit-serial schedule.

The multiply-accumulate y = sum_k A_k * x_k is reorganised over the bits of
the samples: at cycle n the n-th bits of all K samples form per-group
addresses, each group contributes the precomputed sum of its selected
coefficients, the group outputs are summed by an adder tree, shifted left
by n, and accumulated. The MSB cycle is subtracted instead of added, which
is exactly the two's-complement sign correction. After L cycles (L = input
word width) the accumulator equals the inner product, bit for bit.

Partial products come from either stored lookup tables (one table of 2^M
entries per group of M taps) or a multiplexer-style generator that selects
and sums coefficients on the fly; both must agree at every address, and
the evaluator must agree with the direct-form oracle on every input.
"""

from __future__ import annotations

import enum
import functools
import sys
from dataclasses import dataclass
from operator import mul
from typing import Callable, Iterable, Sequence, Union

from .adders import DEFAULT_COST_MODEL, AdderKind, BitVector, adder_tree_sum
from .numerics import (
    AccumulatorOverflow,
    CoefficientSet,
    FixedFormat,
    required_accumulator_width,
)

__all__ = [
    "CycleRecord",
    "CycleTrace",
    "DaFilter",
    "DaLut",
    "Mismatch",
    "PartitionPlan",
    "PpgMode",
    "address_for_cycle",
    "all_windows",
    "build_lut",
    "check_tables",
    "da_inner_product",
    "memory_locations",
    "mux_ppg",
    "partial_product_width",
    "partition_taps",
    "verify_windows",
]

MAX_GROUP_SIZE = 16  # keeps 2^M tables desk-scale

TapIndex = Union[int, None]  # None marks a zero-coefficient padding slot


class PpgMode(enum.Enum):
    """Where per-group partial products come from."""

    STORED = "stored"
    MUX = "mux"


@dataclass(frozen=True)
class PartitionPlan:
    """Assignment of tap indices to address groups.

    Taps are grouped consecutively; the last group is padded with ``None``
    slots (synthetic zero coefficients) up to ``group_size``. A padding
    slot contributes nothing to any partial product and its address bit
    reads as 0.
    """

    group_size: int
    groups: tuple[tuple[TapIndex, ...], ...]
    padded_taps: int

    def __post_init__(self) -> None:
        if not (1 <= self.group_size <= MAX_GROUP_SIZE):
            raise ValueError(f"group_size must be in [1, {MAX_GROUP_SIZE}]")
        seen: set[int] = set()
        pads = 0
        for group in self.groups:
            if len(group) != self.group_size:
                raise ValueError("every group must have exactly group_size slots")
            for idx in group:
                if idx is None:
                    pads += 1
                elif idx in seen:
                    raise ValueError(f"tap index {idx} appears in more than one group")
                else:
                    seen.add(idx)
        if pads != self.padded_taps:
            raise ValueError("padded_taps does not match the padding slots present")
        if seen != set(range(len(seen))):
            raise ValueError("tap indices must cover 0..K-1 exactly once")

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def num_taps(self) -> int:
        """Real (unpadded) taps covered by the plan."""
        return self.num_groups * self.group_size - self.padded_taps


def partition_taps(num_taps: int, group_size: int) -> PartitionPlan:
    """Group consecutive taps, zero-padding the final group.

    ceil(num_taps / group_size) groups come out; storage for the stored-LUT
    mode is num_groups * 2^group_size entries instead of 2^num_taps.
    """
    if num_taps < 1:
        raise ValueError("num_taps must be at least 1")
    if not (1 <= group_size <= MAX_GROUP_SIZE):
        raise ValueError(f"group_size must be in [1, {MAX_GROUP_SIZE}]")
    groups = []
    for start in range(0, num_taps, group_size):
        members: list[TapIndex] = list(range(start, min(start + group_size, num_taps)))
        members += [None] * (group_size - len(members))
        groups.append(tuple(members))
    padded = len(groups) * group_size - num_taps
    return PartitionPlan(group_size, tuple(groups), padded)


def memory_locations(plan: PartitionPlan) -> int:
    """Total stored table entries: number of groups times 2^group_size."""
    return plan.num_groups * (1 << plan.group_size)


def partial_product_width(coeff_width: int, group_size: int) -> int:
    """Signed bits needed by any sum of ``group_size`` coefficients.

    The negative extreme is group_size * -2^(coeff_width-1), so one extra
    bit per doubling of the group: 16-bit coefficients in pairs need 17.
    """
    return coeff_width + (group_size - 1).bit_length()


@dataclass(frozen=True)
class DaLut:
    """Stored table for one group: entries[a] = sum of coefficients whose bit is set in a."""

    group: tuple[TapIndex, ...]
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != 1 << len(self.group):
            raise ValueError("a group of M taps needs exactly 2^M entries")


def _subset_sums(
    values: Sequence[int], group: Sequence[TapIndex], addresses: Iterable[int]
) -> list[int]:
    """Per address, the sum of the coefficients of the members whose bit is set.

    Address bit j selects group member j; a padding slot adds nothing.
    """
    selects = [(1 << j, values[idx]) for j, idx in enumerate(group) if idx is not None]
    sums = []
    for address in addresses:
        total = 0
        for bit, value in selects:
            if address & bit:
                total += value
        sums.append(total)
    return sums


def build_lut(coeffs: CoefficientSet, group: Sequence[TapIndex]) -> DaLut:
    """Precompute all 2^M subset sums for a group (address bit j selects member j)."""
    members = tuple(group)
    return DaLut(
        members, tuple(_subset_sums(coeffs.values, members, range(1 << len(members))))
    )


def mux_ppg(coeffs: CoefficientSet, group: Sequence[TapIndex], address: int) -> int:
    """Partial product computed directly from the address, with no stored table.

    Models the shared multiplexer structure: the address bits steer the
    group's coefficients into an on-the-fly sum. Must match the stored
    table at every address.
    """
    members = tuple(group)
    if not (0 <= address < 1 << len(members)):
        raise ValueError(f"address {address} out of range for a {len(members)}-bit group")
    return _subset_sums(coeffs.values, members, (address,))[0]


def check_tables(
    luts: Sequence[Sequence[int]],
    plan: PartitionPlan,
    coeff_width: int,
) -> tuple[tuple[int, ...], ...]:
    """Entries of one table of 2^M integers per group, each within the partial-product width.

    An entry no sum of M coefficients could take is refused before it can
    reach an accumulator; design files and injected tables share this check.
    """
    if len(luts) != plan.num_groups:
        raise ValueError("need exactly one table per group")
    want = 1 << plan.group_size
    bound = 1 << (partial_product_width(coeff_width, plan.group_size) - 1)
    tables = []
    for i, entries in enumerate(luts):
        if (
            not isinstance(entries, (list, tuple))
            or len(entries) != want
            or not all(type(v) is int for v in entries)
        ):
            raise ValueError(f"table {i} must be a list of {want} integers")
        for v in entries:
            if not (-bound <= v < bound):
                raise ValueError(
                    f"table {i} entry {v} cannot be a sum of "
                    f"{plan.group_size} coefficients of {coeff_width} bits"
                )
        tables.append(tuple(entries))
    return tuple(tables)


def address_for_cycle(
    delay_line: Sequence[int],
    plan: PartitionPlan,
    cycle: int,
    input_width: int,
) -> tuple[int, ...]:
    """Per-group table addresses formed from bit ``cycle`` of every sample.

    ``delay_line[i]`` holds x(current - i), so tap i multiplies the sample
    it should. Address bit j of a group belongs to group member j; padding
    slots read as 0.
    """
    if not (0 <= cycle < input_width):
        raise ValueError(f"cycle {cycle} out of range for {input_width}-bit inputs")
    if len(delay_line) != plan.num_taps:
        raise ValueError("delay line length must equal the plan's tap count")
    addresses = []
    for group in plan.groups:
        a = 0
        for j, idx in enumerate(group):
            if idx is not None:
                a |= ((delay_line[idx] >> cycle) & 1) << j
        addresses.append(a)
    return tuple(addresses)


@dataclass(frozen=True)
class CycleRecord:
    """Everything one clock of the bit-serial schedule did."""

    cycle: int
    addresses: tuple[int, ...]
    partials: tuple[int, ...]
    tree_sum: int
    shift: int
    subtract: bool
    acc_after: int


CycleTrace = tuple[CycleRecord, ...]


def _check_inputs(
    delay_line: Sequence[int],
    coeffs: CoefficientSet,
    plan: PartitionPlan,
    input_width: int,
) -> tuple[int, ...]:
    num_taps = len(coeffs)
    if plan.num_taps != num_taps:
        raise ValueError(
            f"plan covers {plan.num_taps} taps but the filter has {num_taps}"
        )
    dl = tuple(delay_line)
    if len(dl) != num_taps:
        raise ValueError(f"delay line has {len(dl)} entries, expected {num_taps}")
    fmt = FixedFormat(input_width)
    for x in dl:
        fmt.check(x, "sample")
    return dl


@functools.lru_cache(maxsize=None)
def _spreader(input_width: int, field: int) -> Callable[[Sequence[int]], list[int]]:
    """Map samples to interleaved words: bit n of each L-bit pattern moves to n * field.

    With ``field`` at least the group size M, spread words of group
    members, shifted by their member index j < M, never overlap, so OR-ing
    them gives a word whose field n is the group's table address at cycle
    n. One 256-entry byte table per (L, field) does the spreading, so
    memory stays flat at any width.
    """
    table = tuple(sum(((b >> i) & 1) << (i * field) for i in range(8)) for b in range(256))
    pattern = (1 << input_width) - 1
    if input_width <= 8:
        return lambda samples: [table[x & pattern] for x in samples]
    steps = tuple((k, k * field) for k in range(8, input_width, 8))

    def spread(samples: Sequence[int]) -> list[int]:
        words = []
        for x in samples:
            u = x & pattern
            word = table[u & 255]
            for k, s in steps:
                word |= table[(u >> k) & 255] << s
            words.append(word)
        return words

    return spread


# observe(cycle, addresses, partials, tree_sum, acc_after), called after each cycle
Observer = Callable[[int, list, list, int, int], None]


def _schedule(
    coeffs: CoefficientSet,
    plan: PartitionPlan,
    ppg_mode: PpgMode,
    input_width: int,
    luts: Sequence[Sequence[int]] | None,
    tree: AdderKind = AdderKind.CLA,
    bit_level: bool = False,
) -> tuple[Callable[..., int], Callable[[Sequence[int]], list[int]]]:
    """Bind the one L-cycle bit-serial loop to a plan, a mode and a tree step.

    Each cycle takes one partial product per group, sums them in the tree
    step (native, or the gate-level adders with ``bit_level``), then
    shifts and accumulates, subtracting on the sign cycle. Stored and mux
    modes differ only in the read: stored mode reads every cycle's tables
    at addresses taken from interleaved group words, mux mode tests select
    bits straight from the samples, in one bank when nothing consumes
    per-group partials. Address fields are one byte wide (M <= 8) or two
    (M <= 16), so a group word's bytes list its addresses in cycle order.
    Returns the loop and the spreader whose words it reads.
    """
    length = input_width
    last = length - 1
    acc_width = required_accumulator_width(len(coeffs), coeffs.format.width, length)
    bound = 1 << (acc_width - 1)
    size = plan.group_size
    mask = (1 << size) - 1
    if size <= 8:
        field, fields = 8, lambda word: word.to_bytes(length, "little")
    else:
        order = sys.byteorder
        field, fields = 16, lambda word: memoryview(word.to_bytes(2 * length, order)).cast("H")
    shifts = tuple(range(0, length * field, field))
    members = tuple(
        tuple((j, idx) for j, idx in enumerate(g) if idx is not None) for g in plan.groups
    )
    stored = ppg_mode is PpgMode.STORED
    if not stored:
        tables = None
    elif luts is None:
        tables = tuple(build_lut(coeffs, g).entries for g in plan.groups)
    else:
        tables = check_tables(luts, plan, coeffs.format.width)
    values = coeffs.values
    per_group = tuple(tuple((i, values[i]) for _, i in mem) for mem in members)
    merged = (tuple(sel for bank in per_group for sel in bank),)
    spread = _spreader(input_width, field)
    tree_sum = sum
    if bit_level:
        merged = per_group
        width = partial_product_width(coeffs.format.width, size)

        def tree_sum(partials: list) -> int:
            operands = [BitVector(width, p) for p in partials]
            return adder_tree_sum(operands, tree, DEFAULT_COST_MODEL, bit_level=True)[0]

    def run(
        dl: Sequence[int],
        spread_line: Sequence[int] | None = None,
        observe: Observer | None = None,
    ) -> int:
        """Inner product of ``dl``, newest sample first, whose spread words are ``spread_line``."""
        banks = merged if observe is None else per_group
        if stored or observe is not None:
            if spread_line is None:
                spread_line = spread(dl)
            words = []
            for mem in members:
                w = 0
                for j, i in mem:
                    w |= spread_line[i] << j
                words.append(w)
            if stored:
                # Group-major table reads; cycle n's partials are reads[n::length].
                reads = [tab[a] for tab, w in zip(tables, words) for a in fields(w)]
        acc = 0
        for n in range(length):
            if stored:
                partials = reads[n::length]
            else:
                bit = 1 << n
                partials = []
                for bank in banks:
                    t = 0
                    for i, c in bank:
                        if dl[i] & bit:
                            t += c
                    partials.append(t)
            t = tree_sum(partials)
            if n == last:
                acc -= t << n
            else:
                acc += t << n
            if observe is not None:
                s = shifts[n]
                observe(n, [(w >> s) & mask for w in words], partials, t, acc)
        if acc >= bound or acc < -bound:
            raise AccumulatorOverflow(
                f"inner product {acc} exceeds the {acc_width}-bit accumulator"
            )
        return acc

    return run, spread


def _recorder(records: list, input_width: int) -> Observer:
    """Observer that appends one CycleRecord per cycle to ``records``."""
    last = input_width - 1

    def observe(n: int, addresses: list, partials: list, tree_sum: int, acc: int) -> None:
        records.append(
            CycleRecord(n, tuple(addresses), tuple(partials), tree_sum, n, n == last, acc)
        )

    return observe


def da_inner_product(
    delay_line: Sequence[int],
    coeffs: CoefficientSet,
    plan: PartitionPlan,
    ppg_mode: PpgMode = PpgMode.STORED,
    tree: AdderKind = AdderKind.CLA,
    *,
    input_width: int,
    luts: Sequence[Sequence[int]] | None = None,
    collect_trace: bool = True,
    bit_level: bool = False,
) -> tuple[int, CycleTrace | None]:
    """Run the L-cycle bit-serial schedule on one delay-line snapshot.

    Returns the accumulator value, which equals sum_k A_k * x_k exactly,
    and the per-cycle trace (or None when ``collect_trace`` is off). With
    ``bit_level=True`` each cycle's group outputs are summed through the
    gate-level adder tree of the configured kind instead of native
    integers; the result must not change.

    ``luts`` overrides the derived tables in stored mode, which lets a
    verifier exercise exactly the entries a design file carries.
    """
    dl = _check_inputs(delay_line, coeffs, plan, input_width)
    run, _ = _schedule(coeffs, plan, ppg_mode, input_width, luts, tree, bit_level)
    if not collect_trace:
        return run(dl), None
    records: list[CycleRecord] = []
    value = run(dl, observe=_recorder(records, input_width))
    return value, tuple(records)


class DaFilter:
    """Streaming DA evaluator: one inner product per pushed sample.

    Owns a private delay line (newest sample first, zeros initially) and,
    in stored mode, the spread word of every sample in it, formed once as
    the sample enters; one instance per thread, instances independent.
    Output matches :func:`dafir.numerics.direct_fir` sample for sample.
    """

    def __init__(
        self,
        coeffs: CoefficientSet,
        plan: PartitionPlan,
        ppg_mode: PpgMode = PpgMode.STORED,
        tree: AdderKind = AdderKind.CLA,
        *,
        input_width: int,
        luts: Sequence[Sequence[int]] | None = None,
        bit_level: bool = False,
    ) -> None:
        if plan.num_taps != len(coeffs):
            raise ValueError(
                f"plan covers {plan.num_taps} taps but the filter has {len(coeffs)}"
            )
        self.coeffs = coeffs
        self.plan = plan
        self.ppg_mode = ppg_mode
        self.tree = tree
        self.input_format = FixedFormat(input_width)
        self.bit_level = bit_level
        self._run, self._spreader = _schedule(
            coeffs, plan, ppg_mode, input_width, luts, tree, bit_level
        )
        self.reset()

    def _admit(self, sample: int) -> None:
        x = self.input_format.check(sample, "sample")
        self._delay.insert(0, x)
        self._delay.pop()
        if self._spread is not None:
            self._spread.insert(0, self._spreader((x,))[0])
            self._spread.pop()

    def push(self, sample: int) -> int:
        self._admit(sample)
        return self._run(self._delay, self._spread)

    def push_traced(self, sample: int) -> tuple[int, CycleTrace]:
        self._admit(sample)
        records: list[CycleRecord] = []
        value = self._run(self._delay, self._spread, _recorder(records, self.input_format.width))
        return value, tuple(records)

    def process(self, samples: Iterable[int]) -> list[int]:
        return [self.push(s) for s in samples]

    def reset(self) -> None:
        self._delay = [0] * len(self.coeffs)
        self._spread = [0] * len(self.coeffs) if self.ppg_mode is PpgMode.STORED else None


@dataclass(frozen=True)
class Mismatch:
    """First place a DA evaluation and the direct-form oracle disagreed."""

    window: tuple[int, ...]
    got: int
    expected: int


def verify_windows(
    coeffs: CoefficientSet,
    plan: PartitionPlan,
    ppg_mode: PpgMode,
    *,
    input_width: int,
    windows: Iterable[Sequence[int]],
    luts: Sequence[Sequence[int]] | None = None,
    limit: int = 1,
) -> tuple[int, list[Mismatch]]:
    """Compare the DA path against the direct dot product on many windows.

    A window is one delay-line snapshot (newest sample first) of
    ``input_width``-bit samples; a sample outside that range raises
    ValueError, since the DA path reads only its low bits. Returns the
    number of windows checked and up to ``limit`` mismatches; an empty list
    means full agreement. The oracle side is an independent plain
    multiply-accumulate, never a table.
    """
    evaluate, _ = _schedule(coeffs, plan, ppg_mode, input_width, luts)
    taps = coeffs.values
    fmt = FixedFormat(input_width)
    lo, hi = fmt.min_value, fmt.max_value
    checked = 0
    mismatches: list[Mismatch] = []
    for checked, window in enumerate(windows, 1):
        if min(window) < lo or max(window) > hi:
            for x in window:
                fmt.check(x, "sample")
        got = evaluate(window)
        expected = sum(map(mul, taps, window))
        if got != expected:
            mismatches.append(Mismatch(tuple(window), got, expected))
            if len(mismatches) >= limit:
                break
    return checked, mismatches


def all_windows(num_taps: int, input_width: int) -> Iterable[tuple[int, ...]]:
    """Every possible delay-line snapshot, all 2^(K*L) of them, in order."""
    span = 1 << input_width
    half = span >> 1
    mask = span - 1

    def decode(code: int) -> tuple[int, ...]:
        out = []
        for _ in range(num_taps):
            v = code & mask
            out.append(v - span if v >= half else v)
            code >>= input_width
        return tuple(out)

    return (decode(c) for c in range(1 << (num_taps * input_width)))
