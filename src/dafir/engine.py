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
from array import array
from dataclasses import dataclass
from itertools import chain, islice, product, repeat
from operator import and_, itemgetter, mul
from typing import Callable, Iterable, Iterator, Sequence, Union

from .adders import (
    DEFAULT_COST_MODEL,
    AdderKind,
    BitVector,
    _cpa_planes,
    _tree_planes,
    adder_tree_sum,
    tree_output_width,
)
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


LANES = 1024  # windows per bit-sliced chunk of verify_windows

_SIGNED_CODES = {array(c).itemsize: c for c in "bhiq"}
_UNSIGNED_CODES = {array(c).itemsize: c for c in "BHIQ"}
_TRANSPOSE = (0x00AA00AA00AA00AA, 0x0000CCCC0000CCCC, 0x00000000F0F0F0F0)


def _item_size(bits: int) -> int:
    """Smallest array item size, in bytes, with at least ``bits`` bits."""
    return min(size for size in _SIGNED_CODES if size * 8 >= bits)


def _little_endian(items: array) -> array:
    """``items`` with their bytes in little-endian order (a swap is its own inverse)."""
    if sys.byteorder == "big":
        items.byteswap()
    return items


def _pack(values: Iterable[int], width: int) -> tuple[bytes, int]:
    """Signed ``width``-bit values as little-endian items; the bytes and the item size."""
    if width <= 64:
        items = array(_SIGNED_CODES[_item_size(width)], values)
        return _little_endian(items).tobytes(), items.itemsize
    size = (width + 7) // 8
    codes = map(and_, values, repeat((1 << (8 * size)) - 1))
    return b"".join(map(int.to_bytes, codes, repeat(size), repeat("little"))), size


def _lane_planes(values: Iterable[int], width: int) -> list[int]:
    """Bit-planes of signed ``width``-bit values: bit i of plane b is bit b of value i.

    Each byte column of the packed values is read as one integer, eight
    lanes to a 64-bit word, and every word's 8x8 bit matrix is transposed
    at once by three masked shift-and-swap rounds (Hacker's Delight, 7-3),
    after which byte c of each word holds bit c of its eight lanes. All of
    it is whole-integer and byte-slice work at C level.
    """
    data, size = _pack(values, width)
    words = -(-len(data) // (8 * size))
    m1, m2, m3 = (int.from_bytes(m.to_bytes(8, "little") * words, "little") for m in _TRANSPOSE)
    planes = []
    for e in range(0, width, 8):
        x = int.from_bytes(data[e // 8 :: size], "little")
        t = (x ^ (x >> 7)) & m1
        x ^= t ^ (t << 7)
        t = (x ^ (x >> 14)) & m2
        x ^= t ^ (t << 14)
        t = (x ^ (x >> 28)) & m3
        x ^= t ^ (t << 28)
        rows = x.to_bytes(8 * words, "little")
        planes += [int.from_bytes(rows[c::8], "little") for c in range(min(8, width - e))]
    return planes


def _lane_datapath(
    coeffs: CoefficientSet,
    plan: PartitionPlan,
    tables: Sequence[Sequence[int]],
    input_width: int,
    tree: AdderKind,
) -> Callable[[list[int], list[int]], Iterator[tuple[int, int]]]:
    """Bind the bit-sliced datapath that checks a chunk of windows at once.

    Lane i carries window i. Each group's per-lane addresses for all L
    cycles are formed with whole-chunk integer operations on the samples,
    one table read per lane and cycle, then the partial products become
    bit-planes, go through the gate-level tree of the configured kind (all
    cycles at once; the tree is combinational) and a gate-level
    shift-accumulator that subtracts on the sign cycle by adding the
    inverted operand with every carry-in set. The accumulator has
    tree width + L bits, so no entry ``check_tables`` accepts can wrap it,
    and its planes are XOR-compared with the oracle's.
    """
    length = input_width
    num_taps = len(coeffs)
    members = [[(j, k) for j, k in enumerate(g) if k is not None] for g in plan.groups]
    partial_width = partial_product_width(coeffs.format.width, plan.group_size)
    tree_width = tree_output_width(partial_width, plan.num_groups)
    acc_width = tree_width + length
    block = DEFAULT_COST_MODEL.cla_block_size
    # One item per sample, wide enough for the sample and for an address.
    size = _item_size(max(length, plan.group_size))
    sample_code, address_code = _SIGNED_CODES[size], _UNSIGNED_CODES[size]

    def run(flat: list[int], expected: list[int]) -> Iterator[tuple[int, int]]:
        """(lane, datapath value) of each window, in order, whose value is not ``expected``."""
        count = len(expected)
        samples = array(sample_code, flat)
        # Column k holds tap k's sample of lane i in item i, 8 * size bits.
        columns = [
            int.from_bytes(_little_endian(samples[k::num_taps]).tobytes(), "little")
            for k in range(num_taps)
        ]
        ones = int.from_bytes(b"\1".ljust(size, b"\0") * count, "little")
        operands = []
        for table, group in zip(tables, members):
            # Address fields of all cycles, cycle-major: item n*count + i is lane i at cycle n.
            fields = b"".join(
                sum(((columns[k] >> n) & ones) << j for j, k in group).to_bytes(
                    size * count, "little"
                )
                for n in range(length)
            )
            addresses = _little_endian(array(address_code, fields))
            # count * length >= 2 addresses, so itemgetter returns a tuple
            planes = _lane_planes(itemgetter(*addresses)(table), partial_width)
            operands.append(planes + planes[-1:] * (tree_width - partial_width))
        # Cycle n is lanes [n*count, (n+1)*count) of the tree's planes.
        sums = _tree_planes(operands, tree, (1 << (count * length)) - 1, block)
        lanes = (1 << count) - 1
        acc = [0] * acc_width
        for n in range(length):
            t = [(p >> (n * count)) & lanes for p in sums]
            addend = ([0] * n + t + t[-1:] * (acc_width - tree_width))[:acc_width]
            if n == length - 1:
                acc = _cpa_planes(tree, acc, [p ^ lanes for p in addend], lanes, lanes, block)
            else:
                acc = _cpa_planes(tree, acc, addend, 0, lanes, block)
        diff = 0
        for got, want in zip(acc, _lane_planes(expected, acc_width)):
            diff |= got ^ want
        while diff:
            low = diff & -diff
            i = low.bit_length() - 1
            value = sum(((p >> i) & 1) << b for b, p in enumerate(acc))
            yield i, value - ((value >> (acc_width - 1)) << acc_width)
            diff ^= low

    return run


def verify_windows(
    coeffs: CoefficientSet,
    plan: PartitionPlan,
    ppg_mode: PpgMode,
    tree: AdderKind = AdderKind.CLA,
    *,
    input_width: int,
    windows: Iterable[Sequence[int]],
    luts: Sequence[Sequence[int]] | None = None,
    limit: int = 1,
) -> tuple[int, list[Mismatch]]:
    """Compare the gate-level DA datapath against the direct dot product on many windows.

    A window is one delay-line snapshot (newest sample first) of
    ``input_width``-bit integer samples; a sample of another type raises
    TypeError and one outside that range ValueError, since the DA path
    reads only its low bits. Returns the number of windows checked and up
    to ``limit`` mismatches; an empty list means full agreement. The oracle
    side is an independent plain multiply-accumulate, never a table.

    Windows run ``LANES`` at a time through a bit-sliced datapath: the
    design's tables (mux mode: the same subset sums, formed once), the
    gate-level ``tree`` and a gate-level accumulator. Only a window it
    flags is run again through the scalar schedule, which yields each
    Mismatch or raises AccumulatorOverflow just as a window-by-window loop
    would; a chunk holding a sample that is not an in-range ``int`` is
    checked window by window, so the first event in window order wins.
    """
    taps = coeffs.values
    fmt = FixedFormat(input_width)
    lo, hi = fmt.min_value, fmt.max_value
    if ppg_mode is PpgMode.STORED and luts is not None:
        tables = check_tables(luts, plan, coeffs.format.width)
    else:
        tables = tuple(_subset_sums(taps, g, range(1 << plan.group_size)) for g in plan.groups)
    datapath = _lane_datapath(coeffs, plan, tables, input_width, tree)
    evaluate = None  # the scalar schedule, bound when a window first needs it
    windows = iter(windows)
    checked = 0
    mismatches: list[Mismatch] = []
    while chunk := list(islice(windows, LANES)):
        flat = list(chain.from_iterable(chunk))
        if (
            set(map(len, chunk)) == {len(taps)}
            and set(map(type, flat)) == {int}
            and lo <= min(flat)
            and max(flat) <= hi
        ):
            expected = [sum(map(mul, taps, window)) for window in chunk]
            suspects = datapath(flat, expected)
        else:
            expected = None
            suspects = ((i, None) for i in range(len(chunk)))
        for i, lane_value in suspects:
            window = chunk[i]
            if expected is None:
                for x in window:
                    fmt.check(x, "sample")
                want = sum(map(mul, taps, window))
            else:
                want = expected[i]
            if evaluate is None:
                evaluate, _ = _schedule(coeffs, plan, ppg_mode, input_width, tables)
            got = evaluate(window)
            if got == want and lane_value is not None:
                got = lane_value  # the gate-level datapath alone disagrees
            if got != want:
                mismatches.append(Mismatch(tuple(window), got, want))
                if len(mismatches) >= limit:
                    return checked + i + 1, mismatches
        checked += len(chunk)
    return checked, mismatches


def all_windows(num_taps: int, input_width: int) -> Iterator[tuple[int, ...]]:
    """Every possible delay-line snapshot, all 2^(K*L) of them, in order.

    Window c holds the K signed L-bit digits of c, tap 0 in the lowest, so
    tap 0 varies fastest.
    """
    half = 1 << (input_width - 1)
    digits = [*range(half), *range(-half, 0)]  # digit d read as a signed L-bit value
    return map(tuple, map(reversed, product(digits, repeat=num_taps)))
