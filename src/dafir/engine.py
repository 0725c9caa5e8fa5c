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
from itertools import chain, islice, product, repeat, takewhile
from operator import add, and_, itemgetter, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

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
    "DaFilter",
    "DaLut",
    "Mismatch",
    "PartitionPlan",
    "PpgMode",
    "TracedBlock",
    "all_windows",
    "build_lut",
    "check_tables",
    "da_inner_product",
    "memory_locations",
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


def _subset_sums(values: Sequence[int], group: Sequence[TapIndex]) -> list[int]:
    """All 2^M sums of a group's coefficients: entry a sums the members whose bit is set in a.

    Built by doubling: after member j the table holds every address below
    2^(j+1), its upper half the lower half plus member j's coefficient (0
    for a padding slot), so a table costs 2^M additions.
    """
    table = [0]
    for idx in group:
        c = 0 if idx is None else values[idx]
        table += [t + c for t in table]
    return table


def build_lut(coeffs: CoefficientSet, group: Sequence[TapIndex]) -> DaLut:
    """Precompute all 2^M subset sums for a group (address bit j selects member j)."""
    members = tuple(group)
    return DaLut(members, tuple(_subset_sums(coeffs.values, members)))


_Halves = tuple[tuple[int, ...], tuple[int, ...]]  # a table's T[:256] and T[::256]


class _CheckedTables(Sequence):
    """Tables ``check_tables`` returned, with the (M, groups, W) they were checked for.

    Only ``check_tables`` and :func:`_subset_tables` make one. Its tables
    are tuples of ints, so the same tables checked for the same shape pass
    again without a scan. ``halves`` holds each table's halves, None for
    M <= 8 and for a table that does not split (:func:`_split`). A table
    given as its halves is formed from them, T[256h + l] = high[h] +
    low[l], when the scalar schedule (``push``, a window ``verify``
    flags) or the trace writer first reads it: blocks, traced or not, and
    ``verify``'s lanes read the halves alone.
    """

    def __init__(
        self, tables: list[tuple[int, ...] | None], halves: Sequence[_Halves | None], shape: tuple
    ) -> None:
        self._tables = tables  # None: not formed from its halves yet
        self.halves = tuple(halves)
        self.shape = shape

    def __len__(self) -> int:
        return len(self._tables)

    def __getitem__(self, g: int) -> tuple[int, ...]:
        table = self._tables[g]
        if table is None:
            low, high = self.halves[g]
            table = self._tables[g] = tuple([h + v for h in high for v in low])
        return table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _CheckedTables)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"_CheckedTables({tuple(self)!r})"


def _given_halves(table: dict, size: int, i: int) -> _Halves:
    """Table i's ``{"low": T[:256], "high": T[::256]}`` as its halves, of a table of ``size``.

    Both halves hold ints, and start at 0, as the halves of every table
    that splits do: T[0] = T[0] + T[0].
    """
    if set(table) != {"low", "high"}:
        raise ValueError(f"table {i} must have exactly the keys 'low' and 'high'")
    for name, length in (("low", 256), ("high", size >> 8)):
        half = table[name]
        if (
            not isinstance(half, (list, tuple))
            or len(half) != length
            or set(map(type, half)) != {int}
        ):
            raise ValueError(f"table {i} {name} half must be a list of {length} integers")
    low, high = tuple(table["low"]), tuple(table["high"])
    if low[0] or high[0]:
        raise ValueError(f"table {i} halves must start at 0, not low {low[0]} and high {high[0]}")
    return low, high


def check_tables(
    luts: Sequence[Sequence[int] | dict],
    plan: PartitionPlan,
    coeff_width: int,
) -> Sequence[tuple[int, ...]]:
    """Entries of one table of 2^M integers per group, each within the partial-product width.

    A table is the list of its entries or, with M > 8, for a table that
    splits (T[256h + l] == T[256h] + T[l] for every h and l), the object
    ``{"low": T[:256], "high": T[::256]}``. An entry no sum of M
    coefficients could take is refused before it can reach an accumulator;
    design files and injected tables share this check. A split table's
    entries range from its halves' least sum to their greatest, so one
    given as halves is checked, and kept, without forming its entries.
    Tables this function returned pass again at once for the same group
    size, group count and coefficient width (a loaded design's filter).
    """
    shape = (plan.group_size, plan.num_groups, coeff_width)
    if type(luts) is _CheckedTables and luts.shape == shape:
        return luts
    if len(luts) != plan.num_groups:
        raise ValueError("need exactly one table per group")
    want = 1 << plan.group_size
    bound = 1 << (partial_product_width(coeff_width, plan.group_size) - 1)
    tables = []
    splits = []
    for i, entries in enumerate(luts):
        if isinstance(entries, dict) and plan.group_size > 8:
            table, halves = None, _given_halves(entries, want, i)
        elif (
            not isinstance(entries, (list, tuple))
            or len(entries) != want
            or set(map(type, entries)) != {int}
        ):
            raise ValueError(f"table {i} must be a list of {want} integers")
        else:
            table = tuple(entries)
            halves = _split(table) if plan.group_size > 8 else None
        lo, hi = (sum(map(extreme, halves or (table,))) for extreme in (min, max))
        if lo < -bound or hi >= bound:
            if table is None:
                low, high = halves
                table = (h + v for h in high for v in low)  # in address order
            v = next(v for v in table if not -bound <= v < bound)
            raise ValueError(
                f"table {i} entry {v} cannot be a sum of "
                f"{plan.group_size} coefficients of {coeff_width} bits"
            )
        tables.append(table)
        splits.append(halves)
    return _CheckedTables(tables, splits, shape)


def _subset_tables(coeffs: CoefficientSet, plan: PartitionPlan) -> _CheckedTables:
    """Every group's subset sums as checked tables; above 8 members as the halves they split into.

    A group's low half is the subset sums of its first 8 members and its
    high half those of the rest, so its whole table is formed only when
    it is first read. Subset sums never leave the partial-product width.
    """
    values = coeffs.values
    shape = (plan.group_size, plan.num_groups, coeffs.format.width)
    if plan.group_size <= 8:
        tables = [tuple(_subset_sums(values, g)) for g in plan.groups]
        return _CheckedTables(tables, [None] * len(tables), shape)
    halves = [tuple(tuple(_subset_sums(values, h)) for h in (g[:8], g[8:])) for g in plan.groups]
    return _CheckedTables([None] * len(halves), halves, shape)


def _table_forms(luts: Sequence[Sequence[int]]) -> list:
    """Each table as ``check_tables`` takes it: ``{"low": [...], "high": [...]}`` if it splits.

    A table of more than 256 entries splits as in :func:`_split`; any
    other table is given as itself, its entries. Checked tables give the
    halves they keep, so no table is split again or formed from halves.
    """
    if type(luts) is _CheckedTables:
        halves = luts.halves
    else:
        halves = [_split(table) if len(table) > 256 else None for table in luts]
    return [
        {"low": list(pair[0]), "high": list(pair[1])} if pair else luts[g]
        for g, pair in enumerate(halves)
    ]


def _read_tables(
    coeffs: CoefficientSet,
    plan: PartitionPlan,
    ppg_mode: PpgMode,
    luts: Sequence[Sequence[int] | dict] | None,
) -> _CheckedTables:
    """The tables a filter reads: stored mode's ``luts``, checked, when given; else subset sums.

    A mux filter reads no stored table, so ``luts`` given with it are refused.
    """
    if luts is None:
        return _subset_tables(coeffs, plan)
    if ppg_mode is not PpgMode.STORED:
        raise ValueError("luts are stored tables; a mux filter cannot read them")
    return check_tables(luts, plan, coeffs.format.width)


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


class TracedBlock(NamedTuple):
    """A block of consecutive outputs with their cycle records, as cycle-major columns.

    Entry ``n * stride + i`` of a column belongs to output i at cycle n,
    for i below ``len(outputs)``: one key column per table read, then the
    tree sum over groups and the accumulator after the cycle. For M <= 8 a
    read is a pack of :func:`_packs`, whose 8-bit key holds its r-th
    group's address in bits M·r to M·r + M - 1; for M > 8 it is a group,
    keyed by its address. With ``DaFilter.tables()``' entries at those
    addresses as partials, they hold the fields of the CycleRecords
    ``DaFilter.push_traced`` gives for the same samples.
    """

    outputs: list[int]
    stride: int
    addresses: tuple[Sequence[int], ...]
    sums: Sequence[int]
    acc: Sequence[int]


_format = functools.lru_cache(maxsize=None)(FixedFormat)  # one per input width


def _all_in(samples: Sequence[int], fmt: FixedFormat) -> bool:
    """Whether every one of ``samples`` is an ``int`` within ``fmt``, checked at C level."""
    lo, hi = fmt.min_value, fmt.max_value
    return set(map(type, samples)) == {int} and lo <= min(samples) and max(samples) <= hi


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
    fmt = _format(input_width)
    if not _all_in(dl, fmt):
        for x in dl:  # raises what the first bad sample raises
            fmt.check(x, "sample")
    return dl


@functools.lru_cache(maxsize=None)
def _spreader(input_width: int, group_size: int) -> Callable[[Sequence[int]], list[int]]:
    """Map samples to interleaved words: bit n of each L-bit pattern moves to n * field.

    A field is one byte for group sizes M <= 8 and two above, so spread
    words of group members, shifted by their member index j < M, never
    overlap, and OR-ing them gives a word whose field n is the group's
    table address at cycle n. One 256-entry byte table per (L, M) does the
    spreading, so memory stays flat at any width.
    """
    field = 8 * _item_size(group_size)
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


def _overflow(acc: int, acc_width: int) -> AccumulatorOverflow:
    return AccumulatorOverflow(f"inner product {acc} exceeds the {acc_width}-bit accumulator")


def _schedule(
    coeffs: CoefficientSet,
    plan: PartitionPlan,
    input_width: int,
    tables: Sequence[Sequence[int]],
    tree: AdderKind = AdderKind.CLA,
    bit_level: bool = False,
) -> Callable[..., int]:
    """Bind the one L-cycle bit-serial loop to a plan, its tables and a tree step.

    Each cycle reads one partial product per group from ``tables`` (see
    :func:`_read_tables`; callers check outside tables), sums them in the
    tree step (native, or the gate-level adders with ``bit_level``), then
    shifts and accumulates, subtracting on the sign cycle. Every cycle's
    addresses come from interleaved group words (:func:`_spreader`), whose
    address fields are one byte wide (M <= 8) or two (M <= 16), so a group
    word's bytes list its addresses in cycle order and the tables are read
    in one pass. Given a ``records`` list, the bound loop appends each
    cycle's :class:`CycleRecord` to it.
    """
    length = input_width
    last = length - 1
    acc_width = required_accumulator_width(len(coeffs), coeffs.format.width, length)
    bound = 1 << (acc_width - 1)
    size = plan.group_size
    if size <= 8:
        fields = lambda word: word.to_bytes(length, "little")
    else:
        order = sys.byteorder
        fields = lambda word: memoryview(word.to_bytes(2 * length, order)).cast("H")
    members = tuple(
        tuple((j, idx) for j, idx in enumerate(g) if idx is not None) for g in plan.groups
    )
    spread = _spreader(input_width, size)
    tree_sum = sum
    if bit_level:
        width = partial_product_width(coeffs.format.width, size)

        def tree_sum(partials: list) -> int:
            operands = [BitVector(width, p) for p in partials]
            return adder_tree_sum(operands, tree, DEFAULT_COST_MODEL, bit_level=True)[0]

    def run(
        dl: Sequence[int],
        spread_line: Sequence[int] | None = None,
        records: list[CycleRecord] | None = None,
    ) -> int:
        """Inner product of ``dl``, newest sample first, whose spread words are ``spread_line``."""
        if spread_line is None:
            spread_line = spread(dl)
        addresses = []  # each group's addresses, in cycle order
        for mem in members:
            w = 0
            for j, i in mem:
                w |= spread_line[i] << j
            addresses.append(fields(w))
        # Group-major table reads; cycle n's partials are reads[n::length].
        reads = [tab[a] for tab, column in zip(tables, addresses) for a in column]
        acc = 0
        for n in range(length):
            partials = reads[n::length]
            t = tree_sum(partials)
            if n == last:
                acc -= t << n
            else:
                acc += t << n
            if records is not None:
                at_n = tuple(column[n] for column in addresses)
                records.append(CycleRecord(n, at_n, tuple(partials), t, n, n == last, acc))
        if acc >= bound or acc < -bound:
            raise _overflow(acc, acc_width)
        return acc

    return run


@functools.lru_cache(maxsize=16)
def _bound_schedule(
    coeffs: CoefficientSet,
    plan: PartitionPlan,
    ppg_mode: PpgMode,
    input_width: int,
    luts: tuple[tuple[int, ...], ...] | None,
    tree: AdderKind,
    bit_level: bool,
) -> Callable[..., int]:
    """The schedule bound once per distinct set of arguments, for single-window callers.

    ``luts`` are checked ones (tuples of exact ints, so equal tables
    behave alike) or None; every argument is immutable, so a binding
    cannot go stale.
    """
    tables = _read_tables(coeffs, plan, ppg_mode, luts)
    return _schedule(coeffs, plan, input_width, tables, tree, bit_level)


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
) -> tuple[int, tuple[CycleRecord, ...] | None]:
    """Run the L-cycle bit-serial schedule on one delay-line snapshot.

    Returns the accumulator value, which equals sum_k A_k * x_k exactly,
    and the per-cycle trace (or None when ``collect_trace`` is off). With
    ``bit_level=True`` each cycle's group outputs are summed through the
    gate-level adder tree of the configured kind instead of native
    integers; the result must not change.

    ``luts`` overrides the derived tables in stored mode, which lets a
    verifier exercise exactly the entries a design file carries; mux
    mode refuses them.
    """
    dl = _check_inputs(delay_line, coeffs, plan, input_width)
    if luts is not None:
        luts = _read_tables(coeffs, plan, ppg_mode, luts)  # checked, hashable: the binding's key
    run = _bound_schedule(coeffs, plan, ppg_mode, input_width, luts, tree, bit_level)
    if not collect_trace:
        return run(dl), None
    records: list[CycleRecord] = []
    value = run(dl, records=records)
    return value, tuple(records)


class DaFilter:
    """Streaming DA evaluator: one inner product per pushed sample.

    Owns a private delay line (newest sample first, zeros initially) and
    the spread word of every sample in it, formed once as the sample
    enters; one instance per thread, instances independent. Output matches
    :func:`dafir.numerics.direct_fir` sample for sample. ``push`` and
    ``push_traced`` run the bit-serial schedule per sample, in both modes
    on the tables of :meth:`tables`, bound on the first call;
    ``blocks``, ``process`` and ``traced_blocks`` evaluate ``LANES``
    outputs at a time on the same delay line.
    """

    def __init__(
        self,
        coeffs: CoefficientSet,
        plan: PartitionPlan,
        ppg_mode: PpgMode = PpgMode.STORED,
        *,
        input_width: int,
        luts: Sequence[Sequence[int]] | None = None,
    ) -> None:
        if plan.num_taps != len(coeffs):
            raise ValueError(
                f"plan covers {plan.num_taps} taps but the filter has {len(coeffs)}"
            )
        self.coeffs = coeffs
        self.plan = plan
        self.ppg_mode = ppg_mode
        self.input_format = FixedFormat(input_width)
        # Given tables are checked now, not at a first sample; only stored mode takes them.
        self._tables = _read_tables(coeffs, plan, ppg_mode, luts)
        self._spreader = _spreader(input_width, plan.group_size)
        self._acc_width = required_accumulator_width(len(coeffs), coeffs.format.width, input_width)
        self.reset()

    @functools.cached_property
    def _run(self) -> Callable[..., int]:
        """The scalar schedule, bound on the first ``push`` or ``push_traced``."""
        return _schedule(self.coeffs, self.plan, self.input_format.width, self._tables)

    @functools.cached_property
    def _block(self) -> Callable[..., list[int] | TracedBlock]:
        """The block datapath, its reads bound on the first block, traced or not."""
        return _block_datapath(self.coeffs, self.plan, self._tables, self.input_format.width)

    def tables(self) -> Sequence[tuple[int, ...]]:
        """Each group's 2^M partial products, indexed by address, as this filter reads them.

        Stored mode's are its checked tables as given (edited entries
        included); otherwise they are the subset sums of its coefficients.
        Either is kept from construction on. Above 8 members, a table given
        as its halves, or derived, is formed from them (``tables().halves``)
        when ``push`` or the trace writer first reads it; blocks, traced or
        not, read the halves alone.
        """
        return self._tables

    def _admit(self, sample: int) -> None:
        x = self.input_format.check(sample, "sample")
        self._delay.insert(0, x)
        self._delay.pop()
        self._spread.insert(0, self._spreader((x,))[0])
        self._spread.pop()

    def push(self, sample: int) -> int:
        self._admit(sample)
        return self._run(self._delay, self._spread)

    def push_traced(self, sample: int) -> tuple[int, tuple[CycleRecord, ...]]:
        self._admit(sample)
        records: list[CycleRecord] = []
        value = self._run(self._delay, self._spread, records)
        return value, tuple(records)

    def blocks(self, samples: Iterable[int]) -> Iterator[list[int]]:
        """The outputs ``push`` would give for ``samples``, in lists of up to ``LANES``.

        A block is read from ``samples`` only after the previous list was
        taken. A sample that is not an in-range ``int``, or an output that
        leaves the accumulator, raises what ``push`` would raise at that
        sample, once the outputs before it in its block have been yielded;
        the delay line is left as ``push`` would leave it.
        """
        return self._evaluate(samples, False)

    def traced_blocks(self, samples: Iterable[int]) -> Iterator[TracedBlock]:
        """``blocks`` with the cycle records ``push_traced`` would give, as columns.

        Blocks are read, and errors raised, as in ``blocks``; a block cut
        short by an error holds the records of its outputs only.
        """
        return self._evaluate(samples, True)

    def _evaluate(self, samples: Iterable[int], traced: bool) -> Iterator:
        """The blocks of ``blocks``, or with ``traced`` those of ``traced_blocks``."""
        fmt = self.input_format
        lo, hi = fmt.min_value, fmt.max_value
        history = len(self.coeffs) - 1
        bound = 1 << (self._acc_width - 1)
        samples = iter(samples)
        while chunk := list(islice(samples, LANES)):
            good = chunk
            if not _all_in(chunk, fmt):
                good = list(takewhile(lambda x: type(x) is int and lo <= x <= hi, chunk))
            if good:
                block = self._block(self._delay[:history][::-1] + good, traced)
                outputs = block.outputs if traced else block
                if min(outputs) < -bound or max(outputs) >= bound:
                    bad = next(i for i, y in enumerate(outputs) if not -bound <= y < bound)
                    self._shift_in(good[: bad + 1])
                    if bad:
                        yield block._replace(outputs=outputs[:bad]) if traced else outputs[:bad]
                    raise _overflow(outputs[bad], self._acc_width)
                self._shift_in(good)
                yield block
                del block, outputs  # so the next block is evaluated without this one's columns
            if len(good) < len(chunk):
                fmt.check(chunk[len(good)], "sample")

    def process(self, samples: Iterable[int]) -> list[int]:
        return list(chain.from_iterable(self.blocks(samples)))

    def _shift_in(self, samples: list[int]) -> None:
        """Enter checked samples, oldest first, into the delay line."""
        self._delay = (samples[::-1] + self._delay)[: len(self.coeffs)]
        self._spread = self._spreader(self._delay)

    def reset(self) -> None:
        self._delay = [0] * len(self.coeffs)
        self._spread = [0] * len(self.coeffs)


@dataclass(frozen=True)
class Mismatch:
    """First place a DA evaluation and the direct-form oracle disagreed."""

    window: tuple[int, ...]
    got: int
    expected: int


LANES = 1024  # lanes of a bit-sliced chunk: windows in verify_windows, outputs in blocks

_SIGNED_CODES = {array(c).itemsize: c for c in "bhiq"}
_UNSIGNED_CODES = {array(c).itemsize: c for c in "BHIQ"}
_TRANSPOSE = (0x00AA00AA00AA00AA, 0x0000CCCC0000CCCC, 0x00000000F0F0F0F0)


def _item_size(bits: int) -> int:
    """Smallest array item size, in bytes, with at least ``bits`` bits."""
    return min(size for size in _SIGNED_CODES if size * 8 >= bits)


def _field_size(bits: int) -> int:
    """Bytes per field of ``bits`` bits: an array item size up to 64 bits, whole bytes above."""
    return _item_size(bits) if bits <= 64 else -(-bits // 8)


def _little_endian(items: array) -> array:
    """``items`` with their bytes in little-endian order (a swap is its own inverse)."""
    if sys.byteorder == "big":
        items.byteswap()
    return items


def _pack(values: Iterable[int], width: int) -> tuple[bytes, int]:
    """Signed ``width``-bit values as little-endian items; the bytes and the item size."""
    size = _field_size(width)
    if size <= 8:
        return _little_endian(array(_SIGNED_CODES[size], values)).tobytes(), size
    codes = map(and_, values, repeat((1 << (8 * size)) - 1))
    return b"".join(map(int.to_bytes, codes, repeat(size), repeat("little"))), size


def _lane_planes(values: Iterable[int], width: int) -> list[int]:
    """Bit-planes of signed ``width``-bit values: bit i of plane b is bit b of value i."""
    return _packed_planes(*_pack(values, width), width)


def _packed_planes(data: bytes, size: int, width: int) -> list[int]:
    """The low ``width`` bit-planes of little-endian items of ``size`` bytes.

    Each byte column of the items is read as one integer, eight lanes to a
    64-bit word, and every word's 8x8 bit matrix is transposed at once by
    three masked shift-and-swap rounds (Hacker's Delight, 7-3), after which
    byte c of each word holds bit c of its eight lanes. All of it is
    whole-integer and byte-slice work at C level.
    """
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


def _byte_planes(table: Sequence[int], width: int) -> list[bytes]:
    """A table of ``width``-bit entries as translate tables, one per byte of its biased entries.

    Entry a plus the bias 2^(width - 1) is nonnegative, and its byte b is
    byte a of plane b, so :func:`_read_biased` reads every lane's entry
    with one ``bytes.translate`` of 8-bit addresses per plane.
    """
    # Biased entries are nonnegative, so they pack as signed items of one bit more.
    data, size = _pack(map(add, table, repeat(1 << (width - 1))), width + 1)
    return [data[b::size].ljust(256, b"\0") for b in range(-(-width // 8))]


def _read_biased(planes: Sequence[bytes], addresses: bytes, size: int) -> bytearray:
    """The biased entries at 8-bit ``addresses``, as little-endian items of ``size`` bytes."""
    buffer = bytearray(size * len(addresses))
    for b, plane in enumerate(planes):
        buffer[b::size] = addresses.translate(plane)
    return buffer


def _packs(items: Sequence, group_size: int) -> list[list[tuple[int, object]]]:
    """``items``, one per group of M <= 8, as packs of ⌊8/M⌋ consecutive (shift, item) pairs.

    A pack is read at one byte, its key: its r-th group's address moved up
    by the shift M·r, summed. Addresses hold fewer than 2^M, so they never
    overlap; :func:`_pack_table` gives a pack's entry at each key.
    """
    size = 8 // group_size
    return [
        [(group_size * r, item) for r, item in enumerate(items[g : g + size])]
        for g in range(0, len(items), size)
    ]


def _pack_table(columns: Sequence[Sequence], join: Callable = add) -> list:
    """A pack's entry at every key: its groups' entries at the key's fields, joined in order.

    Column r holds the r-th group's 2^M entries, chosen by the key's r-th
    M-bit field; ``join`` combines a lower column's entry with a higher
    one's (for tables, their sum).
    """
    entries = list(columns[0])
    for column in columns[1:]:
        entries = [join(low, high) for high in column for low in entries]
    return entries


def _split(table: Sequence[int]) -> tuple[Sequence[int], Sequence[int]] | None:
    """A table of 2^M > 256 entries as its halves T[:256] and T[::256], if it is their sum.

    That is when T[256h + l] == T[256h] + T[l] for every h and l, which
    makes T[0] zero: then the entry at address a is the low half's at its
    low byte plus the high half's at the rest. Every subset-sum table
    passes, the high byte selecting members 8 and up. Checked one
    256-entry row at a time; None at the first row that differs.
    """
    low = table[:256]
    for h in range(0, len(table), 256):
        base = table[h]
        if list(table[h : h + 256]) != [base + v for v in low]:
            return None
    return low, table[::256]


_BITS = tuple(bytes((b >> i) & 1 for b in range(256)) for i in range(8))  # bit i of a byte


def _bit_planes(samples: bytes, stride: int, length: int, width: int) -> bytes:
    """All ``length`` bit-planes of little-endian samples that start every ``stride`` bytes.

    Segment n of the result, one item of ``width`` bytes per sample, holds
    bit n of sample i at bit 0 of item i: the samples' bits, cycle-major.
    Each plane is one ``bytes.translate`` of the samples' byte n // 8.
    """
    pieces = [samples[b::stride] for b in range(-(-length // 8))]
    planes = b"".join(pieces[n >> 3].translate(_BITS[n & 7]) for n in range(length))
    if width == 1:
        return planes
    items = bytearray(width * len(planes))
    items[::width] = planes
    return bytes(items)


def _address_former(
    planes: Sequence[int], lags: Sequence[int], fields: int, width: int, length: int
) -> Callable[[Sequence[tuple[int, int]]], bytes]:
    """Bind table address formation for a chunk of lanes: any group, all cycles at once.

    ``planes[k]`` holds bit-planes as :func:`_bit_planes` lays them out,
    segments of ``fields`` items, in which lane i's bits of tap k's sample
    are item ``i + lags[k]``. The bound function takes a group's (address
    bit j, tap k) pairs and returns every lane's address at every cycle,
    cycle-major, in items of ``width`` bytes, segments of ``fields`` items.

    A member's part of every address at once is its planes moved up by j
    and down by its lag, whole: at most two shifts per member (a shift by
    zero would still copy the whole chunk, so none is made). Items a lag
    pulls in from the next segment lie at or beyond the lanes whose
    samples the segment holds, and are not theirs.
    """
    downs = [8 * width * lag for lag in lags]

    def addresses(group: Sequence[tuple[int, int]]) -> bytes:
        word = 0
        for j, k in group:
            part = planes[k] << j if j else planes[k]
            word += part >> downs[k] if downs[k] else part
        return word.to_bytes(width * fields * length, "little")

    return addresses


def _sliding(bits: Sequence[tuple[int, int]], num_taps: int) -> tuple[int, int] | None:
    """(w, offset) of a read whose key bit b reads tap k0 + b for b < w, else None.

    Output i's key is then V_w (:func:`_sliding_keys`) at stream position
    i + K - w - k0: w real bits, so a padding slot reads no sample.
    """
    first = bits[0][1] if bits else num_taps
    if bits != [(b, first + b) for b in range(len(bits))]:
        return None
    return len(bits), num_taps - len(bits) - first


def _sliding_keys(planes: int, item: int, widths: Iterable[int], nbytes: int) -> dict[int, bytes]:
    """The sliding keys V_w for each w in ``widths``, ``nbytes`` 8-bit keys each.

    ``planes`` holds bit n of stream sample s at bit 0 of item s of
    segment n, in items of ``item`` bytes (:func:`_bit_planes`); key s of
    segment n of V_w is Σ_b bit_n(x[s + w - 1 - b])·2^b over b < w, which
    every read of w consecutive taps reads at its own offset. V_(a+b) is
    V_a moved up b bits plus V_b taken a items on: V_8 takes three steps.
    """
    need = set(widths)
    for w in range(8, 1, -1):  # a width needs its halves, which are narrower
        if w in need:
            need |= {w // 2, w - w // 2}
    keys = {0: 0, 1: planes}
    for w in sorted(need - {0, 1}):
        h = w // 2
        keys[w] = (keys[w - h] << h) + (keys[h] >> 8 * item * (w - h))
    return {w: keys[w].to_bytes(item * nbytes, "little")[::item] for w in widths}


def _lane_datapath(
    coeffs: CoefficientSet,
    plan: PartitionPlan,
    tables: _CheckedTables,
    input_width: int,
    tree: AdderKind,
) -> tuple[Callable[[Sequence[bytes], bytes], Iterator[tuple[int, int]]], int]:
    """Bind the bit-sliced datapath that checks a chunk of windows at once.

    Lane i carries window i. The bound function takes the chunk's K tap
    columns, each lane's sample as a little-endian item of
    ``_item_size(L)`` bytes. Each group's per-lane addresses for all L
    cycles are formed with whole-chunk integer operations on the columns,
    one table read per lane and cycle, then the partial products become
    bit-planes, go through the gate-level tree of the configured kind (all
    cycles at once; the tree is combinational) and a gate-level
    shift-accumulator that subtracts on the sign cycle by adding the
    inverted operand with every carry-in set. The accumulator has
    tree width + L bits, so no entry ``check_tables`` accepts can wrap it,
    and its planes are XOR-compared with the oracle's values, given as
    two's-complement little-endian fields. Returns the function and the
    bytes per field it expects of them.

    With M <= 8 a group's reads are the blocks' byte-plane reads of its
    entries biased by 2^(width - 1), which differ from the entries' two's
    complement in the top bit alone: the read buffer's planes, the top one
    inverted, are the entries' planes. Above that a table with halves is
    read as blocks read it, each half at one byte of the 2-byte addresses,
    T[a] = low[a & 255] + high[a >> 8]: the two biases add 2^width, which
    the entries' low ``width`` planes drop. Only a table without halves is
    gathered whole, so no table kept as its halves is formed.
    """
    length = input_width
    num_taps = len(coeffs)
    members = [[(j, k) for j, k in enumerate(g) if k is not None] for g in plan.groups]
    partial_width = partial_product_width(coeffs.format.width, plan.group_size)
    tree_width = tree_output_width(partial_width, plan.num_groups)
    acc_width = tree_width + length
    field = _field_size(acc_width)
    block = DEFAULT_COST_MODEL.cla_block_size
    size = _item_size(length)  # bytes per sample item
    width = _item_size(plan.group_size)  # bytes per address item
    bytewise = width == 1
    if bytewise:
        entry_size = -(-partial_width // 8)  # bytes per byte-plane read
        reads = [_byte_planes(t, partial_width) for t in tables]
    else:  # each biased half is below 2^width, so their sum takes one byte more at most
        entry_size = -(-(partial_width + 1) // 8)
        reads = [pair and [_byte_planes(h, partial_width) for h in pair] for pair in tables.halves]

    def run(columns: Sequence[bytes], expected: bytes) -> Iterator[tuple[int, int]]:
        """(lane, datapath value) of each window, in order, whose value is not ``expected``'s."""
        count = len(columns[0]) // size
        every = (1 << (count * length)) - 1  # every lane of every cycle
        planes = [
            int.from_bytes(_bit_planes(column, size, length, width), "little") for column in columns
        ]
        address = _address_former(planes, [0] * num_taps, count, width, length)
        operands = []
        for g, (read, group) in enumerate(zip(reads, members)):
            items = address(group)  # item n*count + i is lane i's address at cycle n
            if bytewise:
                parts = _packed_planes(
                    _read_biased(read, items, entry_size), entry_size, partial_width
                )
                parts[-1] ^= every
            elif read:  # the halves, at each address's low byte and at its high byte
                low, high = (
                    int.from_bytes(_read_biased(half, items[b::2], entry_size), "little")
                    for b, half in enumerate(read)
                )
                total = (low + high).to_bytes(entry_size * count * length, "little")
                parts = _packed_planes(total, entry_size, partial_width)
            else:
                addresses = _little_endian(array(_UNSIGNED_CODES[width], items))
                # count * length >= 2 addresses, so itemgetter returns a tuple
                parts = _lane_planes(itemgetter(*addresses)(tables[g]), partial_width)
            operands.append(parts + parts[-1:] * (tree_width - partial_width))
        # Cycle n is lanes [n*count, (n+1)*count) of the tree's planes.
        sums = _tree_planes(operands, tree, every, block)
        lanes = (1 << count) - 1
        # Cycle n's addend is zero below plane n (all ones on the sign cycle,
        # whose carry-in then carries one into plane n and leaves the planes
        # below as they are), and the sum after cycle n fits tree width +
        # n + 1 signed bits. So cycle n's adder spans planes n to tree
        # width + n, a shift-accumulator's (tree width + 1)-bit adder, and
        # the planes above it are copies of its top one.
        acc: list[int] = []  # planes 0 to tree width + n of the sum after cycle n
        for n in range(length):
            t = [(p >> (n * count)) & lanes for p in sums]
            high = acc[n:] + acc[-1:] if acc else [0] * (tree_width + 1)
            if n == length - 1:
                addend = [p ^ lanes for p in t + t[-1:]]
                acc = acc[:n] + _cpa_planes(tree, high, addend, lanes, lanes, block)
            else:
                acc = acc[:n] + _cpa_planes(tree, high, t + t[-1:], 0, lanes, block)
        diff = 0
        for got, want in zip(acc, _packed_planes(expected, field, acc_width)):
            diff |= got ^ want
        while diff:
            low = diff & -diff
            i = low.bit_length() - 1
            value = sum(((p >> i) & 1) << b for b, p in enumerate(acc))
            yield i, value - ((value >> (acc_width - 1)) << acc_width)
            diff ^= low

    return run, field


def _repeated(value: int, nbytes: int, count: int) -> int:
    """``count`` little-endian fields of ``nbytes`` bytes, each holding ``value``."""
    return int.from_bytes(value.to_bytes(nbytes, "little") * count, "little")


def _signed_items(data: bytes, size: int) -> Sequence[int]:
    """Little-endian signed items of ``size`` bytes: an array up to 8 bytes, a list above."""
    if size > 8:
        return [
            int.from_bytes(data[i : i + size], "little", signed=True)
            for i in range(0, len(data), size)
        ]
    return _little_endian(array(_SIGNED_CODES[size], data))


def _block_reads(
    tables: _CheckedTables, plan: PartitionPlan, partial_width: int
) -> tuple[list, list, int, int, set[int]]:
    """The table reads of a block: what is read where, and how wide their sum is.

    Returns the reads made by ``bytes.translate`` of 8-bit addresses, as
    (byte planes, (address bit, tap) members, :func:`_sliding` key, bias),
    the (table, members) of the groups gathered instead, the sum of every
    read's bias, the signed bits any sum of one lane and cycle's reads
    takes, and the sliding keys' widths. Each of :func:`_packs` is one
    read (M <= 8), a table with halves is two, at its low and high
    address bytes (M > 8), and any other table is gathered, so no table
    kept as its halves is formed; a read of consecutive taps, as every
    read of a consecutive plan is, slides.
    """
    members = [tuple((j, k) for j, k in enumerate(g) if k is not None) for g in plan.groups]
    reads = []
    gathers = []
    widths = []

    def read(table: Sequence[int], bits: list, width: int) -> None:
        slide = _sliding(bits, plan.num_taps)
        reads.append((_byte_planes(table, width), bits, slide, 1 << (width - 1)))
        widths.append(width)

    if plan.group_size <= 8:
        for pack in _packs(list(zip(tables, members)), plan.group_size):
            width = tree_output_width(partial_width, len(pack))
            bits = [(shift + j, k) for shift, (_, group) in pack for j, k in group]
            read(_pack_table([t for _, (t, _) in pack]), bits, width)
    else:
        for g, (group, pair) in enumerate(zip(members, tables.halves)):
            if pair is None:
                gathers.append((tables[g], group))
                widths.append(partial_width)
                continue
            read(pair[0], [(j, k) for j, k in group if j < 8], partial_width)
            read(pair[1], [(j - 8, k) for j, k in group if j >= 8], partial_width)
    offset = sum(bias for *_, bias in reads) + len(gathers) * (1 << (partial_width - 1))
    keys = {slide[0] for _, _, slide, _ in reads if slide}
    return reads, gathers, offset, tree_output_width(max(widths), len(widths)), keys


def _block_datapath(
    coeffs: CoefficientSet,
    plan: PartitionPlan,
    tables: _CheckedTables,
    input_width: int,
) -> Callable[..., list[int] | TracedBlock]:
    """Bind block evaluation of a stream: consecutive outputs in lanes, one per lane.

    The bound function takes K - 1 + N samples, oldest first, and returns
    the N inner products of their last N windows, unchecked against the
    accumulator range. Output i's tap k is stream item i + K - 1 - k.
    Table entries are read as packed fields, one per stream position and
    cycle, of which each cycle's first N are the outputs' lanes (see
    :func:`_block_reads`, bound once here): a table read at 8-bit sliding
    keys or addresses is kept as byte-planes of its entries biased by half
    its range, and read with one ``bytes.translate`` per entry byte into a
    strided buffer; a gathered group's entries are taken straight from its
    table, packed signed, and their signs fixed and bias added by
    whole-block operations. The sums of each position and cycle's reads
    are widened to accumulator fields; the lanes are shifted and
    accumulated with the sign cycle subtracted, and unpacked once.

    With ``traced`` it returns a :class:`TracedBlock` instead, from the
    same reads: the outputs with the keys of every read (for M > 8, every
    group's address) and each cycle's sums and accumulator, unbiased by
    whole-block operations.

    Fields hold the reads' sum width + L bits, more than any value entries
    that ``check_tables`` accepts can reach, so no table can wrap one.
    """
    length = input_width
    num_taps = len(coeffs)
    partial_width = partial_product_width(coeffs.format.width, plan.group_size)
    size = _item_size(max(length, plan.group_size))
    reads, gathers, bias, sum_width, key_widths = _block_reads(tables, plan, partial_width)
    groups = [tuple((j, k) for j, k in enumerate(g) if k is not None) for g in plan.groups]

    def run(stream: list[int], traced: bool = False) -> list[int] | TracedBlock:
        count = len(stream) - num_taps + 1
        stride = len(stream)  # positions per cycle; the first count are the outputs' lanes
        positions = stride * length
        # Bytes per position of a sum of reads: the fewest whole bytes for
        # byte-plane reads, unless traced; array item sizes where values
        # pass through arrays.
        narrow = _field_size(sum_width) if traced or gathers else -(-sum_width // 8)
        # Bytes per lane of the accumulator: an array item size up to 64 bits.
        field = _field_size(sum_width + length)
        # Bytes per address: one, unless gathered or traced groups take wider ones.
        width = _item_size(plan.group_size) if gathers or traced else 1
        samples = _little_endian(array(_SIGNED_CODES[size], stream)).tobytes()
        planes = int.from_bytes(_bit_planes(samples, size, length, width), "little")
        keys = _sliding_keys(planes, width, key_widths, positions)
        address = _address_former(
            [planes] * num_taps, range(num_taps - 1, -1, -1), stride, width, length
        )
        # A group's addresses, formed once a block: to gather it, or as a traced M > 8 key column.
        form = functools.cache(lambda g: _little_endian(array(_UNSIGNED_CODES[width], address(g))))
        kept_keys = []  # each read's keys, for a TracedBlock
        # Biased reads of every position and group, position-by-cycle, summed.
        total = 0
        for table, bits, slide, _ in reads:
            if slide:
                w, offset = slide
                addresses = keys[w][offset:]  # position i reads V_w at i + offset
            else:
                addresses = address(bits)[::width]  # the low byte of wider items
            kept_keys.append(addresses)
            total += int.from_bytes(_read_biased(table, addresses, narrow), "little")
        if gathers:
            signs = _repeated(1 << (8 * narrow - 1), narrow, positions)
            negatives = 0
            for table, group in gathers:
                # positions >= 2 addresses, so itemgetter returns a tuple
                data, _ = _pack(itemgetter(*form(group))(table), 8 * narrow)
                packed = int.from_bytes(data, "little")
                total += packed
                negatives += packed & signs
            # Each field read as unsigned is off by twice its sign bit; the
            # bias then makes every sum nonnegative, as in the byte-planes.
            gathered_bias = len(gathers) << (partial_width - 1)
            total += _repeated(gathered_bias, narrow, positions) - (negatives << 1)
        # Every sum is nonnegative, so widening its field is a zero fill.
        sums = total.to_bytes(narrow * positions, "little")
        wide = bytearray(field * positions)
        for b in range(narrow):
            wide[b::field] = sums[b::narrow]
        view = memoryview(wide)
        lanes = field * count
        # Reads carried +bias in all per lane. Half the field's range on top
        # makes every field nonnegative; flipping its top bit then leaves
        # two's complement.
        top = 1 << (8 * field - 1)
        units = _repeated(1, field, count)
        flip = top * units
        acc = (top + bias) * units
        snapshots = []
        for n in range(length):
            start = n * field * stride
            part = int.from_bytes(view[start : start + lanes], "little") << n
            acc = acc - part if n == length - 1 else acc + part
            if traced and n < length - 1:
                # After cycle n the biases add bias * 2^(n+1) per lane.
                offset = (bias << (n + 1)) * units
                snapshots.append(((acc - offset) ^ flip).to_bytes(field * stride, "little"))
        data = (acc ^ flip).to_bytes(lanes, "little")
        outputs = _signed_items(data, field)
        outputs = outputs if field > 8 else outputs.tolist()
        if not traced:
            return outputs
        snapshots.append(data.ljust(field * stride, b"\0"))
        # A field holding v + half, half = 2^(8 * narrow - 1), reads as the
        # signed v once half is flipped off.
        ones = _repeated(1, narrow, positions)
        half = 1 << (8 * narrow - 1)
        tree_sums = (total + (half - bias) * ones) ^ (half * ones)
        if plan.group_size > 8:
            kept_keys = list(map(form, groups))
        return TracedBlock(
            outputs,
            stride,
            tuple(kept_keys),
            _signed_items(tree_sums.to_bytes(narrow * positions, "little"), narrow),
            _signed_items(b"".join(snapshots), field),
        )

    return run


def _mac_fields(taps: Sequence[int], columns: Sequence[bytes], size: int, field: int) -> bytes:
    """The plain multiply-accumulate of every lane, as two's-complement fields of ``field`` bytes.

    Word-parallel: the K columns of signed ``size``-byte items are widened
    to fields of ``field`` bytes holding each sample plus 2^(8 * size - 1),
    so that field i of U_k, read as one integer, is lane i's biased
    sample, and sum_k A_k * U_k has lane i's sum of products, plus that
    bias times the coefficients' sum, in field i. One offset constant
    moves every field to its value plus half the field's range, which
    leaves each field within range and ends the borrows between fields;
    flipping every field's top bit then gives two's complement. Fields
    must be wide enough for every sum; it reads no table or plan.
    """
    count = len(columns[0]) // size
    bias = 1 << (8 * size - 1)
    top = 1 << (8 * field - 1)
    units = _repeated(1, field, count)
    flip = bias * _repeated(1, size, count)
    total = (top - bias * sum(taps)) * units
    wide = bytearray(field * count)
    for a, column in zip(taps, columns):
        biased = (int.from_bytes(column, "little") ^ flip).to_bytes(size * count, "little")
        for b in range(size):
            wide[b::field] = biased[b::size]
        total += a * int.from_bytes(wide, "little")
    return (total ^ top * units).to_bytes(field * count, "little")


def _item(data: bytes, i: int, size: int) -> int:
    """Signed little-endian item i of ``size`` bytes."""
    return int.from_bytes(data[i * size : (i + 1) * size], "little", signed=True)


def _tuple_chunks(
    windows: Iterable[Sequence[int]], num_taps: int, fmt: FixedFormat, size: int
) -> Iterator[tuple[list, list[bytes] | None]]:
    """Chunks of up to ``LANES`` windows, each with its tap columns of ``size``-byte items.

    A chunk holding a window of another length, or a sample that is not
    an in-range ``int``, comes with None for its columns.
    """
    code = _SIGNED_CODES[size]
    windows = iter(windows)
    while chunk := list(islice(windows, LANES)):
        flat = list(chain.from_iterable(chunk))
        columns = None
        if (
            set(map(len, chunk)) == {num_taps}
            and set(map(type, flat)) == {int}
            and fmt.min_value <= min(flat)
            and max(flat) <= fmt.max_value
        ):
            columns = [
                _little_endian(array(code, flat[k::num_taps])).tobytes() for k in range(num_taps)
            ]
        yield chunk, columns


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

    Windows run ``LANES`` at a time as tap columns through a bit-sliced
    datapath: the design's tables (mux mode: the same subset sums), read
    as their halves where they have them, the gate-level ``tree`` and a
    gate-level accumulator, checked against a word-parallel
    multiply-accumulate of the same columns. A fresh :func:`all_windows`
    of this filter's K and L gives its columns directly; other windows
    are packed into columns a chunk at a time.
    Only a window the datapath flags is run again through the scalar
    schedule, which yields each Mismatch or raises AccumulatorOverflow
    just as a window-by-window loop would; a chunk holding a sample that
    is not an in-range ``int`` is checked window by window, so the first
    event in window order wins.
    """
    taps = coeffs.values
    fmt = FixedFormat(input_width)
    tables = _read_tables(coeffs, plan, ppg_mode, luts)
    datapath, field = _lane_datapath(coeffs, plan, tables, input_width, tree)
    size = _item_size(input_width)
    if type(windows) is _AllWindows and windows.fresh and windows.shape == (len(taps), input_width):
        chunks = ((None, columns) for columns in windows.columns(size))
    else:
        chunks = _tuple_chunks(windows, len(taps), fmt, size)
    evaluate = None  # the scalar schedule, bound when a window first needs it
    checked = 0
    mismatches: list[Mismatch] = []
    for chunk, columns in chunks:
        if columns is None:
            suspects = ((i, None) for i in range(len(chunk)))
        else:
            expected = _mac_fields(taps, columns, size, field)
            suspects = datapath(columns, expected)
        for i, lane_value in suspects:
            if columns is None:
                window = chunk[i]
                for x in window:
                    fmt.check(x, "sample")
                want = sum(map(mul, taps, window))
            else:
                window = chunk[i] if chunk else tuple(_item(c, i, size) for c in columns)
                want = _item(expected, i, field)
            if evaluate is None:
                evaluate = _schedule(coeffs, plan, input_width, tables)
            got = evaluate(window)
            if got == want and lane_value is not None:
                got = lane_value  # the gate-level datapath alone disagrees
            if got != want:
                mismatches.append(Mismatch(tuple(window), got, want))
                if len(mismatches) >= limit:
                    return checked + i + 1, mismatches
        checked += len(chunk) if chunk else len(columns[0]) // size
    return checked, mismatches


class _AllWindows:
    """The iterator :func:`all_windows` returns, which ``verify_windows`` can read as columns."""

    def __init__(self, num_taps: int, input_width: int) -> None:
        self.shape = (num_taps, input_width)
        self.fresh = True  # no window taken yet
        self._windows: Iterator[tuple[int, ...]] = iter(())

    def __iter__(self) -> _AllWindows:
        return self

    def __next__(self) -> tuple[int, ...]:
        if self.fresh:
            # Formed on first use: its 2^L digits would outweigh the columns.
            num_taps, length = self.shape
            half = 1 << (length - 1)
            digits = [*range(half), *range(-half, 0)]  # digit d read as a signed L-bit value
            self._windows = map(tuple, map(reversed, product(digits, repeat=num_taps)))
            self.fresh = False
        return next(self._windows)

    def columns(self, size: int) -> Iterator[list[bytes]]:
        """Every window, consumed as chunks of ``LANES``: each chunk's K tap columns.

        Lane i of column k is signed digit k of the chunk's first code plus
        i, as a little-endian item of ``size`` bytes. With chunks starting
        at multiples of their power-of-two lane count 2^q, digit k of
        start + i, its bits from b = k * L up, is the start's digit OR the
        digit of i alone, whose bits lie below q - b, disjoint from the
        start's; so a column is one fixed ramp per tap (zero for b >= q)
        with the start's digit added to every item, then made two's
        complement by whole-chunk operations. Memory stays O(``LANES`` * K).
        """
        self.fresh = False
        num_taps, length = self.shape
        bits = num_taps * length
        lanes = min(LANES, 1 << bits)
        q = lanes.bit_length() - 1
        mask = (1 << length) - 1
        half = 1 << (length - 1)
        top = 1 << (8 * size - 1)
        units = _repeated(1, size, lanes)
        code = _UNSIGNED_CODES[size]
        ramps = [
            int.from_bytes(
                _little_endian(array(code, [(i >> b) & mask for i in range(lanes)])).tobytes(),
                "little",
            )
            if b < q
            else 0
            for b in range(0, bits, length)
        ]
        # Digit d XOR half is its signed value plus half; adding top - half
        # and flipping top leaves the signed value's two's complement.
        flip, lift, sign = half * units, (top - half) * units, top * units
        nbytes = size * lanes
        for start in range(0, 1 << bits, lanes):
            columns = []
            for b, ramp in zip(range(0, bits, length), ramps):
                digits = ((start >> b) & mask) * units | ramp
                columns.append((((digits ^ flip) + lift) ^ sign).to_bytes(nbytes, "little"))
            yield columns


def all_windows(num_taps: int, input_width: int) -> Iterator[tuple[int, ...]]:
    """Every possible delay-line snapshot, all 2^(K*L) of them, in order.

    Window c holds the K signed L-bit digits of c, tap 0 in the lowest, so
    tap 0 varies fastest. The iterator yields tuples to any caller;
    ``verify_windows`` of a filter with the same K and L reads it, when no
    window has been taken from it yet, as packed tap columns instead.
    """
    return _AllWindows(num_taps, input_width)
