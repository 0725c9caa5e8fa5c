"""Gate-level adder models: ripple-carry, carry-save trees and block CLA.

Each operation returns both the exact arithmetic result and a
:class:`GateCost` from a declared unit-gate model (any 2-input gate is one
gate and one delay unit, a full adder is 5 gates and 2 delays, and so on).
The cost constants live in :class:`CostModel` so they can be recalibrated
without touching the structure; they are a reproducible stand-in for
synthesis cell counts and nanoseconds, which a software model cannot
produce.

The "cla" flavour is a standard block carry-lookahead adder: bitwise
generate/propagate, 4-bit lookahead blocks, and further 4-ary lookahead
levels across blocks. Carries are computed from the flat AND-OR lookahead
expansion, not from a serial recurrence, so its agreement with
:func:`ripple_add` (and with plain integer addition) is a meaningful
cross-check rather than the same code twice.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, fields
from typing import Sequence

__all__ = [
    "AdderKind",
    "BitVector",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "GateCost",
    "adder_tree_cost",
    "adder_tree_sum",
    "cla_add",
    "cla_cost",
    "csa_compress",
    "csa_stage_count",
    "ripple_add",
    "ripple_cost",
]


class AdderKind(enum.Enum):
    """Carry-propagation strategies the datapath can be configured with."""

    RIPPLE = "ripple"
    CSA_TREE = "csa"
    CLA = "cla"


@dataclass(frozen=True)
class GateCost:
    """Unit-gate count and critical-path depth of a piece of logic."""

    gate_count: int
    depth: int

    def __post_init__(self) -> None:
        if self.gate_count < 0 or self.depth < 0:
            raise ValueError("costs cannot be negative")

    def to_dict(self) -> dict:
        return {"gate_count": self.gate_count, "depth": self.depth}


ZERO_COST = GateCost(0, 0)


@dataclass(frozen=True)
class CostModel:
    """Declared unit-gate constants; every cost in the package derives from these."""

    fa_gates: int = 5           # full adder
    fa_depth: int = 2
    cla_gp_gates_per_bit: int = 3   # bitwise generate/propagate stage
    cla_gp_depth: int = 1
    cla_block_gates: int = 14   # one 4-bit lookahead block
    cla_block_depth: int = 2
    cla_block_size: int = 4
    cla_sum_gates_per_bit: int = 1  # final sum XOR
    cla_sum_depth: int = 1
    mux2_gates: int = 4         # 2:1 multiplexer, per bit
    mux2_depth: int = 2

    def __post_init__(self) -> None:
        bad = [k for k, v in self.to_dict().items() if type(v) is not int or v < 0]
        if bad:
            raise ValueError(f"cost-model values must be non-negative integers: {bad}")
        if self.cla_block_size < 2:  # a lookahead tree of 1-bit blocks never narrows
            raise ValueError(f"cla_block_size must be at least 2, not {self.cla_block_size}")

    @classmethod
    def from_dict(cls, data: dict) -> "CostModel":
        if not isinstance(data, dict):
            raise ValueError(f"a cost model must be a JSON object, not {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown cost-model keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_COST_MODEL = CostModel()


@dataclass(frozen=True)
class BitVector:
    """A signed integer pinned to a two's-complement width."""

    width: int
    value: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("width must be at least 1")
        bound = 1 << (self.width - 1)
        if not (-bound <= self.value < bound):
            raise ValueError(
                f"value {self.value} does not fit in {self.width} signed bits"
            )

    @classmethod
    def from_unsigned(cls, width: int, bits: int) -> "BitVector":
        bits &= (1 << width) - 1
        if bits >= 1 << (width - 1):
            bits -= 1 << width
        return cls(width, bits)

    @property
    def unsigned(self) -> int:
        return self.value & ((1 << self.width) - 1)

    def bit(self, i: int) -> int:
        if not (0 <= i < self.width):
            raise IndexError(f"bit {i} out of range for width {self.width}")
        return (self.value >> i) & 1

    def extend(self, width: int) -> "BitVector":
        """Sign-extend to a wider vector."""
        if width < self.width:
            raise ValueError("cannot extend to a narrower width")
        return BitVector(width, self.value)


def _require_kind(kind: object) -> None:
    """Refuse a tree kind that is not an :class:`AdderKind`, which would otherwise run as a cla."""
    if not isinstance(kind, AdderKind):
        raise TypeError(f"an adder tree kind must be an AdderKind, not {kind!r}")


def _require_equal_widths(a: BitVector, b: BitVector) -> int:
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    return a.width


# The gate-level core works on bit-planes. An operand of width w is a list
# of w lane ints, least significant bit first, and bit i of every plane is
# that wire's value in lane (test vector) i, so one pass of & | ^ on whole
# planes evaluates every lane at once. ``mask`` has one bit set per lane:
# it is the all-ones wire, the value of an empty AND. The scalar adders and
# the bit-level tree are the one-lane case (mask 1).

Planes = list[int]


def _to_planes(value: int, width: int) -> Planes:
    """One-lane planes of the low ``width`` bits of ``value`` (negative values sign-extend)."""
    return [(value >> i) & 1 for i in range(width)]


def _from_planes(planes: Sequence[int]) -> int:
    """Unsigned value of one-lane planes."""
    bits = 0
    for i, bit in enumerate(planes):
        bits |= bit << i
    return bits


def _ripple_planes(a: Planes, b: Planes, carry: int) -> tuple[Planes, int]:
    """Chain of full adders; the sum planes and the carry-out plane."""
    out = []
    for x, y in zip(a, b):
        t = x ^ y
        out.append(t ^ carry)
        carry = (x & y) | (t & carry)
    return out, carry


def _cla_planes(a: Planes, b: Planes, carry: int, mask: int, block: int) -> tuple[Planes, int]:
    """Block carry-lookahead addition; the sum planes and the carry-out plane.

    Positions form blocks of ``block``, and each block's own (G, P) is a
    position of the level above, until one pair covers everything. Going
    up, position j of a block gets the (G, P) of the block's bits 0..j:
    G = OR_{i<=j} (g_i AND p_{i+1..j}) and P = p_0..p_j, a flat expansion
    over the block's own g/p through shared suffix products that never
    reads a carry. Going down, the carry into position j + 1 is G OR
    (P AND the block's carry-in). Each level's terms are two flat lists.
    """
    g = [x & y for x, y in zip(a, b)]
    p = ps = [x ^ y for x, y in zip(a, b)]
    levels = []
    while len(g) > 1:  # up
        terms_g, terms_p, up_g, up_p = [], [], [], []
        n = len(g)
        for start in range(0, n, block):
            for top in range(start, min(start + block, n)):
                generate, suffix = g[top], p[top]
                i = top
                while i > start:
                    i -= 1
                    generate |= g[i] & suffix
                    suffix &= p[i]
                terms_g.append(generate)
                terms_p.append(suffix)
            up_g.append(generate)
            up_p.append(suffix)
        levels.append((terms_g, terms_p))
        g, p = up_g, up_p
    carry_out = g[0] | (p[0] & carry)
    carries = [carry & mask]  # P of no bits is the empty AND: every lane
    for g, p in reversed(levels):  # down
        cins, carries = carries, []
        n = len(g)
        for start, cin in zip(range(0, n, block), cins):
            carries.append(cin)
            for j in range(start, min(start + block, n) - 1):
                carries.append(g[j] | (p[j] & cin))
    return [x ^ c for x, c in zip(ps, carries)], carry_out


def _csa_planes(operands: list[Planes]) -> list[Planes]:
    """3:2 compression layers until two operands remain; carries past the top plane drop."""
    while len(operands) > 2:
        cut = len(operands) - len(operands) % 3
        nxt = []
        for i in range(0, cut, 3):
            x, y, z = operands[i : i + 3]
            nxt.append([a ^ b ^ c for a, b, c in zip(x, y, z)])
            majority = [(a & b) | (c & (a | b)) for a, b, c in zip(x, y, z)]
            nxt.append([0] + majority[:-1])
        nxt.extend(operands[cut:])
        operands = nxt
    return operands


def _cpa_planes(
    kind: AdderKind, a: Planes, b: Planes, carry: int, mask: int, block: int
) -> Planes:
    """Sum planes of the carry-propagate adder a tree of ``kind`` uses: ripple or cla."""
    if kind is AdderKind.RIPPLE:
        return _ripple_planes(a, b, carry)[0]
    return _cla_planes(a, b, carry, mask, block)[0]


def _tree_planes(operands: list[Planes], kind: AdderKind, mask: int, block: int) -> Planes:
    """Sum of equal-width operands through the configured tree, modulo 2^width.

    Ripple and cla reduce pairwise; the carry-save tree compresses to two
    operands and finishes with a cla.
    """
    if kind is AdderKind.CSA_TREE and len(operands) >= 3:
        s, c = _csa_planes(operands)
        return _cla_planes(s, c, 0, mask, block)[0]
    while len(operands) > 1:
        nxt = [
            _cpa_planes(kind, x, y, 0, mask, block)
            for x, y in zip(operands[0::2], operands[1::2])
        ]
        if len(operands) % 2:
            nxt.append(operands[-1])
        operands = nxt
    return operands[0]


@functools.lru_cache(maxsize=256)
def ripple_cost(width: int, model: CostModel = DEFAULT_COST_MODEL) -> GateCost:
    return GateCost(width * model.fa_gates, width * model.fa_depth)


def ripple_add(
    a: BitVector,
    b: BitVector,
    carry_in: int = 0,
    model: CostModel = DEFAULT_COST_MODEL,
) -> tuple[BitVector, int, GateCost]:
    """Chain of full adders; two's-complement sum modulo 2^width plus carry-out."""
    width = _require_equal_widths(a, b)
    planes, carry = _ripple_planes(
        _to_planes(a.value, width), _to_planes(b.value, width), carry_in & 1
    )
    return BitVector.from_unsigned(width, _from_planes(planes)), carry, ripple_cost(width, model)


@functools.lru_cache(maxsize=256)
def cla_cost(width: int, model: CostModel = DEFAULT_COST_MODEL) -> GateCost:
    blocks = -(-width // model.cla_block_size)
    lookahead_nodes = 0
    levels = 0
    k = blocks
    while k > 1:
        k = -(-k // model.cla_block_size)
        lookahead_nodes += k
        levels += 1
    gates = (
        width * model.cla_gp_gates_per_bit
        + blocks * model.cla_block_gates
        + lookahead_nodes * model.cla_block_gates
        + width * model.cla_sum_gates_per_bit
    )
    depth = (
        model.cla_gp_depth
        + model.cla_block_depth
        + levels * model.cla_block_depth
        + model.cla_sum_depth
    )
    return GateCost(gates, depth)


def cla_add(
    a: BitVector,
    b: BitVector,
    carry_in: int = 0,
    model: CostModel = DEFAULT_COST_MODEL,
) -> tuple[BitVector, int, GateCost]:
    """Block carry-lookahead addition; numerically identical to ripple_add."""
    width = _require_equal_widths(a, b)
    planes, carry = _cla_planes(
        _to_planes(a.value, width),
        _to_planes(b.value, width),
        carry_in & 1,
        1,
        model.cla_block_size,
    )
    return BitVector.from_unsigned(width, _from_planes(planes)), carry, cla_cost(width, model)


def csa_stage_count(operand_count: int) -> int:
    """Number of 3:2 compression layers needed to reach two vectors."""
    stages = 0
    k = operand_count
    while k > 2:
        k -= k // 3
        stages += 1
    return stages


def csa_compress(
    operands: Sequence[BitVector],
    model: CostModel = DEFAULT_COST_MODEL,
) -> tuple[tuple[BitVector, BitVector], GateCost]:
    """3:2 compression layers until two vectors remain.

    The two outputs sum to the input total modulo 2^width; any carry pushed
    past the top bit is dropped, so callers that need the exact total must
    pre-extend the operands. Each 3:2 application removes one operand, so
    n operands take n - 2 of them.
    """
    if len(operands) < 3:
        raise ValueError("csa_compress needs at least 3 operands")
    width = operands[0].width
    for op in operands:
        if op.width != width:
            raise ValueError(f"width mismatch: {op.width} vs {width}")
    s, c = _csa_planes([_to_planes(op.value, width) for op in operands])
    count = len(operands)
    cost = GateCost(
        (count - 2) * width * model.fa_gates, csa_stage_count(count) * model.fa_depth
    )
    return (
        BitVector.from_unsigned(width, _from_planes(s)),
        BitVector.from_unsigned(width, _from_planes(c)),
    ), cost


def tree_output_width(operand_width: int, operand_count: int) -> int:
    """Width at which a sum of ``operand_count`` signed words cannot wrap."""
    if operand_count < 1:
        raise ValueError("need at least one operand")
    return operand_width + (operand_count - 1).bit_length()


@functools.lru_cache(maxsize=256)
def adder_tree_cost(
    operand_count: int,
    operand_width: int,
    kind: AdderKind,
    model: CostModel = DEFAULT_COST_MODEL,
) -> GateCost:
    """Cost of summing ``operand_count`` words, all extended to the no-wrap width."""
    _require_kind(kind)
    if operand_count < 1:
        raise ValueError("need at least one operand")
    if operand_count == 1:
        return ZERO_COST
    width = tree_output_width(operand_width, operand_count)
    if kind is AdderKind.CSA_TREE:
        final = cla_cost(width, model)
        if operand_count == 2:
            return final
        applications = operand_count - 2
        stages = csa_stage_count(operand_count)
        return GateCost(
            applications * width * model.fa_gates + final.gate_count,
            stages * model.fa_depth + final.depth,
        )
    per_adder = ripple_cost(width, model) if kind is AdderKind.RIPPLE else cla_cost(width, model)
    gates = 0
    depth = 0
    k = operand_count
    while k > 1:
        gates += (k // 2) * per_adder.gate_count
        depth += per_adder.depth
        k = (k + 1) // 2
    return GateCost(gates, depth)


def adder_tree_sum(
    operands: Sequence[BitVector],
    kind: AdderKind,
    model: CostModel = DEFAULT_COST_MODEL,
    bit_level: bool = False,
) -> tuple[int, GateCost]:
    """Sum of the operands plus the cost of the configured tree.

    The total is the exact integer sum for every kind; the output width is
    sized so no wrap can occur. With ``bit_level=True`` the value is pushed
    through the gate-level core, one lane wide (pairwise tree for
    ripple/cla, 3:2 compression plus a final cla for the carry-save tree),
    instead of native integer addition; both routes must agree and tests
    hold them to that.
    """
    _require_kind(kind)
    if len(operands) == 0:
        raise ValueError("empty operand list")
    width = operands[0].width
    for op in operands:
        if op.width != width:
            raise ValueError(f"width mismatch: {op.width} vs {width}")
    count = len(operands)
    cost = adder_tree_cost(count, width, kind, model)
    if count == 1:
        return operands[0].value, cost
    if not bit_level:
        return sum(op.value for op in operands), cost
    out_width = tree_output_width(width, count)
    planes = _tree_planes(
        [_to_planes(op.value, out_width) for op in operands], kind, 1, model.cla_block_size
    )
    return BitVector.from_unsigned(out_width, _from_planes(planes)).value, cost
