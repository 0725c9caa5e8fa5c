"""Gate-level adder models: exact values and the declared cost model."""

import random
from itertools import chain, cycle, product, repeat
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dafir.adders import (
    AdderKind,
    BitVector,
    CostModel,
    DEFAULT_COST_MODEL,
    GateCost,
    adder_tree_cost,
    adder_tree_sum,
    cla_add,
    cla_cost,
    csa_compress,
    csa_stage_count,
    ripple_add,
    ripple_cost,
    tree_output_width,
    _cla_planes,
    _csa_planes,
    _ripple_planes,
)
from dafir.engine import _lane_planes

ALL_KINDS = [AdderKind.RIPPLE, AdderKind.CSA_TREE, AdderKind.CLA]


def signed_range(width):
    return range(-(1 << (width - 1)), 1 << (width - 1))


@st.composite
def operand_lists(draw, min_count=1, max_count=9, min_width=2, max_width=12):
    width = draw(st.integers(min_width, max_width))
    count = draw(st.integers(min_count, max_count))
    bound = 1 << (width - 1)
    values = draw(
        st.lists(st.integers(-bound, bound - 1), min_size=count, max_size=count)
    )
    return [BitVector(width, v) for v in values]


class TestBitVector:
    def test_unsigned_round_trip(self):
        v = BitVector(8, -1)
        assert v.unsigned == 0xFF
        assert BitVector.from_unsigned(8, 0xFF) == v

    @given(st.integers(1, 20), st.integers())
    def test_from_unsigned_wraps_into_range(self, width, raw):
        v = BitVector.from_unsigned(width, raw)
        assert -(1 << (width - 1)) <= v.value < 1 << (width - 1)
        assert v.unsigned == raw & ((1 << width) - 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BitVector(4, 8)
        with pytest.raises(ValueError):
            BitVector(4, -9)

    def test_bits(self):
        v = BitVector(4, -8)  # 0b1000
        assert [v.bit(i) for i in range(4)] == [0, 0, 0, 1]
        with pytest.raises(IndexError):
            v.bit(4)

    def test_extend_preserves_value(self):
        assert BitVector(4, -3).extend(9).value == -3
        with pytest.raises(ValueError):
            BitVector(8, 0).extend(4)


class TestRippleAdd:
    def test_zeros(self):
        s, carry, cost = ripple_add(BitVector(4, 0), BitVector(4, 0))
        assert (s.value, carry) == (0, 0)
        assert cost == GateCost(20, 8)

    def test_wraps_two_complement(self):
        s, carry, _ = ripple_add(BitVector(4, 7), BitVector(4, 1))
        assert (s.value, carry) == (-8, 0)

    def test_carry_out(self):
        s, carry, _ = ripple_add(BitVector(8, -1), BitVector(8, 1))
        assert (s.value, carry) == (0, 1)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            ripple_add(BitVector(4, 0), BitVector(5, 0))


class TestClaAdd:
    def test_wrap_at_sixteen_bits(self):
        s, carry, _ = cla_add(BitVector(16, 0x7FFF), BitVector(16, 1))
        assert (s.value, carry) == (-32768, 0)

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_exhaustive_equivalence_small_widths(self, width):
        mask = (1 << width) - 1
        for a in signed_range(width):
            for b in signed_range(width):
                for cin in (0, 1):
                    va, vb = BitVector(width, a), BitVector(width, b)
                    rs, rc, _ = ripple_add(va, vb, cin)
                    cs, cc, _ = cla_add(va, vb, cin)
                    total = (va.unsigned + vb.unsigned + cin) & mask
                    carry = (va.unsigned + vb.unsigned + cin) >> width
                    assert (rs.unsigned, rc) == (total, carry)
                    assert (cs.unsigned, cc) == (total, carry)

    @given(st.integers(2, 40), st.data())
    def test_matches_integer_addition(self, width, data):
        bound = 1 << (width - 1)
        a = data.draw(st.integers(-bound, bound - 1))
        b = data.draw(st.integers(-bound, bound - 1))
        cin = data.draw(st.integers(0, 1))
        s, carry, _ = cla_add(BitVector(width, a), BitVector(width, b), cin)
        raw = (a & (2 * bound - 1)) + (b & (2 * bound - 1)) + cin
        assert s.unsigned == raw & (2 * bound - 1)
        assert carry == raw >> width


class TestCsaCompress:
    def test_three_small_operands(self):
        (s, c), cost = csa_compress([BitVector(8, v) for v in (1, 2, 3)])
        assert s.value + c.value == 6
        assert cost == GateCost(8 * 5, 2)

    def test_all_zero(self):
        (s, c), _ = csa_compress([BitVector(8, 0)] * 3)
        assert (s.value, c.value) == (0, 0)

    def test_needs_three_operands(self):
        with pytest.raises(ValueError):
            csa_compress([BitVector(8, 1), BitVector(8, 2)])

    def test_sum_preserved_modulo_width(self):
        rng = random.Random(18)
        width = 18
        mask = (1 << width) - 1
        for _ in range(1000):
            ops = [
                BitVector.from_unsigned(width, rng.getrandbits(width))
                for _ in range(8)
            ]
            (s, c), _ = csa_compress(ops)
            assert (s.unsigned + c.unsigned) & mask == sum(o.unsigned for o in ops) & mask

    def test_stage_counts(self):
        assert [csa_stage_count(n) for n in (3, 4, 5, 6, 7, 8, 9)] == [1, 2, 3, 3, 4, 4, 4]


def counting_planes(bits):
    """Planes of the lane index over 2^bits lanes: plane p is bit p of every lane's index."""
    planes = []
    for p in range(bits):
        half = 1 << p
        period = 2 * half
        span = max(8, period)  # whole bytes
        block = ((1 << half) - 1) << half  # one period: half the lanes clear, then half set
        pattern = sum(block << k for k in range(0, span, period)).to_bytes(span // 8, "little")
        planes.append(int.from_bytes(pattern * ((1 << bits) // span), "little"))
    return planes


def unsigned_planes(values, width):
    """Planes of unsigned values: bit i of plane b is bit b of value i."""
    values = list(values)
    return [sum(((v >> b) & 1) << i for i, v in enumerate(values)) for b in range(width)]


class TestLanes:
    """The gate-level core on many lanes at once, each lane one test vector."""

    def test_every_width_ten_addition_in_one_pass(self):
        # Lane t = a + 2^10 b + 2^20 cin adds a + b + cin, all 2^21 triples.
        index = counting_planes(21)
        a, b, cin = index[:10], index[10:20], index[20]
        mask = (1 << (1 << 21)) - 1
        sums = chain.from_iterable(
            range(high + c, high + c + 1024) for c in (0, 1) for high in range(1024)
        )
        want = _lane_planes(sums, 12)
        assert want[11] == 0
        for planes, carry in (_ripple_planes(a, b, cin), _cla_planes(a, b, cin, mask, 4)):
            assert planes + [carry] == want[:11]

    def test_cla_planes_equal_ripple_planes_and_integer_addition(self):
        # Blocks of 2 to 5 over widths 1 to 70 take 1 to 7 lookahead levels;
        # every lane adds its own words and carry-in, and keeps its carry-out.
        rng = random.Random(70)
        lane_counts = cycle(range(1, 65))
        for width, block in product(range(1, 71), range(2, 6)):
            lanes = next(lane_counts)
            a, b = ([rng.getrandbits(width) for _ in range(lanes)] for _ in range(2))
            cin = [rng.getrandbits(1) for _ in range(lanes)]
            args = unsigned_planes(a, width), unsigned_planes(b, width), unsigned_planes(cin, 1)[0]
            planes, carry = _cla_planes(*args, (1 << lanes) - 1, block)
            want = unsigned_planes(map(sum, zip(a, b, cin)), width + 1)
            assert planes + [carry] == want, (width, block, lanes)
            assert _ripple_planes(*args) == (planes, carry)

    def test_csa_keeps_every_sum_of_three_seven_bit_words(self):
        # Lane t = x + 2^7 y + 2^14 z; the two outputs add up to x + y + z mod 2^7.
        index = counting_planes(21)
        s, c = _csa_planes([index[0:7], index[7:14], index[14:21]])
        total, _ = _cla_planes(s, c, 0, (1 << (1 << 21)) - 1, 4)
        sums = chain.from_iterable(
            range(y + z, y + z + 128) for z in range(128) for y in range(128)
        )
        assert total == _lane_planes(map(and_, sums, repeat(127)), 7)


class TestAdderTree:
    def test_single_operand_costs_nothing(self):
        for kind in ALL_KINDS:
            total, cost = adder_tree_sum([BitVector(6, -17)], kind)
            assert total == -17
            assert cost == GateCost(0, 0)

    def test_output_width_for_eight_seventeen_bit_words(self):
        assert tree_output_width(17, 8) == 20

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            adder_tree_sum([], AdderKind.CLA)

    @given(operand_lists())
    def test_total_is_exact_for_every_kind(self, ops):
        want = sum(o.value for o in ops)
        for kind in ALL_KINDS:
            total, _ = adder_tree_sum(ops, kind)
            assert total == want

    @settings(deadline=None, max_examples=40)
    @given(operand_lists(max_count=6, max_width=8))
    def test_bit_level_route_agrees(self, ops):
        want = sum(o.value for o in ops)
        for kind in ALL_KINDS:
            total, cost = adder_tree_sum(ops, kind, bit_level=True)
            fast_total, fast_cost = adder_tree_sum(ops, kind)
            assert total == want == fast_total
            assert cost == fast_cost

    def test_same_values_different_costs(self):
        ops = [BitVector(17, v) for v in (-65536, 65535, 1234, -9999, 42, 0, -1, 777)]
        totals = {}
        costs = {}
        for kind in ALL_KINDS:
            totals[kind], costs[kind] = adder_tree_sum(ops, kind)
        assert len(set(totals.values())) == 1
        assert costs[AdderKind.CLA] != costs[AdderKind.CSA_TREE]
        assert costs[AdderKind.CLA] != costs[AdderKind.RIPPLE]


class TestCostModel:
    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_cla_shallower_than_ripple(self, width):
        assert cla_cost(width).depth < ripple_cost(width).depth

    def test_frozen_depths(self):
        assert ripple_cost(16).depth == 32
        assert cla_cost(8).depth == 6
        assert cla_cost(16).depth == 6
        assert cla_cost(32).depth == 8

    def test_csa_tree_shallower_than_cla_tree_for_eight_operands(self):
        csa = adder_tree_cost(8, 17, AdderKind.CSA_TREE)
        cla = adder_tree_cost(8, 17, AdderKind.CLA)
        assert csa.depth < cla.depth

    def test_csa_tree_shallower_for_four_plus_operands(self):
        for width in range(3, 33):
            for count in range(4, 17):
                csa = adder_tree_cost(count, width, AdderKind.CSA_TREE)
                cla = adder_tree_cost(count, width, AdderKind.CLA)
                assert csa.depth < cla.depth, (width, count)

    def test_costs_monotone_in_width(self):
        for cost_fn in (ripple_cost, cla_cost):
            prior = cost_fn(1)
            for width in range(2, 65):
                current = cost_fn(width)
                assert current.gate_count >= prior.gate_count
                assert current.depth >= prior.depth
                prior = current

    def test_a_kind_that_is_not_an_adder_kind_is_refused(self):
        # "ripple" used to be costed, and summed with bit_level, as a cla.
        ops = [BitVector(8, 100), BitVector(8, -3), BitVector(8, 7)]
        for kind in ("ripple", None, "csa"):
            for call in (
                lambda: adder_tree_cost(3, 8, kind),
                lambda: adder_tree_sum(ops, kind),
                lambda: adder_tree_sum(ops, kind, bit_level=True),
                lambda: adder_tree_sum([], kind),
            ):
                with pytest.raises(TypeError, match="must be an AdderKind, not " + repr(kind)):
                    call()

    def test_tree_costs_monotone_in_operand_count(self):
        for kind in ALL_KINDS:
            prior = adder_tree_cost(1, 16, kind)
            for count in range(2, 24):
                current = adder_tree_cost(count, 16, kind)
                assert current.gate_count >= prior.gate_count
                assert current.depth >= prior.depth, (kind, count)
                prior = current

    def test_override_changes_numbers(self):
        slow_fa = CostModel(fa_gates=9, fa_depth=3)
        assert ripple_cost(8, slow_fa) == GateCost(72, 24)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            CostModel.from_dict({"fa_gates": 5, "nand_budget": 1})
        with pytest.raises(ValueError):
            CostModel.from_dict({"fa_gates": -1})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"cla_block_size": 1}, "cla_block_size must be at least 2, not 1"),
            ({"cla_block_size": 0}, "cla_block_size must be at least 2, not 0"),
            ({"fa_gates": True}, "cost-model values must be non-negative integers: ['fa_gates']"),
            ({"fa_depth": 1.0}, "cost-model values must be non-negative integers: ['fa_depth']"),
            ({"mux2_gates": -1}, "cost-model values must be non-negative integers: ['mux2_gates']"),
            ([], "a cost model must be a JSON object, not list"),
        ],
    )
    def test_refuses_what_no_cost_can_be_built_from(self, data, message):
        with pytest.raises(ValueError) as raised:
            CostModel.from_dict(data)
        assert str(raised.value) == message

    def test_lookahead_blocks_have_two_bits_or_more(self):
        # Lookahead blocks of one bit never narrow the tree, so no cost or sum would end.
        with pytest.raises(ValueError, match="cla_block_size must be at least 2, not 1"):
            CostModel(cla_block_size=1)
        pairs = CostModel(cla_block_size=2)
        total, carry, cost = cla_add(BitVector(8, 100), BitVector(8, -3), model=pairs)
        assert (total.value, carry) == (97, 1)
        assert cost == cla_cost(8, pairs)
        assert cost.depth > cla_cost(8).depth  # a deeper tree of narrower blocks

    def test_round_trips_through_dict(self):
        model = CostModel(mux2_gates=6)
        assert CostModel.from_dict(model.to_dict()) == model
