"""Tables, partitioning, addressing and the bit-serial evaluator."""

import io
import json
import random
from itertools import chain, product, zip_longest
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dafir.cli as cli
import dafir.engine as engine
from dafir.adders import AdderKind
from dafir.design import ArchConfig, DesignError, DesignFile
from dafir.engine import (
    CycleRecord,
    DaFilter,
    PartitionPlan,
    PpgMode,
    all_windows,
    build_lut,
    check_tables,
    da_inner_product,
    memory_locations,
    partial_product_width,
    partition_taps,
    verify_windows,
)
from dafir.numerics import (
    MIN_WIDTH,
    AccumulatorOverflow,
    CoefficientSet,
    DirectFormFir,
    FixedFormat,
    direct_fir,
)

FMT8 = FixedFormat(8)
FMT16 = FixedFormat(16)


def coeff_set(values, width=8):
    return CoefficientSet.from_integers(values, FixedFormat(width))


def address_for_cycle(delay_line, plan, cycle):
    """Reference addresses: bit j of a group's is bit ``cycle`` of member j's sample; pads read 0."""
    return tuple(
        sum(((delay_line[k] >> cycle) & 1) << j for j, k in enumerate(g) if k is not None)
        for g in plan.groups
    )


def mux_tables(coeffs, group_size):
    """The tables a mux filter over all of ``coeffs``, in groups of ``group_size``, reads."""
    plan = partition_taps(len(coeffs), group_size)
    return DaFilter(coeffs, plan, PpgMode.MUX, input_width=8).tables()


def subset_sum_oracle(values, group, address):
    # Independent enumeration: walk the address bits, add what they select.
    total = 0
    for j, idx in enumerate(group):
        if idx is not None and address & (1 << j):
            total += values[idx]
    return total


@st.composite
def filter_cases(draw):
    coeff_width = draw(st.integers(2, 10))
    input_width = draw(st.integers(2, 10))
    num_taps = draw(st.integers(1, 6))
    bound = 1 << (coeff_width - 1)
    taps = draw(
        st.lists(st.integers(-bound, bound - 1), min_size=num_taps, max_size=num_taps)
    )
    group_size = draw(st.integers(1, num_taps))
    sbound = 1 << (input_width - 1)
    samples = draw(
        st.lists(st.integers(-sbound, sbound - 1), min_size=1, max_size=24)
    )
    return coeff_set(taps, coeff_width), input_width, group_size, samples


class TestPartitioning:
    def test_two_groups_of_two(self):
        plan = partition_taps(4, 2)
        assert plan.groups == ((0, 1), (2, 3))
        assert plan.padded_taps == 0
        assert memory_locations(plan) == 8

    def test_degenerate_single_tap(self):
        plan = partition_taps(1, 1)
        assert plan.groups == ((0,),)
        assert plan.num_groups == 1

    def test_padding(self):
        plan = partition_taps(5, 2)
        assert plan.num_groups == 3
        assert plan.groups[2] == (4, None)
        assert plan.padded_taps == 1
        assert plan.num_taps == 5

    def test_group_size_caps(self):
        with pytest.raises(ValueError):
            partition_taps(4, 0)
        with pytest.raises(ValueError):
            partition_taps(4, 17)
        with pytest.raises(ValueError):
            partition_taps(0, 2)

    def test_memory_locations_examples(self):
        assert memory_locations(partition_taps(4, 2)) == 8
        assert memory_locations(partition_taps(4, 4)) == 16
        assert memory_locations(partition_taps(16, 2)) == 32

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            PartitionPlan(2, ((0, 1), (1, None)), 1)  # duplicate index
        with pytest.raises(ValueError):
            PartitionPlan(2, ((0, 2),), 0)  # hole in coverage
        with pytest.raises(ValueError):
            PartitionPlan(2, ((0, 1), (2,)), 0)  # ragged group

    @given(st.integers(1, 40), st.integers(1, 16))
    def test_every_tap_in_exactly_one_group(self, num_taps, group_size):
        plan = partition_taps(num_taps, group_size)
        real = [i for g in plan.groups for i in g if i is not None]
        assert sorted(real) == list(range(num_taps))
        assert plan.num_groups == -(-num_taps // group_size)
        assert all(len(g) == group_size for g in plan.groups)


class TestLutAndMux:
    def test_two_tap_table(self):
        lut = build_lut(coeff_set([3, 5]), (0, 1))
        assert lut.entries == (0, 3, 5, 8)

    def test_zero_taps_zero_table(self):
        assert build_lut(coeff_set([0, 0]), (0, 1)).entries == (0, 0, 0, 0)

    def test_single_negative_tap(self):
        assert build_lut(coeff_set([-1]), (0,)).entries == (0, -1)

    def test_entry_zero_and_full_sum(self):
        values = [17, -4, 99, -120]
        lut = build_lut(coeff_set(values), (0, 1, 2, 3))
        assert lut.entries[0] == 0
        assert lut.entries[-1] == sum(values)

    def test_padded_group_ignores_pad_bit(self):
        lut = build_lut(coeff_set([7, 11, 13]), (2, None))
        assert lut.entries == (0, 13, 0, 13)

    def test_mux_matches_example(self):
        assert mux_tables(coeff_set([3, 5]), 2)[0][3] == 8
        assert build_lut(coeff_set([3, 5]), (0, 1)).entries[3] == 8

    def test_mux_address_zero_is_zero(self):
        assert mux_tables(coeff_set([17, -99]), 2)[0][0] == 0

    def test_mux_extremes_need_seventeen_bits(self):
        coeffs = coeff_set([-32768, -32768], 16)
        assert mux_tables(coeffs, 2)[0][3] == -65536
        assert partial_product_width(16, 2) == 17

    @settings(deadline=None)
    @given(
        st.integers(1, 4),
        st.lists(st.integers(-128, 127), min_size=4, max_size=4),
    )
    def test_lut_and_mux_agree_exhaustively(self, group_size, values):
        # Core identity: stored entries equal mux outputs at every address.
        coeffs = coeff_set(values)
        plan = partition_taps(4, group_size)
        for group, mux in zip(plan.groups, mux_tables(coeffs, group_size)):
            lut = build_lut(coeffs, group)
            for address in range(1 << group_size):
                want = subset_sum_oracle(values, group, address)
                assert lut.entries[address] == want
                assert mux[address] == want


def traced_addresses(delay_line, plan, input_width):
    """Each cycle's addresses as the schedule's records give them."""
    coeffs = coeff_set([1] * plan.num_taps)
    _, trace = da_inner_product(delay_line, coeffs, plan, input_width=input_width)
    return [r.addresses for r in trace]


class TestAddressing:
    def test_lsb_cycle(self):
        plan = partition_taps(2, 2)
        assert address_for_cycle([5, 3], plan, 0) == (3,)  # LSBs of 5 and 3 are both 1
        assert traced_addresses([5, 3], plan, 4)[0] == (3,)

    def test_msb_cycle_of_positive_samples(self):
        plan = partition_taps(2, 2)
        assert address_for_cycle([5, 3], plan, 3) == (0,)
        assert traced_addresses([5, 3], plan, 4)[3] == (0,)

    def test_minus_one_sets_every_cycle(self):
        plan = partition_taps(1, 1)
        for n in range(4):
            assert address_for_cycle([-1], plan, n) == (1,)
        assert traced_addresses([-1], plan, 4) == [(1,)] * 4

    def test_spread_words_move_bit_b_to_b_times_field(self):
        # One byte, two bytes (one lookup each) and wider values take three routes.
        rng = random.Random(16)
        values = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(40)] + [0, -1]
        for width, field in product(range(1, 33), (1, 4, 8, 16)):
            want = [
                sum(((x >> b) & 1) << (b * field) for b in range(width)) for x in values
            ]
            assert engine._spreader(width, field)(values) == want, (width, field)


class TestInnerProduct:
    def test_delay_line_of_another_length_is_refused(self):
        for window in ([1, 2, 3], [1]):
            with pytest.raises(ValueError, match=f"delay line has {len(window)} entries"):
                da_inner_product(window, coeff_set([3, 5]), partition_taps(2, 2), input_width=4)

    def test_sign_bit_subtraction(self):
        # -8 is 0b1000: three idle cycles, then subtract 1 << 3
        value, trace = da_inner_product(
            [-8], coeff_set([1]), partition_taps(1, 1), input_width=4
        )
        assert value == -8
        assert [r.tree_sum for r in trace] == [0, 0, 0, 1]
        assert [r.subtract for r in trace] == [False, False, False, True]

    def test_two_tap_hand_trace(self):
        value, trace = da_inner_product(
            [2, 1], coeff_set([3, 5]), partition_taps(2, 2), input_width=4
        )
        assert value == 3 * 2 + 5 * 1 == 11
        assert [r.acc_after for r in trace] == [5, 11, 11, 11]

    def test_zero_coefficients_zero_trace(self):
        value, trace = da_inner_product(
            [7, -8, 3], coeff_set([0, 0, 0]), partition_taps(3, 2), input_width=4
        )
        assert value == 0
        assert all(r.tree_sum == 0 for r in trace)

    def test_trace_shape(self):
        input_width = 6
        value, trace = da_inner_product(
            [-17, 22], coeff_set([9, -4]), partition_taps(2, 1), input_width=input_width
        )
        assert len(trace) == input_width
        assert [r.cycle for r in trace] == list(range(input_width))
        assert [r.shift for r in trace] == list(range(input_width))
        subtracts = [r.subtract for r in trace]
        assert subtracts.count(True) == 1 and subtracts[-1]

    def test_shift_consistency(self):
        # acc(n) - acc(n-1) == +-tree_sum(n) << n at every cycle
        rng = random.Random(5)
        coeffs = coeff_set([rng.randint(-128, 127) for _ in range(5)])
        plan = partition_taps(5, 2)
        window = [rng.randint(-64, 63) for _ in range(5)]
        _, trace = da_inner_product(window, coeffs, plan, input_width=7)
        prev = 0
        for r in trace:
            step = r.tree_sum << r.shift
            assert r.acc_after - prev == (-step if r.subtract else step)
            prev = r.acc_after

    def test_stored_and_mux_identical(self):
        rng = random.Random(11)
        coeffs = coeff_set([rng.randint(-128, 127) for _ in range(6)])
        plan = partition_taps(6, 2)
        for _ in range(50):
            window = [rng.randint(-128, 127) for _ in range(6)]
            stored, _ = da_inner_product(
                window, coeffs, plan, PpgMode.STORED, input_width=8
            )
            mux, _ = da_inner_product(window, coeffs, plan, PpgMode.MUX, input_width=8)
            assert stored == mux

    def test_traced_untraced_and_bit_level_agree(self):
        rng = random.Random(23)
        coeffs = coeff_set([rng.randint(-512, 511) for _ in range(4)], 10)
        cases = [(coeffs, partition_taps(4, 2), None, 6, rng)]
        # M > 8 at L = MIN_WIDTH: derived halves, a table given as its halves,
        # and a list table that does not split. verify's lanes read them as
        # blocks do; one window gathers the unsplit one at count * L = 2
        # addresses.
        wide_rng = random.Random(29)
        wide = coeff_set([wide_rng.randint(-128, 127) for _ in range(9)])
        wide_plan = partition_taps(9, 9)
        table = list(build_lut(wide, wide_plan.groups[0]).entries)
        edited = table.copy()
        edited[300] += 1
        for luts in (None, [{"low": table[:256], "high": table[::256]}], [edited]):
            cases.append((wide, wide_plan, luts, MIN_WIDTH, wide_rng))
        for coeffs, plan, luts, width, draw in cases:
            half = 1 << (width - 1)
            windows = [
                [draw.randint(-half, half - 1) for _ in range(len(coeffs))] for _ in range(20)
            ]
            if luts is not None:
                windows.append([(300 >> k) & 1 for k in range(len(coeffs))])  # reads entry 300
            for window in windows:
                fast, none_trace = da_inner_product(
                    window, coeffs, plan, input_width=width, luts=luts, collect_trace=False
                )
                assert none_trace is None
                for tree in (AdderKind.RIPPLE, AdderKind.CSA_TREE, AdderKind.CLA):
                    traced, _ = da_inner_product(
                        window, coeffs, plan, tree=tree, input_width=width, luts=luts
                    )
                    gated, _ = da_inner_product(
                        window, coeffs, plan, tree=tree, input_width=width, luts=luts,
                        bit_level=True,
                    )
                    assert fast == traced == gated
                direct = sum(a * x for a, x in zip(coeffs.values, window))
                wrong = [engine.Mismatch(tuple(window), fast, direct)] if fast != direct else []
                assert verify_windows(
                    coeffs, plan, PpgMode.STORED, input_width=width, windows=[window], luts=luts
                ) == (1, wrong)
            if luts is not None:
                direct = sum(a * x for a, x in zip(coeffs.values, windows[-1]))
                assert fast == direct + (luts[0] is edited)

    def test_faults_in_the_gate_level_tree_reach_bit_level_values(self):
        # A bit_level route that returned the schedule's value would pass every other test.
        real = engine._tree_planes

        def flipped(operands, kind, mask, block):
            planes = real(operands, kind, mask, block)
            return [planes[0] ^ mask, *planes[1:]]  # bit 0 of every cycle's tree sum

        rng = random.Random(41)
        coeffs = coeff_set([rng.randint(-128, 127) for _ in range(4)])
        plan = partition_taps(4, 2)
        windows = [[rng.randint(-8, 7) for _ in range(4)] for _ in range(10)]
        with mock.patch.object(engine, "_tree_planes", flipped):
            for window, tree in product(windows, AdderKind):
                direct = sum(a * x for a, x in zip(coeffs.values, window))
                value, records = da_inner_product(
                    window, coeffs, plan, tree=tree, input_width=4, bit_level=True
                )
                assert value != direct
                assert records[-1].acc_after == direct  # the records are the schedule's

    def test_faults_in_the_gate_level_accumulator_reach_bit_level_values(self):
        # One window and verify's lanes run one accumulator: a fault in its
        # adders reaches both, as the same wrong value.
        real = engine._cpa_planes

        def flipped(kind, a, b, carry, mask, block):
            planes = real(kind, a, b, carry, mask, block)
            return [planes[0] ^ mask, *planes[1:]]  # the lowest bit each cycle's adder spans

        rng = random.Random(43)
        coeffs = coeff_set([rng.randint(-128, 127) for _ in range(4)])
        plan = partition_taps(4, 2)
        windows = [tuple(rng.randint(-8, 7) for _ in range(4)) for _ in range(10)]
        with mock.patch.object(engine, "_cpa_planes", flipped):
            for tree in AdderKind:
                values = []
                for window in windows:
                    direct = sum(a * x for a, x in zip(coeffs.values, window))
                    value, records = da_inner_product(
                        window, coeffs, plan, tree=tree, input_width=4, bit_level=True
                    )
                    assert value != direct
                    assert records[-1].acc_after == direct  # the records are the schedule's
                    values.append(value)
                checked, mismatches = verify_windows(
                    coeffs, plan, PpgMode.STORED, tree, input_width=4, windows=windows
                )
                direct = sum(a * x for a, x in zip(coeffs.values, windows[0]))
                first = engine.Mismatch(windows[0], values[0], direct)
                assert (checked, mismatches) == (1, [first])

    def test_partition_invariance(self):
        # Same value for every legal group size, all equal to the dot product.
        rng = random.Random(31)
        values = [rng.randint(-128, 127) for _ in range(6)]
        coeffs = coeff_set(values)
        window = [rng.randint(-128, 127) for _ in range(6)]
        want = sum(a * x for a, x in zip(values, window))
        for group_size in range(1, 7):
            got, _ = da_inner_product(
                window, coeffs, partition_taps(6, group_size), input_width=8
            )
            assert got == want, group_size

    def test_injected_tables_must_fit_plan(self):
        coeffs = coeff_set([1, 2])
        plan = partition_taps(2, 2)
        with pytest.raises(ValueError):
            da_inner_product([0, 0], coeffs, plan, input_width=4, luts=[[0, 1]])
        with pytest.raises(ValueError):
            da_inner_product(
                [0, 0], coeffs, plan, input_width=4, luts=[[0, 1, 2, 3], [0, 0, 0, 0]]
            )

    def test_corrupted_table_changes_output(self):
        coeffs = coeff_set([3, 5])
        plan = partition_taps(2, 2)
        bad = [[0, 3, 5, 9]]  # entry 3 should be 8
        # window [3, 3] reads address 3 on cycles 0 and 1
        got, _ = da_inner_product([3, 3], coeffs, plan, input_width=4, luts=bad)
        assert got == 27 != 3 * 3 + 5 * 3

    def test_plan_filter_mismatch(self):
        with pytest.raises(ValueError):
            da_inner_product([0, 0], coeff_set([1, 2]), partition_taps(3, 2), input_width=4)

    def test_sample_out_of_range(self):
        with pytest.raises(ValueError):
            da_inner_product([8], coeff_set([1]), partition_taps(1, 1), input_width=4)

    @pytest.mark.parametrize("window", [[2.9, 0], [True, 0], [0, 2.0]])
    def test_non_integer_sample_rejected(self, window):
        for collect in (False, True):
            with pytest.raises(TypeError):
                da_inner_product(
                    window, coeff_set([3, 5]), partition_taps(2, 2),
                    input_width=4, collect_trace=collect,
                )

    @pytest.mark.parametrize("position", [0, 4, 8], ids=["first", "middle", "last"])
    @pytest.mark.parametrize(
        "bad", [True, 2.0, "3", None, 128, -129, 1 << 70], ids=repr
    )
    def test_bad_sample_raises_what_checking_each_sample_raises(self, position, bad):
        """A window checked at once raises what ``check`` raises at its first bad sample."""
        fmt = FixedFormat(8)
        window = [-128, 127, -1, 0, 85, -86, 5, 6, 7]
        window[position] = bad
        if position < 8:
            window[8] = 1 << 70  # a later bad sample must not be the one named
        with pytest.raises((TypeError, ValueError)) as want:
            for x in window:
                fmt.check(x, "sample")
        for mode, collect in product(PpgMode, (False, True)):
            with pytest.raises(want.type) as got:
                da_inner_product(
                    window, coeff_set(list(range(1, 10))), partition_taps(9, 3), mode,
                    input_width=8, collect_trace=collect,
                )
            assert str(got.value) == str(want.value)

    def test_absurd_injected_tables_rejected(self):
        # Entries no subset of coefficients could produce are refused at
        # injection, before they can reach the accumulator.
        coeffs = coeff_set([1])
        plan = partition_taps(1, 1)
        for collect in (False, True):
            with pytest.raises(ValueError):
                da_inner_product(
                    [3],
                    coeffs,
                    plan,
                    input_width=4,
                    luts=[[0, 1 << 40]],
                    collect_trace=collect,
                )


class TestStreaming:
    def test_identity_tap(self):
        filt = DaFilter(coeff_set([1]), partition_taps(1, 1), input_width=8)
        assert filt.process([9, -3]) == [9, -3]

    def test_pairwise_sums(self):
        filt = DaFilter(coeff_set([1, 1]), partition_taps(2, 2), input_width=8)
        assert filt.process([1, 2, 3]) == [1, 3, 5]

    def test_trace_stream_shape(self):
        filt = DaFilter(coeff_set([1, 2]), partition_taps(2, 2), input_width=5)
        traces = [filt.push_traced(x)[1] for x in [4, 5, 6]]
        assert len(traces) == 3
        assert all(len(t) == 5 for t in traces)

    @pytest.mark.parametrize("mode", list(PpgMode))
    def test_non_integer_sample_rejected_not_truncated(self, mode):
        filt = DaFilter(coeff_set([3, 5]), partition_taps(2, 2), mode, input_width=4)
        for sample in (2.9, True, "2"):
            with pytest.raises(TypeError):
                filt.push(sample)
            with pytest.raises(TypeError):
                filt.push_traced(sample)
        # a refused sample never entered the delay line
        assert filt.process([2, 1]) == direct_fir([2, 1], [3, 5])

    def test_filter_reset(self):
        filt = DaFilter(coeff_set([1, 1]), partition_taps(2, 2), input_width=8)
        assert filt.process([1, 2, 3]) == [1, 3, 5]
        filt.reset()
        assert filt.process([1, 2, 3]) == [1, 3, 5]

    @settings(deadline=None, max_examples=60)
    @given(filter_cases())
    def test_matches_direct_form_oracle(self, case):
        coeffs, input_width, group_size, samples = case
        plan = partition_taps(len(coeffs), group_size)
        want = direct_fir(samples, coeffs)
        for mode in (PpgMode.STORED, PpgMode.MUX):
            got = DaFilter(coeffs, plan, mode, input_width=input_width).process(samples)
            assert got == want

    def test_long_stream_at_sixteen_bits(self):
        # 8 taps, 16-bit words, a thousand samples, both generator modes
        rng = random.Random(1000)
        coeffs = coeff_set([rng.randint(-32768, 32767) for _ in range(8)], 16)
        plan = partition_taps(8, 2)
        samples = [rng.randint(-32768, 32767) for _ in range(1000)]
        want = direct_fir(samples, coeffs)
        for mode in (PpgMode.STORED, PpgMode.MUX):
            got = DaFilter(coeffs, plan, mode, input_width=16).process(samples)
            assert got == want

    def test_padded_plan_matches_unpadded(self):
        rng = random.Random(47)
        values = [rng.randint(-128, 127) for _ in range(5)]
        coeffs = coeff_set(values)
        samples = [rng.randint(-128, 127) for _ in range(40)]
        padded = DaFilter(coeffs, partition_taps(5, 2), input_width=8).process(samples)
        unpadded = DaFilter(coeffs, partition_taps(5, 1), input_width=8).process(samples)
        assert padded == unpadded == direct_fir(samples, coeffs)


def scalar_verify(coeffs, plan, mode, input_width, windows, luts=None, limit=1):
    """Window-by-window reference: the scalar schedule against ``direct_fir``."""
    tables = engine._read_tables(coeffs, plan, mode, luts)
    run = engine._schedule(coeffs, plan, input_width, tables)
    checked = 0
    mismatches = []
    for checked, window in enumerate(windows, 1):
        got = run(window)
        want = direct_fir(list(window)[::-1], coeffs)[-1]
        if got != want:
            mismatches.append(engine.Mismatch(tuple(window), got, want))
            if len(mismatches) >= limit:
                break
    return checked, mismatches


def outcome(call):
    """A call's result, or the accumulator overflow it raised."""
    try:
        return call()
    except AccumulatorOverflow as exc:
        return repr(exc)


def outcome_at_window(call):
    """``outcome``, with the window last checked when the accumulator overflows.

    That is the window the scalar schedule last ran, or the window of the
    lane the bit-sliced datapath last flagged, decoded from its chunk's
    tap columns.
    """
    seen = []
    schedule, lanes = engine._schedule, engine._lane_datapath

    def scheduled(*args, **kwargs):
        run = schedule(*args, **kwargs)

        def recorded(window, *rest):
            seen.append(tuple(window))
            return run(window, *rest)

        return recorded

    def laned(coeffs, plan, tables, input_width, tree):
        run, field = lanes(coeffs, plan, tables, input_width, tree)
        size = engine._item_size(input_width)

        def recorded(columns, expected):
            for i, value in run(columns, expected):
                seen.append(tuple(engine._item(column, i, size) for column in columns))
                yield i, value

        return recorded, field

    with mock.patch.object(engine, "_schedule", scheduled), mock.patch.object(
        engine, "_lane_datapath", laned
    ):
        result = outcome(call)
    return (result, seen[-1]) if isinstance(result, str) else result


@st.composite
def lane_cases(draw):
    """Filters with shuffled, padded plans; window counts around the chunk size."""
    num_taps = draw(st.integers(1, 8))
    group_size = draw(st.integers(1, 16))
    input_width = draw(st.integers(2, 16))
    coeff_width = draw(st.integers(2, 16))
    bound = 1 << (coeff_width - 1)
    values = draw(
        st.lists(st.integers(-bound, bound - 1), min_size=num_taps, max_size=num_taps)
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    pads = -num_taps % group_size
    slots = draw(st.permutations(range(num_taps))) + [None] * pads
    groups = [slots[i : i + group_size] for i in range(0, len(slots), group_size)]
    for group in groups:
        rng.shuffle(group)
    plan = PartitionPlan(group_size, tuple(map(tuple, groups)), pads)
    mode = draw(st.sampled_from(list(PpgMode)))
    tree = draw(st.sampled_from(list(AdderKind)))
    lanes = engine.LANES
    count = draw(st.sampled_from([1, 2, 37, lanes - 1, lanes, lanes + 1, 2 * lanes + 3]))
    lo, hi = -(1 << (input_width - 1)), (1 << (input_width - 1)) - 1
    windows = [
        tuple(rng.choice((lo, hi, -1, 0, rng.randint(lo, hi))) for _ in range(num_taps))
        for _ in range(count)
    ]
    coeffs = coeff_set(values, coeff_width)
    luts = None
    if mode is PpgMode.STORED and draw(st.booleans()):
        luts = [list(build_lut(coeffs, g).entries) for g in plan.groups]
        top = 1 << (partial_product_width(coeff_width, group_size) - 1)
        for _ in range(draw(st.integers(0, 3))):
            table = rng.choice(luts)
            table[rng.randrange(len(table))] = rng.randint(-top, top - 1)
    limit = draw(st.integers(1, 4))
    return coeffs, plan, mode, tree, input_width, windows, luts, limit


def extremes_or_any(width):
    """Signed ``width``-bit integers, the two extremes often."""
    bound = 1 << (width - 1)
    return st.sampled_from([-bound, bound - 1]) | st.integers(-bound, bound - 1)


@st.composite
def exhaustive_cases(draw):
    """Filters small enough for all_windows: K 1..6, L 2..8, K*L <= 14, shuffled plans."""
    num_taps = draw(st.integers(1, 6))
    input_width = draw(st.integers(2, min(8, 14 // num_taps)))
    group_size = draw(st.integers(1, 16))
    coeff_width = draw(st.integers(2, 16))
    values = draw(st.lists(extremes_or_any(coeff_width), min_size=num_taps, max_size=num_taps))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pads = -num_taps % group_size
    slots = draw(st.permutations(range(num_taps))) + [None] * pads
    groups = [slots[i : i + group_size] for i in range(0, len(slots), group_size)]
    for group in groups:
        rng.shuffle(group)
    plan = PartitionPlan(group_size, tuple(map(tuple, groups)), pads)
    mode = draw(st.sampled_from(list(PpgMode)))
    tree = draw(st.sampled_from(list(AdderKind)))
    coeffs = coeff_set(values, coeff_width)
    luts = None
    if mode is PpgMode.STORED and draw(st.booleans()):
        # One edited entry or several, at addresses some window reads, any
        # value in bound: the extremes can leave the accumulator.
        luts = [list(build_lut(coeffs, g).entries) for g in plan.groups]
        entry = extremes_or_any(partial_product_width(coeff_width, group_size))
        for _ in range(draw(st.integers(1, 3))):
            g = draw(st.integers(0, len(luts) - 1))
            real = sum(1 << j for j, idx in enumerate(plan.groups[g]) if idx is not None)
            luts[g][draw(st.integers(0, real)) & real] = draw(entry)
    limit = draw(st.integers(1, 3))
    return coeffs, plan, mode, tree, input_width, luts, limit


@st.composite
def oracle_cases(draw):
    """Coefficients and windows drawn towards the extremes, with the most negative ones last."""
    num_taps = draw(st.integers(1, 8))
    coeff_width = draw(st.integers(2, 16))
    input_width = draw(st.integers(2, 24))
    plan = partition_taps(num_taps, draw(st.integers(1, 16)))
    values = draw(st.lists(extremes_or_any(coeff_width), min_size=num_taps, max_size=num_taps))
    sample = extremes_or_any(input_width)
    windows = draw(st.lists(st.tuples(*[sample] * num_taps), min_size=0, max_size=40))
    windows.append((-(1 << (input_width - 1)),) * num_taps)
    return coeff_set(values, coeff_width), plan, input_width, windows


class TestVerifyWindows:
    def test_clean_sweep(self):
        coeffs = coeff_set([3, -5])
        checked, mismatches = verify_windows(
            coeffs,
            partition_taps(2, 2),
            PpgMode.STORED,
            input_width=3,
            windows=all_windows(2, 3),
        )
        assert checked == 64 and mismatches == []

    def test_reports_counterexample_for_corrupt_table(self):
        coeffs = coeff_set([3, 5])
        checked, mismatches = verify_windows(
            coeffs,
            partition_taps(2, 2),
            PpgMode.STORED,
            input_width=3,
            windows=all_windows(2, 3),
            luts=[[0, 3, 5, 9]],
        )
        assert mismatches
        bad = mismatches[0]
        assert bad.got != bad.expected
        # the reported window really does disagree when re-evaluated
        again, _ = da_inner_product(
            bad.window,
            coeffs,
            partition_taps(2, 2),
            input_width=3,
            luts=[[0, 3, 5, 9]],
        )
        assert again == bad.got

    def test_sample_out_of_range(self):
        # 100 is not a 4-bit sample; its low bits alone would give 12.
        with pytest.raises(ValueError, match="sample 100"):
            verify_windows(
                coeff_set([3, 5]),
                partition_taps(2, 2),
                PpgMode.STORED,
                input_width=4,
                windows=[(100, 0)],
            )

    def test_non_integer_sample_rejected(self):
        # True used to be taken as 1, and 2.5 failed inside the spreader.
        for mode in PpgMode:
            for bad in ((True, 0), (2.5, 0), (0, 1.0)):
                with pytest.raises(TypeError, match="sample must be an int"):
                    verify_windows(
                        coeff_set([3, 5]),
                        partition_taps(2, 2),
                        mode,
                        input_width=4,
                        windows=[(0, 0), bad],
                    )

    def test_first_event_in_window_order_wins(self):
        # (1, 1) reads the corrupted entry 3; a bad sample, a window of the
        # wrong length or one that cannot be read after it is never reached,
        # one before it is refused, in the first chunk or a later one.
        coeffs = coeff_set([3, 5])
        plan = partition_taps(2, 2)
        luts = [[0, 3, 5, 9]]
        refused = [
            ((True, 0), TypeError, "sample must be an int"),
            ((100, 0), ValueError, "sample 100"),
            ((1, 2, 3), ValueError, "delay line has 3 entries, expected 2"),
            ((1,), ValueError, "delay line has 1 entries, expected 2"),
            (5, TypeError, "'int' object is not iterable"),
        ]
        for lead in (1, engine.LANES + 3):
            clean = [(1, 0)] * lead
            # A window is read as da_inner_product reads it: an iterator is a window.
            assert verify_windows(
                coeffs, plan, PpgMode.STORED, input_width=4,
                windows=clean + [(1, 1), iter((0, 0))], luts=luts,
            ) == (lead + 1, [engine.Mismatch((1, 1), 9, 8)])
            for bad, error, message in refused:
                checked, mismatches = verify_windows(
                    coeffs, plan, PpgMode.STORED, input_width=4,
                    windows=clean + [(1, 1), bad], luts=luts,
                )
                assert checked == lead + 1
                assert mismatches == [engine.Mismatch((1, 1), 9, 8)]
                with pytest.raises(error, match=message):
                    verify_windows(
                        coeffs, plan, PpgMode.STORED, input_width=4,
                        windows=clean + [bad, (1, 1)], luts=luts,
                    )

    def test_overflow_and_mismatch_in_window_order(self):
        # One tap in a padded group of four, entry 1 edited to 511: the
        # sample 1 reads it once (a mismatch), the sample 7 on three cycles,
        # which leaves the 12-bit accumulator.
        coeffs = coeff_set([1])
        plan = partition_taps(1, 4)
        luts = [[0, 511] + [0] * 14]
        assert verify_windows(
            coeffs, plan, PpgMode.STORED, input_width=4, windows=[(0,), (1,), (7,)], luts=luts
        ) == (2, [engine.Mismatch((1,), 511, 1)])
        with pytest.raises(AccumulatorOverflow, match="inner product 3577 exceeds the 12-bit"):
            verify_windows(
                coeffs, plan, PpgMode.STORED, input_width=4, windows=[(0,), (7,), (1,)], luts=luts
            )
        # Entry 1 at -511 gives -8 * -511 = 4088 for the window (-8,), exactly
        # 4096 above the oracle's -8: a 12-bit lane accumulator would wrap it
        # onto the oracle and pass the window.
        luts = [[0, -511] + [0] * 14]
        with pytest.raises(AccumulatorOverflow, match="inner product 4088 exceeds the 12-bit"):
            verify_windows(
                coeffs, plan, PpgMode.STORED, input_width=4, windows=[(0,), (-8,)], luts=luts
            )

    def test_one_entry_corruption_found_where_the_window_loop_finds_it(self):
        coeffs = coeff_set([3, -5, 7, 11])
        plan = partition_taps(4, 2)
        clean = [list(build_lut(coeffs, g).entries) for g in plan.groups]
        for table, address in product(range(2), range(4)):
            luts = [list(t) for t in clean]
            luts[table][address] += 1
            want = scalar_verify(coeffs, plan, PpgMode.STORED, 4, all_windows(4, 4), luts)
            got = verify_windows(
                coeffs, plan, PpgMode.STORED, input_width=4, windows=all_windows(4, 4), luts=luts
            )
            assert want[1] and got == want, (table, address)

    def test_gate_level_disagreement_is_reported(self, monkeypatch):
        # A tree that flips bit 0 of lane 0 (window 0, cycle 0) while the
        # scalar schedule stays right: the window still fails, with the
        # datapath's own value.
        real = engine._tree_planes

        def flipped(*args):
            planes = list(real(*args))
            planes[0] ^= 1
            return planes

        monkeypatch.setattr(engine, "_tree_planes", flipped)
        # A refused window cuts the chunk; the windows before it still run on the lanes.
        for windows in ([(0, 0), (1, 1)], [(0, 0), (1, 1), (True, 0)]):
            checked, mismatches = verify_windows(
                coeff_set([3, 5]), partition_taps(2, 2), PpgMode.MUX, input_width=4,
                windows=windows,
            )
            assert (checked, mismatches) == (1, [engine.Mismatch((0, 0), 1, 0)])

    @settings(deadline=None, max_examples=60)
    @given(lane_cases())
    @example(
        (coeff_set([-128] * 8), partition_taps(8, 16), PpgMode.MUX, AdderKind.CSA_TREE,
         16, [(-32768,) * 8] * 3, None, 2)
    )
    def test_lanes_agree_with_scalar_schedule_and_direct_fir(self, case):
        coeffs, plan, mode, tree, input_width, windows, luts, limit = case
        want = outcome(
            lambda: scalar_verify(coeffs, plan, mode, input_width, windows, luts, limit)
        )
        with mock.patch.object(engine, "_schedule", wraps=engine._schedule) as scalar:
            got = outcome(
                lambda: verify_windows(
                    coeffs, plan, mode, tree, input_width=input_width,
                    windows=iter(windows), luts=luts, limit=limit,
                )
            )
        assert got == want
        # Agreement, mismatches and overflows all come from the lanes alone.
        assert scalar.call_count == 0

    def test_all_windows_order_matches_the_code_decoding(self):
        # Window c holds the K signed L-bit digits of c, tap 0 lowest.
        for num_taps in range(1, 7):
            for input_width in range(2, 12 // num_taps + 1):
                span = 1 << input_width
                want = []
                for code in range(1 << (num_taps * input_width)):
                    digits = [(code >> (input_width * k)) & (span - 1) for k in range(num_taps)]
                    want.append(tuple(d - span if d >= span // 2 else d for d in digits))
                assert list(all_windows(num_taps, input_width)) == want

    def test_all_windows_covers_the_space(self):
        windows = list(all_windows(2, 2))
        assert len(windows) == 16
        assert len(set(windows)) == 16
        assert all(-2 <= x <= 1 for w in windows for x in w)

    @settings(deadline=None, max_examples=40)
    @given(exhaustive_cases())
    @example(
        # A padded group of eight with entry 1 at 1023: windows (1,) and
        # (2,) are mismatches, and (3,) leaves the 12-bit accumulator.
        (coeff_set([1]), partition_taps(1, 8), PpgMode.STORED, AdderKind.CLA, 4,
         [[0, 1023] + [0] * 254], 3)
    )
    @example(
        # The most negative coefficients and samples, through byte-plane
        # reads (M = 8, padded) and gathers (M = 9).
        (coeff_set([-32768] * 2, 16), partition_taps(2, 8), PpgMode.MUX, AdderKind.CSA_TREE,
         7, None, 1)
    )
    @example(
        (coeff_set([-32768, 32767, -32768], 16), partition_taps(3, 9), PpgMode.STORED,
         AdderKind.RIPPLE, 4, None, 3)
    )
    def test_columns_tuples_and_window_loop_agree(self, case):
        coeffs, plan, mode, tree, input_width, luts, limit = case
        num_taps = len(coeffs)

        def lanes(windows):
            return verify_windows(
                coeffs, plan, mode, tree, input_width=input_width,
                windows=windows, luts=luts, limit=limit,
            )

        with mock.patch.object(engine, "_tuple_chunks", wraps=engine._tuple_chunks) as tuples:
            columns = outcome_at_window(lambda: lanes(all_windows(num_taps, input_width)))
            assert tuples.call_count == 0
            listed = outcome_at_window(lambda: lanes(list(all_windows(num_taps, input_width))))
            assert tuples.call_count == 1
        want = outcome_at_window(
            lambda: scalar_verify(
                coeffs, plan, mode, input_width, all_windows(num_taps, input_width), luts, limit
            )
        )
        assert columns == listed == want

    @settings(deadline=None, max_examples=60)
    @given(oracle_cases())
    @example((coeff_set([-32768] * 8, 16), partition_taps(8, 1), 24, [(-(2**23),) * 8]))
    @example(
        (coeff_set([32767] * 8, 16), partition_taps(8, 16), 24,
         [(2**23 - 1,) * 8, (-(2**23),) * 8])
    )
    def test_word_parallel_oracle_is_direct_fir_at_the_extremes(self, case):
        coeffs, plan, input_width, windows = case
        tables = engine._subset_tables(coeffs, plan)
        _, field = engine._lane_datapath(coeffs, plan, tables, input_width, AdderKind.CLA)
        size = engine._item_size(input_width)
        [(chunk, columns)] = engine._tuple_chunks(windows, coeffs, input_width)
        fields = engine._mac_fields(coeffs.values, columns, size, field)
        assert len(fields) == field * len(windows)
        got = [engine._item(fields, i, field) for i in range(len(windows))]
        assert got == [direct_fir(list(w)[::-1], coeffs)[-1] for w in windows]

    def test_all_windows_is_an_iterator(self):
        windows = all_windows(3, 2)
        assert iter(windows) is windows
        assert next(windows) == (0, 0, 0)
        assert next(windows) == (1, 0, 0)
        assert list(windows) == list(all_windows(3, 2))[2:]
        with pytest.raises(StopIteration):
            next(windows)

    def test_partly_consumed_all_windows_checks_the_rest(self):
        coeffs = coeff_set([3, -5, 7])
        plan = partition_taps(3, 2)
        luts = [list(build_lut(coeffs, g).entries) for g in plan.groups]
        luts[0][1] += 1  # read by every window whose tap 0 is odd and tap 1 even
        every = list(all_windows(3, 4))
        for taken in (1, 5, engine.LANES + 3):
            for tables in (None, luts):
                windows = all_windows(3, 4)
                for _ in range(taken):
                    next(windows)
                got = verify_windows(
                    coeffs, plan, PpgMode.STORED, input_width=4,
                    windows=windows, luts=tables, limit=3,
                )
                want = scalar_verify(
                    coeffs, plan, PpgMode.STORED, 4, every[taken:], tables, limit=3
                )
                assert got == want
                if tables is None:
                    assert got == (len(every) - taken, [])

    def test_all_windows_of_another_shape_takes_the_tuple_route(self):
        # K or L unlike the filter's: the same outcome as the same windows
        # in a list. Windows of another K are refused by their length.
        coeffs = coeff_set([3, -5])
        plan = partition_taps(2, 2)

        def outcome(call):
            try:
                return call()
            except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
                return repr(exc)

        wants = {
            (2, 3): (64, []),
            (2, 5): repr(ValueError("sample 8 outside signed 4-bit range [-8, 7]")),
            (3, 4): repr(ValueError("delay line has 3 entries, expected 2")),
            (1, 4): repr(ValueError("delay line has 1 entries, expected 2")),
        }
        for (num_taps, width), want in wants.items():
            with mock.patch.object(engine, "_tuple_chunks", wraps=engine._tuple_chunks) as tuples:
                got = outcome(
                    lambda: verify_windows(
                        coeffs, plan, PpgMode.STORED, input_width=4,
                        windows=all_windows(num_taps, width),
                    )
                )
                assert tuples.call_count == 1
            listed = outcome(
                lambda: verify_windows(
                    coeffs, plan, PpgMode.STORED, input_width=4,
                    windows=list(all_windows(num_taps, width)),
                )
            )
            assert got == listed == want, (num_taps, width)

    def test_column_route_takes_the_windows(self):
        windows = all_windows(2, 4)
        coeffs = coeff_set([3, -5])
        assert verify_windows(
            coeffs, partition_taps(2, 1), PpgMode.MUX, input_width=4, windows=windows
        ) == (256, [])
        assert list(windows) == []


@st.composite
def streaming_cases(draw):
    """Filter shapes across group sizes, padding and input widths, plus an op script."""
    num_taps = draw(st.integers(1, 20))
    group_size = draw(st.integers(1, 16))
    input_width = draw(st.integers(2, 20))
    coeff_width = draw(st.integers(2, 16))
    bound = 1 << (coeff_width - 1)
    taps = draw(
        st.lists(st.integers(-bound, bound - 1), min_size=num_taps, max_size=num_taps)
    )
    half = 1 << (input_width - 1)
    sample = st.integers(-half, half - 1)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("push"), sample),
                st.tuples(st.just("traced"), sample),
                st.just(("reset", None)),
            ),
            min_size=1,
            max_size=30,
        )
    )
    # The most negative sample sets only the sign bit, read on the subtracted cycle.
    ops.insert(draw(st.integers(0, len(ops))), ("push", -half))
    mode = draw(st.sampled_from(PpgMode))
    return coeff_set(taps, coeff_width), group_size, input_width, mode, ops


class TestSchedule:
    """The one bit-serial schedule on spread address words."""

    @settings(deadline=None, max_examples=60)
    @given(streaming_cases())
    @example(
        (
            coeff_set([(-1) ** k * (1000 * k + 7) for k in range(20)], 16),
            16,
            20,
            PpgMode.STORED,
            [("push", -(1 << 19)), ("traced", (1 << 19) - 1), ("reset", None),
             ("traced", -(1 << 19)), ("push", 12345)],
        )
    )
    @example(
        (
            coeff_set([3, -5], 8),
            16,
            9,
            PpgMode.MUX,
            [("traced", -256), ("push", 255), ("traced", -1), ("reset", None), ("push", -256)],
        )
    )
    def test_streaming_mix_matches_direct_form(self, case):
        coeffs, group_size, input_width, mode, ops = case
        plan = partition_taps(len(coeffs), group_size)
        filt = DaFilter(coeffs, plan, mode, input_width=input_width)
        oracle = DirectFormFir(coeffs)
        for op, x in ops:
            if op == "reset":
                filt.reset()
                oracle = DirectFormFir(coeffs)
            elif op == "push":
                assert filt.push(x) == oracle.push(x)
            else:
                value, trace = filt.push_traced(x)
                assert value == oracle.push(x)
                assert len(trace) == input_width
                assert trace[-1].acc_after == value
                assert all(len(r.addresses) == plan.num_groups for r in trace)
                assert all(0 <= a < 1 << group_size for r in trace for a in r.addresses)

    @pytest.mark.parametrize("group_size", [1, 3, 8, 9, 16])
    def test_mux_and_derived_stored_push_traced_agree(self, group_size):
        rng = random.Random(group_size)
        coeffs = coeff_set([rng.randint(-128, 127) for _ in range(17)])
        plan = partition_taps(17, group_size)
        samples = [rng.choice((-128, 127, -1, 0, rng.randint(-128, 127))) for _ in range(40)]
        stored = DaFilter(coeffs, plan, PpgMode.STORED, input_width=8)
        mux = DaFilter(coeffs, plan, PpgMode.MUX, input_width=8)
        want = direct_fir(samples, coeffs)
        for x, y in zip(samples, want):
            got = mux.push_traced(x)
            assert got == stored.push_traced(x)
            assert got[0] == y

    @pytest.mark.parametrize("group_size", [4, 16])
    def test_mux_construction_and_blocks_form_no_table_above_256_entries(self, group_size):
        coeffs = coeff_set([(-1) ** k * (5 * k + 3) for k in range(20)])
        plan = partition_taps(20, group_size)
        stream = [(-1) ** i * (37 * i % 128) for i in range(1500)]
        want = direct_fir(stream, coeffs)
        with mock.patch.object(engine, "_subset_sums", wraps=engine._subset_sums) as subset_sums:
            filt = DaFilter(coeffs, plan, PpgMode.MUX, input_width=8)
            assert filt.process(stream[:700]) == want[:700]
            assert list(chain.from_iterable(filt.blocks(stream[700:]))) == want[700:]
        assert subset_sums.call_count > 0
        assert max(len(args[1]) for args, _ in subset_sums.call_args_list) <= 8

    def test_addresses_match_address_for_cycle(self):
        rng = random.Random(3)
        coeffs = coeff_set([rng.randint(-128, 127) for _ in range(7)])
        plan = partition_taps(7, 3)
        for mode in PpgMode:
            window = [rng.randint(-512, 511) for _ in range(7)]
            _, trace = da_inner_product(window, coeffs, plan, mode, input_width=10)
            for r in trace:
                assert r.addresses == address_for_cycle(window, plan, r.cycle)

    def test_garbage_at_padding_addresses_is_never_read(self):
        # Group (4, None): addresses with bit 1 set select the padding slot,
        # which no sample can drive, so those entries may hold anything.
        rng = random.Random(29)
        coeffs = coeff_set([rng.randint(-128, 127) for _ in range(5)])
        plan = partition_taps(5, 2)
        clean = [build_lut(coeffs, g).entries for g in plan.groups]
        dirty = [list(t) for t in clean]
        dirty[2][2], dirty[2][3] = 255, -256
        samples = [rng.randint(-128, 127) for _ in range(40)] + [-128, -1]
        a = DaFilter(coeffs, plan, input_width=8, luts=clean)
        b = DaFilter(coeffs, plan, input_width=8, luts=dirty)
        for i, x in enumerate(samples):
            if i % 3:
                assert a.push(x) == b.push(x)
            else:
                assert a.push_traced(x) == b.push_traced(x)
        want = direct_fir(samples, coeffs)
        assert DaFilter(coeffs, plan, input_width=8, luts=dirty).process(samples) == want

    @pytest.mark.parametrize(
        "groups, padded",
        [
            (((0, 2), (1, 3)), 0),
            (((3, None, 0), (4, 1, 2)), 1),
        ],
    )
    def test_non_consecutive_plan_from_design_file(self, groups, padded):
        num_taps = len(groups) * len(groups[0]) - padded
        group_size = len(groups[0])
        rng = random.Random(num_taps)
        coeffs = coeff_set([rng.randint(-128, 127) for _ in range(num_taps)])
        for mode in PpgMode:
            data = DesignFile.create(
                ArchConfig(num_taps, 8, 3, group_size, mode), coeffs
            ).to_dict()
            data["plan"]["groups"] = [list(g) for g in groups]
            if mode is PpgMode.STORED:
                data["luts"] = [list(build_lut(coeffs, g).entries) for g in groups]
                # Entries whose address sets a padding bit are never read.
                for g, table in zip(groups, data["luts"]):
                    for j in (j for j, idx in enumerate(g) if idx is None):
                        for a in range(len(table)):
                            if a >> j & 1:
                                table[a] = 255 - a
            design = DesignFile.from_dict(data)
            assert design.plan.groups == groups
            samples = [rng.randint(-4, 3) for _ in range(30)] + [-4, -4, -4]
            filt = design.filter()
            results = [filt.push_traced(x) for x in samples]
            got = [y for y, _ in results]
            assert got == direct_fir(samples, coeffs)
            assert [t[-1].acc_after for _, t in results] == got
            checked, mismatches = verify_windows(
                coeffs, design.plan, mode, input_width=3,
                windows=all_windows(num_taps, 3), luts=design.luts,
            )
            assert checked == 1 << (3 * num_taps) and mismatches == []

    def test_accumulator_overflow_raises(self):
        # One tap in a padded group of four: entries may reach 2^9 - 1, but
        # the accumulator is sized for one 8-bit coefficient, 2^11.
        coeffs = coeff_set([1])
        plan = partition_taps(1, 4)
        luts = [[0, 511] + [0] * 14]
        for collect in (False, True):
            with pytest.raises(AccumulatorOverflow):
                da_inner_product(
                    [7], coeffs, plan, input_width=4, luts=luts, collect_trace=collect
                )
        filt = DaFilter(coeffs, plan, input_width=4, luts=luts)
        assert filt.push(1) == 511
        with pytest.raises(AccumulatorOverflow):
            filt.push(7)
        with pytest.raises(AccumulatorOverflow):
            filt.push_traced(7)

    def test_single_window_calls_bind_the_schedule_once(self):
        engine._bound_schedule.cache_clear()
        coeffs = coeff_set([7, -3, 11, 5, -9], 6)
        plan = partition_taps(5, 2)
        luts = check_tables([build_lut(coeffs, g).entries for g in plan.groups], plan, 6)
        windows = [(1, -2, 3, -4, 5), (-8, 7, 0, -1, 2), (7, 7, -8, -8, 0)]
        for mode, tables in ((PpgMode.STORED, None), (PpgMode.STORED, luts), (PpgMode.MUX, None)):
            with mock.patch.object(
                engine, "_schedule", wraps=engine._schedule
            ) as schedule, mock.patch.object(
                engine, "_subset_sums", wraps=engine._subset_sums
            ) as subset_sums, mock.patch.object(
                engine, "_window_reads", wraps=engine._window_reads
            ) as reads:
                got = [
                    da_inner_product(w, coeffs, plan, mode, input_width=4, luts=tables)
                    for w in windows * 3
                ]
            assert schedule.call_count == 1
            assert reads.call_count == 1
            # subset sums, stored or mux, are built on the first call only, one per group
            assert subset_sums.call_count == (plan.num_groups if tables is None else 0)
            want = [direct_fir(w[::-1], coeffs)[-1] for w in windows * 3]
            assert [value for value, _ in got] == want
            assert got[:3] == got[3:6] == got[6:]
        # each tree kind has its own binding, whose gate-level adders are that kind's
        kinds = []
        real = engine._tree_planes

        def spy(operands, kind, mask, block):
            kinds.append(kind)
            return real(operands, kind, mask, block)

        with mock.patch.object(engine, "_tree_planes", spy), mock.patch.object(
            engine, "_schedule", wraps=engine._schedule
        ) as schedule, mock.patch.object(
            engine, "_subset_sums", wraps=engine._subset_sums
        ) as subset_sums, mock.patch.object(
            engine, "_window_reads", wraps=engine._window_reads
        ) as reads:
            for tree in AdderKind:
                for _ in range(2):
                    kinds.clear()
                    value, _ = da_inner_product(
                        windows[0], coeffs, plan, PpgMode.MUX, tree,
                        input_width=4, collect_trace=False, bit_level=True,
                    )
                    assert value == want[0] and set(kinds) == {tree}
        assert schedule.call_count == len(AdderKind)
        assert subset_sums.call_count == len(AdderKind) * plan.num_groups
        # the schedule and the gates share one read of each window's tables
        assert reads.call_count == len(AdderKind)

    def test_checked_tables_pass_again_only_for_their_shape(self):
        plan = partition_taps(2, 2)
        tables = check_tables([[0, 5, 6, 11]], plan, 8)
        assert tables == ((0, 5, 6, 11),)
        assert check_tables(tables, plan, 8) is tables
        with pytest.raises(ValueError, match="table 0 entry 11 cannot be a sum of 2 coeff"):
            check_tables(tables, plan, 3)
        with pytest.raises(ValueError, match="need exactly one table per group"):
            check_tables(tables, partition_taps(4, 2), 8)

    def test_design_file_and_engine_share_table_checks(self):
        coeffs = coeff_set([5, 6])
        plan = partition_taps(2, 2)
        bad = [[0, 5, 6, 1 << 12]]
        data = DesignFile.create(ArchConfig(2, 8, 8, 2), coeffs).to_dict()
        data["luts"] = bad
        with pytest.raises(DesignError) as from_file:
            DesignFile.from_dict(data)
        with pytest.raises(ValueError) as from_engine:
            DaFilter(coeffs, plan, input_width=8, luts=bad)
        assert str(from_file.value) == str(from_engine.value)
        assert "table 0 entry 4096 cannot be a sum" in str(from_engine.value)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda coeffs, plan, mode, luts: DaFilter(coeffs, plan, mode, input_width=4, luts=luts),
            lambda coeffs, plan, mode, luts: da_inner_product(
                (1, 0), coeffs, plan, mode, input_width=4, luts=luts
            ),
            lambda coeffs, plan, mode, luts: verify_windows(
                coeffs, plan, mode, input_width=4, windows=all_windows(2, 4), luts=luts
            ),
        ],
        ids=["DaFilter", "da_inner_product", "verify_windows"],
    )
    def test_mux_refuses_stored_tables(self, entry):
        # Stored mode reads the edited entries; mux mode must not drop them silently.
        coeffs = coeff_set([3, 5])
        plan = partition_taps(2, 2)
        luts = [[0, 99, 99, 99]]
        entry(coeffs, plan, PpgMode.STORED, luts)
        with pytest.raises(ValueError, match="a mux filter cannot read them"):
            entry(coeffs, plan, PpgMode.MUX, luts)
        entry(coeffs, plan, PpgMode.MUX, None)


def every_evaluator(coeffs, plan, mode, tree=AdderKind.CLA, luts=None, window=None):
    """Calls of each evaluator on the same filter, which must each raise the same error."""
    window = tuple(range(len(coeffs))) if window is None else window
    return {
        "DaFilter": lambda: DaFilter(coeffs, plan, mode, input_width=4, luts=luts).process([1]),
        "da_inner_product": lambda: da_inner_product(
            window, coeffs, plan, mode, tree, input_width=4, luts=luts, bit_level=True
        ),
        "verify_windows columns": lambda: verify_windows(
            coeffs, plan, mode, tree, input_width=4, windows=all_windows(len(coeffs), 4),
            luts=luts,
        ),
        "verify_windows tuples": lambda: verify_windows(
            coeffs, plan, mode, tree, input_width=4, windows=[window], luts=luts
        ),
    }


class TestArgumentChecks:
    def test_a_plan_of_fewer_taps_is_refused_by_every_evaluator(self):
        # verify_windows used to check three taps on a plan of two: a false
        # Mismatch((0, 0, 1), 0, 7). The plan error comes before the window's.
        coeffs = coeff_set([3, 5, 7])
        for mode, window in product(PpgMode, [None, (1,)]):
            for call in every_evaluator(coeffs, partition_taps(2, 2), mode, window=window).values():
                with pytest.raises(ValueError, match="^plan covers 2 taps but the filter has 3$"):
                    call()

    def test_a_plan_of_more_taps_is_refused_by_every_evaluator(self):
        # verify_windows used to raise a bare IndexError building its tables.
        coeffs = coeff_set([3, 5, 7])
        plan = partition_taps(4, 2)
        luts = [list(build_lut(coeffs, g[: 3 - 2 * i]).entries) for i, g in enumerate(plan.groups)]
        for mode, tables in ((PpgMode.STORED, None), (PpgMode.STORED, luts), (PpgMode.MUX, None)):
            for call in every_evaluator(coeffs, plan, mode, luts=tables).values():
                with pytest.raises(ValueError, match="^plan covers 4 taps but the filter has 3$"):
                    call()

    def test_a_tree_that_is_not_an_adder_kind_is_refused(self):
        # "ripple" and None used to run, and be costed, as a cla; da_inner_product
        # with bit_level skipped the gates for None.
        coeffs = coeff_set([3, 5])
        plan = partition_taps(2, 2)
        for tree in ("ripple", None, "cla"):
            for name, call in every_evaluator(coeffs, plan, PpgMode.MUX, tree).items():
                if name == "DaFilter":
                    continue  # reads no tree
                with pytest.raises(TypeError, match="must be an AdderKind, not " + repr(tree)):
                    call()
        with pytest.raises(TypeError, match="must be an AdderKind, not 'cla'"):
            da_inner_product((1, 2), coeffs, plan, tree="cla", input_width=4)

    def test_a_mode_that_is_not_a_ppg_mode_is_refused(self):
        # DaFilter(c, p, "mux") used to run, and "stored" with tables was
        # refused as if it were mux mode.
        coeffs = coeff_set([3, 5])
        plan = partition_taps(2, 2)
        luts = [list(build_lut(coeffs, plan.groups[0]).entries)]
        for mode, tables in (("mux", None), ("stored", None), ("stored", luts), (None, None)):
            for call in every_evaluator(coeffs, plan, mode, luts=tables).values():
                with pytest.raises(TypeError, match="^ppg_mode must be a PpgMode, not "):
                    call()

    def test_a_verify_limit_below_one_is_refused(self):
        # 0 and -1 used to act as 1.
        coeffs = coeff_set([3, 5])
        plan = partition_taps(2, 2)
        for limit in (0, -1):
            with pytest.raises(ValueError, match=f"^limit must be at least 1, not {limit}$"):
                verify_windows(
                    coeffs, plan, PpgMode.STORED, input_width=3, windows=all_windows(2, 3),
                    luts=[[0, 3, 5, 9]], limit=limit,
                )
        assert verify_windows(
            coeffs, plan, PpgMode.STORED, input_width=3, windows=all_windows(2, 3),
            luts=[[0, 3, 5, 9]], limit=1,
        )[1] == [engine.Mismatch((1, 1), 9, 8)]

    def test_verify_refuses_a_width_no_sample_has_on_either_route(self):
        # all_windows(2, 1) used to be read as columns at a 1-bit width.
        coeffs = coeff_set([3, 5])
        for windows in (all_windows(2, 1), [(0, 0)], []):
            with pytest.raises(ValueError, match=r"^width must be in \[2, 64\], got 1$"):
                verify_windows(
                    coeffs, partition_taps(2, 2), PpgMode.STORED, input_width=1, windows=windows
                )


def stream_outcome(outputs):
    """Outputs taken from an iterable until it raises; the outputs and the error, if any."""
    got = []
    try:
        for y in outputs:
            got.append(y)
    except (AccumulatorOverflow, TypeError, ValueError) as exc:
        return got, type(exc), str(exc)
    return got, None, None


def pushed(filt, samples):
    """``filt.push`` over ``samples``, one at a time, stopping at the first error."""
    return (filt.push(x) for x in samples)


def traced_pushed(filt, samples):
    """``filt.push_traced`` over ``samples``: (output, records) pairs, up to the first error."""
    return (filt.push_traced(x) for x in samples)


def traced_blocked(filt, samples, sizes):
    """``filt.traced_blocks`` over ``samples`` as (output, records) pairs, as ``push_traced``.

    A record's addresses are cut from its reads' keys: a pack's r-th group
    (M <= 8) at key bits M·r up, or a group's own key (M > 8). Its
    partials are the filter's table entries at those addresses.
    """
    last = filt.input_format.width - 1
    tables = filt.tables()
    group_size, groups = filt.plan.group_size, filt.plan.num_groups
    per_read = 8 // group_size if group_size <= 8 else 1
    mask = (1 << group_size) - 1
    for block in filt.traced_blocks(samples):
        sizes.append(len(block.outputs))
        assert len(block.addresses) == -(-groups // per_read)
        count, kept = len(block.outputs), (*block.addresses, block.sums, block.acc)
        # cycle n's entries of every output: each read's keys, sums, acc
        starts = [n * block.stride for n in range(last + 1)]
        cycles = [[c[start : start + count] for c in kept] for start in starts]
        # a block cut short by an error holds its earlier outputs' records only
        assert {len(column) for columns in cycles for column in columns} == {len(block.outputs)}
        for i, y in enumerate(block.outputs):
            records = []
            for n, (*keys, sums, acc) in enumerate(cycles):
                addresses = tuple(
                    keys[g // per_read][i] >> (group_size * (g % per_read)) & mask
                    for g in range(groups)
                )
                partials = tuple(t[a] for t, a in zip(tables, addresses))
                records.append(CycleRecord(n, addresses, partials, sums[i], n, n == last, acc[i]))
            yield y, tuple(records)


def first_difference(got, want):
    """The first line two texts differ on, as (line number, got, want), or None.

    A short failure message where a whole-text diff of megabytes would
    take minutes.
    """
    pairs = zip_longest(got.splitlines(True), want.splitlines(True))
    return next(((n, g, w) for n, (g, w) in enumerate(pairs) if g != w), None)


def json_record(index, rec):
    """The JSONL line of one cycle record: json.dumps of its dict."""
    fields = {
        "sample_index": index,
        "cycle": rec.cycle,
        "addresses": list(rec.addresses),
        "partials": list(rec.partials),
        "tree_sum": rec.tree_sum,
        "subtract": rec.subtract,
        "acc": rec.acc_after,
    }
    return json.dumps(fields) + "\n"


def blocked(filt, samples, sizes):
    """``filt.blocks`` over ``samples``, flattened, recording each block's size."""
    for block in filt.blocks(samples):
        sizes.append(len(block))
        yield from block


@st.composite
def block_cases(draw):
    """Streams across block boundaries: consecutive, padded and shuffled plans, edited tables.

    Few taps in large groups leave the accumulator narrower than the
    entries allow, so extreme edits at the address every real member
    selects can overflow it. K < 8, small groups and padded last groups
    are drawn often, so sliding keys narrower than a byte (short last
    packs, padded groups, halves of fewer than 8 taps) are too.
    """
    num_taps = draw(st.one_of(st.integers(1, 3), st.integers(1, 8), st.integers(1, 64)))
    group_size = draw(st.one_of(st.integers(1, 4), st.integers(1, 16)))
    input_width = draw(st.integers(2, 20))
    coeff_width = draw(st.integers(2, 16))
    bound = 1 << (coeff_width - 1)
    values = draw(
        st.lists(st.integers(-bound, bound - 1), min_size=num_taps, max_size=num_taps)
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    pads = -num_taps % group_size
    if draw(st.booleans()):
        plan = partition_taps(num_taps, group_size)
    else:
        slots = list(range(num_taps)) + [None] * pads
        rng.shuffle(slots)
        groups = [slots[i : i + group_size] for i in range(0, len(slots), group_size)]
        plan = PartitionPlan(group_size, tuple(map(tuple, groups)), pads)
    mode = draw(st.sampled_from(list(PpgMode)))
    coeffs = coeff_set(values, coeff_width)
    luts = None
    if mode is PpgMode.STORED and rng.random() < 0.6:
        luts = [list(build_lut(coeffs, g).entries) for g in plan.groups]
        top = 1 << (partial_product_width(coeff_width, group_size) - 1)
        for _ in range(rng.randint(1, 4)):
            g = rng.randrange(plan.num_groups)
            everyone = sum(1 << j for j, k in enumerate(plan.groups[g]) if k is not None)
            address = rng.choice((everyone, rng.randrange(1 << group_size)))
            luts[g][address] = rng.choice((-top, top - 1, rng.randint(-top, top - 1)))
    lanes = engine.LANES
    count = draw(st.sampled_from([1, 2, 37, lanes - 1, lanes, lanes + 1, 2 * lanes + 3]))
    lo, hi = -(1 << (input_width - 1)), (1 << (input_width - 1)) - 1
    samples = [rng.choice((lo, hi, -1, 0, rng.randint(lo, hi))) for _ in range(count)]
    if rng.random() < 0.3:
        samples.insert(rng.randrange(count + 1), rng.choice((2.5, True, hi + 1, lo - 1)))
    more = [rng.randint(lo, hi) for _ in range(3)]
    return coeffs, plan, mode, input_width, luts, samples, more


def edited_luts(coeffs, plan, edits):
    """The derived tables with ``edits``, (group, address, value) triples, written in."""
    luts = [list(build_lut(coeffs, g).entries) for g in plan.groups]
    for g, address, value in edits:
        luts[g][address] = value
    return luts


@st.composite
def route_cases(draw):
    """Streams on every read route of blocks: packs, splits and gathers.

    M <= 4 reads packs of ⌊8/M⌋ groups (M = 3 with a short last pack when
    its group count is odd); above 8, a separable table is read as its two
    address bytes' halves and any other one is gathered. Stored tables are
    derived, separable without being derived (any halves whose sums stay
    in bound), or derived with single edits at address 0, at 256h, at
    l < 256 or at 256h + l. Few taps in large groups leave the accumulator
    narrower than the entries allow, so large entries can overflow it.
    """
    group_size = draw(st.sampled_from([1, 2, 3, 4, *range(9, 17)]))
    num_taps = draw(st.one_of(st.integers(1, 3), st.integers(min(group_size, 9), 40)))
    input_width = draw(st.integers(2, 16))
    coeff_width = draw(st.integers(2, 16))
    bound = 1 << (coeff_width - 1)
    values = draw(
        st.lists(st.integers(-bound, bound - 1), min_size=num_taps, max_size=num_taps)
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    coeffs = coeff_set(values, coeff_width)
    plan = partition_taps(num_taps, group_size)
    mode, kind = draw(
        st.sampled_from(
            [
                (PpgMode.STORED, "edited"),
                (PpgMode.STORED, "separable"),
                (PpgMode.STORED, "derived"),
                (PpgMode.MUX, "derived"),
            ]
        )
    )
    luts = None
    if kind != "derived":
        top = 1 << (partial_product_width(coeff_width, group_size) - 1)
        size = 1 << group_size
        luts = [list(build_lut(coeffs, g).entries) for g in plan.groups]
    if kind == "separable" and group_size > 8:
        for g in range(plan.num_groups):
            # low in [-a, a - 1] and high in [a - top, top - a - 1] sum within the bound
            a = rng.randint(1, top - 1)
            low = [0] + [rng.choice((-a, a - 1, rng.randint(-a, a - 1))) for _ in range(255)]
            high = [0] + [
                rng.choice((a - top, top - a - 1, rng.randint(a - top, top - a - 1)))
                for _ in range(size // 256 - 1)
            ]
            luts[g] = [h + v for h in high for v in low]
    elif kind != "derived":
        for _ in range(rng.randint(1, 2)):
            # Edits where every real member's bit is set are read often.
            g = rng.randrange(plan.num_groups)
            everyone = sum(1 << j for j, k in enumerate(plan.groups[g]) if k is not None)
            low = rng.choice((everyone, rng.randrange(1, size))) & 255 or 1
            high = rng.choice((everyone, rng.randrange(size))) & (size - 256 if size > 256 else 0)
            address = rng.choice((0, high, low, high + low))
            luts[g][address] = rng.choice((-top, top - 1, rng.randint(-top, top - 1)))
    count = draw(st.sampled_from([37, engine.LANES + 1, 2 * engine.LANES + 3, 1]))
    lo, hi = -(1 << (input_width - 1)), (1 << (input_width - 1)) - 1
    samples = [rng.choice((lo, hi, -1, 0, rng.randint(lo, hi))) for _ in range(count)]
    return coeffs, plan, mode, input_width, luts, samples


class TestBlocks:
    """Block evaluation: LANES outputs at a time, equal to push and to direct_fir."""

    @settings(deadline=None, max_examples=60)
    @given(block_cases())
    @example(  # wide fields, byte-plane reads: tree width + L = 132 bits
        (coeff_set([(-1) ** k * ((1 << 63) - 1 - k) for k in range(9)], 64),
         partition_taps(9, 8), PpgMode.STORED, 64, None,
         [-(1 << 63), (1 << 63) - 1, -1, 0, 12345] * 230, [-(1 << 63)] * 3)
    )
    @example(  # wide fields, gathered reads: tree width + L = 132 bits
        (coeff_set([-(1 << 63), (1 << 63) - 1, 5, -7, 3], 64),
         partition_taps(5, 16), PpgMode.MUX, 64, None,
         [-(1 << 63), (1 << 63) - 1, -1, 0, 12345] * 210, [(1 << 63) - 1] * 3)
    )
    @example(  # tight fields: tree width + L = 17 bits, and (-256) * (-128) needs them all
        (coeff_set([-256], 9), partition_taps(1, 1), PpgMode.STORED, 8, None,
         [-128, 127, -1] * 400, [-128])
    )
    @example(  # an overflow in the second block, on the CLI tests' overflow design
        (coeff_set([5]), partition_taps(1, 4), PpgMode.STORED, 4, [[0, 511] + [0] * 14],
         [1] * 1500 + [7] + [1] * 10, [1, 7, 1])
    )
    @example(  # K < 8: one pack of a full group and a padded one, a 5-bit sliding key
        (coeff_set([-128, 127, -1, 77, -55]), partition_taps(5, 3), PpgMode.STORED, 8, None,
         [-128, 127, -1, 0, 85] * 300, [-128, 127, 1])
    )
    @example(  # a short last pack of one padded group among packs of 8 taps: keys of 8 and 1
        (coeff_set(list(range(-9, 8))), partition_taps(17, 2), PpgMode.MUX, 6, None,
         [-32, 31, -1, 0, 21] * 300, [-32, 31, 1])
    )
    @example(  # a padded group of 16: a low half of 3 taps and a high half of none
        (coeff_set([100, -77, 5], 8), partition_taps(3, 16), PpgMode.STORED, 8,
         edited_luts(coeff_set([100, -77, 5], 8), partition_taps(3, 16), [(0, 7, 127)]),
         [-128, 127, -1, 0, 85] * 300, [-1, -1, -1])
    )
    @example(  # a shuffled plan at K < 8 with a padding slot inside a pack's key
        (coeff_set([3, -5, 7, -11, 13], 6), PartitionPlan(2, ((4, 1), (None, 0), (2, 3)), 1),
         PpgMode.STORED, 7, None, [-64, 63, -1, 0, 42] * 300, [-64, 63, 1])
    )
    def test_blocks_equal_push_and_direct_fir(self, case):
        coeffs, plan, mode, input_width, luts, samples, more = case
        block = DaFilter(coeffs, plan, mode, input_width=input_width, luts=luts)
        scalar = DaFilter(coeffs, plan, mode, input_width=input_width, luts=luts)
        sizes = []
        got = stream_outcome(blocked(block, samples, sizes))
        want = stream_outcome(pushed(scalar, samples))
        assert got == want
        assert all(0 < size <= engine.LANES for size in sizes)
        if want[1] is None and luts is None:
            assert got[0] == direct_fir(samples, coeffs)
        # push goes on from the delay line blocks (and process) left, as from push's
        tail = stream_outcome(pushed(scalar, more))
        assert stream_outcome(pushed(block, more)) == tail
        if want[1] is None:
            processed = DaFilter(coeffs, plan, mode, input_width=input_width, luts=luts)
            assert processed.process(samples) == want[0]
            assert stream_outcome(pushed(processed, more)) == tail

    @settings(deadline=None, max_examples=40)
    @given(block_cases())
    @example(  # wide fields, byte-plane reads: tree width + L = 132 bits
        (coeff_set([(-1) ** k * ((1 << 63) - 1 - k) for k in range(9)], 64),
         partition_taps(9, 8), PpgMode.STORED, 64, None,
         [-(1 << 63), (1 << 63) - 1, -1, 0, 12345] * 230, [-(1 << 63)] * 3)
    )
    @example(  # wide fields, gathered reads: tree width + L = 132 bits
        (coeff_set([-(1 << 63), (1 << 63) - 1, 5, -7, 3], 64),
         partition_taps(5, 16), PpgMode.MUX, 64, None,
         [-(1 << 63), (1 << 63) - 1, -1, 0, 12345] * 210, [(1 << 63) - 1] * 3)
    )
    @example(  # an overflow in the second block, on the CLI tests' overflow design
        (coeff_set([5]), partition_taps(1, 4), PpgMode.STORED, 4, [[0, 511] + [0] * 14],
         [1] * 1500 + [7] + [1] * 10, [1, 7, 1])
    )
    def test_traced_blocks_equal_push_traced_and_direct_fir(self, case):
        coeffs, plan, mode, input_width, luts, samples, more = case
        block = DaFilter(coeffs, plan, mode, input_width=input_width, luts=luts)
        scalar = DaFilter(coeffs, plan, mode, input_width=input_width, luts=luts)
        sizes = []
        got = stream_outcome(traced_blocked(block, samples, sizes))
        want = stream_outcome(traced_pushed(scalar, samples))
        assert got == want
        assert all(0 < size <= engine.LANES for size in sizes)
        if want[1] is None and luts is None:
            assert [y for y, _ in got[0]] == direct_fir(samples, coeffs)
        # push_traced goes on from the delay line traced blocks left
        tail = stream_outcome(traced_pushed(scalar, more))
        assert stream_outcome(traced_pushed(block, more)) == tail

    @settings(deadline=None, max_examples=40)
    @given(block_cases())
    @example(  # M = 8: one group to a pack, keys of every byte value
        (coeff_set([-128, 127, -1, 5, 100, -77, 3, 64, 9], 8), partition_taps(9, 8),
         PpgMode.STORED, 8, None, [-128, 127, -1, 0, 85, -86] * 180, [1])
    )
    @example(  # M = 3: packs of two groups, the last pack one group
        (coeff_set(list(range(-7, 8))), partition_taps(15, 3), PpgMode.MUX, 5, None,
         [-16, 15, -1, 0, 7] * 300, [1])
    )
    @example(  # M = 16: a %d slot per group, looked up in the tables at its address
        (coeff_set([-(1 << 63), (1 << 63) - 1, 5, -7, 3], 64),
         partition_taps(5, 16), PpgMode.MUX, 64, None,
         [-(1 << 63), (1 << 63) - 1, -1, 0, 12345] * 210, [1])
    )
    @example(  # the edited entry 511 is read, and overflows, in the second block
        (coeff_set([5]), partition_taps(1, 4), PpgMode.STORED, 4, [[0, 511] + [0] * 14],
         [1] * 1500 + [7] + [1] * 10, [1])
    )
    @example(  # M = 12, three groups, one edited: each partial slot reads its own group's table
        (coeff_set([(-1) ** k * (k + 90) for k in range(30)]), partition_taps(30, 12),
         PpgMode.STORED, 8, edited_luts(coeff_set([(-1) ** k * (k + 90) for k in range(30)]),
                                        partition_taps(30, 12), [(1, 300, 7)]),
         [-128, 127, -1, 0, 85, -86] * 180, [1])
    )
    def test_trace_writer_writes_push_traced_records(self, case):
        """The CLI's trace writer writes what json.dumps of push_traced's records writes."""
        coeffs, plan, mode, input_width, luts, samples, _ = case
        filt = DaFilter(coeffs, plan, mode, input_width=input_width, luts=luts)
        scalar = DaFilter(coeffs, plan, mode, input_width=input_width, luts=luts)
        tables = luts or [build_lut(coeffs, g).entries for g in plan.groups]
        assert list(map(list, filt.tables())) == list(map(list, tables))
        out, trace = io.StringIO(), io.BytesIO()
        try:
            cli._write_traced(out, trace, filt, samples)
            error = None, None
        except (AccumulatorOverflow, TypeError, ValueError) as exc:
            error = type(exc), str(exc)
        pairs, *want_error = stream_outcome(traced_pushed(scalar, samples))
        assert error == tuple(want_error)
        want = "".join(f"{y}\n" for y, _ in pairs)
        assert first_difference(out.getvalue(), want) is None
        want = "".join(
            json_record(i, rec) for i, (_, records) in enumerate(pairs) for rec in records
        )
        assert first_difference(trace.getvalue().decode(), want) is None
        if error == (None, None) and luts is None:
            assert [y for y, _ in pairs] == direct_fir(samples, coeffs)

    @settings(deadline=None, max_examples=60)
    @given(route_cases())
    @example(  # M = 9: a high half of 2 entries; the second group's holds no member
        (coeff_set([(-1) ** k * (k + 90) for k in range(12)]), partition_taps(12, 9),
         PpgMode.STORED, 8, None, [-128, 127, -1, 0, 85, -86] * 180)
    )
    @example(  # two halves of 16 bits sum to 17: the one-group tree's 2 bytes cannot hold it
        (coeff_set([2047 - 273 * k for k in range(16)], 12), partition_taps(16, 16),
         PpgMode.STORED, 10, None, [-512, 511, -1, 0, 341, -342] * 200)
    )
    @example(  # an edit in the low row breaks separability, read with the high byte set
        (coeff_set([(-1) ** k * (k + 90) for k in range(16)]), partition_taps(16, 16),
         PpgMode.STORED, 8, edited_luts(coeff_set([(-1) ** k * (k + 90) for k in range(16)]),
                                        partition_taps(16, 16), [(0, 255, 7)]),
         [-1] * 20 + [-128, 127, -1, 0, 85, -86] * 10)
    )
    @example(  # M = 3, five groups: packs of two, the last pack one group
        (coeff_set(list(range(-7, 8))), partition_taps(15, 3), PpgMode.MUX, 5, None,
         [-16, 15, -1, 0, 7] * 300)
    )
    def test_every_read_route_equals_push_and_direct_fir(self, case):
        coeffs, plan, mode, input_width, luts, samples = case
        block = DaFilter(coeffs, plan, mode, input_width=input_width, luts=luts)
        scalar = DaFilter(coeffs, plan, mode, input_width=input_width, luts=luts)
        sizes = []
        got = stream_outcome(blocked(block, samples, sizes))
        want = stream_outcome(pushed(scalar, samples))
        assert got == want
        if want[1] is None and luts is None:
            assert got[0] == direct_fir(samples, coeffs)

    @settings(deadline=None, max_examples=40)
    @given(route_cases())
    @example(  # M = 12, a separable table and an edited one: split and gather in one block
        (coeff_set([(-1) ** k * (k + 90) for k in range(24)]), partition_taps(24, 12),
         PpgMode.STORED, 8, edited_luts(coeff_set([(-1) ** k * (k + 90) for k in range(24)]),
                                        partition_taps(24, 12), [(1, 257, 7)]),
         [-1] * 20 + [-128, 127, -1, 0, 85, -86] * 200)
    )
    def test_every_read_route_traced_equals_push_traced(self, case):
        coeffs, plan, mode, input_width, luts, samples = case
        block = DaFilter(coeffs, plan, mode, input_width=input_width, luts=luts)
        scalar = DaFilter(coeffs, plan, mode, input_width=input_width, luts=luts)
        got = stream_outcome(traced_blocked(block, samples, []))
        assert got == stream_outcome(traced_pushed(scalar, samples))
        if got[1] is None and luts is None:
            assert [y for y, _ in got[0]] == direct_fir(samples, coeffs)

    def test_separable_tables_are_split_and_edited_ones_gathered(self, monkeypatch):
        coeffs = coeff_set([(-1) ** k * (100 + 7 * k) for k in range(20)], 16)
        plan = partition_taps(20, 16)
        derived = [list(build_lut(coeffs, g).entries) for g in plan.groups]
        splits = []  # whether each table _split tested splits
        routes = []  # (halves read, tables gathered) of each route bound
        split, block_reads = engine._split, engine._block_reads

        def split_spy(table):
            halves = split(table)
            splits.append(halves is not None)
            return halves

        def reads_spy(*args):
            route = block_reads(*args)
            routes.append((len(route[1]), len(route[2])))
            return route

        monkeypatch.setattr(engine, "_split", split_spy)
        monkeypatch.setattr(engine, "_block_reads", reads_spy)
        stream = [(-1) ** i * (37 * i % 128) for i in range(1500)]
        want = direct_fir(stream, coeffs)
        whole = mock.patch.object(
            engine._CheckedTables, "__getitem__", side_effect=AssertionError("whole tables")
        )
        for mode in PpgMode:
            # Subset sums are read as the subset sums of their low and high
            # members, traced or not, with no whole table formed or tested:
            # one route, bound on the first block, serves both.
            filt = DaFilter(coeffs, plan, mode, input_width=8)
            with whole:
                assert filt.process(stream) == want
                filt.reset()
                traced = list(filt.traced_blocks(stream))
            assert [y for block in traced for y in block.outputs] == want
            assert splits == [] and routes == [(4, 0)]
            routes.clear()
        # Checked tables are split once, by check_tables; a table edited at
        # one entry, in row 0 or a later one, is gathered.
        for address in (0, 77, 256 * 3, 256 * 5 + 9):
            luts = [list(t) for t in derived]
            luts[0][address] += 1
            luts = check_tables(luts, plan, 16)
            assert splits == [False, True]
            assert luts.parts == (None, (luts[1][:256], luts[1][::256]))
            filt = DaFilter(coeffs, plan, input_width=8, luts=luts)
            scalar = DaFilter(coeffs, plan, input_width=8, luts=luts)
            pushed_outputs = [scalar.push(x) for x in stream]
            assert filt.process(stream) == pushed_outputs
            filt.reset()
            assert [y for block in filt.traced_blocks(stream) for y in block.outputs] == (
                pushed_outputs
            )
            # The push-only filter binds no block reads.
            assert splits == [False, True] and routes == [(2, 1)]
            splits.clear()
            routes.clear()

    def test_consecutive_reads_slide_and_others_form_addresses(self, monkeypatch):
        """Consecutive reads make no address-former call, traced or not; the others make one."""
        formed = []  # each group or pack whose addresses the address former formed
        former = engine._address_former

        def spy(*args):
            addresses = former(*args)

            def counted(group):
                formed.append(tuple(group))
                return addresses(group)

            return counted

        monkeypatch.setattr(engine, "_address_former", spy)
        stream = [(-1) ** i * (37 * i % 128) for i in range(1500)]  # two blocks

        def formed_by(coeffs, plan, mode=PpgMode.STORED, luts=None, traced=False):
            formed.clear()
            filt = DaFilter(coeffs, plan, mode, input_width=8, luts=luts)
            scalar = DaFilter(coeffs, plan, mode, input_width=8, luts=luts)
            if traced:
                got = [y for block in filt.traced_blocks(stream) for y in block.outputs]
            else:
                got = filt.process(stream)
            assert got == [scalar.push(x) for x in stream]
            return len(formed)

        # Consecutive plans: K < 8, padded last groups, short last packs, halves.
        for num_taps, group_size in ((5, 3), (7, 2), (17, 2), (3, 16), (12, 9), (20, 4), (64, 1)):
            coeffs = coeff_set([(-1) ** k * (k + 3) for k in range(num_taps)])
            for mode in PpgMode:
                assert formed_by(coeffs, partition_taps(num_taps, group_size), mode) == 0
        coeffs = coeff_set([(-1) ** k * (5 * k + 3) for k in range(20)])
        # A shuffled plan's pack is formed on each block.
        shuffled = PartitionPlan(2, ((1, 0), (2, 3)), 0)
        assert formed_by(coeff_set([3, -5, 7, -11]), shuffled) == 2
        # A gathered table slides as the separable one does, at its two keys.
        plan = partition_taps(20, 16)
        luts = edited_luts(coeffs, plan, [(0, 257, 1)])
        assert formed_by(coeffs, plan, luts=luts) == 0
        # Traced blocks read what untraced ones read: consecutive packs slide,
        assert formed_by(coeffs, partition_taps(20, 4), traced=True) == 0
        # a shuffled plan's packs are formed on each block, one key a pack,
        reversed_groups = tuple(tuple(range(g + 3, g - 1, -1)) for g in range(0, 20, 4))
        assert formed_by(coeffs, PartitionPlan(4, reversed_groups, 0), traced=True) == 2 * 3
        # and M > 8 groups are read as untraced ones are, their key columns
        # joined from the sliding keys, gathered or not.
        assert formed_by(coeffs, partition_taps(20, 16), traced=True) == 0
        assert formed_by(coeffs, plan, luts=luts, traced=True) == 0
        # verify's lanes form only one-byte keys: an M = 16 group's low and high bytes.
        formed.clear()
        windows = [[(-1) ** (i + k) * (37 * (i + k) % 128) for k in range(20)] for i in range(50)]
        for tables in (None, luts):  # split, then one table gathered
            checked, _ = verify_windows(
                coeffs, plan, PpgMode.STORED, input_width=8, windows=windows, luts=tables
            )
            assert checked == 50
        assert len(formed) == 2 * 2 * 2
        assert all(0 <= j < 8 for key in formed for j, _ in key)

    @pytest.mark.parametrize("group_size", [9, 16])
    def test_table_range_is_checked_with_or_without_a_split(self, group_size):
        """check_tables names the first out-of-range entry, as it did before halves were kept."""
        plan = partition_taps(2 * group_size, group_size)
        size = 1 << group_size
        top = 1 << (partial_product_width(8, group_size) - 1)

        def separable(low_edits, high_edits):
            low, high = [0] * 256, [0] * (size // 256)
            for a, v in low_edits:
                low[a] = v
            for h, v in high_edits:
                high[h] = v
            return [h + v for h in high for v in low]

        def message(luts):
            with pytest.raises(ValueError) as raised:
                check_tables(luts, plan, 8)
            return str(raised.value)

        def out_of_range(table, v):
            return f"table {table} entry {v} cannot be a sum of {group_size} coefficients of 8 bits"

        zeros = [0] * size
        # Separable: the extremes are the halves' sums, at the bounds and one past them.
        edge = separable([(1, -(top // 2)), (2, top - 1)], [(1, -(top // 2))])
        assert check_tables([zeros, edge], plan, 8).parts[1] is not None
        below = separable([(1, -(top // 2) - 1), (2, top - 1)], [(1, -(top // 2))])
        assert message([zeros, below]) == out_of_range(1, -top - 1)
        above = separable([(2, top - 10)], [(1, 20)])
        assert message([above, zeros]) == out_of_range(0, top + 10)
        # Not separable: the first out-of-range entry in address order.
        unsplit = list(zeros)
        unsplit[256 + 5] = -top - 1
        unsplit[size - 1] = top
        assert message([zeros, unsplit]) == out_of_range(1, -top - 1)
        unsplit[256 + 5] = 0
        assert message([unsplit, zeros]) == out_of_range(0, top)
        # Type, then range, table by table.
        assert message([above, zeros[1:]]) == out_of_range(0, top + 10)
        assert message([zeros[1:], above]) == f"table 0 must be a list of {size} integers"
        assert message([zeros, [True] + zeros[1:]]) == f"table 1 must be a list of {size} integers"

    def test_overflow_on_the_split_route_is_raised_where_push_raises_it(self):
        # Two taps in a group of 16 read halves whose sums reach the
        # bound; the sample -128 after 0 reads 2046 on the subtracted
        # cycle alone, and -2046 * 128 leaves the 17-bit accumulator.
        coeffs = coeff_set([5, -3])
        plan = partition_taps(2, 16)
        low = [0, 2046, -2047] + [0] * 253
        luts = [[h + v for h in [0, -1] * 128 for v in low]]
        assert engine._split(luts[0]) is not None
        stream = [3, 2, 1, 0] * 375 + [-128, 127, 1]
        filt = DaFilter(coeffs, plan, input_width=8, luts=luts)
        scalar = DaFilter(coeffs, plan, input_width=8, luts=luts)
        got = stream_outcome(blocked(filt, stream, []))
        want = stream_outcome(pushed(scalar, stream))
        assert got == want
        assert len(want[0]) == 1500 and want[1] is AccumulatorOverflow

    def test_overflow_yields_the_outputs_before_it(self):
        # Two taps in a padded group of four, entry 1 edited to -512: the
        # sample -8 reads it on the subtracted cycle, and 4096 + 2 leaves
        # the 13-bit accumulator.
        coeffs = coeff_set([5, 1])
        plan = partition_taps(2, 4)
        luts = [list(build_lut(coeffs, plan.groups[0]).entries)]
        luts[0][1] = -512
        stream = [1, -3] * 750 + [2, -8, 3]
        filt = DaFilter(coeffs, plan, input_width=4, luts=luts)
        scalar = DaFilter(coeffs, plan, input_width=4, luts=luts)
        want = [scalar.push(x) for x in stream[:-2]]
        with pytest.raises(AccumulatorOverflow) as by_push:
            scalar.push(-8)
        blocks = filt.blocks(stream)
        assert next(blocks) == want[: engine.LANES]
        assert next(blocks) == want[engine.LANES :]
        with pytest.raises(AccumulatorOverflow) as raised:
            next(blocks)
        assert str(raised.value) == str(by_push.value)
        assert str(raised.value) == "inner product 4098 exceeds the 13-bit accumulator"
        # -8 entered the delay line, as push left it
        assert [filt.push(x) for x in (0, 3)] == [scalar.push(x) for x in (0, 3)] == [-8, -1536]

    @pytest.mark.parametrize("width", [2, 7, 8, 9, 16, 17, 32, 63, 64, 65, 67, 72])
    @pytest.mark.parametrize("count", [3, 256])
    def test_byte_planes_are_the_bytes_of_the_biased_entries(self, width, count):
        """Every byte of every biased entry, as the per-byte reference cuts them."""
        rng = random.Random(f"{width}:{count}")
        bias = 1 << (width - 1)
        table = [-bias, bias - 1, 0, -1] + [rng.randrange(-bias, bias) for _ in range(252)]
        table = table[:count]
        want = [
            bytes(((v + bias) >> b) & 255 for v in table).ljust(256, b"\0")
            for b in range(0, width, 8)
        ]
        assert engine._byte_planes(table, width) == want

    def test_blocks_are_read_one_at_a_time(self):
        filt = DaFilter(coeff_set([1, 2, 3]), partition_taps(3, 2), input_width=16)
        for evaluate in (filt.blocks, filt.traced_blocks):
            read = []
            blocks = evaluate(read.append(x) or x for x in range(3 * engine.LANES))
            for taken in (1, 2, 3):
                next(blocks)
                assert len(read) == taken * engine.LANES


@st.composite
def parts_cases(draw):
    """Filters of every group size in every table form: derived, list, halves, unsplit list.

    Coefficients are nonzero and, above 8 members, the first group has a
    real member 8, so the unsplit form, T[257] set to T[1], differs from
    T[256] + T[1] while staying an entry the table already holds (no
    accumulator can overflow on it). Below 9 members the unsplit form is a
    list with its last entry set to T[0].
    """
    group_size = draw(st.integers(1, 16))
    num_taps = draw(st.integers(1 if group_size <= 8 else 9, 2 * group_size + 1))
    coeff_width = draw(st.integers(2, 16))
    input_width = draw(st.integers(2, 12))
    bound = 1 << (coeff_width - 1)
    nonzero = st.integers(-bound, bound - 1).filter(bool)
    values = draw(st.lists(nonzero, min_size=num_taps, max_size=num_taps))
    form = draw(st.sampled_from(["derived", "mux", "list", "halves", "unsplit"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    count = draw(st.sampled_from([1, 40, 300]))
    lo, hi = -(1 << (input_width - 1)), (1 << (input_width - 1)) - 1
    samples = [rng.choice((lo, hi, -1, 0, rng.randint(lo, hi))) for _ in range(count)]
    plan = partition_taps(num_taps, group_size)
    return coeff_set(values, coeff_width), plan, form, input_width, samples


class TestTableParts:
    """Every checked table is held as the tables of at most 256 entries its one-byte keys read."""

    @settings(deadline=None, max_examples=40)
    @given(parts_cases())
    @example(  # W = 8, M = 1: partial width 8, one part read in one byte
        (coeff_set([-128, 127, -1, 5, 100, -77, 3, 64]), partition_taps(8, 1), "list", 8,
         [-128, 127, -1, 0, 85, -86] * 50)
    )
    @example(  # W = 8, M = 8: the widest one-part key, every byte value read
        (coeff_set([-128, 127, -1, 5, 100, -77, 3, 64, 9]), partition_taps(9, 8), "unsplit", 8,
         [-128, 127, -1, 0, 85, -86] * 50)
    )
    @example(  # W = 12, M = 9: two 16-bit parts whose biased sum takes 17 bits
        (coeff_set([2047] * 9 + [-2048] * 9, 12), partition_taps(18, 9), "halves", 8,
         [-128, 127, -1, 0] * 75)
    )
    def test_every_table_form_is_held_as_its_parts(self, case):
        coeffs, plan, form, input_width, samples = case
        large = plan.group_size > 8
        want = [list(build_lut(coeffs, g).entries) for g in plan.groups]
        if form == "unsplit":
            if large:
                want[0][257] = want[0][1]
            else:
                want[0][-1] = want[0][0]
        luts = None
        if form == "halves" and large:
            luts = [{"low": t[:256], "high": t[::256]} for t in want]
        elif form not in ("derived", "mux"):
            luts = [list(t) for t in want]
        mode = PpgMode.MUX if form == "mux" else PpgMode.STORED
        filt = DaFilter(coeffs, plan, mode, input_width=input_width, luts=luts)
        tables = filt.tables()
        parts = tables.parts
        unsplit = [form == "unsplit" and large and g == 0 for g in range(plan.num_groups)]
        assert [p is None for p in parts] == unsplit
        for g, table_parts in enumerate(parts):
            if table_parts is not None:
                assert len(table_parts) == (2 if large else 1)
                assert all(len(part) <= 256 for part in table_parts)
                assert engine._pack_table(table_parts) == want[g]
            if not large:
                assert table_parts[0] is tables[g]
        assert [list(t) for t in tables] == want
        # Blocks and verify's lanes read the parts; push reads the whole tables.
        scalar = DaFilter(coeffs, plan, mode, input_width=input_width, luts=luts)
        pushed_outputs = [scalar.push(x) for x in samples]
        assert filt.process(samples) == pushed_outputs
        if form != "unsplit":
            assert pushed_outputs == direct_fir(samples, coeffs)
        num_taps = len(coeffs)
        windows = [
            tuple(samples[i - k] if i >= k else 0 for k in range(num_taps))
            for i in range(len(samples))
        ]
        direct = [sum(a * x for a, x in zip(coeffs.values, w)) for w in windows]
        got = verify_windows(
            coeffs, plan, mode, input_width=input_width, windows=windows, luts=luts,
            limit=len(windows),
        )
        flagged = [
            engine.Mismatch(w, y, d) for w, y, d in zip(windows, pushed_outputs, direct) if y != d
        ]
        assert got == (len(windows), flagged)
