"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured runtimes. Every check is exact; there are no tolerances
to tune.
"""

import json
import random
import time
from decimal import Decimal
from itertools import product

from dafir.adders import (
    AdderKind,
    BitVector,
    adder_tree_cost,
    cla_add,
    cla_cost,
    csa_compress,
    ripple_add,
    ripple_cost,
)
from dafir.cli import main
from dafir.design import DesignFile, rederive_luts
from dafir.engine import (
    DaFilter,
    PpgMode,
    all_windows,
    da_inner_product,
    memory_locations,
    partial_product_width,
    partition_taps,
    verify_windows,
)
from dafir.numerics import (
    CoefficientSet,
    FixedFormat,
    min_signed_width,
    required_accumulator_width,
)
from dafir.report import adp, format_adp

FMT8 = FixedFormat(8)
FMT16 = FixedFormat(16)

ALL_TREES = (AdderKind.RIPPLE, AdderKind.CSA_TREE, AdderKind.CLA)


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def random_coeffs(rng: random.Random, count: int, fmt: FixedFormat) -> CoefficientSet:
    return CoefficientSet.from_integers(
        [rng.randint(fmt.min_value, fmt.max_value) for _ in range(count)], fmt
    )


def test_criterion_1_oracle_equivalence_exhaustive():
    # K=4, W=8, L=4: twenty random coefficient sets, every one of the
    # 65,536 possible input windows, four partition/generator configs, all
    # three adder trees. Exact equality against the direct form everywhere.
    started = time.perf_counter()
    windows = list(all_windows(4, 4))
    assert len(windows) == 65536
    # deterministic probe for the gate-level (bit-true adder tree) passes:
    # a stride through the space plus the sign-extreme corners
    probe = windows[::1024] + [(-8, -8, -8, -8), (7, 7, 7, 7), (-8, 7, -8, 7)]
    configs = [
        (4, PpgMode.STORED),
        (2, PpgMode.STORED),
        (2, PpgMode.MUX),
        (1, PpgMode.MUX),
    ]
    rng = random.Random(0xC1)
    for _ in range(20):
        coeffs = random_coeffs(rng, 4, FMT8)
        for group_size, mode in configs:
            plan = partition_taps(4, group_size)
            checked, mismatches = verify_windows(
                coeffs, plan, mode, input_width=4, windows=windows
            )
            assert checked == 65536
            assert mismatches == []
            # tree kinds cannot change values; prove it end to end through
            # the gate-level adders on the probe set
            for tree in ALL_TREES:
                for window in probe:
                    want = sum(a * x for a, x in zip(coeffs.values, window))
                    got, _ = da_inner_product(
                        window,
                        coeffs,
                        plan,
                        mode,
                        tree,
                        input_width=4,
                        bit_level=True,
                    )
                    assert got == want
    elapsed = time.perf_counter() - started
    report(
        "PASS criterion 1: exhaustive K=4/W=8/L=4 oracle equivalence, "
        f"20 coefficient sets x 4 configs x 65536 windows x 3 trees ({elapsed:.1f}s)"
    )


def test_criterion_2_oracle_equivalence_randomized_full_scale():
    # K=8, W=16, L=16: ten thousand random windows, exact equality for both
    # stored-table and mux generation.
    started = time.perf_counter()
    rng = random.Random(0xC2)
    coeffs = random_coeffs(rng, 8, FMT16)
    plan = partition_taps(8, 2)
    windows = [
        tuple(rng.randint(-32768, 32767) for _ in range(8)) for _ in range(10000)
    ]
    for mode in (PpgMode.STORED, PpgMode.MUX):
        checked, mismatches = verify_windows(
            coeffs, plan, mode, input_width=16, windows=windows
        )
        assert checked == 10000
        assert mismatches == []
    # gate-level spot pass at full scale, all trees
    for window in windows[:50]:
        want = sum(a * x for a, x in zip(coeffs.values, window))
        for tree in ALL_TREES:
            got, _ = da_inner_product(
                window, coeffs, plan, PpgMode.MUX, tree, input_width=16, bit_level=True
            )
            assert got == want
    elapsed = time.perf_counter() - started
    report(
        "PASS criterion 2: randomized K=8/W=16/L=16 oracle equivalence, "
        f"10000 windows x {{stored,mux}} ({elapsed:.1f}s)"
    )


def test_criterion_3_memory_accounting():
    plan_partitioned = partition_taps(4, 2)
    assert plan_partitioned.num_groups == 2
    assert memory_locations(plan_partitioned) == 8
    plan_full = partition_taps(4, 4)
    assert plan_full.num_groups == 1
    assert memory_locations(plan_full) == 16
    report("PASS criterion 3: memory accounting, P=2/M=2 -> 8 and M=4 -> 16")


def test_criterion_4_adp_formula():
    assert format_adp(adp(606, "2.375")) == Decimal("1439.25")
    assert format_adp(adp(357, "2.523")) == Decimal("900.71")
    assert adp(606, "2.375") == Decimal("1439.250")
    assert adp(357, "2.523") == Decimal("900.711")
    report("PASS criterion 4: ADP 606*2.375 = 1439.25 and 357*2.523 = 900.71")


def test_criterion_5_adder_correctness():
    started = time.perf_counter()
    cases = 0
    for width in (2, 3, 4, 8):
        mask = (1 << width) - 1
        lo, hi = -(1 << (width - 1)), 1 << (width - 1)
        for a in range(lo, hi):
            va = BitVector(width, a)
            for b in range(lo, hi):
                vb = BitVector(width, b)
                for cin in (0, 1):
                    raw = va.unsigned + vb.unsigned + cin
                    rs, rc, _ = ripple_add(va, vb, cin)
                    cs, cc, _ = cla_add(va, vb, cin)
                    assert (rs.unsigned, rc) == (raw & mask, raw >> width)
                    assert (cs.unsigned, cc) == (raw & mask, raw >> width)
                    cases += 1
    rng = random.Random(0xC5)
    width = 20
    mask = (1 << width) - 1
    for _ in range(10000):
        ops = [BitVector.from_unsigned(width, rng.getrandbits(width)) for _ in range(8)]
        (s, c), _ = csa_compress(ops)
        assert (s.unsigned + c.unsigned) & mask == sum(o.unsigned for o in ops) & mask
    elapsed = time.perf_counter() - started
    report(
        f"PASS criterion 5: cla == ripple == integer addition on {cases} exhaustive "
        f"cases, csa sum-preservation on 10000 random 8-operand sets ({elapsed:.1f}s)"
    )


def test_criterion_6_cost_model_ordering():
    for width in (8, 16, 32):
        assert cla_cost(width).depth < ripple_cost(width).depth
    csa = adder_tree_cost(8, 17, AdderKind.CSA_TREE)
    cla_tree = adder_tree_cost(8, 17, AdderKind.CLA)
    assert csa.depth < cla_tree.depth
    report(
        "PASS criterion 6: modeled depth cla < ripple at widths 8/16/32, "
        "csa tree < cla tree for 8 operands"
    )


def test_criterion_7_cycle_count_contract():
    rng = random.Random(0xC7)
    checked = 0
    for num_taps, coeff_width, input_width, group_size in (
        (2, 8, 4, 2),
        (3, 8, 6, 2),
        (8, 16, 16, 2),
        (5, 10, 8, 3),
    ):
        fmt = FixedFormat(coeff_width)
        coeffs = random_coeffs(rng, num_taps, fmt)
        plan = partition_taps(num_taps, group_size)
        lo, hi = -(1 << (input_width - 1)), (1 << (input_width - 1)) - 1
        samples = [rng.randint(lo, hi) for _ in range(25)]
        filt = DaFilter(coeffs, plan, input_width=input_width)
        for trace in (filt.push_traced(x)[1] for x in samples):
            assert len(trace) == input_width
            flags = [r.subtract for r in trace]
            assert flags.count(True) == 1
            assert flags[-1] and trace[-1].cycle == input_width - 1
            checked += 1
    report(
        f"PASS criterion 7: every trace has exactly L records with one subtract "
        f"at n = L-1 ({checked} output samples)"
    )


def test_criterion_8_width_claims():
    # mux output at the W=16 coefficient extremes needs exactly 17 signed bits
    coeffs = CoefficientSet.from_integers([-32768, -32768], FMT16)
    mux = DaFilter(coeffs, partition_taps(2, 2), PpgMode.MUX, input_width=16)
    extreme = mux.tables()[0][3]
    assert extreme == -65536
    assert min_signed_width(extreme) == 17
    assert partial_product_width(16, 2) == 17
    # safe accumulator bound at the K=8/W=16/L=16 configuration is 35 bits
    assert required_accumulator_width(8, 16, 16) == 35
    # exhaustive soundness at small sizes
    for num_taps, coeff_width, input_width in product((1, 2), (2, 3, 4), (2, 3, 4)):
        width = required_accumulator_width(num_taps, coeff_width, input_width)
        bound = 1 << (width - 1)
        coeff_range = range(-(1 << (coeff_width - 1)), 1 << (coeff_width - 1))
        sample_range = range(-(1 << (input_width - 1)), 1 << (input_width - 1))
        for taps in product(coeff_range, repeat=num_taps):
            for window in product(sample_range, repeat=num_taps):
                total = sum(a * x for a, x in zip(taps, window))
                assert -bound < total < bound
    report(
        "PASS criterion 8: 17-bit mux extreme, 35-bit accumulator at K=8/W=16/L=16, "
        "exhaustive small-case soundness"
    )


def test_criterion_9_cli_round_trip_determinism_mutation(tmp_path):
    coeff_file = tmp_path / "coeffs.txt"
    coeff_file.write_text("0.25\n-0.5\n0.125\n0.0625\n")
    design_path = tmp_path / "design.json"
    assert (
        main(
            [
                "design",
                str(coeff_file),
                "--coeff-width",
                "8",
                "--input-width",
                "4",
                "--group-size",
                "2",
                "--out",
                str(design_path),
            ]
        )
        == 0
    )

    # round trip: stored tables equal re-derived tables byte for byte
    design = DesignFile.load(str(design_path))
    assert rederive_luts(design) == design.luts
    again = tmp_path / "again.json"
    assert (
        main(
            [
                "design",
                str(coeff_file),
                "--coeff-width",
                "8",
                "--input-width",
                "4",
                "--group-size",
                "2",
                "--out",
                str(again),
            ]
        )
        == 0
    )
    assert again.read_bytes() == design_path.read_bytes()

    # repeated runs are byte identical
    samples = tmp_path / "samples.txt"
    samples.write_text("1\n-8\n7\n0\n-3\n")
    out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (out_a, out_b):
        assert (
            main(
                [
                    "run",
                    "--design",
                    str(design_path),
                    "--samples",
                    str(samples),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert out_a.read_bytes() == out_b.read_bytes()

    # clean design verifies exhaustively; a mutated table entry is caught
    assert main(["verify", "--design", str(design_path), "--exhaustive"]) == 0
    data = json.loads(design_path.read_text())
    data["luts"][0][3] += 1
    design_path.write_text(json.dumps(data))
    assert main(["verify", "--design", str(design_path), "--exhaustive"]) == 1
    report(
        "PASS criterion 9: design round-trip, byte-identical reruns, "
        "mutated table entry caught with nonzero exit"
    )
