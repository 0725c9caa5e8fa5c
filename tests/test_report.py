"""Resource accounting, ADP arithmetic and architecture comparisons."""

import dataclasses
import json
import random
import sys
from decimal import Decimal

import pytest

from dafir.adders import AdderKind, CostModel
from dafir.design import ArchConfig, DesignFile
from dafir.engine import PpgMode
from dafir.numerics import CoefficientSet, FixedFormat
from dafir.report import (
    ArchitectureMismatch,
    ExternalFigures,
    _pct_delta,
    adp,
    compare_architectures,
    estimate_resources,
    format_adp,
)


def design(K=4, W=16, L=16, M=2, ppg=PpgMode.STORED, tree=AdderKind.CLA, values=None):
    """A design of K taps; coefficients 1..K unless ``values`` are given."""
    fmt = FixedFormat(W)
    values = values if values is not None else range(1, K + 1)
    return DesignFile.create(
        ArchConfig(K, W, L, M, ppg, tree), CoefficientSet.from_integers(values, fmt)
    )


class TestAdp:
    def test_csa_structure_numbers(self):
        assert adp(606, "2.375") == Decimal("1439.250")
        assert format_adp(adp(606, "2.375")) == Decimal("1439.25")

    def test_cla_structure_numbers(self):
        assert adp(357, "2.523") == Decimal("900.711")
        assert format_adp(adp(357, "2.523")) == Decimal("900.71")

    def test_zero_cells(self):
        assert adp(0, "123.456") == 0

    def test_ties_round_to_even(self):
        # 0.125 and 0.05 are exact ties; rounding half up would give 0.13 and 0.1.
        assert adp(5, "0.025") == Decimal("0.125")
        assert format_adp(adp(5, "0.025")) == Decimal("0.12")
        assert _pct_delta(400, "399.8") == 0.0
        assert _pct_delta(400, "399.4") == 0.2  # 0.15, to even upwards

    def test_float_inputs_mean_their_decimal_text(self):
        assert adp(606, 2.375) == Decimal("1439.250")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            adp(-1, "2.0")

    @pytest.mark.parametrize("cells, time", [(10, "NaN"), (10, "Infinity"), ("sNaN", 1)])
    def test_rejects_non_finite(self, cells, time):
        with pytest.raises(ValueError, match="cells and time must be finite"):
            adp(cells, time)

    def test_large_figures_are_exact(self):
        # Beyond the default context's 28 digits, the product and its cents are kept whole.
        assert format_adp(adp(10, "1e30")) == Decimal("1e31")
        assert format_adp(adp(3, "0.123456789012345678901234567891")) == Decimal("0.37")
        assert adp(7, "1234567890123456789012345678.9") == Decimal("8641975230864197523086419752.3")
        assert _pct_delta("1e-300", "1e300") == float("-inf")

    @pytest.mark.parametrize(
        "cells, time", [(10, "1e999999"), (10, "1e309"), (10**309, 1), ("2e308", "0")]
    )
    def test_rejects_figures_past_a_double(self, cells, time):
        # 1e999999 once overflowed the exact context and raised decimal.Overflow instead.
        with pytest.raises(ValueError, match="cells and time must be within double range"):
            adp(cells, time)

    def test_the_largest_double_is_a_figure(self):
        largest = Decimal(sys.float_info.max)
        assert adp(1, largest) == largest
        assert ExternalFigures(1, largest).to_dict()["time_ns"] == sys.float_info.max

    @pytest.mark.parametrize(
        "time_ns, power_mw, name",
        [
            (Decimal("1e400"), None, "time_ns"),
            (Decimal("NaN"), None, "time_ns"),
            (Decimal("2.5"), Decimal("-1e400"), "power_mw"),
            (Decimal("2.5"), Decimal("Infinity"), "power_mw"),
        ],
    )
    def test_external_figures_past_a_double_are_refused(self, time_ns, power_mw, name):
        # to_dict once reported 1e400 as the float inf.
        with pytest.raises(ValueError, match=f"{name} must be finite and within double range"):
            ExternalFigures(10, time_ns, power_mw)

    def test_an_adp_past_a_double_is_refused(self):
        # to_dict once reported the ADP of figures within range as the float inf.
        with pytest.raises(ValueError) as raised:
            ExternalFigures(1000, Decimal("1e306"))
        assert str(raised.value) == "the ADP of cells 1000 and time_ns 1E+306 is past double range"
        half = Decimal(sys.float_info.max / 2)  # exact: a double halved
        assert ExternalFigures(2, half).to_dict()["adp"] == sys.float_info.max


class TestEstimateResources:
    def test_partitioned_memory(self):
        assert estimate_resources(design(K=4, M=2)).memory_locations == 8

    def test_unpartitioned_memory(self):
        assert estimate_resources(design(K=4, M=4)).memory_locations == 16

    def test_eight_groups_of_two(self):
        assert estimate_resources(design(K=16, M=2)).memory_locations == 32

    def test_mux_mode_stores_nothing_but_pays_gates(self):
        report = estimate_resources(design(K=8, M=2, ppg=PpgMode.MUX))
        assert report.memory_locations == 0
        assert report.lut_bits == 0
        assert report.ppg_cost.gate_count > 0
        assert report.cycles_per_output == 16

    def test_lut_bits_scale_with_entry_width(self):
        report = estimate_resources(design(K=4, W=16, M=2))
        assert report.entry_width == 17
        assert report.lut_bits == 8 * 17

    def test_accumulator_width_at_eight_taps(self):
        assert estimate_resources(design(K=8)).accumulator_width == 35

    def test_memory_shrinks_as_groups_shrink(self):
        for K in (4, 8, 12, 16):
            sizes = [M for M in range(2, K + 1) if K % M == 0]
            locations = [
                estimate_resources(design(K=K, M=M)).memory_locations for M in sizes
            ]
            # ordered by decreasing M, memory strictly decreases
            by_decreasing_m = list(reversed(locations))
            assert all(a > b for a, b in zip(by_decreasing_m, by_decreasing_m[1:]))

    def test_deterministic_reports(self):
        a = json.dumps(estimate_resources(design()).to_dict(), sort_keys=True)
        b = json.dumps(estimate_resources(design()).to_dict(), sort_keys=True)
        assert a == b

    def test_golden_eight_tap_mux_cla(self):
        # Frozen from the default cost model; a change here means the
        # declared constants or the composition rules moved.
        report = estimate_resources(design(K=8, M=2, ppg=PpgMode.MUX, tree=AdderKind.CLA))
        assert report.memory_locations == 0
        assert report.entry_width == 17
        assert report.accumulator_width == 35
        assert report.cycles_per_output == 16
        assert report.ppg_cost.to_dict() == {"gate_count": 1536, "depth": 12}
        assert report.tree_cost.to_dict() == {"gate_count": 564, "depth": 16}
        assert report.accumulator_cost.to_dict() == {"gate_count": 322, "depth": 8}
        assert report.adp_model == 2422 * 36 == 87192

    def test_cost_model_override_moves_costs(self):
        base = estimate_resources(design(tree=AdderKind.RIPPLE))
        slow = estimate_resources(
            design(tree=AdderKind.RIPPLE), CostModel(fa_gates=10, fa_depth=4)
        )
        assert slow.total_cost.gate_count > base.total_cost.gate_count
        assert slow.adp_model > base.adp_model

    def test_external_figures_echoed(self):
        fig = ExternalFigures(606, Decimal("2.375"), Decimal("387"))
        report = estimate_resources(design(), external=fig)
        data = report.to_dict()["external"]
        assert data == {
            "cells": 606,
            "time_ns": 2.375,
            "adp": 1439.25,
            "power_mw": 387.0,
        }


class TestCompare:
    def test_identical_configs_all_zero_deltas(self):
        comparison = compare_architectures(design(), design())
        assert comparison.output_check == "ok (128 samples)"
        assert all(v == 0.0 for v in comparison.deltas_pct.values())

    def test_external_cell_delta_matches_exact_arithmetic(self):
        comparison = compare_architectures(
            design(tree=AdderKind.CSA_TREE),
            design(tree=AdderKind.CLA),
            baseline_external=ExternalFigures(606, Decimal("2.375"), Decimal("387")),
            candidate_external=ExternalFigures(357, Decimal("2.523"), Decimal("379")),
        )
        deltas = comparison.deltas_pct
        assert deltas["cells"] == 41.1
        assert deltas["time_ns"] == -6.2
        assert deltas["adp_external"] == 37.4
        assert deltas["power_mw"] == 2.1

    def test_tree_choice_keeps_outputs_and_changes_costs(self):
        rng = random.Random(99)
        values = [rng.randint(-32768, 32767) for _ in range(8)]
        samples = [rng.randint(-32768, 32767) for _ in range(100)]
        comparison = compare_architectures(
            design(K=8, tree=AdderKind.CSA_TREE, values=values),
            design(K=8, tree=AdderKind.CLA, values=values),
            samples=samples,
        )
        assert comparison.output_check == "ok (100 samples)"
        assert comparison.baseline.total_cost != comparison.candidate.total_cost

    def test_stored_vs_mux_memory(self):
        values = [100, -200, 300, -400]
        comparison = compare_architectures(
            design(K=4, M=2, ppg=PpgMode.STORED, values=values),
            design(K=4, M=2, ppg=PpgMode.MUX, values=values),
        )
        assert comparison.output_check.startswith("ok")
        assert comparison.baseline.memory_locations == 8
        assert comparison.candidate.memory_locations == 0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_architectures(design(K=4), design(K=8))
        with pytest.raises(ValueError):
            compare_architectures(design(W=16), design(W=8))

    def test_different_coefficients_skip_output_check(self):
        comparison = compare_architectures(
            design(values=[1, 2, 3, 4]), design(values=[1, 2, 3, 5])
        )
        assert comparison.output_check == "skipped (different coefficient sets)"

    def test_corrupt_tables_abort_comparison(self):
        good = design(K=2, W=8, L=8, values=[3, 5])
        assert good.luts == ((0, 3, 5, 8),)
        bad = dataclasses.replace(good, luts=((0, 3, 5, 9),))
        with pytest.raises(ArchitectureMismatch):
            compare_architectures(good, bad)

    def test_never_reports_while_outputs_differ(self):
        good = design(K=2, W=8, L=8, values=[3, 5])
        bad = dataclasses.replace(good, luts=((0, 3, 5, 9),))
        try:
            compare_architectures(good, bad)
        except ValueError:
            return
        pytest.fail("comparison of disagreeing architectures must not return")
