"""Memory, gate-cost, cycle and area-delay-product accounting.

Model costs come from the declared unit-gate constants in
:mod:`dafir.adders`; they are reproducible stand-ins for synthesis
results. Externally measured figures (cell counts, nanoseconds, milliwatts
from an actual toolchain) travel through a separate field and are never
mixed with model units: ``adp_model`` is gates times depth, the external
ADP is cells times nanoseconds, computed in exact decimal arithmetic.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from decimal import MAX_PREC, ROUND_HALF_EVEN, Context, Decimal
from typing import Sequence, Union

from .adders import (
    DEFAULT_COST_MODEL,
    AdderKind,
    CostModel,
    GateCost,
    adder_tree_cost,
    cla_cost,
    ripple_cost,
)
from .design import ArchConfig, DesignFile
from .engine import PpgMode, memory_locations, partial_product_width
from .numerics import required_accumulator_width

__all__ = [
    "ArchComparison",
    "ArchitectureMismatch",
    "ExternalFigures",
    "ResourceReport",
    "adp",
    "compare_architectures",
    "estimate_resources",
    "format_adp",
]

DecimalLike = Union[int, str, float, Decimal]

_CENT = Decimal("0.01")
_TENTH = Decimal("0.1")
_EXACT = Context(prec=MAX_PREC)  # products and quantized results keep every digit
_DOUBLE_MAX = Decimal(sys.float_info.max)  # figures are reported as JSON numbers


def _to_decimal(value: DecimalLike) -> Decimal:
    # Floats go through str() so 2.375 means "2.375", not its binary neighbour.
    if isinstance(value, Decimal):
        return value
    if isinstance(value, float):
        return Decimal(str(value))
    return Decimal(value)


def adp(cells: DecimalLike, time: DecimalLike) -> Decimal:
    """Area-delay product: cells times minimum time, exactly.

    606 cells at 2.375 ns give Decimal('1439.250'); no binary-float drift.
    """
    c = _to_decimal(cells)
    t = _to_decimal(time)
    if not (c.is_finite() and t.is_finite()):
        raise ValueError("cells and time must be finite")
    if c < 0 or t < 0:
        raise ValueError("cells and time must be non-negative")
    if c > _DOUBLE_MAX or t > _DOUBLE_MAX:
        raise ValueError("cells and time must be within double range")
    return _EXACT.multiply(c, t)


def format_adp(value: Decimal) -> Decimal:
    """Render an ADP to two decimals (ties to even)."""
    return value.quantize(_CENT, ROUND_HALF_EVEN, _EXACT)


@dataclass(frozen=True)
class ExternalFigures:
    """Synthesis-tool numbers supplied by the user, echoed with their ADP."""

    cells: int
    time_ns: Decimal
    power_mw: Decimal | None = None

    def __post_init__(self) -> None:
        for name in ("time_ns", "power_mw"):
            value = getattr(self, name)
            if value is None:
                continue
            number = _to_decimal(value)
            if not (number.is_finite() and abs(number) <= _DOUBLE_MAX):
                raise ValueError(f"{name} must be finite and within double range, got {value}")
        if self.adp > _DOUBLE_MAX:  # reported as a JSON number, which a double must hold
            raise ValueError(
                f"the ADP of cells {self.cells} and time_ns {self.time_ns} is past double range"
            )

    @property
    def adp(self) -> Decimal:
        return adp(self.cells, self.time_ns)

    def to_dict(self) -> dict:
        out = {
            "cells": self.cells,
            "time_ns": float(self.time_ns),
            "adp": float(format_adp(self.adp)),
        }
        if self.power_mw is not None:
            out["power_mw"] = float(self.power_mw)
        return out


@dataclass(frozen=True)
class ResourceReport:
    """Everything one architecture costs under the declared model."""

    arch: ArchConfig
    memory_locations: int
    lut_bits: int
    entry_width: int
    accumulator_width: int
    cycles_per_output: int
    ppg_cost: GateCost
    tree_cost: GateCost
    accumulator_cost: GateCost
    external: ExternalFigures | None = None

    @property
    def total_cost(self) -> GateCost:
        return GateCost(
            self.ppg_cost.gate_count + self.tree_cost.gate_count + self.accumulator_cost.gate_count,
            self.ppg_cost.depth + self.tree_cost.depth + self.accumulator_cost.depth,
        )

    @property
    def adp_model(self) -> int:
        """Model-unit area-delay product: total gates times total depth."""
        total = self.total_cost
        return total.gate_count * total.depth

    def to_dict(self) -> dict:
        return {
            "arch": self.arch.to_dict(),
            "memory_locations": self.memory_locations,
            "lut_bits": self.lut_bits,
            "entry_width": self.entry_width,
            "accumulator_width": self.accumulator_width,
            "cycles_per_output": self.cycles_per_output,
            "ppg_cost": self.ppg_cost.to_dict(),
            "tree_cost": self.tree_cost.to_dict(),
            "accumulator_cost": self.accumulator_cost.to_dict(),
            "total_cost": self.total_cost.to_dict(),
            "adp_model": self.adp_model,
            "external": self.external.to_dict() if self.external else None,
        }


def _mux_ppg_cost(group_size: int, entry_width: int, model: CostModel) -> GateCost:
    """Cost of one group's multiplexer-based generator.

    Every composite subset sum (an address with two or more bits set) takes
    one carry-lookahead add at entry width; subsets build on one-smaller
    subsets, so the adder chain is group_size - 1 deep. Selection is a
    2^M:1 mux per output bit, i.e. 2^M - 1 two-way muxes and M levels.
    """
    size = 1 << group_size
    composite_sums = size - 1 - group_size
    add = cla_cost(entry_width, model)
    mux_units = (size - 1) * entry_width
    gates = composite_sums * add.gate_count + mux_units * model.mux2_gates
    depth = (group_size - 1) * add.depth + group_size * model.mux2_depth
    return GateCost(gates, depth)


def estimate_resources(
    design: DesignFile,
    model: CostModel = DEFAULT_COST_MODEL,
    external: ExternalFigures | None = None,
) -> ResourceReport:
    """Deterministic resource accounting for one design, as its plan lays it out.

    Stored mode pays in memory locations (groups times 2^M entries of the
    partial-product width); mux mode stores nothing and pays gates in the
    generator instead. The adder tree sums one output per group; the
    accumulator adds the shifted tree output at the safe accumulator width
    every one of the L cycles.
    """
    config, plan = design.arch, design.plan
    entry_width = partial_product_width(config.coeff_width, config.group_size)
    acc_width = required_accumulator_width(
        config.num_taps, config.coeff_width, config.input_width
    )

    if config.ppg_mode is PpgMode.STORED:
        locations = memory_locations(plan)
        ppg = GateCost(0, 0)
    else:
        locations = 0
        per_group = _mux_ppg_cost(config.group_size, entry_width, model)
        ppg = GateCost(per_group.gate_count * plan.num_groups, per_group.depth)

    tree = adder_tree_cost(plan.num_groups, entry_width, config.tree, model)
    if config.tree is AdderKind.RIPPLE:
        acc_cost = ripple_cost(acc_width, model)
    else:
        # CSA output still needs carry propagation at the accumulator.
        acc_cost = cla_cost(acc_width, model)

    return ResourceReport(
        arch=config,
        memory_locations=locations,
        lut_bits=locations * entry_width,
        entry_width=entry_width,
        accumulator_width=acc_width,
        cycles_per_output=config.input_width,
        ppg_cost=ppg,
        tree_cost=tree,
        accumulator_cost=acc_cost,
        external=external,
    )


def _pct_delta(a: DecimalLike | None, b: DecimalLike | None) -> float | None:
    # (a - b) / a as a percentage, one decimal; positive means b is smaller.
    if a is None or b is None:
        return None
    da_, db = _to_decimal(a), _to_decimal(b)
    if da_ == 0:
        return None
    pct = (da_ - db) / da_ * 100
    return float(pct.quantize(_TENTH, ROUND_HALF_EVEN, _EXACT))


class ArchitectureMismatch(ValueError):
    """Two architectures of one filter produced different outputs on the probe stream."""


@dataclass(frozen=True)
class ArchComparison:
    """Two reports side by side with baseline-relative deltas."""

    baseline: ResourceReport
    candidate: ResourceReport
    deltas_pct: dict
    output_check: str

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline.to_dict(),
            "candidate": self.candidate.to_dict(),
            "deltas_pct": self.deltas_pct,
            "output_check": self.output_check,
        }


def _default_probe_stream(input_width: int, count: int = 128) -> list[int]:
    # Deterministic mixed-sign probe covering the extremes.
    rng = random.Random(0xDA)
    lo, hi = -(1 << (input_width - 1)), (1 << (input_width - 1)) - 1
    stream = [lo, hi, -1, 0, 1]
    stream += [rng.randint(lo, hi) for _ in range(max(0, count - len(stream)))]
    return stream


def compare_architectures(
    baseline: DesignFile,
    candidate: DesignFile,
    *,
    samples: Sequence[int] | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
    baseline_external: ExternalFigures | None = None,
    candidate_external: ExternalFigures | None = None,
) -> ArchComparison:
    """Report two designs of the same filter size side by side.

    Both must share tap count and widths; only structure may differ. When
    the coefficients are identical on both sides, each design's own plan
    and tables are run on a probe stream first and must produce identical
    outputs; a mismatch raises :class:`ArchitectureMismatch` because it
    means an engine bug or a corrupted table, not an interesting report.
    """
    a, b = baseline.arch, candidate.arch
    same = (
        a.num_taps == b.num_taps
        and a.coeff_width == b.coeff_width
        and a.input_width == b.input_width
    )
    if not same:
        raise ValueError("architectures must share num_taps, coeff_width and input_width")

    if baseline.coefficients.values != candidate.coefficients.values:
        output_check = "skipped (different coefficient sets)"
    else:
        stream = list(samples) if samples is not None else _default_probe_stream(
            a.input_width
        )
        out_a = baseline.filter().process(stream)
        out_b = candidate.filter().process(stream)
        if out_a != out_b:
            first = next(i for i, (x, y) in enumerate(zip(out_a, out_b)) if x != y)
            raise ArchitectureMismatch(
                f"architectures disagree at sample {first}: {out_a[first]} vs {out_b[first]}"
            )
        output_check = f"ok ({len(stream)} samples)"

    rep_a = estimate_resources(baseline, model, baseline_external)
    rep_b = estimate_resources(candidate, model, candidate_external)

    deltas = {
        "memory_locations": _pct_delta(rep_a.memory_locations, rep_b.memory_locations),
        "lut_bits": _pct_delta(rep_a.lut_bits, rep_b.lut_bits),
        "total_gates": _pct_delta(rep_a.total_cost.gate_count, rep_b.total_cost.gate_count),
        "total_depth": _pct_delta(rep_a.total_cost.depth, rep_b.total_cost.depth),
        "adp_model": _pct_delta(rep_a.adp_model, rep_b.adp_model),
    }
    if baseline_external and candidate_external:
        deltas["cells"] = _pct_delta(baseline_external.cells, candidate_external.cells)
        deltas["time_ns"] = _pct_delta(baseline_external.time_ns, candidate_external.time_ns)
        deltas["adp_external"] = _pct_delta(baseline_external.adp, candidate_external.adp)
        if baseline_external.power_mw is not None and candidate_external.power_mw is not None:
            deltas["power_mw"] = _pct_delta(
                baseline_external.power_mw, candidate_external.power_mw
            )

    return ArchComparison(rep_a, rep_b, deltas, output_check)
