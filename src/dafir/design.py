"""Versioned on-disk filter designs.

A design file is a strict JSON document: architecture, quantized
coefficients, the partition plan, and (in stored mode) every table entry.
Unknown keys are rejected so golden files stay frozen. Loading performs
structural validation only; it deliberately does not re-derive the tables
from the coefficients, so a verifier can catch a corrupted entry instead
of silently repairing it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .engine import (
    PartitionPlan,
    PpgMode,
    build_lut,
    check_tables,
    partition_taps,
)
from .numerics import CoefficientSet, FixedFormat
from .report import ArchConfig

__all__ = ["DesignFile", "DesignError", "rederive_luts"]

DESIGN_VERSION = 1

_TOP_KEYS = {"version", "arch", "coefficients", "plan", "luts"}
_ARCH_KEYS = {"num_taps", "coeff_width", "input_width", "group_size", "ppg_mode", "tree"}
_PLAN_KEYS = {"group_size", "groups", "padded_taps"}


class DesignError(ValueError):
    """A design document is malformed or internally inconsistent."""


def _require_keys(data: dict, keys: set, where: str) -> None:
    if not isinstance(data, dict):
        raise DesignError(f"{where} must be a JSON object")
    missing = keys - set(data)
    unknown = set(data) - keys
    if missing:
        raise DesignError(f"{where} is missing keys: {sorted(missing)}")
    if unknown:
        raise DesignError(f"{where} has unknown keys: {sorted(unknown)}")


@dataclass
class DesignFile:
    """One saved filter design, ready to evaluate or audit."""

    arch: ArchConfig
    coefficients: CoefficientSet
    plan: PartitionPlan
    luts: tuple[tuple[int, ...], ...] | None
    version: int = DESIGN_VERSION

    @classmethod
    def create(cls, arch: ArchConfig, coefficients: CoefficientSet) -> "DesignFile":
        """Derive plan and (stored mode) tables from scratch."""
        if len(coefficients) != arch.num_taps:
            raise DesignError(
                f"architecture declares {arch.num_taps} taps, got {len(coefficients)}"
            )
        if coefficients.format.width != arch.coeff_width:
            raise DesignError("coefficient format width does not match the architecture")
        plan = partition_taps(arch.num_taps, arch.group_size)
        luts = None
        if arch.ppg_mode is PpgMode.STORED:
            luts = tuple(build_lut(coefficients, g).entries for g in plan.groups)
        return cls(arch, coefficients, plan, luts)

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "arch": self.arch.to_dict(),
            "coefficients": list(self.coefficients.values),
            "plan": {
                "group_size": self.plan.group_size,
                "groups": [list(g) for g in self.plan.groups],
                "padded_taps": self.plan.padded_taps,
            },
            "luts": [list(t) for t in self.luts] if self.luts is not None else None,
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def from_dict(cls, data: dict) -> "DesignFile":
        _require_keys(data, _TOP_KEYS, "design")
        if data["version"] != DESIGN_VERSION:
            raise DesignError(f"unsupported design version {data['version']!r}")
        _require_keys(data["arch"], _ARCH_KEYS, "design.arch")
        try:
            arch = ArchConfig.from_dict(data["arch"])
        except (KeyError, ValueError) as exc:
            raise DesignError(f"bad architecture: {exc}") from exc

        coeff_values = data["coefficients"]
        if not isinstance(coeff_values, list) or not all(
            isinstance(v, int) for v in coeff_values
        ):
            raise DesignError("design.coefficients must be a list of integers")
        try:
            coefficients = CoefficientSet.from_integers(
                coeff_values, FixedFormat(arch.coeff_width)
            )
        except ValueError as exc:
            raise DesignError(f"bad coefficients: {exc}") from exc

        _require_keys(data["plan"], _PLAN_KEYS, "design.plan")
        raw_plan = data["plan"]
        try:
            plan = PartitionPlan(
                int(raw_plan["group_size"]),
                tuple(
                    tuple(None if v is None else int(v) for v in g)
                    for g in raw_plan["groups"]
                ),
                int(raw_plan["padded_taps"]),
            )
        except (TypeError, ValueError) as exc:
            raise DesignError(f"bad plan: {exc}") from exc
        if plan.num_taps != arch.num_taps or plan.group_size != arch.group_size:
            raise DesignError("plan does not match the architecture")

        luts = data["luts"]
        stored = None
        if arch.ppg_mode is PpgMode.STORED:
            if not isinstance(luts, list):
                raise DesignError("stored-mode design needs a list of tables")
            try:
                stored = check_tables(luts, plan, arch.coeff_width)
            except ValueError as exc:
                raise DesignError(str(exc)) from exc
        elif luts is not None:
            raise DesignError("mux-mode design must not carry tables")

        return cls(arch, coefficients, plan, stored, int(data["version"]))

    @classmethod
    def load(cls, path: str) -> "DesignFile":
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except json.JSONDecodeError as exc:
            raise DesignError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_dict(data)


def rederive_luts(design: DesignFile) -> tuple[tuple[int, ...], ...]:
    """Rebuild all tables from the design's coefficients.

    Matching the stored entries byte for byte is the design round-trip
    invariant; a difference means the file was edited or corrupted.
    """
    return tuple(build_lut(design.coefficients, g).entries for g in design.plan.groups)
