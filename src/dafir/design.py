"""Versioned on-disk filter designs.

A design file is a strict JSON document: architecture, quantized
coefficients, the partition plan, and (in stored mode) each group's table:
the list of its entries or, for a table of M > 8 members that splits into
its two 8-bit halves, those halves, which fix every entry. It is the one
description of a filter: running, verifying and reporting
all read its plan and tables rather than rebuilding them. Unknown keys,
booleans and non-integers in integer fields are rejected so golden files
stay frozen. Loading performs structural validation only; it deliberately
does not re-derive the tables from the coefficients, so a verifier can
catch a corrupted entry instead of silently repairing it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .adders import AdderKind
from .engine import (
    MAX_GROUP_SIZE,
    DaFilter,
    PartitionPlan,
    PpgMode,
    _subset_tables,
    _table_forms,
    build_lut,
    check_tables,
    partition_taps,
)
from .numerics import MAX_WIDTH, MIN_WIDTH, CoefficientSet, FixedFormat

__all__ = ["ArchConfig", "DesignFile", "DesignError", "rederive_luts"]

DESIGN_VERSION = 1

_TOP_KEYS = {"version", "arch", "coefficients", "plan", "luts"}
_ARCH_KEYS = {"num_taps", "coeff_width", "input_width", "group_size", "ppg_mode", "tree"}
_PLAN_KEYS = {"group_size", "groups", "padded_taps"}

_SLICE = 4096  # int list entries written per write, so no string near the file's size is built


class DesignError(ValueError):
    """A design document is malformed or internally inconsistent."""


def _integer(value: object, where: str) -> int:
    """``value`` itself if it is a JSON integer; ``true`` and ``1.0`` are not."""
    if isinstance(value, bool) or not isinstance(value, int):
        text = repr(value)  # cut: the value may be a list of any length
        raise DesignError(f"{where} must be an integer, got {text[:40]}{'...' * (len(text) > 40)}")
    return value


def _require_keys(data: dict, keys: set, where: str) -> None:
    if not isinstance(data, dict):
        raise DesignError(f"{where} must be a JSON object")
    missing = keys - set(data)
    unknown = set(data) - keys
    if missing:
        raise DesignError(f"{where} is missing keys: {sorted(missing)}")
    if unknown:
        raise DesignError(f"{where} has unknown keys: {sorted(unknown)}")


@dataclass(frozen=True)
class ArchConfig:
    """One filter architecture, the ``arch`` block of a design: sizes plus structural choices."""

    num_taps: int
    coeff_width: int
    input_width: int
    group_size: int
    ppg_mode: PpgMode = PpgMode.STORED
    tree: AdderKind = AdderKind.CLA

    def __post_init__(self) -> None:
        if self.num_taps < 1:
            raise ValueError("num_taps must be at least 1")
        for name in ("coeff_width", "input_width"):
            w = getattr(self, name)
            if not (MIN_WIDTH <= w <= MAX_WIDTH):
                raise ValueError(f"{name} must be in [{MIN_WIDTH}, {MAX_WIDTH}]")
        # group_size larger than num_taps just pads
        if not (1 <= self.group_size <= MAX_GROUP_SIZE):
            raise ValueError(f"group_size must be in [1, {MAX_GROUP_SIZE}]")

    def to_dict(self) -> dict:
        return {
            "num_taps": self.num_taps,
            "coeff_width": self.coeff_width,
            "input_width": self.input_width,
            "group_size": self.group_size,
            "ppg_mode": self.ppg_mode.value,
            "tree": self.tree.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArchConfig":
        return cls(
            num_taps=_integer(data["num_taps"], "num_taps"),
            coeff_width=_integer(data["coeff_width"], "coeff_width"),
            input_width=_integer(data["input_width"], "input_width"),
            group_size=_integer(data["group_size"], "group_size"),
            ppg_mode=PpgMode(data["ppg_mode"]),
            tree=AdderKind(data["tree"]),
        )


@dataclass
class DesignFile:
    """One saved filter design, ready to evaluate or audit."""

    arch: ArchConfig
    coefficients: CoefficientSet
    plan: PartitionPlan
    luts: Sequence[Sequence[int]] | None
    version: int = DESIGN_VERSION

    @classmethod
    def create(cls, arch: ArchConfig, coefficients: CoefficientSet) -> "DesignFile":
        """Derive plan and (stored mode) tables from scratch, kept as the parts their keys read."""
        if len(coefficients) != arch.num_taps:
            raise DesignError(
                f"architecture declares {arch.num_taps} taps, got {len(coefficients)}"
            )
        if coefficients.format.width != arch.coeff_width:
            raise DesignError("coefficient format width does not match the architecture")
        plan = partition_taps(arch.num_taps, arch.group_size)
        luts = None
        if arch.ppg_mode is PpgMode.STORED:
            luts = _subset_tables(coefficients, plan)
        return cls(arch, coefficients, plan, luts)

    def filter(self) -> DaFilter:
        """A streaming evaluator running this design's own plan, mode and tables."""
        return DaFilter(
            self.coefficients,
            self.plan,
            self.arch.ppg_mode,
            input_width=self.arch.input_width,
            luts=self.luts,
        )

    def to_dict(self) -> dict:
        """The document: each table that splits as its halves object, any other as a list."""
        return self._document(list)

    def _document(self, table: type) -> dict:
        """The document, with each table that does not split as ``table(entries)``."""
        luts = None
        if self.luts is not None:
            luts = [f if isinstance(f, dict) else table(f) for f in _table_forms(self.luts)]
        return {
            "version": self.version,
            "arch": self.arch.to_dict(),
            "coefficients": list(self.coefficients.values),
            "plan": {
                "group_size": self.plan.group_size,
                "groups": [list(g) for g in self.plan.groups],
                "padded_taps": self.plan.padded_taps,
            },
            "luts": luts,
        }

    def save(self, path: str) -> None:
        """Write ``json.dumps(self.to_dict(), indent=2)`` and a newline, byte for byte.

        Its tables are tuples, as checked tables are, so none is copied.
        """
        with open(path, "w", encoding="utf-8") as f:
            _write(f, self._document(tuple), 0)
            f.write("\n")

    @classmethod
    def from_dict(cls, data: dict) -> "DesignFile":
        _require_keys(data, _TOP_KEYS, "design")
        if _integer(data["version"], "design.version") != DESIGN_VERSION:
            raise DesignError(f"unsupported design version {data['version']!r}")
        _require_keys(data["arch"], _ARCH_KEYS, "design.arch")
        try:
            arch = ArchConfig.from_dict(data["arch"])
        except (KeyError, ValueError) as exc:
            raise DesignError(f"bad architecture: {exc}") from exc

        coeff_values = data["coefficients"]
        if not isinstance(coeff_values, list):
            raise DesignError("design.coefficients must be a list of integers")
        for v in coeff_values:
            _integer(v, "every coefficient")
        if len(coeff_values) != arch.num_taps:
            raise DesignError(
                f"design.coefficients has {len(coeff_values)} values but "
                f"design.arch.num_taps is {arch.num_taps}"
            )
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
                _integer(raw_plan["group_size"], "group_size"),
                tuple(
                    tuple(None if v is None else _integer(v, "a group member") for v in g)
                    for g in raw_plan["groups"]
                ),
                _integer(raw_plan["padded_taps"], "padded_taps"),
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

        return cls(arch, coefficients, plan, stored)

    @classmethod
    def load(cls, path: str) -> "DesignFile":
        """The design in the file at ``path``; every DesignError it raises names the path first."""
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except UnicodeDecodeError as exc:
            raise DesignError(f"{path}: not UTF-8 text ({exc})") from exc
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
            raise DesignError(f"{path}: not valid JSON ({exc})") from exc
        try:
            return cls.from_dict(data)
        except DesignError as exc:
            raise DesignError(f"{path}: {exc}") from exc


def _write(f, value, indent: int) -> None:
    """Write ``value`` as ``json.dumps(value, indent=2)`` lays it out ``indent`` spaces in.

    A list whose entries are all ``int`` is written as their ``repr``s,
    ``_SLICE`` entries per write; any other is written entry by entry, and
    each scalar and object key as ``json.dumps`` writes it. Object keys
    must be strings, as a design's are.
    """
    if not value or not isinstance(value, (dict, list, tuple)):  # a scalar, [] or {}
        f.write(_scalar(value))
        return
    is_dict = isinstance(value, dict)
    separator = ",\n" + " " * (indent + 2)
    lead = ("{" if is_dict else "[") + separator[1:]
    if not is_dict and {int}.issuperset(map(type, value)):
        for start in range(0, len(value), _SLICE):
            f.write(lead + separator.join(map(repr, value[start : start + _SLICE])))
            lead = separator
    else:
        for entry in value:
            f.write(lead + (_scalar(entry) + ": " if is_dict else ""))
            _write(f, value[entry] if is_dict else entry, indent + 2)
            lead = separator
    f.write("\n" + " " * indent + ("}" if is_dict else "]"))


def _scalar(value) -> str:
    """``value`` as ``json.dumps`` writes it; an int, a string or None without an encoder."""
    if type(value) is int:
        return repr(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return "null" if value is None else json.dumps(value)


def rederive_luts(design: DesignFile) -> tuple[tuple[int, ...], ...]:
    """Rebuild all tables from the design's coefficients.

    Matching the stored entries byte for byte is the design round-trip
    invariant; a difference means the file was edited or corrupted.
    """
    return tuple(build_lut(design.coefficients, g).entries for g in design.plan.groups)
