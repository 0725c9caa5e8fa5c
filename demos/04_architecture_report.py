#!/usr/bin/env python3
"""Resource reports and side-by-side architecture comparisons.

Model costs (gates, depth, gates x depth) come from the declared unit-gate
constants and are reproducible; synthesis figures from an actual toolchain
can be attached as external values and get their own cells x nanoseconds
area-delay product, never mixed with model units.
"""

import json
import random
from decimal import Decimal

from dafir import (
    AdderKind,
    ArchConfig,
    CoefficientSet,
    DesignFile,
    ExternalFigures,
    FixedFormat,
    PpgMode,
    compare_architectures,
    estimate_resources,
)


def main() -> None:
    fmt = FixedFormat(16)
    rng = random.Random(4)
    coeffs = CoefficientSet.from_integers(
        [rng.randint(-32768, 32767) for _ in range(8)], fmt
    )

    def design(ppg_mode: PpgMode, tree: AdderKind) -> DesignFile:
        return DesignFile.create(ArchConfig(8, 16, 16, 2, ppg_mode, tree), coeffs)

    stored = design(PpgMode.STORED, AdderKind.CLA)
    mux = design(PpgMode.MUX, AdderKind.CLA)

    print("stored-table architecture, K=8 / W=16 / L=16 / pairs:")
    print(json.dumps(estimate_resources(stored).to_dict(), indent=2))

    print("\nstored tables vs mux generation (same filter, outputs checked first):")
    comparison = compare_architectures(stored, mux)
    print(f"  output check: {comparison.output_check}")
    print(f"  memory locations: {comparison.baseline.memory_locations} -> "
          f"{comparison.candidate.memory_locations}")
    print(f"  deltas vs baseline (%): {comparison.deltas_pct}")

    print("\ncarry-save tree vs lookahead tree, with synthesis figures attached:")
    csa = design(PpgMode.MUX, AdderKind.CSA_TREE)
    cla = design(PpgMode.MUX, AdderKind.CLA)
    comparison = compare_architectures(
        csa,
        cla,
        baseline_external=ExternalFigures(606, Decimal("2.375"), Decimal("387")),
        candidate_external=ExternalFigures(357, Decimal("2.523"), Decimal("379")),
    )
    ext_a = comparison.baseline.external
    ext_b = comparison.candidate.external
    print(f"  baseline  ADP: {ext_a.cells} cells x {ext_a.time_ns} ns = {ext_a.adp}")
    print(f"  candidate ADP: {ext_b.cells} cells x {ext_b.time_ns} ns = {ext_b.adp}")
    print(f"  deltas vs baseline (%): {comparison.deltas_pct}")


if __name__ == "__main__":
    main()
