"""Bit-exact distributed-arithmetic FIR filtering with hardware cost models.

The package splits into:

- :mod:`dafir.numerics`: fixed-point formats, quantization, the direct-form
  golden oracle, accumulator sizing.
- :mod:`dafir.engine`: DA lookup tables, tap partitioning, the mux-based
  partial-product generator and the L-cycle bit-serial evaluator.
- :mod:`dafir.adders`: gate-level ripple / carry-save / carry-lookahead
  models with a declared unit-gate cost model.
- :mod:`dafir.design`: the architecture and design-file format; a design
  carries the plan and tables every other layer reads.
- :mod:`dafir.report`: memory, gate-count, depth and area-delay-product
  accounting of a design plus comparisons of two designs.
- :mod:`dafir.cli`: the command line.
"""

from .adders import (
    AdderKind,
    BitVector,
    CostModel,
    DEFAULT_COST_MODEL,
    GateCost,
    adder_tree_cost,
    adder_tree_sum,
    cla_add,
    csa_compress,
    ripple_add,
)
from .design import ArchConfig, DesignFile, rederive_luts
from .engine import (
    CycleRecord,
    CycleTrace,
    DaFilter,
    DaLut,
    Mismatch,
    PartitionPlan,
    PpgMode,
    TracedBlock,
    address_for_cycle,
    all_windows,
    build_lut,
    da_inner_product,
    memory_locations,
    mux_ppg,
    partial_product_width,
    partition_taps,
    verify_windows,
)
from .numerics import (
    AccumulatorOverflow,
    CoefficientSet,
    DirectFormFir,
    FixedFormat,
    dequantize,
    direct_fir,
    min_signed_width,
    quantize_coefficient,
    required_accumulator_width,
)
from .report import ArchitectureMismatch, ExternalFigures, ResourceReport, adp, compare_architectures, estimate_resources

__version__ = "0.1.0"
