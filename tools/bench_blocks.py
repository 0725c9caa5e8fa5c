"""Microseconds per output of block evaluation, the per-sample push and direct_fir.

Usage, from the root of a source checkout:

    python3 tools/bench_blocks.py [--parent DIR]

For each filter shape (K taps, group size M) at W = L = 16 bits, in both
partial-product modes, one seeded stream is filtered three ways in the
same process: ``DaFilter.process`` (blocks of ``LANES`` outputs), a loop of
``DaFilter.push`` (one output at a time, the path untraced streams took
before blocks) and ``numerics.direct_fir`` (the plain multiply-accumulate
oracle). Every output must equal the oracle's. Each timing is the best of
``REPEATS`` rounds that run the three in turn, so a host that changes
speed between rounds affects all three alike. A block binds its table
reads on the first block; a warm-up block is run first, so the figures
are steady-state.

Each row names the route its blocks read tables by: ``pack`` (M <= 8,
⌊8/M⌋ groups read at one byte key), ``split`` (M > 8, a separable table
read as its low and high address bytes' halves) or ``gather`` (M > 8, a
table that is not separable, its entries gathered one by one). The
``EDITED`` row is stored K = 64, M = 16 with one entry of its first
table off by one at an address with both bytes nonzero, which makes it
inseparable; its outputs must equal ``push``'s instead of the oracle's.

Traced rows time what ``dafir run --trace`` does per output at the
``TRACED_SHAPES``, and at ``EDITED`` (stored, route ``gather``): the
command line's trace writer, which runs
``DaFilter.traced_blocks`` and renders each record (addresses and partials
looked up at each read's key: in bytes tables built per call for M <= 8,
in the tables, formatted one by one, above that) and writes them as bytes,
against ``DaFilter.traced_blocks`` alone (``traced_blocks``: the traced
datapath, whose columns the writer's rendering would otherwise hide) and
a loop of ``DaFilter.push_traced`` with one
``json.dumps`` per cycle record (the path traced runs took before blocks).
Both write outputs and records to in-memory files (the writer's records to
a binary one, as ``dafir run`` opens ``--trace``), and the two traces must
be byte-identical, so every record of the writer is checked against
``push_traced``; the outputs must equal ``push_traced``'s, and but for
``EDITED`` ``direct_fir``'s.

The intake row times, in ms per call, what ``dafir design`` and untraced
``dafir run`` do with the stored design at ``INTAKE``: parse and quantize
its K coefficients from text (``cli._parse_coefficients`` on a file of K
seeded reals with 9 decimals, as the benchmark writes them, each checked
against an exact ``Fraction`` rounding), create the design from the
coefficients (``DesignFile.create``, which builds each M > 8 table's two
8-bit halves), write the design file (``DesignFile.save``, into a
temporary directory; each table as its halves, and ``save_m4``: the same
coefficients stored at M = 4, every table a list), decode the text that
save wrote (``json.loads``, as ``DesignFile.load`` does), check its
tables (``check_tables`` on the decoded halves), build the filter from
the checked tables and evaluate its first one-sample block (binding the
block's reads) and filter ``SAMPLES`` samples in steady blocks. The
``_lists`` steps decode and check the same design in the list form that
earlier versions of ``save`` wrote (every table as its 2^M entries, which
``check_tables`` also splits), in the same rounds, so the two forms are
timed by alternating calls in one process; ``file_bytes`` and
``file_bytes_lists`` are the two files' sizes. Every save must write the
same text, both files must be what ``json.dumps(..., indent=2)`` writes
for the design, and both forms must check to the tables ``rederive_luts``
builds.

Verify rows time ``verify_windows`` per window at the ``verify`` workload's
shape (K = 4, W = 8, L = 4) and configurations over all 65,536 windows,
given as ``all_windows`` (the tap columns ``dafir verify --exhaustive``
checks) and as the same windows in a list (packed into columns a chunk at
a time). Every call must report all windows checked with no mismatch.
``refused`` times, per checked window, a list of the first
``LANES - 1`` of those windows followed by one whose samples are one
above the range, which must raise ValueError once the windows before it
are checked.

Probe rows time ``da_inner_product(..., bit_level=True)`` per window, one
row per adder tree, at the ``verify`` workload's gate-level probe: mux
M = 1 at the verify shape, over ``PROBE_WINDOWS`` seeded random windows,
untraced. Each window runs the scalar schedule, then its gate-level
datapath: the entries the schedule read, as bit-planes, through the tree
and the shift-accumulator ``verify_windows`` checks with; every value
must equal the plain multiply-accumulate. The trees run in turn each round.
``gate_us`` is the part of a window's time spent inside the gates: in
``engine._tree_planes`` and the accumulator's adds (``engine._cpa_planes``),
timed around each call in separate runs of the same windows (best of
``REPEATS``, raw, timer calls included), so ``bit_level_us - gate_us`` is
what a window costs outside them.

CLA rows time the gate-level carry-lookahead adder (``adders._cla_planes``)
per call at the probe's adder widths: 10 bits (the tree's adders) and 11
(the accumulator's, one bit wider), on one lane (a probe window) and on
``4 * LANES`` lanes (the L = 4 cycles of a ``verify_windows`` chunk), each
lane a seeded pair of words and a carry-in. Every result must equal the
ripple adder's (``adders._ripple_planes``). The probe rows' ``gate_us``,
beside them in the file, is the time a window spends in all of its adders.

The halves verify row times, in ms per call, ``verify_windows`` over
``HALVES_WINDOWS`` seeded random windows (what ``dafir verify --random
64`` checks) on the stored design at ``HALVES_VERIFY``, saved as
``dafir design`` writes it (every table as its halves): ``fresh`` on a
design just loaded, which no call has read yet, one per round (the first
call of a ``dafir verify`` run), and ``warm`` on one design that calls
have read before. Both must report every window checked, no mismatch.

Every timed call is bracketed by the benchmark's fixed reference loop
(``benchmarks/workloads.py``), since a shared host can change speed for
seconds at a time. Each figure is given raw (``*_us``, the best round)
and in reference microseconds (``*_ref_us``, the median round): a call's
time scaled by ``REFERENCE_SECONDS`` over the loop's time around it,
which is what the call would take with the host in the state that
constant was measured in. Ratios are of reference figures. Each reference
figure comes with the interquartile range of its rounds (``*_ref_iqr``, in
the same unit), the spread of the same call on this host: a move between
two files smaller than it is noise.

With ``--parent DIR``, the verify and probe rows are also timed against
another source checkout, in this process: ``DIR/src/dafir`` is imported
as the package ``dafir_parent``, and before any other row, each row's
call runs once on each tree untimed, then on both in turn, ``AB_PAIRS``
times, the one that goes first alternating. Each pair gives the ratio of
this tree's time to the parent's, and ``ab_rows`` holds each row's
median ratio with its quartiles, so a host that changes speed between
pairs moves both sides of a ratio alike. Separate runs of this tool on
two trees cannot show a 10% move; these rows can.

The result is written to ``BENCH_blocks.json`` beside ``src/``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from dafir import engine  # noqa: E402
from dafir.adders import DEFAULT_COST_MODEL, AdderKind, _cla_planes, _ripple_planes  # noqa: E402
from dafir.cli import _parse_coefficients, _write_traced  # noqa: E402
from dafir.design import ArchConfig, DesignFile, rederive_luts  # noqa: E402
from dafir.engine import (  # noqa: E402
    LANES,
    DaFilter,
    PpgMode,
    all_windows,
    build_lut,
    check_tables,
    da_inner_product,
    partition_taps,
    verify_windows,
)
from dafir.numerics import CoefficientSet, FixedFormat, direct_fir  # noqa: E402
from workloads import REFERENCE_SECONDS, real_coefficients, reference_seconds  # noqa: E402

SHAPES = ((8, 4), (64, 2), (64, 4), (64, 8), (64, 16))  # (K, M)
EDITED = (64, 16)  # (K, M) of the stored row whose first table has one edited entry
INTAKE = (64, 16)  # (K, M) of the stored design whose intake is timed
INTAKE_STEPS = (
    "quantize", "create", "save", "save_m4", "json_decode", "check_tables", "json_decode_lists",
    "check_tables_lists", "first_block", "steady_blocks",
)
TRACED_SHAPES = ((16, 2), (16, 4), (64, 4), (64, 8), (64, 16))
VERIFY_CONFIGS = ((PpgMode.STORED, 4), (PpgMode.STORED, 2), (PpgMode.MUX, 2), (PpgMode.MUX, 1))
VERIFY_TAPS, VERIFY_COEFF_WIDTH, VERIFY_INPUT_WIDTH = 4, 8, 4
PROBE_CONFIG = (PpgMode.MUX, 1)  # the verify workload's gate-level probe
PROBE_WINDOWS = 1200
CLA_WIDTHS = (10, 11)  # the probe's tree adders and accumulator adders
CLA_LANES = (1, 4 * LANES)  # a probe window; a verify chunk's L = 4 cycles
CLA_CALLS = {1: 2000, 4 * LANES: 500}
HALVES_VERIFY = (64, 16)  # (K, M) of the stored halves design verify is timed on
HALVES_WINDOWS = 64
AB_PAIRS = 15  # alternating parent/change pairs per row of ab_rows
WIDTH = 16  # coefficient and sample bits
SAMPLES = 4000
TRACED_SAMPLES = 2000
REPEATS = 5
SEED = 1


def best_us_per_unit(runs: dict, arg, units: int) -> dict:
    """Time of each ``run(arg)`` in us per unit: the best raw, the median in reference us.

    ``REPEATS`` rounds run all of ``runs`` in turn; each call is bracketed
    by the reference loop. A bracket that caught the host in another state
    than the call did skews that call's reference figure, and the least of
    them would pick such a call, so the reference figure is the median,
    given with the interquartile range of the rounds' reference figures
    (``*_ref_iqr``), against which a move of that figure can be judged.
    """
    raw = {name: [] for name in runs}
    ref = {name: [] for name in runs}
    for _ in range(REPEATS):
        for name, run in runs.items():
            before = reference_seconds()
            start = time.perf_counter()
            run(arg)
            seconds = time.perf_counter() - start
            reference = (before + reference_seconds()) / 2
            raw[name].append(seconds)
            ref[name].append(seconds / reference * REFERENCE_SECONDS)
    times = {}
    for name in runs:
        q1, median, q3 = statistics.quantiles(ref[name], n=4)
        times[f"{name}_us"] = round(min(raw[name]) / units * 1e6, 3)
        times[f"{name}_ref_us"] = round(median / units * 1e6, 3)
        times[f"{name}_ref_iqr"] = round((q3 - q1) / units * 1e6, 3)
    return times


def seeded(taps: int, group_size: int, mode: PpgMode, count: int, edited: bool = False):
    """A filter at the shape, its coefficients and a seeded stream of ``count`` samples.

    With ``edited``, stored entry 257 of the first table is one more than
    its subset sum.
    """
    rng = random.Random(f"{SEED}:{taps}:{group_size}")
    half = 1 << (WIDTH - 1)
    values = [rng.randrange(-half, half) for _ in range(taps)]
    samples = [rng.randrange(-half, half) for _ in range(count)]
    coeffs = CoefficientSet.from_integers(values, FixedFormat(WIDTH))
    plan = partition_taps(taps, group_size)
    luts = None
    if edited:
        luts = [list(build_lut(coeffs, g).entries) for g in plan.groups]
        luts[0][257] += 1
    filt = DaFilter(coeffs, plan, mode, input_width=WIDTH, luts=luts)
    return filt, values, samples


def route(group_size: int, edited: bool) -> str:
    """How blocks of the shape read tables: ``pack``, ``split`` or ``gather``."""
    return "gather" if edited else "split" if group_size > 8 else "pack"


def measure(taps: int, group_size: int, mode: PpgMode, edited: bool = False) -> dict:
    filt, values, samples = seeded(taps, group_size, mode, SAMPLES, edited)
    filt.process(samples[:1])  # warm-up: the first block binds its reads

    def blocks(xs):
        filt.reset()
        return filt.process(xs)

    def push(xs):
        filt.reset()
        return [filt.push(x) for x in xs]

    want = push(samples) if edited else direct_fir(samples, values)
    if blocks(samples) != want or push(samples) != want:
        raise SystemExit(f"K={taps} M={group_size} {mode.value}: outputs differ")
    times = best_us_per_unit(
        {"block": blocks, "push": push, "direct_fir": lambda xs: direct_fir(xs, values)},
        samples,
        len(samples),
    )
    shape = {"taps": taps, "group_size": group_size, "mode": mode.value}
    return {**shape, "route": route(group_size, edited), **times}


def measure_traced(taps: int, group_size: int, mode: PpgMode, edited: bool = False) -> dict:
    filt, values, samples = seeded(taps, group_size, mode, TRACED_SAMPLES, edited)
    filt.process(samples[:1])  # warm-up: the first block binds its reads
    files = {}

    def traced_blocks(xs):
        filt.reset()
        out, trace = files["traced_block"] = io.StringIO(), io.BytesIO()
        _write_traced(out, trace, filt, xs)

    def datapath(xs):
        filt.reset()
        for _ in filt.traced_blocks(xs):
            pass

    def push_traced(xs):
        # The per-sample loop traced runs took before blocks, record by record.
        filt.reset()
        out, trace = files["push_traced"] = io.StringIO(), io.StringIO()
        for i, x in enumerate(xs):
            y, records = filt.push_traced(x)
            out.write(f"{y}\n")
            for rec in records:
                trace.write(
                    json.dumps(
                        {
                            "sample_index": i,
                            "cycle": rec.cycle,
                            "addresses": list(rec.addresses),
                            "partials": list(rec.partials),
                            "tree_sum": rec.tree_sum,
                            "subtract": rec.subtract,
                            "acc": rec.acc_after,
                        }
                    )
                    + "\n"
                )

    times = best_us_per_unit(
        {"traced_block": traced_blocks, "traced_blocks": datapath, "push_traced": push_traced},
        samples,
        len(samples),
    )
    block_out, block_trace = files["traced_block"]
    push_out, push_trace = files["push_traced"]
    if not edited:
        want = "".join(f"{y}\n" for y in direct_fir(samples, values))
        if push_out.getvalue() != want:
            raise SystemExit(
                f"K={taps} M={group_size} {mode.value}: outputs differ from direct_fir"
            )
    if block_out.getvalue() != push_out.getvalue():
        raise SystemExit(f"K={taps} M={group_size} {mode.value}: outputs differ from push_traced")
    if block_trace.getvalue() != push_trace.getvalue().encode():
        raise SystemExit(f"K={taps} M={group_size} {mode.value}: traces differ from push_traced")
    shape = {"taps": taps, "group_size": group_size, "mode": mode.value}
    return {**shape, "route": route(group_size, edited), **times}


def measure_intake(taps: int, group_size: int, scratch: Path) -> dict:
    filt, values, samples = seeded(taps, group_size, PpgMode.STORED, SAMPLES)
    arch = ArchConfig(taps, WIDTH, WIDTH, group_size)
    coeffs = CoefficientSet.from_integers(values, FixedFormat(WIDTH))
    design = DesignFile.create(arch, coeffs)
    path = str(scratch / "design.json")
    design.save(path)
    text = Path(path).read_text(encoding="utf-8")  # what DesignFile.load decodes
    reals = real_coefficients(random.Random(f"{SEED}:reals:{taps}"), taps, 9)
    reals_path = str(scratch / "coeffs.txt")
    Path(reals_path).write_text("".join(f"{r}\n" for r in reals), encoding="utf-8")
    if _parse_coefficients(reals_path, FixedFormat(WIDTH)) != (
        [round(Fraction(r) * (1 << (WIDTH - 1))) for r in reals], []  # Fraction: half to even
    ):
        raise SystemExit(f"intake K={taps}: quantized coefficients differ from Fraction rounding")
    m4 = DesignFile.create(ArchConfig(taps, WIDTH, WIDTH, 4), coeffs)
    m4_path = str(scratch / "m4.json")
    luts = json.loads(text)["luts"]
    checked = check_tables(luts, design.plan, WIDTH)
    # The list form: the same document with every table as its entries.
    document = design.to_dict()
    document["luts"] = [list(t) for t in rederive_luts(design)]
    text_lists = json.dumps(document, indent=2) + "\n"
    luts_lists = json.loads(text_lists)["luts"]

    def first_block(_):
        fresh = DaFilter(design.coefficients, design.plan, input_width=WIDTH, luts=checked)
        return fresh.process(samples[:1])

    def steady(xs):
        filt.reset()
        return filt.process(xs)

    if steady(samples) != direct_fir(samples, values) or first_block(None) != steady(samples[:1]):
        raise SystemExit(f"intake K={taps} M={group_size}: outputs differ from direct_fir")
    built = rederive_luts(design)
    if built != checked or built != check_tables(luts_lists, design.plan, WIDTH):
        raise SystemExit(f"intake K={taps} M={group_size}: saved tables differ from built ones")
    times = best_us_per_unit(
        {
            "quantize": lambda _: _parse_coefficients(reals_path, FixedFormat(WIDTH)),
            "create": lambda _: DesignFile.create(arch, coeffs),
            "save": lambda _: design.save(path),
            "save_m4": lambda _: m4.save(m4_path),
            "json_decode": lambda _: json.loads(text),
            "check_tables": lambda _: check_tables(luts, design.plan, WIDTH),
            "json_decode_lists": lambda _: json.loads(text_lists),
            "check_tables_lists": lambda _: check_tables(luts_lists, design.plan, WIDTH),
            "first_block": first_block,
            "steady_blocks": steady,
        },
        samples,
        1000,  # us per 1,000 calls: ms per call
    )
    if Path(path).read_text(encoding="utf-8") != text:
        raise SystemExit(f"intake K={taps} M={group_size}: saves differ")
    for saved, saved_path in ((design, path), (m4, m4_path)):
        want = json.dumps(saved.to_dict(), indent=2) + "\n"
        if Path(saved_path).read_text(encoding="utf-8") != want:
            raise SystemExit(f"intake: {saved_path} is not what json.dumps writes")
    times = {key.replace("_us", "_ms"): value for key, value in times.items()}
    sizes = {"file_bytes": len(text.encode()), "file_bytes_lists": len(text_lists.encode())}
    return {"taps": taps, "group_size": group_size, "mode": "stored", **sizes, **times}


def verify_values(group_size: int) -> list[int]:
    """The seeded coefficients the verify rows of group size ``group_size`` check."""
    rng = random.Random(f"{SEED}:verify:{group_size}")
    half = 1 << (VERIFY_COEFF_WIDTH - 1)
    return [rng.randrange(-half, half) for _ in range(VERIFY_TAPS)]


def probe_inputs() -> tuple[list[int], list[tuple[int, ...]]]:
    """The probe's seeded coefficients and its ``PROBE_WINDOWS`` windows."""
    rng = random.Random(f"{SEED}:probe")
    half = 1 << (VERIFY_COEFF_WIDTH - 1)
    values = [rng.randrange(-half, half) for _ in range(VERIFY_TAPS)]
    half = 1 << (VERIFY_INPUT_WIDTH - 1)
    windows = [
        tuple(rng.randrange(-half, half) for _ in range(VERIFY_TAPS)) for _ in range(PROBE_WINDOWS)
    ]
    return values, windows


def measure_verify(mode: PpgMode, group_size: int) -> dict:
    values = verify_values(group_size)
    coeffs = CoefficientSet.from_integers(values, FixedFormat(VERIFY_COEFF_WIDTH))
    plan = partition_taps(VERIFY_TAPS, group_size)
    windows = list(all_windows(VERIFY_TAPS, VERIFY_INPUT_WIDTH))

    def checked(given):
        result = verify_windows(
            coeffs, plan, mode, input_width=VERIFY_INPUT_WIDTH, windows=given
        )
        if result != (len(windows), []):
            raise SystemExit(f"verify {mode.value} M={group_size}: {result[0]}, {result[1]}")

    # The last window's samples are one above the range.
    cut = windows[: LANES - 1] + [(1 << (VERIFY_INPUT_WIDTH - 1),) * VERIFY_TAPS]

    def refused(_):
        try:
            verify_windows(coeffs, plan, mode, input_width=VERIFY_INPUT_WIDTH, windows=cut)
        except ValueError:
            return
        raise SystemExit(f"verify {mode.value} M={group_size}: the refused window passed")

    times = best_us_per_unit(
        {
            "all_windows": lambda _: checked(all_windows(VERIFY_TAPS, VERIFY_INPUT_WIDTH)),
            "list": checked,
        },
        windows,
        len(windows),
    )
    times.update(best_us_per_unit({"refused": refused}, None, LANES - 1))
    return {"taps": VERIFY_TAPS, "group_size": group_size, "mode": mode.value, **times}


def measure_probe() -> list[dict]:
    mode, group_size = PROBE_CONFIG
    values, windows = probe_inputs()
    coeffs = CoefficientSet.from_integers(values, FixedFormat(VERIFY_COEFF_WIDTH))
    plan = partition_taps(VERIFY_TAPS, group_size)
    want = [sum(a * x for a, x in zip(values, w)) for w in windows]

    def probe(tree: AdderKind):
        def run(given):
            got = [
                da_inner_product(
                    w, coeffs, plan, mode, tree, input_width=VERIFY_INPUT_WIDTH,
                    collect_trace=False, bit_level=True,
                )[0]
                for w in given
            ]
            if got != want:
                raise SystemExit(f"probe {tree.name.lower()}: a value differs from the oracle")

        return run

    names = {tree.name.lower(): tree for tree in AdderKind}
    times = best_us_per_unit(
        {name: probe(tree) for name, tree in names.items()}, windows, len(windows)
    )
    gates = {name: [] for name in names}
    for _ in range(REPEATS):
        for name, tree in names.items():
            gates[name].append(gate_seconds(probe(tree), windows))
    return [
        {
            "tree": name, "taps": VERIFY_TAPS, "group_size": group_size, "mode": mode.value,
            "windows": PROBE_WINDOWS,
            **{f"bit_level{unit}": times[name + unit] for unit in ("_us", "_ref_us", "_ref_iqr")},
            "gate_us": round(min(gates[name]) / len(windows) * 1e6, 3),
        }
        for name in names
    ]


def gate_seconds(run, arg) -> float:
    """Seconds ``run(arg)`` spends in the gate-level tree and the accumulator's adds."""
    spent = 0.0

    def timed(real):
        def call(*args):
            nonlocal spent
            start = time.perf_counter()
            try:
                return real(*args)
            finally:
                spent += time.perf_counter() - start

        return call

    with (
        mock.patch.object(engine, "_tree_planes", timed(engine._tree_planes)),
        mock.patch.object(engine, "_cpa_planes", timed(engine._cpa_planes)),
    ):
        run(arg)
    return spent


def measure_cla() -> list[dict]:
    rng = random.Random(f"{SEED}:cla")
    block = DEFAULT_COST_MODEL.cla_block_size
    rows = []
    for width in CLA_WIDTHS:
        for lanes in CLA_LANES:
            a, b = ([rng.getrandbits(lanes) for _ in range(width)] for _ in range(2))
            cin, mask, calls = rng.getrandbits(lanes), (1 << lanes) - 1, CLA_CALLS[lanes]
            if _cla_planes(a, b, cin, mask, block) != _ripple_planes(a, b, cin):
                raise SystemExit(f"cla {width} bits, {lanes} lanes: differs from ripple")

            def cla(_):
                for _ in range(calls):
                    _cla_planes(a, b, cin, mask, block)

            times = best_us_per_unit({"cla": cla}, None, calls)
            rows.append({"width": width, "lanes": lanes, "block": block, **times})
    return rows


def measure_halves_verify(taps: int, group_size: int, scratch: Path) -> dict:
    _, values, _ = seeded(taps, group_size, PpgMode.STORED, 0)
    coeffs = CoefficientSet.from_integers(values, FixedFormat(WIDTH))
    path = str(scratch / "halves.json")
    DesignFile.create(ArchConfig(taps, WIDTH, WIDTH, group_size), coeffs).save(path)
    rng = random.Random(f"{SEED}:halves_verify")
    half = 1 << (WIDTH - 1)
    windows = [
        tuple(rng.randrange(-half, half) for _ in range(taps)) for _ in range(HALVES_WINDOWS)
    ]
    fresh = [DesignFile.load(path) for _ in range(REPEATS)]  # one unread design a round
    warm = DesignFile.load(path)

    def checked(design):
        result = verify_windows(
            design.coefficients, design.plan, PpgMode.STORED,
            input_width=WIDTH, windows=windows, luts=design.luts,
        )
        if result != (len(windows), []):
            raise SystemExit(f"halves verify K={taps} M={group_size}: {result[0]}, {result[1]}")

    checked(warm)
    times = best_us_per_unit(
        {"fresh": lambda _: checked(fresh.pop()), "warm": lambda _: checked(warm)}, None, 1000
    )
    times = {key.replace("_us", "_ms"): value for key, value in times.items()}
    return {
        "taps": taps, "group_size": group_size, "mode": "stored", "windows": HALVES_WINDOWS,
        **times,
    }


def load_tree(src: Path, name: str):
    """The ``dafir`` package of the source tree ``src``, imported as the package ``name``."""
    package = src / "dafir"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its modules' relative imports resolve under ``name``
    spec.loader.exec_module(module)
    return module


def ab_calls(package: str) -> dict[str, tuple]:
    """(call, windows) of each verify and probe row, made with the tree imported as ``package``.

    Each call checks its result as the rows' measurements do, and raises
    SystemExit if it differs.
    """
    tree = importlib.import_module(f"{package}.engine")
    adders = importlib.import_module(f"{package}.adders")
    numerics = importlib.import_module(f"{package}.numerics")
    fmt = numerics.FixedFormat(VERIFY_COEFF_WIDTH)
    coefficients = numerics.CoefficientSet.from_integers
    windows = list(all_windows(VERIFY_TAPS, VERIFY_INPUT_WIDTH))
    calls = {}

    def verify(mode, group_size, listed):
        coeffs = coefficients(verify_values(group_size), fmt)
        plan = tree.partition_taps(VERIFY_TAPS, group_size)

        def call():
            given = windows if listed else tree.all_windows(VERIFY_TAPS, VERIFY_INPUT_WIDTH)
            result = tree.verify_windows(
                coeffs, plan, mode, input_width=VERIFY_INPUT_WIDTH, windows=given
            )
            if result != (len(windows), []):
                raise SystemExit(f"{package} verify M={group_size}: {result[0]}, {result[1]}")

        return call, len(windows)

    for mode, group_size in VERIFY_CONFIGS:
        for listed in (False, True):
            name = f"verify {mode.value} M={group_size} {'list' if listed else 'all_windows'}"
            calls[name] = verify(tree.PpgMode(mode.value), group_size, listed)
    values, probe_windows = probe_inputs()
    mode, group_size = PROBE_CONFIG
    mode = tree.PpgMode(mode.value)
    coeffs = coefficients(values, fmt)
    plan = tree.partition_taps(VERIFY_TAPS, group_size)
    want = [sum(a * x for a, x in zip(values, w)) for w in probe_windows]

    def probe(kind):
        def call():
            got = [
                tree.da_inner_product(
                    w, coeffs, plan, mode, kind,
                    input_width=VERIFY_INPUT_WIDTH, collect_trace=False, bit_level=True,
                )[0]
                for w in probe_windows
            ]
            if got != want:
                raise SystemExit(f"{package} probe {kind.name.lower()}: differs from the oracle")

        return call, len(probe_windows)

    for kind in adders.AdderKind:
        calls[f"probe {kind.name.lower()}"] = probe(kind)
    return calls


def measure_ab(parent: Path) -> list[dict]:
    """Each verify and probe row timed on this tree and the parent's, alternating in pairs."""
    load_tree(parent / "src", "dafir_parent")
    sides = {"parent": ab_calls("dafir_parent"), "change": ab_calls("dafir")}
    rows = []
    for name, (_, units) in sides["change"].items():
        for calls in sides.values():
            calls[name][0]()  # warm-up, and a check of both trees' results
        seconds = {side: [] for side in sides}
        for i in range(AB_PAIRS):
            for side in ("parent", "change")[:: 1 if i % 2 == 0 else -1]:
                call = sides[side][name][0]
                start = time.perf_counter()
                call()
                seconds[side].append(time.perf_counter() - start)
        ratios = [c / p for c, p in zip(seconds["change"], seconds["parent"])]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        rows.append(
            {
                "row": name,
                "pairs": AB_PAIRS,
                **{
                    f"{side}_us": round(statistics.median(seconds[side]) / units * 1e6, 3)
                    for side in sides
                },
                "ratio_median": round(median, 3),
                "ratio_q1": round(q1, 3),
                "ratio_q3": round(q3, 3),
            }
        )
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Time block evaluation, verify and its probe.")
    parser.add_argument(
        "--parent", type=Path, help="a source checkout to time the verify and probe rows against"
    )
    args = parser.parse_args(argv)
    # First, while neither tree has run anything else: the tree that had run
    # the other rows read up to 4% slower on identical code.
    ab_rows = measure_ab(args.parent) if args.parent else None
    rows = [measure(k, m, mode) for k, m in SHAPES for mode in PpgMode]
    rows.append(measure(*EDITED, PpgMode.STORED, edited=True))
    with tempfile.TemporaryDirectory() as scratch:
        intake = measure_intake(*INTAKE, Path(scratch))
        halves_verify = measure_halves_verify(*HALVES_VERIFY, Path(scratch))
    for row in rows:
        row["push_over_block"] = round(row["push_ref_us"] / row["block_ref_us"], 2)
    traced_rows = [measure_traced(k, m, mode) for k, m in TRACED_SHAPES for mode in PpgMode]
    traced_rows.append(measure_traced(*EDITED, PpgMode.STORED, edited=True))
    for row in traced_rows:
        row["push_traced_over_block"] = round(
            row["push_traced_ref_us"] / row["traced_block_ref_us"], 2
        )
    verify_rows = [measure_verify(mode, m) for mode, m in VERIFY_CONFIGS]
    probe_rows = measure_probe()
    cla_rows = measure_cla()
    record = {
        "what": "us per output (rows, traced_rows) or per window (verify_rows), raw (_us) and "
        "in reference us (_ref_us: scaled to the reference loop taking reference_seconds, "
        "median of REPEATS, with _ref_iqr the interquartile range of those REPEATS rounds); "
        "block = DaFilter.process (route: how its blocks read tables), "
        "push = per-sample DaFilter.push, "
        "direct_fir = the oracle; traced_block = the CLI's trace writer over "
        "DaFilter.traced_blocks, traced_blocks = DaFilter.traced_blocks alone, "
        "push_traced = per-sample push_traced with json.dumps per record; "
        "all_windows / list = verify_windows over all_windows(4, 4) / the same windows in a list; "
        "refused = verify_windows over LANES - 1 of those windows and one refused window, "
        "per checked window; "
        "probe_rows: us per window of da_inner_product(bit_level=True) per tree at mux M = 1, "
        "the verify workload's gate-level probe, with gate_us its time inside "
        "engine._tree_planes and engine._cpa_planes (raw, best of REPEATS); "
        "cla_rows: us per adders._cla_planes call at the probe's adder widths, on one lane "
        "and on the lanes of a verify chunk's cycles; "
        "intake: ms per call (_ms, _ref_ms) of quantize = cli._parse_coefficients of the "
        "K coefficients as 9-decimal text, create = DesignFile.create from the "
        "coefficients, save = DesignFile.save of the design (tables as halves), "
        "save_m4 = DesignFile.save of the same coefficients stored at M = 4 (tables as lists), "
        "json_decode = json.loads of the file save wrote, "
        "check_tables = its tables checked, json_decode_lists / check_tables_lists = the same "
        "for the list form of the design (every table as its entries), in the same rounds, "
        "file_bytes / file_bytes_lists = the two files' sizes, "
        "first_block = DaFilter from the checked tables and "
        "its first one-sample block, steady_blocks = DaFilter.process of the samples; "
        "halves_verify: ms per call of verify_windows over random windows on the stored "
        "halves design, fresh = just loaded (the first call), warm = read by earlier calls; "
        "raw figures best of REPEATS, in one process; "
        "ab_rows (with --parent): each verify and probe row's call on this tree and the "
        "parent's, alternating, AB_PAIRS pairs: median raw us per window of each side, and the "
        "median and quartiles of the pairs' change/parent time ratios",
        "width": WIDTH,
        "samples": SAMPLES,
        "traced_samples": TRACED_SAMPLES,
        "verify_shape": {
            "taps": VERIFY_TAPS,
            "coeff_width": VERIFY_COEFF_WIDTH,
            "input_width": VERIFY_INPUT_WIDTH,
        },
        "repeats": REPEATS,
        "reference_seconds": REFERENCE_SECONDS,
        "lanes": LANES,
        "seed": SEED,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "rows": rows,
        "intake": intake,
        "traced_rows": traced_rows,
        "verify_rows": verify_rows,
        "probe_rows": probe_rows,
        "cla_rows": cla_rows,
        "halves_verify": halves_verify,
    }
    if ab_rows is not None:
        record["ab_rows"] = ab_rows
    (ROOT / "BENCH_blocks.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for row in rows:
        print(
            f"K={row['taps']:>2} M={row['group_size']:>2} {row['mode']:<6} {row['route']:<6} "
            f"block {row['block_ref_us']:>7} push {row['push_ref_us']:>7} "
            f"direct_fir {row['direct_fir_ref_us']:>7} reference us/output"
        )
    print(
        f"K={intake['taps']:>2} M={intake['group_size']:>2} stored intake: "
        + ", ".join(
            f"{step} {intake[f'{step}_ref_ms']}"
            for step in INTAKE_STEPS
        )
        + f" reference ms; {intake['file_bytes']} bytes (lists: {intake['file_bytes_lists']})"
    )
    for row in traced_rows:
        print(
            f"K={row['taps']:>2} M={row['group_size']:>2} {row['mode']:<6} {row['route']:<6} "
            f"traced block {row['traced_block_ref_us']:>7} "
            f"traced_blocks {row['traced_blocks_ref_us']:>7} "
            f"push_traced {row['push_traced_ref_us']:>7} reference us/output"
        )
    for row in verify_rows:
        print(
            f"K={row['taps']:>2} M={row['group_size']:>2} {row['mode']:<6} "
            f"verify all_windows {row['all_windows_ref_us']:>6} list {row['list_ref_us']:>6} "
            f"refused {row['refused_ref_us']:>6} reference us/window"
        )
    for row in probe_rows:
        print(
            f"K={row['taps']:>2} M={row['group_size']:>2} {row['mode']:<6} "
            f"probe {row['tree']:<8} bit_level {row['bit_level_ref_us']:>6} reference us/window, "
            f"raw {row['bit_level_us']:>6} of which gates {row['gate_us']:>6}"
        )
    for row in cla_rows:
        print(
            f"cla {row['width']:>2} bits, {row['lanes']:>4} lanes: {row['cla_ref_us']:>7} "
            f"reference us/call, raw {row['cla_us']:>7}"
        )
    print(
        f"K={halves_verify['taps']:>2} M={halves_verify['group_size']:>2} stored halves verify "
        f"of {HALVES_WINDOWS} windows: fresh {halves_verify['fresh_ref_ms']} "
        f"warm {halves_verify['warm_ref_ms']} reference ms"
    )
    for row in ab_rows or ():
        print(
            f"{row['row']:<32} change/parent {row['ratio_median']:>6} "
            f"(quartiles {row['ratio_q1']}-{row['ratio_q3']}), "
            f"raw us/window {row['parent_us']} -> {row['change_us']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
