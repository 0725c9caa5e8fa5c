"""Microseconds per output of block evaluation, the per-sample push and direct_fir.

Usage, from the root of a source checkout:

    python3 tools/bench_blocks.py

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
``TRACED_SHAPES``: the command line's trace writer, which runs
``DaFilter.traced_blocks`` and renders each record (addresses and partials
looked up at each read's key: in bytes tables built per call for M <= 8,
in the tables, formatted one by one, above that) and writes them as bytes,
against a loop of ``DaFilter.push_traced`` with one
``json.dumps`` per cycle record (the path traced runs took before blocks).
Both write outputs and records to in-memory files (the writer's records to
a binary one, as ``dafir run`` opens ``--trace``), and the two traces must
be byte-identical, so every record of the writer is checked against
``push_traced``; the outputs must equal ``direct_fir``.

The intake row times, in ms per call, what ``dafir design`` and untraced
``dafir run`` do with the stored design at ``INTAKE``: create it from the
coefficients (``DesignFile.create``, which builds each M > 8 table's two
8-bit halves), write the design file (``DesignFile.save``, into a
temporary directory; each table as its halves), decode the text that
save wrote (``json.loads``, as ``DesignFile.load`` does), check its
tables (``check_tables`` on the decoded halves), build the filter from
the checked tables and evaluate its first one-sample block (binding the
block's reads) and filter ``SAMPLES`` samples in steady blocks. The
``_lists`` steps decode and check the same design in the list form that
earlier versions of ``save`` wrote (every table as its 2^M entries, which
``check_tables`` also splits), in the same rounds, so the two forms are
timed by alternating calls in one process; ``file_bytes`` and
``file_bytes_lists`` are the two files' sizes. Every save must write the
same text, and both forms must check to the tables ``rederive_luts``
builds.

Verify rows time ``verify_windows`` per window at the ``verify`` workload's
shape (K = 4, W = 8, L = 4) and configurations over all 65,536 windows,
given as ``all_windows`` (the tap columns ``dafir verify --exhaustive``
checks) and as the same windows in a list (packed into columns a chunk at
a time). Every call must report all windows checked with no mismatch.

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

The result is written to ``BENCH_blocks.json`` beside ``src/``.
"""

from __future__ import annotations

import io
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from dafir.cli import _write_traced  # noqa: E402
from dafir.design import ArchConfig, DesignFile, rederive_luts  # noqa: E402
from dafir.engine import (  # noqa: E402
    LANES,
    DaFilter,
    PpgMode,
    all_windows,
    build_lut,
    check_tables,
    partition_taps,
    verify_windows,
)
from dafir.numerics import CoefficientSet, FixedFormat, direct_fir  # noqa: E402
from workloads import REFERENCE_SECONDS, reference_seconds  # noqa: E402

SHAPES = ((8, 4), (64, 2), (64, 4), (64, 8), (64, 16))  # (K, M)
EDITED = (64, 16)  # (K, M) of the stored row whose first table has one edited entry
INTAKE = (64, 16)  # (K, M) of the stored design whose intake is timed
INTAKE_STEPS = (
    "create", "save", "json_decode", "check_tables", "json_decode_lists", "check_tables_lists",
    "first_block", "steady_blocks",
)
TRACED_SHAPES = ((16, 2), (16, 4), (64, 4), (64, 8), (64, 16))
VERIFY_CONFIGS = ((PpgMode.STORED, 4), (PpgMode.STORED, 2), (PpgMode.MUX, 2), (PpgMode.MUX, 1))
VERIFY_TAPS, VERIFY_COEFF_WIDTH, VERIFY_INPUT_WIDTH = 4, 8, 4
HALVES_VERIFY = (64, 16)  # (K, M) of the stored halves design verify is timed on
HALVES_WINDOWS = 64
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
    route = "gather" if edited else "split" if group_size > 8 else "pack"
    return {"taps": taps, "group_size": group_size, "mode": mode.value, "route": route, **times}


def measure_traced(taps: int, group_size: int, mode: PpgMode) -> dict:
    filt, values, samples = seeded(taps, group_size, mode, TRACED_SAMPLES)
    filt.process(samples[:1])  # warm-up: the first block binds its reads
    files = {}

    def traced_blocks(xs):
        filt.reset()
        out, trace = files["traced_block"] = io.StringIO(), io.BytesIO()
        _write_traced(out, trace, filt, xs)

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
        {"traced_block": traced_blocks, "push_traced": push_traced}, samples, len(samples)
    )
    block_out, block_trace = files["traced_block"]
    push_out, push_trace = files["push_traced"]
    want = "".join(f"{y}\n" for y in direct_fir(samples, values))
    if block_out.getvalue() != want or push_out.getvalue() != want:
        raise SystemExit(f"K={taps} M={group_size} {mode.value}: outputs differ from direct_fir")
    if block_trace.getvalue() != push_trace.getvalue().encode():
        raise SystemExit(f"K={taps} M={group_size} {mode.value}: traces differ from push_traced")
    return {"taps": taps, "group_size": group_size, "mode": mode.value, **times}


def measure_intake(taps: int, group_size: int, scratch: Path) -> dict:
    filt, values, samples = seeded(taps, group_size, PpgMode.STORED, SAMPLES)
    arch = ArchConfig(taps, WIDTH, WIDTH, group_size)
    coeffs = CoefficientSet.from_integers(values, FixedFormat(WIDTH))
    design = DesignFile.create(arch, coeffs)
    path = str(scratch / "design.json")
    design.save(path)
    text = Path(path).read_text(encoding="utf-8")  # what DesignFile.load decodes
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
            "create": lambda _: DesignFile.create(arch, coeffs),
            "save": lambda _: design.save(path),
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
    times = {key.replace("_us", "_ms"): value for key, value in times.items()}
    sizes = {"file_bytes": len(text.encode()), "file_bytes_lists": len(text_lists.encode())}
    return {"taps": taps, "group_size": group_size, "mode": "stored", **sizes, **times}


def measure_verify(mode: PpgMode, group_size: int) -> dict:
    rng = random.Random(f"{SEED}:verify:{group_size}")
    half = 1 << (VERIFY_COEFF_WIDTH - 1)
    values = [rng.randrange(-half, half) for _ in range(VERIFY_TAPS)]
    coeffs = CoefficientSet.from_integers(values, FixedFormat(VERIFY_COEFF_WIDTH))
    plan = partition_taps(VERIFY_TAPS, group_size)
    windows = list(all_windows(VERIFY_TAPS, VERIFY_INPUT_WIDTH))

    def checked(given):
        result = verify_windows(
            coeffs, plan, mode, input_width=VERIFY_INPUT_WIDTH, windows=given
        )
        if result != (len(windows), []):
            raise SystemExit(f"verify {mode.value} M={group_size}: {result[0]}, {result[1]}")

    times = best_us_per_unit(
        {
            "all_windows": lambda _: checked(all_windows(VERIFY_TAPS, VERIFY_INPUT_WIDTH)),
            "list": checked,
        },
        windows,
        len(windows),
    )
    return {"taps": VERIFY_TAPS, "group_size": group_size, "mode": mode.value, **times}


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


def main() -> int:
    rows = [measure(k, m, mode) for k, m in SHAPES for mode in PpgMode]
    rows.append(measure(*EDITED, PpgMode.STORED, edited=True))
    with tempfile.TemporaryDirectory() as scratch:
        intake = measure_intake(*INTAKE, Path(scratch))
        halves_verify = measure_halves_verify(*HALVES_VERIFY, Path(scratch))
    for row in rows:
        row["push_over_block"] = round(row["push_ref_us"] / row["block_ref_us"], 2)
    traced_rows = [measure_traced(k, m, mode) for k, m in TRACED_SHAPES for mode in PpgMode]
    for row in traced_rows:
        row["push_traced_over_block"] = round(
            row["push_traced_ref_us"] / row["traced_block_ref_us"], 2
        )
    verify_rows = [measure_verify(mode, m) for mode, m in VERIFY_CONFIGS]
    record = {
        "what": "us per output (rows, traced_rows) or per window (verify_rows), raw (_us) and "
        "in reference us (_ref_us: scaled to the reference loop taking reference_seconds, "
        "median of REPEATS, with _ref_iqr the interquartile range of those REPEATS rounds); "
        "block = DaFilter.process (route: how its blocks read tables), "
        "push = per-sample DaFilter.push, "
        "direct_fir = the oracle; traced_block = the CLI's trace writer over "
        "DaFilter.traced_blocks, push_traced = per-sample push_traced with json.dumps per record; "
        "all_windows / list = verify_windows over all_windows(4, 4) / the same windows in a list; "
        "intake: ms per call (_ms, _ref_ms) of create = DesignFile.create from the "
        "coefficients, save = DesignFile.save of the design (tables as halves), "
        "json_decode = json.loads of the file save wrote, "
        "check_tables = its tables checked, json_decode_lists / check_tables_lists = the same "
        "for the list form of the design (every table as its entries), in the same rounds, "
        "file_bytes / file_bytes_lists = the two files' sizes, "
        "first_block = DaFilter from the checked tables and "
        "its first one-sample block, steady_blocks = DaFilter.process of the samples; "
        "halves_verify: ms per call of verify_windows over random windows on the stored "
        "halves design, fresh = just loaded (the first call), warm = read by earlier calls; "
        "raw figures best of REPEATS, in one process",
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
        "halves_verify": halves_verify,
    }
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
            f"K={row['taps']:>2} M={row['group_size']:>2} {row['mode']:<6} "
            f"traced block {row['traced_block_ref_us']:>7} "
            f"push_traced {row['push_traced_ref_us']:>7} reference us/output"
        )
    for row in verify_rows:
        print(
            f"K={row['taps']:>2} M={row['group_size']:>2} {row['mode']:<6} "
            f"verify all_windows {row['all_windows_ref_us']:>6} list {row['list_ref_us']:>6} "
            f"reference us/window"
        )
    print(
        f"K={halves_verify['taps']:>2} M={halves_verify['group_size']:>2} stored halves verify "
        f"of {HALVES_WINDOWS} windows: fresh {halves_verify['fresh_ref_ms']} "
        f"warm {halves_verify['warm_ref_ms']} reference ms"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
