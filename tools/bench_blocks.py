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
speed between rounds affects all three alike. Mux mode forms its tables on its first block;
a warm-up block is run first, so the figures are steady-state.

Traced rows time what ``dafir run --trace`` does per output at the
``TRACED_SHAPES``: the command line's trace writer, which runs
``DaFilter.traced_blocks`` and renders each record (addresses and partials
looked up in string tables built per call for M <= 8, formatted one by one
above that), against a loop of ``DaFilter.push_traced`` with one
``json.dumps`` per cycle record (the path traced runs took before blocks).
Both write outputs and records to in-memory files, and the two traces must
be byte-identical, so every record of the writer is checked against
``push_traced``; the outputs must equal ``direct_fir``.

The result is written to ``BENCH_blocks.json`` beside ``src/``.
"""

from __future__ import annotations

import io
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dafir.cli import _write_traced  # noqa: E402
from dafir.engine import LANES, DaFilter, PpgMode, partition_taps  # noqa: E402
from dafir.numerics import CoefficientSet, FixedFormat, direct_fir  # noqa: E402

SHAPES = ((8, 4), (64, 4), (64, 8), (64, 16))  # (K, M)
TRACED_SHAPES = ((16, 2), (16, 4), (64, 4), (64, 8), (64, 16))
WIDTH = 16  # coefficient and sample bits
SAMPLES = 4000
TRACED_SAMPLES = 2000
REPEATS = 5
SEED = 1


def best_us_per_output(runs: dict, samples: list[int]) -> dict:
    """Best time of each of ``runs`` in us per output, over ``REPEATS`` rounds of all in turn."""
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(REPEATS):
        for name, run in runs.items():
            start = time.perf_counter()
            run(samples)
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: round(t / len(samples) * 1e6, 2) for name, t in best.items()}


def seeded(taps: int, group_size: int, mode: PpgMode, count: int):
    """A filter at the shape, its coefficients and a seeded stream of ``count`` samples."""
    rng = random.Random(f"{SEED}:{taps}:{group_size}")
    half = 1 << (WIDTH - 1)
    values = [rng.randrange(-half, half) for _ in range(taps)]
    samples = [rng.randrange(-half, half) for _ in range(count)]
    coeffs = CoefficientSet.from_integers(values, FixedFormat(WIDTH))
    filt = DaFilter(coeffs, partition_taps(taps, group_size), mode, input_width=WIDTH)
    return filt, values, samples


def measure(taps: int, group_size: int, mode: PpgMode) -> dict:
    filt, values, samples = seeded(taps, group_size, mode, SAMPLES)
    want = direct_fir(samples, values)
    filt.process(samples[:1])  # warm-up: mux mode forms its tables here

    def blocks(xs):
        filt.reset()
        return filt.process(xs)

    def push(xs):
        filt.reset()
        return [filt.push(x) for x in xs]

    if blocks(samples) != want or push(samples) != want:
        raise SystemExit(f"K={taps} M={group_size} {mode.value}: outputs differ from direct_fir")
    times = best_us_per_output(
        {"block_us": blocks, "push_us": push, "direct_fir_us": lambda xs: direct_fir(xs, values)},
        samples,
    )
    return {"taps": taps, "group_size": group_size, "mode": mode.value, **times}


def measure_traced(taps: int, group_size: int, mode: PpgMode) -> dict:
    filt, values, samples = seeded(taps, group_size, mode, TRACED_SAMPLES)
    filt.process(samples[:1])  # warm-up: mux mode forms its tables here
    files = {}

    def traced_blocks(xs):
        filt.reset()
        out, trace = files["traced_block_us"] = io.StringIO(), io.StringIO()
        _write_traced(out, trace, filt, xs)

    def push_traced(xs):
        # The per-sample loop traced runs took before blocks, record by record.
        filt.reset()
        out, trace = files["push_traced_us"] = io.StringIO(), io.StringIO()
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

    times = best_us_per_output(
        {"traced_block_us": traced_blocks, "push_traced_us": push_traced}, samples
    )
    block_out, block_trace = files["traced_block_us"]
    push_out, push_trace = files["push_traced_us"]
    want = "".join(f"{y}\n" for y in direct_fir(samples, values))
    if block_out.getvalue() != want or push_out.getvalue() != want:
        raise SystemExit(f"K={taps} M={group_size} {mode.value}: outputs differ from direct_fir")
    if block_trace.getvalue() != push_trace.getvalue():
        raise SystemExit(f"K={taps} M={group_size} {mode.value}: traces differ from push_traced")
    return {"taps": taps, "group_size": group_size, "mode": mode.value, **times}


def main() -> int:
    rows = [measure(k, m, mode) for k, m in SHAPES for mode in PpgMode]
    for row in rows:
        row["push_over_block"] = round(row["push_us"] / row["block_us"], 2)
    traced_rows = [measure_traced(k, m, mode) for k, m in TRACED_SHAPES for mode in PpgMode]
    for row in traced_rows:
        row["push_traced_over_block"] = round(row["push_traced_us"] / row["traced_block_us"], 2)
    record = {
        "what": "us per output; block = DaFilter.process, push = per-sample DaFilter.push, "
        "direct_fir = the oracle; traced_block = the CLI's trace writer over "
        "DaFilter.traced_blocks, push_traced = per-sample push_traced with json.dumps per record; "
        "best of REPEATS in one process",
        "width": WIDTH,
        "samples": SAMPLES,
        "traced_samples": TRACED_SAMPLES,
        "repeats": REPEATS,
        "lanes": LANES,
        "seed": SEED,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "rows": rows,
        "traced_rows": traced_rows,
    }
    (ROOT / "BENCH_blocks.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for row in rows:
        print(
            f"K={row['taps']:>2} M={row['group_size']:>2} {row['mode']:<6} "
            f"block {row['block_us']:>6} push {row['push_us']:>6} "
            f"direct_fir {row['direct_fir_us']:>6} us/output"
        )
    for row in traced_rows:
        print(
            f"K={row['taps']:>2} M={row['group_size']:>2} {row['mode']:<6} "
            f"traced block {row['traced_block_us']:>6} push_traced {row['push_traced_us']:>6} "
            f"us/output"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
