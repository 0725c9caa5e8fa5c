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

The result is written to ``BENCH_blocks.json`` beside ``src/``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dafir.engine import LANES, DaFilter, PpgMode, partition_taps  # noqa: E402
from dafir.numerics import CoefficientSet, FixedFormat, direct_fir  # noqa: E402

SHAPES = ((8, 4), (64, 4), (64, 8), (64, 16))  # (K, M)
WIDTH = 16  # coefficient and sample bits
SAMPLES = 4000
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


def measure(taps: int, group_size: int, mode: PpgMode) -> dict:
    rng = random.Random(f"{SEED}:{taps}:{group_size}")
    half = 1 << (WIDTH - 1)
    values = [rng.randrange(-half, half) for _ in range(taps)]
    samples = [rng.randrange(-half, half) for _ in range(SAMPLES)]
    coeffs = CoefficientSet.from_integers(values, FixedFormat(WIDTH))
    filt = DaFilter(coeffs, partition_taps(taps, group_size), mode, input_width=WIDTH)
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


def main() -> int:
    rows = [measure(k, m, mode) for k, m in SHAPES for mode in PpgMode]
    for row in rows:
        row["push_over_block"] = round(row["push_us"] / row["block_us"], 2)
    record = {
        "what": "us per output; block = DaFilter.process, push = per-sample DaFilter.push, "
        "direct_fir = the oracle; best of REPEATS in one process",
        "width": WIDTH,
        "samples": SAMPLES,
        "repeats": REPEATS,
        "lanes": LANES,
        "seed": SEED,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "rows": rows,
    }
    (ROOT / "BENCH_blocks.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for row in rows:
        print(
            f"K={row['taps']:>2} M={row['group_size']:>2} {row['mode']:<6} "
            f"block {row['block_us']:>6} push {row['push_us']:>6} "
            f"direct_fir {row['direct_fir_us']:>6} us/output"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
