"""Exit codes and output digests of a fixed corpus of ``dafir`` invocations.

Usage, from the root of a source checkout:

    python3 tools/cli_digests.py SRC_DIR > digests.json

Every invocation runs in its own subprocess with ``PYTHONPATH=SRC_DIR``
(the directory that holds the ``dafir`` package), in one temporary
directory and with relative paths, so no message names a path that
differs between runs. The tool prints one JSON object that maps each
invocation's name to its exit code and the sha256 of its stdout, its
stderr and every file it made or changed. Two source trees whose command
lines behave alike byte for byte print identical objects, so comparing
two trees is

    python3 tools/cli_digests.py OLD/src > old.json
    python3 tools/cli_digests.py NEW/src > new.json
    cmp old.json new.json

The corpus holds 36 designs: group sizes M = 1, 2, 4, 8, 9 and 16, each
in stored and mux mode with the ripple, carry-save and carry-lookahead
trees, all designs of one M sharing their coefficients. M = 1 and M = 8
are the narrowest and the widest tables read whole at a one-byte key,
with entries of 8 and 16 bits; an M = 9 table is read as two halves of
16-bit entries whose sum takes 17 bits. At M = 16 the taps fill one
group and a third of another, so its high address byte reads eight taps
in one group and none in the other. Each goes through
``design``, ``run``, ``run --trace``, ``verify --random``, ``verify
--exhaustive`` where K·L <= 24, ``report`` and ``report --compare
--samples`` against the next design of its M. Then come the error cases:
a corrupted table entry (``verify`` and ``report --compare`` exit 1), an
accumulator overflow table (exit 1), an out-of-range table entry, a bad
``tree``, broken JSON, a missing file, ``--seed`` with ``--exhaustive``,
``--samples`` without ``--compare``, a sample written ``1_0``, an
out-of-range and an unparsable coefficient, and designs of different
shapes compared (each exit 2), and stored M = 9 and M = 16 designs with
one table that does not split, which blocks and lanes gather entry by
entry, through ``run``, ``run --trace`` and ``verify --random``. Last
come accumulator overflows that ``verify --random`` raises from windows
read as tuples: the overflow table's, and an edited M = 9, K = 10
design's, whose tables are read as two halves and whose tree is one bit
wider than its accumulator; ``verify --exhaustive`` of the latter finds
a mismatch first.

Only the standard library is used; it takes about a minute on two cores.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

# (group size, taps K, coefficient width W, input width L); K·L <= 24 for M = 1, 2 and 4.
# M = 1 and 8 come last, so the earlier families' inputs are drawn as before they were added.
FAMILIES = [
    (2, 4, 8, 4), (4, 6, 10, 3), (9, 11, 12, 8), (16, 20, 12, 8), (1, 5, 8, 4), (8, 12, 13, 6),
]
MODES = ["stored", "mux"]
TREES = ["ripple", "csa", "cla"]
SAMPLES = 1500  # two blocks of outputs
EXHAUSTIVE_BITS = 24
DAFIR = "import sys; from dafir.cli import main; sys.exit(main(sys.argv[1:]))"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def snapshot(root: Path) -> dict[str, str]:
    return {p.name: sha(p.read_bytes()) for p in sorted(root.iterdir()) if p.is_file()}


def write_inputs(root: Path) -> None:
    """The coefficient and sample files of every family, and the error cases' inputs."""
    rng = random.Random(24)
    for m, taps, _, width in FAMILIES:
        reals = ["1.0"] + [f"{rng.uniform(-1, 1):.6f}" for _ in range(taps - 1)]
        (root / f"c{m}.txt").write_text("\n".join(reals) + "\n")
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        samples = [lo, hi, -1, 0, 1] + [rng.randint(lo, hi) for _ in range(SAMPLES - 5)]
        (root / f"s{m}.txt").write_text("".join(f"{x}\n" for x in samples))
    (root / "c_range.txt").write_text("1\n200\n")
    (root / "c_parse.txt").write_text("1\n2x\n")
    (root / "c_one.txt").write_text("5\n")
    (root / "s_overflow.txt").write_text("1\n7\n")
    (root / "s_underscore.txt").write_text("1\n1_0\n")
    (root / "c9k10.txt").write_text("".join((root / "c9.txt").read_text().splitlines(True)[:10]))


def edited(root: Path, source: str, target: str, edit) -> None:
    """``target``: the design file ``source`` with ``edit`` applied to its decoded JSON."""
    data = json.loads((root / source).read_text())
    edit(data)
    (root / target).write_text(json.dumps(data))


def unsplit(data: dict) -> None:
    """Table 0 of an M > 8 design as its 2^M entries, one of them off by one: it cannot split."""
    low, high = data["luts"][0]["low"], data["luts"][0]["high"]
    table = [high[a >> 8] + low[a & 255] for a in range(256 * len(high))]
    table[257] += 1  # both address bytes nonzero
    data["luts"][0] = table


def corpus(root: Path):
    """(name, argv) of every invocation, in order; files the tool edits are made between them."""
    names = {}
    for m, taps, coeff_width, width in FAMILIES:
        for mode in MODES:
            for tree in TREES:
                name = f"m{m}-{mode}-{tree}"
                names.setdefault(m, []).append(name)
                yield f"{name}/design", [
                    "design", f"c{m}.txt", "--coeff-width", str(coeff_width),
                    "--input-width", str(width), "--group-size", str(m),
                    "--ppg", mode, "--tree", tree, "--out", f"{name}.json",
                ]
    for m, taps, _, width in FAMILIES:
        family = names[m]
        for i, name in enumerate(family):
            design = ["--design", f"{name}.json"]
            samples = ["--samples", f"s{m}.txt"]
            yield f"{name}/run", ["run", *design, *samples, "--out", f"{name}.out"]
            yield f"{name}/run-trace", [
                "run", *design, *samples, "--out", f"{name}.tout", "--trace", f"{name}.jsonl",
            ]
            yield f"{name}/verify-random", ["verify", *design, "--random", "2000", "--seed", "7"]
            if taps * width <= EXHAUSTIVE_BITS:
                yield f"{name}/verify-exhaustive", ["verify", *design, "--exhaustive"]
            yield f"{name}/report", ["report", *design]
            other = family[(i + 1) % len(family)]
            yield f"{name}/report-compare", [
                "report", *design, "--compare", f"{other}.json", *samples,
            ]

    good = "m2-stored-ripple.json"

    def corrupt(data):
        data["luts"][0][3] += 1

    def out_of_range(data):
        data["luts"][0][1] = 1_000_000

    def bad_tree(data):
        data["arch"]["tree"] = "bogus"

    def overflow(data):  # the sample 7 reads 511 on three cycles: 3577 leaves 12 bits
        data["luts"][0][1] = 511

    edited(root, good, "corrupt.json", corrupt)
    edited(root, good, "out_of_range.json", out_of_range)
    edited(root, good, "bad_tree.json", bad_tree)
    edited(root, "m9-stored-cla.json", "unsplit.json", unsplit)
    edited(root, "m16-stored-cla.json", "unsplit16.json", unsplit)
    (root / "broken.json").write_text((root / good).read_text()[:40])
    yield "corrupt/run", ["run", "--design", "corrupt.json", "--samples", "s2.txt",
                          "--out", "corrupt.out"]
    yield "corrupt/verify-random", ["verify", "--design", "corrupt.json", "--random", "500"]
    yield "corrupt/verify-exhaustive", ["verify", "--design", "corrupt.json", "--exhaustive"]
    yield "corrupt/report-compare", [
        "report", "--design", good, "--compare", "corrupt.json", "--samples", "s2.txt",
    ]
    yield "out-of-range/verify", ["verify", "--design", "out_of_range.json", "--random", "5"]
    yield "bad-tree/report", ["report", "--design", "bad_tree.json"]
    yield "broken-json/run", ["run", "--design", "broken.json", "--samples", "s2.txt",
                              "--out", "broken.out"]
    yield "missing/verify", ["verify", "--design", "missing.json", "--exhaustive"]
    yield "seed-exhaustive/verify", ["verify", "--design", good, "--exhaustive", "--seed", "1"]
    yield "samples-without-compare/report", [
        "report", "--design", good, "--samples", "s2.txt",
    ]
    yield "underscore-sample/run", ["run", "--design", good, "--samples", "s_underscore.txt",
                                    "--out", "underscore.out"]
    yield "coefficient-range/design", [
        "design", "c_range.txt", "--coeff-width", "8", "--out", "range.json",
    ]
    yield "coefficient-parse/design", [
        "design", "c_parse.txt", "--coeff-width", "8", "--out", "parse.json",
    ]
    yield "shapes/report-compare", [
        "report", "--design", good, "--compare", "m4-stored-ripple.json",
    ]
    yield "overflow/design", [
        "design", "c_one.txt", "--coeff-width", "8", "--input-width", "4",
        "--group-size", "4", "--out", "overflow.json",
    ]
    edited(root, "overflow.json", "overflow.json", overflow)
    yield "overflow/run", ["run", "--design", "overflow.json", "--samples", "s_overflow.txt",
                           "--out", "overflow.out"]
    yield "overflow/verify-exhaustive", ["verify", "--design", "overflow.json", "--exhaustive"]
    for name, m in (("unsplit", 9), ("unsplit16", 16)):
        unsplit_run = ["run", "--design", f"{name}.json", "--samples", f"s{m}.txt"]
        yield f"{name}/run", [*unsplit_run, "--out", f"{name}.out"]
        yield f"{name}/run-trace", [
            *unsplit_run, "--out", f"{name}.tout", "--trace", f"{name}.jsonl",
        ]
        yield f"{name}/verify-random", ["verify", "--design", f"{name}.json", "--random", "2000"]

    def wide_overflow(data):
        # Table 0's low half at 1900 where tap 0's bit is set and -1900 elsewhere, and tap
        # 9's entry at -2048: a window with tap 0 at 1, tap 9 at -2 and a negative sample
        # among taps 1 to 7 sums to about 9800, past the 14-bit accumulator (K = 10, W = 8,
        # L = 2) and within the lanes' 15 bits.
        data["luts"][0]["low"] = [0] + [1900 if a % 2 else -1900 for a in range(1, 256)]
        data["luts"][1]["low"][1] = -2048

    # With these seeds the first window either design flags leaves the accumulator.
    yield "overflow/verify-random", [
        "verify", "--design", "overflow.json", "--random", "50", "--seed", "2",
    ]
    yield "wide-overflow/design", [
        "design", "c9k10.txt", "--coeff-width", "8", "--input-width", "2",
        "--group-size", "9", "--out", "wide_overflow.json",
    ]
    edited(root, "wide_overflow.json", "wide_overflow.json", wide_overflow)
    yield "wide-overflow/verify-random", [
        "verify", "--design", "wide_overflow.json", "--random", "50", "--seed", "24",
    ]
    yield "wide-overflow/verify-exhaustive", [
        "verify", "--design", "wide_overflow.json", "--exhaustive",
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(Path(argv[0]).resolve()))
    results = {}
    with tempfile.TemporaryDirectory(prefix="cli-digests-") as tmp:
        root = Path(tmp)
        write_inputs(root)
        for name, args in corpus(root):
            before = snapshot(root)
            done = subprocess.run(
                [sys.executable, "-c", DAFIR, *args], cwd=root, env=env, capture_output=True
            )
            after = snapshot(root)
            results[name] = {
                "exit": done.returncode,
                "stdout": sha(done.stdout),
                "stderr": sha(done.stderr),
                "files": {f: h for f, h in after.items() if before.get(f) != h},
            }
    print(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
