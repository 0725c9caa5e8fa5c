"""Command line: design, run, verify and report on DA filter designs.

Exit codes: 0 on success, 1 when a verification or cross-architecture
check found a mismatch or a table drove the accumulator out of its range
(tables consistent with the coefficients never can), 2 for usage and
parse errors. Every failure reaches :func:`main` as the exception that
was raised, and ``main`` picks the code from its type alone: 1 for
:class:`AccumulatorOverflow` and :class:`ArchitectureMismatch`, 2 for any
other ``ValueError`` (:class:`CliError`, ``DesignError`` and parameter
validation). Every file error is reported as a single line that names
the file, and the offending line number where there is one.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from decimal import Decimal, InvalidOperation
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Sequence

from .adders import DEFAULT_COST_MODEL, AdderKind, CostModel
from .design import ArchConfig, DesignFile
from .engine import (
    DaFilter, PpgMode, _pack_table, _packs, all_windows, memory_locations, verify_windows,
)
from .numerics import AccumulatorOverflow, CoefficientSet, FixedFormat, quantize_coefficient
from .report import (
    ArchitectureMismatch,
    ExternalFigures,
    compare_architectures,
    estimate_resources,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

EXHAUSTIVE_BITS_CAP = 24  # exhaustive verify limited to 2^24 windows
_ASCII_SPACE = " \t\n\r\x0b\x0c"


class CliError(ValueError):
    """A usage or input-file error found by the command line itself; it exits 2."""


def _read_payloads(path: str) -> list[str]:
    """Every line's payload, '' for a blank line; '#' starts a comment.

    Only ASCII whitespace is stripped, so any other character at a line's
    edge stays in its payload for the parsers to refuse. Lines end at
    '\\n' alone, into which reading turns '\\r\\n' and '\\r' (``splitlines``
    would also end them at '\\x1c', '\\x85' and others). A text with no
    '#' and no whitespace but line breaks is not stripped line by line.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text ({exc})")
    lines = text.removesuffix("\n").split("\n") if text else []
    if not any(map(text.__contains__, "# \t\x0b\x0c")):
        return lines
    if "#" in text:
        lines = map(itemgetter(0), map(str.partition, lines, repeat("#")))
    return list(map(str.strip, lines, repeat(_ASCII_SPACE)))


def _plain(text: str) -> str:
    """``text`` if ASCII without '_' or edge whitespace, else ValueError.

    ``int`` and ``Decimal`` take '1_0' and '٣', and ``Decimal`` also takes
    the ASCII separators '\\x1c' to '\\x1f' at an edge, which lines keep.
    """
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"not a plain number: {text!r}")
    return text


def _parse_coefficients(path: str, fmt: FixedFormat):
    """One value per line; a '.', 'e' or 'E' marks a real to be quantized."""
    values = []
    warnings = []
    for lineno, text in enumerate(_read_payloads(path), start=1):
        if not text:
            continue
        try:
            if "." in text or "e" in text or "E" in text:
                code, saturated = quantize_coefficient(_plain(text), fmt)
            else:
                code, saturated = int(_plain(text)), False
        except ValueError:
            raise CliError(f"{path}:{lineno}: cannot parse coefficient {text!r}")
        if not fmt.contains(code):  # a quantized code always is within it
            raise CliError(
                f"{path}:{lineno}: integer coefficient {code} outside signed {fmt.width}-bit range"
            )
        if saturated:
            warnings.append(f"{path}:{lineno}: {text} saturated to {code}")
        values.append(code)
    if not values:
        raise CliError(f"{path}: no coefficients found")
    return values, warnings


def _parse_samples(path: str, fmt: FixedFormat) -> list[int]:
    """One integer per payload line, each within ``fmt``.

    All lines are converted and range-checked at once; only when that
    fails are they read one by one, to name the first offending line.
    """
    payloads = _read_payloads(path)
    try:
        _plain("".join(payloads))  # every line at once, at C level
        samples = list(map(int, filter(None, payloads)))
    except ValueError:
        pass
    else:
        if not samples or fmt.min_value <= min(samples) and max(samples) <= fmt.max_value:
            return samples
    return [_sample(path, n, text, fmt) for n, text in enumerate(payloads, start=1) if text]


def _sample(path: str, lineno: int, text: str, fmt: FixedFormat) -> int:
    try:
        v = int(_plain(text))
    except ValueError:
        raise CliError(f"{path}:{lineno}: cannot parse sample {text!r}")
    if not fmt.min_value <= v <= fmt.max_value:
        raise CliError(f"{path}:{lineno}: sample {v} outside signed {fmt.width}-bit range")
    return v


def _load_design(path: str) -> DesignFile:
    try:
        return DesignFile.load(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}")


def _open_out(path: str, mode: str = "w"):
    """``path`` opened for writing in ``mode``, UTF-8 if text, or the one-line error naming it."""
    try:  # a 64 KiB buffer: one sample's trace records are a few kB
        return open(path, mode, 1 << 16, None if "b" in mode else "utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}")


def _load_cost_model(path: str | None) -> CostModel:
    if path is None:
        return DEFAULT_COST_MODEL
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text ({exc})")
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise CliError(f"{path}: not valid JSON ({exc})")
    try:
        return CostModel.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{path}: {exc}")


def _decimal_flag(value: str | None, flag: str) -> Decimal | None:
    if value is None:
        return None
    try:
        number = Decimal(value)
    except InvalidOperation:
        raise CliError(f"{flag} must be a decimal number, got {value!r}")
    if not (number.is_finite() and math.isfinite(number)):  # NaN, infinite or past a double
        raise CliError(f"{flag} must be a finite decimal number in double range, got {value!r}")
    return number


def _external_figures(cells, time_ns, power_mw, prefix: str) -> ExternalFigures | None:
    if cells is None and time_ns is None and power_mw is None:
        return None
    if cells is None or time_ns is None:
        raise CliError(f"{prefix}cells and {prefix}time-ns must be given together")
    return ExternalFigures(
        cells=cells,
        time_ns=_decimal_flag(time_ns, f"--{prefix}time-ns"),
        power_mw=_decimal_flag(power_mw, f"--{prefix}power-mw"),
    )


def cmd_design(args: argparse.Namespace) -> int:
    fmt = FixedFormat(args.coeff_width)
    FixedFormat(args.input_width)  # validate now, not at first run
    values, warnings = _parse_coefficients(args.coeff_file, fmt)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    arch = ArchConfig(
        num_taps=len(values),
        coeff_width=args.coeff_width,
        input_width=args.input_width,
        group_size=args.group_size,
        ppg_mode=PpgMode(args.ppg),
        tree=AdderKind(args.tree),
    )
    design = DesignFile.create(arch, CoefficientSet.from_integers(values, fmt))
    try:
        design.save(args.out)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc.strerror}")
    stored = arch.ppg_mode is PpgMode.STORED
    print(f"memory locations: {memory_locations(design.plan) if stored else 0}")
    return EXIT_OK


def _write_values(out, values: Sequence[int]) -> None:
    """Write ``values`` to ``out``, one decimal integer per line."""
    out.write(("%d\n" * len(values)) % tuple(values))


# One trace record as json.dumps writes its dict, with the cycle and the
# subtract flag filled in; the sample index, the tree sum and the
# accumulator are slots, and so is each pack's address and partial text.
_RECORD = (
    b'{"sample_index": %%s, "cycle": %d, "addresses": [%s], "partials": [%s], '
    b'"tree_sum": %%d, "subtract": %s, "acc": %%d}\n'
)
_COMMA = "{}, {}".format  # joins two list items as json.dumps does


@functools.cache
def _trace_template(packs: int, slot: bytes, length: int) -> bytes:
    """The bytes ``%`` template of one sample's ``length`` trace records, cycle by cycle.

    Per cycle it takes the sample index as bytes, ``packs`` address slots,
    ``packs`` partial slots, the tree sum and the accumulator, and writes
    the line ``json.dumps`` writes for that record's dict, ending in ``\n``.
    A slot is ``%s`` for a pack's text or ``%d`` for one group's value.
    """
    slots = b", ".join([slot] * packs)
    return b"".join(
        _RECORD % (n, slots, slots, b"true" if n == length - 1 else b"false") for n in range(length)
    )


def _write_traced(out, trace, filt: DaFilter, samples: Iterable[int]) -> None:
    """Filter ``samples``, writing outputs to text ``out``, JSONL cycle records to binary ``trace``.

    Records go sample by sample, cycle by cycle, each block before the
    next is read, so memory holds one block whatever the stream's length;
    each sample's records are one bytes object. A record's addresses and
    partials are looked up at the keys each read took (:class:`TracedBlock`):
    with M <= 8 in each pack's text, built once per run from the tables the
    filter reads; above that a read is one group, whose key is its address
    and whose partial is its table's entry there, each for a ``%d`` slot.
    """
    group_size = filt.plan.group_size
    length = filt.input_format.width
    tables = filt.tables()
    if group_size <= 8:
        # Each pack's address text and partial text by key, at most 2·256 strings a pack.
        addresses = [str(a) for a in range(1 << group_size)]
        packs = _packs([list(map(str, table)) for table in tables], group_size)
        texts = [_pack_table([addresses] * len(pack), _COMMA) for pack in packs]
        texts += [_pack_table([column for _, column in pack], _COMMA) for pack in packs]
        texts = [list(map(str.encode, text)) for text in texts]  # ASCII: digits, '-', ', '
        slot = b"%s"
    else:
        texts = [None] * len(tables) + list(tables)  # None: the key is the address
        slot = b"%d"
    template = _trace_template(len(texts) // 2, slot, length)
    first = 0
    for block in filt.traced_blocks(samples):
        count = len(block.outputs)
        _write_values(out, block.outputs)
        index = list(map(b"%d".__mod__, range(first, first + count)))
        # Each read's addresses, then its partials, at every position. A
        # block's L >= 2 cycles give itemgetter two keys or more: a tuple.
        values = [
            keys if text is None else itemgetter(*keys)(text)
            for text, keys in zip(texts, block.addresses * 2)
        ]
        values += [block.sums, block.acc]
        # Every cycle's columns, each led by the sample index; zip takes them sample by sample.
        columns = []
        for n in range(length):
            start = n * block.stride
            columns += [index, *[v[start : start + count] for v in values]]
        trace.writelines(map(template.__mod__, zip(*columns)))
        first += count
        del block, values, columns  # so the next block is evaluated without this one's columns


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one file, through hard or symbolic links."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # a path not made yet is another's only if both resolve alike
        return os.path.realpath(a) == os.path.realpath(b)


def cmd_run(args: argparse.Namespace) -> int:
    design = _load_design(args.design)
    samples = _parse_samples(args.samples, FixedFormat(design.arch.input_width))
    filt = design.filter()
    if args.trace is None:
        with _open_out(args.out) as out:
            # Each block is written before the next is evaluated.
            for block in filt.blocks(samples):
                _write_values(out, block)
        return EXIT_OK
    if _same_file(args.out, args.trace):
        raise CliError(f"--out and --trace are the same file: {args.trace}")
    made = not os.path.lexists(args.trace)
    _open_out(args.trace, "ab").close()  # a bad --trace fails before --out is truncated
    try:
        out = _open_out(args.out)
    except CliError:
        if made:
            os.remove(args.trace)  # and a bad --out leaves no trace file behind
        raise
    with out, _open_out(args.trace, "wb") as trace:
        _write_traced(out, trace, filt, samples)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.exhaustive and args.seed is not None:
        raise CliError("--seed applies to --random only")
    design = _load_design(args.design)
    arch = design.arch
    if args.exhaustive:
        bits = arch.num_taps * arch.input_width
        if bits > EXHAUSTIVE_BITS_CAP:
            raise CliError(
                f"exhaustive verification needs num_taps*input_width <= "
                f"{EXHAUSTIVE_BITS_CAP} bits, this design has {bits}"
            )
        windows = all_windows(arch.num_taps, arch.input_width)
    else:
        if args.random < 1:
            raise CliError("--random needs a positive trial count")
        rng = random.Random(args.seed or 0)
        lo = -(1 << (arch.input_width - 1))
        hi = (1 << (arch.input_width - 1)) - 1
        windows = (
            tuple(rng.randint(lo, hi) for _ in range(arch.num_taps))
            for _ in range(args.random)
        )
    checked, mismatches = verify_windows(
        design.coefficients,
        design.plan,
        arch.ppg_mode,
        arch.tree,
        input_width=arch.input_width,
        windows=windows,
        luts=design.luts,
    )
    if mismatches:
        bad = mismatches[0]
        print(
            f"mismatch at window {list(bad.window)}: da={bad.got} direct={bad.expected}",
            file=sys.stderr,
        )
        print(f"{checked - len(mismatches)}/{checked} ok before first mismatch")
        return EXIT_MISMATCH
    print(f"{checked}/{checked} ok")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    if args.compare is None:
        for flag in ("samples", "compare_cells", "compare_time_ns", "compare_power_mw"):
            if getattr(args, flag) is not None:
                raise CliError(f"--{flag.replace('_', '-')} needs --compare")
    design = _load_design(args.design)
    model = _load_cost_model(args.cost_model)
    external = _external_figures(args.cells, args.time_ns, args.power_mw, "")

    if args.compare is None:
        report = estimate_resources(design, model, external)
        print(json.dumps(report.to_dict(), indent=2, allow_nan=False))
        return EXIT_OK

    other = _load_design(args.compare)
    external_b = _external_figures(
        args.compare_cells, args.compare_time_ns, args.compare_power_mw, "compare-"
    )
    samples = None
    if args.samples is not None:
        samples = _parse_samples(args.samples, FixedFormat(design.arch.input_width))
    comparison = compare_architectures(
        design,
        other,
        samples=samples,
        model=model,
        baseline_external=external,
        candidate_external=external_b,
    )
    print(json.dumps(comparison.to_dict(), indent=2, allow_nan=False))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dafir",
        description="Distributed-arithmetic FIR filter modeling and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="quantize coefficients and write a design file")
    p.add_argument("coeff_file", help="text file, one coefficient per line")
    p.add_argument("--coeff-width", type=int, default=16)
    p.add_argument("--input-width", type=int, default=16)
    p.add_argument("--group-size", type=int, default=2)
    p.add_argument("--ppg", choices=[m.value for m in PpgMode], default="stored")
    p.add_argument("--tree", choices=[k.value for k in AdderKind], default="cla")
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="filter a sample file through a design")
    p.add_argument("--design", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="write a JSONL cycle trace here")

    p = sub.add_parser("verify", help="check the DA path against the direct form")
    p.add_argument("--design", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--random", type=int, metavar="N")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("report", help="print resource accounting as JSON")
    p.add_argument("--design", required=True)
    p.add_argument("--compare", help="second design to compare against")
    p.add_argument("--samples", help="probe stream for the output-equality check")
    p.add_argument("--cost-model", help="JSON file overriding cost-model constants")
    p.add_argument("--cells", type=int)
    p.add_argument("--time-ns")
    p.add_argument("--power-mw")
    p.add_argument("--compare-cells", type=int)
    p.add_argument("--compare-time-ns")
    p.add_argument("--compare-power-mw")

    return parser


_parser = functools.cache(build_parser)  # built on the first call, once per process


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # Looked up on every call, not bound into the cached parser, so a
    # cmd_* function replaced after the first call is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (AccumulatorOverflow, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # A failed check exits 1; any other ValueError (CliError, DesignError,
        # bad widths, group sizes and other parameter validation) exits 2.
        failed = isinstance(exc, (AccumulatorOverflow, ArchitectureMismatch))
        return EXIT_MISMATCH if failed else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
