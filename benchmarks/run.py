"""Benchmark of the ``dafir`` command and library; see README.md beside this file.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload stream --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full run record (seed, platform, digests, counts, rounds). With
``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing installed; with ``--trace 1`` they are the per-layer ones, from
span wrappers installed around the package's public functions.

The package is imported from ``src/`` of the checkout and nowhere else, so
the benchmark exits with code 2 in a directory that holds no source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchmarks-out"

# name, span, statistic, divisor. "self" excludes the time covered by child
# spans, "incl" does not; "units" divides by outputs, windows or table
# entries, "calls" by calls. Names ending ".us" are in microseconds, names
# ending "_s" in seconds.
LAYER_TIMES = (
    ("numerics.quantize_coefficient.us", "numerics.quantize_coefficient", "self", "calls"),
    ("numerics.direct_fir.us", "numerics.direct_fir", "self", "units"),
    ("design.create_s", "design.create", "incl", "calls"),
    ("design.save_s", "design.save", "incl", "calls"),
    ("engine.build_lut.m4.us", "engine.build_lut.m4", "self", "units"),
    ("engine.build_lut.m16.us", "engine.build_lut.m16", "self", "units"),
    ("design.load_s", "design.load", "incl", "calls"),
    ("engine.filter_init_s", "engine.filter_init", "incl", "calls"),
    ("engine.push.stored-m4.us", "engine.push.stored-m4", "self", "calls"),
    ("engine.push.stored-m16.us", "engine.push.stored-m16", "self", "calls"),
    ("engine.push.mux-m4.us", "engine.push.mux-m4", "self", "calls"),
    ("engine.push_traced.us", "engine.push_traced", "incl", "calls"),
    ("engine.address_for_cycle.us", "engine.address_for_cycle", "self", "calls"),
    ("engine.mux_ppg.us", "engine.mux_ppg", "self", "calls"),
    ("adders.adder_tree_sum.native.us", "adders.adder_tree_sum.native", "self", "calls"),
    ("cli.run_overhead_s", "cli.cmd_run", "self", "calls"),
    ("engine.verify_windows.stored-m4.us", "engine.verify_windows.stored-m4", "self", "units"),
    ("engine.verify_windows.stored-m2.us", "engine.verify_windows.stored-m2", "self", "units"),
    ("engine.verify_windows.mux-m2.us", "engine.verify_windows.mux-m2", "self", "units"),
    ("engine.verify_windows.mux-m1.us", "engine.verify_windows.mux-m1", "self", "units"),
    ("engine.all_windows.us", "engine.all_windows", "self", "units"),
    ("engine.da_inner_product.us", "engine.da_inner_product", "self", "calls"),
    ("adders.adder_tree_sum.ripple.us", "adders.adder_tree_sum.ripple", "incl", "calls"),
    ("adders.adder_tree_sum.csa_tree.us", "adders.adder_tree_sum.csa_tree", "incl", "calls"),
    ("adders.adder_tree_sum.cla.us", "adders.adder_tree_sum.cla", "incl", "calls"),
)
ROUND_COUNTS = ("engine.outputs", "engine.cycles", "engine.table_reads", "engine.trace_bytes")


def _import_dafir() -> str | None:
    """Import the package from ``src/``; returns an error message on failure."""
    if not (SRC / "dafir" / "__init__.py").is_file():
        return f"no dafir sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import dafir

    if SRC not in Path(dafir.__file__).resolve().parents:
        return f"dafir imported from {dafir.__file__}, not {SRC}"
    return None


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs set-ups and rounds, checks each new digest once, tallies verdicts.

    The ``setup_reps`` repetitions of the workload's set-up are spread
    evenly over the timed budget, one before the first round, so the median
    set-up samples the same stretch of machine time as the rounds.
    """

    def __init__(self, workload, bench, budget: float) -> None:
        self.workload = workload
        self.bench = bench
        self.budget = budget
        self.spent = 0.0
        self.rounds: list = []
        self.setups: list = []  # a Timing per set-up repetition
        self.attempted = 0
        self.failed = 0
        self.counts: dict | None = None
        self.first_digest: dict[int, str] = {}
        self.deterministic = True
        self._verdicts: dict = {}

    def _setups_due(self, until: float) -> None:
        reps = self.workload.setup_reps
        while len(self.setups) < reps and until >= len(self.setups) / reps * self.budget:
            with self.bench.tracing():
                self.setups.append(self.workload.setup())
                if len(self.setups) == 1:
                    self.workload.prepare()

    def measure(self, budget: float, minimum: int) -> list:
        """Run rounds until ``budget`` timed seconds and ``minimum`` rounds."""
        done = []
        spent = 0.0
        while spent < budget or len(done) < minimum:
            self._setups_due(self.spent)
            rnd = self.workload.run_round(len(self.rounds))
            self._account(rnd)
            self.rounds.append(rnd)
            done.append(rnd)
            spent += rnd.seconds
            self.spent += rnd.seconds
        return done

    def finish(self) -> None:
        self._setups_due(float("inf"))

    def _account(self, rnd) -> None:
        verdict = self._verdicts.get(rnd.digest)
        if verdict is None:
            with self.bench.tracing():
                verdict = self._verdicts[rnd.digest] = self.workload.check_round(rnd)
        self.attempted += verdict.checked
        self.failed += verdict.failed
        if self.counts is None:
            self.counts = dict(verdict.counts)
        elif self.counts != verdict.counts:
            self.deterministic = False
        if self.first_digest.setdefault(rnd.key, rnd.digest) != rnd.digest:
            self.deterministic = False


def _layer_metrics(tracer, counts: dict, extra: dict) -> dict:
    field = {"self": spans.SELF_NS, "incl": spans.INCL_NS}
    per = {"calls": spans.CALLS, "units": spans.UNITS}
    metrics = {}
    for name, span, stat, divisor in LAYER_TIMES:
        scale, unit = (1e-3, "us") if name.endswith(".us") else (1e-9, "s")
        entry = tracer.stats.get(span)
        value = 0.0
        if entry and entry[per[divisor]]:
            value = entry[field[stat]] / entry[per[divisor]] * scale
        metrics[name] = {"value": value, "unit": unit}
    for name in ROUND_COUNTS:
        unit = "bytes" if name.endswith("bytes") else "count"
        metrics[name] = {"value": counts[name], "unit": unit}
    for name, (value, unit) in extra.items():
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _tree_calls(before: dict, after: dict) -> int:
    return sum(
        entry[spans.CALLS] - before.get(name, (0,))[spans.CALLS]
        for name, entry in after.items()
        if name.startswith("adders.adder_tree_sum.")
    )


def _measure_traced(tracer, start, seconds: int) -> tuple[list, dict]:
    """Untraced rounds for a third of the budget, then traced rounds.

    The untraced rounds run on their own copy of the workload before any
    wrapper is installed, so ``trace.overhead_pct`` includes the wrappers'
    own cost. Returns both runners, untraced first, and the extra metrics.
    """
    plain_runner = start("plain", None, seconds / 3)
    plain = plain_runner.measure(seconds / 3, max(2, plain_runner.workload.keys))
    plain_runner.finish()
    uninstall = spans.install(tracer)
    try:
        runner = start("traced", tracer, seconds * 2 / 3)
        with tracer.active():
            before = tracer.snapshot()
            traced = runner.measure(0, 1)
            tree_calls = _tree_calls(before, tracer.snapshot())
            traced += runner.measure(seconds * 2 / 3 - runner.spent, 1)
        runner.finish()
    finally:
        uninstall()
    plain_units = statistics.median(r.units for r in plain)
    traced_units = statistics.median(r.units for r in traced)
    return [plain_runner, runner], {
        "adders.adder_tree_sum.calls": (tree_calls, "count"),
        "trace.overhead_pct": ((traced_units / plain_units - 1.0) * 100.0, "%"),
    }


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    from workloads import REFERENCE_SECONDS, WORKLOADS, Bench

    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:

        def start(name: str, tracer, budget: float) -> Runner:
            workdir = Path(tmp) / name
            workdir.mkdir()
            bench = Bench(workdir, seed, tracer)
            return Runner(WORKLOADS[workload_name](bench), bench, budget)

        if trace:
            runners, extra = _measure_traced(tracer, start, seconds)
        else:
            runners = [start("plain", None, seconds)]
            runners[0].measure(seconds, max(3, runners[0].workload.keys))
            runners[0].finish()
        runner = runners[-1]
        workload = runner.workload
        digests = workload.digests()
        control = workload.control()

    # Copies of the workload in one run must agree on every digest and count.
    first_digest = runners[0].first_digest
    deterministic = all(
        r.deterministic
        and r.counts == runner.counts
        and all(first_digest[k] == d for k, d in r.first_digest.items())
        for r in runners
    )
    digests["rounds"] = "".join(first_digest[k] for k in sorted(first_digest))
    digests["control"] = f"{control.code}:{control.err.strip()}"
    detected = control.code == 1
    attempted = sum(r.attempted for r in runners) + 1
    failed = sum(r.failed for r in runners) + (0 if detected else 1)
    mismatch_rate = failed / attempted
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = [rnd for r in runners for rnd in r.rounds]
    if trace:
        extra["design.file_bytes"] = (workload.design_bytes, "bytes")
        extra["mismatch_rate"] = (mismatch_rate, "ratio")
        metrics = _layer_metrics(tracer, runner.counts, extra)
    else:
        rate = sum(r.outputs for r in rounds) / (REFERENCE_SECONDS * sum(r.units for r in rounds))
        setup_s = REFERENCE_SECONDS * statistics.median(t.units for t in runner.setups)
        metrics = {
            "outputs_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "rounds": len(rounds),
        "call_seconds": [[t.seconds for t in r.timings] for r in rounds],
        "call_references": [[t.reference for t in r.timings] for r in rounds],
        "setup_seconds": [t.seconds for r in runners for t in r.setups],
        "setup_references": [t.reference for r in runners for t in r.setups],
        "unscaled": {
            "outputs_per_s": sum(r.outputs for r in rounds) / sum(r.seconds for r in rounds),
            "setup_s": statistics.median(t.seconds for r in runners for t in r.setups),
        },
        "deterministic": deterministic,
        "control_detected": detected,
        "counts": runner.counts,
        "digests": digests,
        "digest": hashlib.sha256(
            "\n".join(f"{k}={digests[k]}" for k in sorted(digests)).encode()
        ).hexdigest(),
        "mismatch_rate": mismatch_rate,
        "peak_rss_mib": peak_rss_mib,
        "metrics": metrics,
    }
    if trace:
        span_file = OUT / f"spans-{workload_name}-seed{seed}.jsonl"
        record["spans_file"] = str(span_file.relative_to(ROOT))
        record["spans_not_kept"] = tracer.write(str(span_file))
        record["self_time_s"] = {
            name: entry[spans.SELF_NS] * 1e-9 for name, entry in sorted(tracer.stats.items())
        }
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("stream", "trace", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    error = _import_dafir()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
