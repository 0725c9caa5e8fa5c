"""The benchmark's workloads: seeded inputs, timed rounds and oracle checks.

A workload writes coefficient and sample text files into a scratch
directory (the program sees nothing else), turns them into design files
with ``dafir design`` (the set-up), then repeats a fixed *round* of
``dafir run`` / ``dafir verify`` calls, plus, in ``verify``, library calls
the command line has no entry point for. Only those calls are timed.

Every round's artifacts are hashed. The first round with a new digest is
checked in full against the direct-form oracle (and, for traces, the trace
invariants); a later round with the same digest is byte-identical, so it
shares that verdict. Rounds of one key (the same inputs) must all have one
digest, which is the in-run determinism check.

The ``dafir`` modules are always reached through their module attributes
(``engine.da_inner_product``, ``numerics.direct_fir``, ``cli.main``), so the
traced run's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import dafir.cli as cli
import dafir.design as design
import dafir.engine as engine
import dafir.numerics as numerics
from dafir.adders import AdderKind


# A shared host can switch between speeds for seconds at a time (the 2-vCPU
# baseline host: two speeds about 1.6x apart), so raw times of one run
# depend on when it ran. Every timed stretch is therefore bracketed by a
# fixed pure-Python loop and reported in units of that loop's time, which
# the host's speed cancels out of; REFERENCE_SECONDS, the loop's time in the
# baseline host's fast state (Python 3.11.7), turns units back into
# seconds. See README.md, "Timing on a shared host".
REFERENCE_ITERATIONS = 40_000
REFERENCE_SECONDS = 2.0e-3


class BenchError(RuntimeError):
    """The benchmark could not carry out a step, so it reports no result."""


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


@dataclass(frozen=True)
class Timing:
    """One timed call and the reference loop's time around it."""

    seconds: float
    reference: float

    @property
    def units(self) -> float:
        """The call's time in reference-loop times, which host speed cancels out of."""
        return self.seconds / self.reference


@dataclass(frozen=True)
class Call:
    code: int
    out: str
    err: str


@dataclass(frozen=True)
class Design:
    name: str
    ppg: str
    group_size: int
    taps: int
    coeff_width: int
    input_width: int
    coeff_file: Path
    path: Path

    @property
    def groups(self) -> int:
        return -(-self.taps // self.group_size)


@dataclass
class Round:
    """One timed pass over a workload's calls, with what the check needs."""

    key: int
    outputs: int = 0
    digest: str = ""
    timings: list[Timing] = field(default_factory=list)
    calls: list[Call] = field(default_factory=list)
    results: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(t.seconds for t in self.timings)

    @property
    def units(self) -> float:
        return sum(t.units for t in self.timings)


@dataclass(frozen=True)
class Verdict:
    checked: int
    failed: int
    counts: dict


class Bench:
    """Scratch directory, seeded generators and the way into the CLI."""

    def __init__(self, workdir: Path, seed: int, tracer=None) -> None:
        self.dir = workdir
        self.seed = seed
        self.tracer = tracer

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}:{purpose}")

    def tracing(self):
        return self.tracer.active() if self.tracer else contextlib.nullcontext()

    def write_lines(self, name: str, lines) -> Path:
        path = self.dir / name
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return path

    @staticmethod
    def timed(fn, *args):
        """``fn(*args)`` and its Timing, with the reference loop run before and after."""
        before = reference_seconds()
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        after = reference_seconds()
        return result, Timing(seconds, (before + after) / 2)

    def dafir(self, *argv) -> Call:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        return Call(code, out.getvalue(), err.getvalue())


def real_coefficients(rng: random.Random, taps: int, digits: int) -> list[str]:
    """Decimal text in (-1, 1), so every line goes through quantization."""
    return [f"{rng.uniform(-0.999, 0.999):.{digits}f}" for _ in range(taps)]


def random_samples(rng: random.Random, count: int, width: int) -> list[int]:
    half = 1 << (width - 1)
    return [rng.randrange(-half, half) for _ in range(count)]


def read_ints(path: Path) -> list[int]:
    return [int(line) for line in path.read_text(encoding="utf-8").split()]


def _hash_file(h, path: Path) -> int:
    size = 0
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
            size += len(chunk)
    return size


def _hash_call(h, call: Call) -> None:
    h.update(f"{call.code}\0{call.out}\0{call.err}\0".encode())


def trace_failures(path: Path, outputs: list[int], width: int) -> tuple[set[int], int, int]:
    """Samples whose trace breaks an invariant, read one record at a time.

    Per sample: ``width`` records with cycles 0..width-1 in order, one
    ``subtract`` exactly at the last cycle, ``tree_sum`` equal to the sum of
    the partials, ``acc`` following the shift-accumulate recurrence, and the
    final ``acc`` equal to the sample's output. Also returns the number of
    records (simulated cycles) and of group addresses they carry.
    """
    bad: set[int] = set()
    records = 0
    addresses = 0
    acc = 0
    last = width - 1
    with open(path, encoding="utf-8") as f:
        for line in f:
            i, n = divmod(records, width)
            records += 1
            rec = json.loads(line)
            addresses += len(rec["addresses"])
            if n == 0:
                acc = 0
            step = rec["tree_sum"] << n
            acc = acc - step if n == last else acc + step
            ok = (
                rec["sample_index"] == i
                and rec["cycle"] == n
                and rec["subtract"] is (n == last)
                and rec["tree_sum"] == sum(rec["partials"])
                and rec["acc"] == acc
                and (n < last or (i < len(outputs) and acc == outputs[i]))
            )
            if not ok:
                bad.add(i)
    bad.update(range(records // width, len(outputs)))
    return bad, records, addresses


class Workload:
    """Shared set-up, digests and negative control; subclasses define rounds."""

    name = ""
    setup_reps = 1
    keys = 1  # distinct round inputs, cycled through by round index

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.designs: list[Design] = []
        self.design_bytes = 0

    def _design(self, name, ppg, group_size, taps, coeff_width, input_width, coeff_file):
        d = Design(name, ppg, group_size, taps, coeff_width, input_width, coeff_file,
                   self.bench.dir / f"{name}.json")
        self.designs.append(d)
        return d

    def setup(self) -> Timing:
        """Run every ``dafir design`` call once, timed as one stretch."""
        return self.bench.timed(self._make_designs)[1]

    def _make_designs(self) -> None:
        size = 0
        for d in self.designs:
            call = self.bench.dafir(
                "design", d.coeff_file, "--coeff-width", d.coeff_width,
                "--input-width", d.input_width, "--group-size", d.group_size,
                "--ppg", d.ppg, "--out", d.path,
            )
            if call.code != 0:
                raise BenchError(f"dafir design {d.name} exited {call.code}: {call.err.strip()}")
            size += d.path.stat().st_size
        self.design_bytes = size

    def prepare(self) -> None:
        """Work between set-up and the timed rounds that users would not repeat."""

    def run_round(self, index: int) -> Round:
        raise NotImplementedError

    def check_round(self, rnd: Round) -> Verdict:
        raise NotImplementedError

    def digests(self) -> dict[str, str]:
        """SHA-256 of the design files and of ``dafir report`` for each design."""
        designs, reports = hashlib.sha256(), hashlib.sha256()
        for d in self.designs:
            _hash_file(designs, d.path)
            call = self.bench.dafir("report", "--design", d.path)
            if call.code != 0:
                raise BenchError(f"dafir report {d.name} exited {call.code}")
            _hash_call(reports, call)
        return {"designs": designs.hexdigest(), "reports": reports.hexdigest()}

    def control(self) -> Call:
        """Corrupt one table entry of a stored design; ``dafir verify`` must exit 1."""
        d = next(d for d in self.designs if d.ppg == "stored")
        data = json.loads(d.path.read_text(encoding="utf-8"))
        rng = self.bench.rng("control")
        table = data["luts"][rng.randrange(len(data["luts"]))]
        address = rng.randrange(len(table))
        bound = 1 << (d.coeff_width + (d.group_size - 1).bit_length() - 1)
        table[address] += 1 if table[address] + 1 < bound else -1
        corrupt = self.bench.dir / "corrupt.json"
        corrupt.write_text(json.dumps(data), encoding="utf-8")
        if d.taps * d.input_width <= cli.EXHAUSTIVE_BITS_CAP:
            mode = ["--exhaustive"]
        else:
            mode = ["--random", 256, "--seed", self.bench.seed]
        return self.bench.dafir("verify", "--design", corrupt, *mode)


class _Filtering(Workload):
    """``dafir run`` on every design over one seeded stream."""

    taps = 0
    width = 16
    samples = 0
    configs: tuple[tuple[str, int], ...] = ()
    trace = False

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        coeff_file = bench.write_lines(
            "coeffs.txt", real_coefficients(bench.rng("coefficients"), self.taps, 9)
        )
        self.stream = random_samples(bench.rng("samples"), self.samples, self.width)
        self.samples_file = bench.write_lines("samples.txt", self.stream)
        for ppg, m in self.configs:
            self._design(f"{ppg}-m{m}", ppg, m, self.taps, self.width, self.width, coeff_file)
        self._oracles: dict[tuple[int, ...], list[int]] = {}

    def _oracle(self, d: Design) -> list[int]:
        """``direct_fir`` over the stream with the coefficients the design file carries."""
        coeffs = tuple(json.loads(d.path.read_text(encoding="utf-8"))["coefficients"])
        if coeffs not in self._oracles:
            self._oracles[coeffs] = numerics.direct_fir(self.stream, coeffs)
        return self._oracles[coeffs]

    def _out(self, d: Design) -> Path:
        return self.bench.dir / f"{d.name}.out"

    def _trace(self, d: Design) -> Path:
        return self.bench.dir / f"{d.name}.jsonl"

    def run_round(self, index: int) -> Round:
        h = hashlib.sha256()
        rnd = Round(key=0)
        trace_bytes = 0
        for d in self.designs:
            argv = ["run", "--design", d.path, "--samples", self.samples_file,
                    "--out", self._out(d)]
            if self.trace:
                argv += ["--trace", self._trace(d)]
            call, timing = self.bench.timed(self.bench.dafir, *argv)
            rnd.timings.append(timing)
            rnd.outputs += self.samples
            rnd.calls.append(call)
            _hash_call(h, call)
            _hash_file(h, self._out(d))
            if self.trace:
                trace_bytes += _hash_file(h, self._trace(d))
        rnd.digest = h.hexdigest()
        rnd.results["trace_bytes"] = trace_bytes
        return rnd

    def check_round(self, rnd: Round) -> Verdict:
        """Outputs against the oracle; traces against their invariants.

        Without a trace the program reports nothing per cycle, so cycles and
        table reads are derived from the outputs it wrote (outputs x L, and
        x groups for stored designs); with a trace they are counted from its
        records and their addresses.
        """
        failed = 0
        outputs = 0
        cycles = 0
        table_reads = 0
        for d, call in zip(self.designs, rnd.calls):
            expected = self._oracle(d)
            got = read_ints(self._out(d)) if call.code == 0 else []
            bad = {i for i, y in enumerate(expected) if i >= len(got) or got[i] != y}
            bad |= set(range(len(expected), len(got)))
            outputs += len(got)
            if self.trace and call.code == 0:
                trace_bad, records, addresses = trace_failures(self._trace(d), got, self.width)
                bad |= trace_bad
                cycles += records
                table_reads += addresses if d.ppg == "stored" else 0
            elif not self.trace:
                cycles += len(got) * self.width
                table_reads += len(got) * self.width * d.groups if d.ppg == "stored" else 0
            failed += len(bad)
        counts = {
            "engine.outputs": outputs,
            "engine.cycles": cycles,
            "engine.table_reads": table_reads,
            "engine.trace_bytes": rnd.results["trace_bytes"],
        }
        return Verdict(rnd.outputs, failed, counts)


class Stream(_Filtering):
    """Untraced ``dafir run`` at K=64: the bit-serial schedule dominates."""

    name = "stream"
    setup_reps = 12
    taps = 64
    samples = 4000
    configs = (("stored", 4), ("stored", 16), ("mux", 4))


class Trace(_Filtering):
    """``dafir run --trace`` at K=16: the traced loop and JSONL writing dominate."""

    name = "trace"
    setup_reps = 25
    taps = 16
    samples = 2000
    configs = (("stored", 4), ("mux", 2))
    trace = True


class Verify(Workload):
    """``dafir verify --exhaustive`` at K=4, W=8, L=4, plus a gate-level probe."""

    name = "verify"
    setup_reps = 40
    taps = 4
    coeff_width = 8
    input_width = 4
    keys = 3  # seeded coefficient sets
    configs = (("stored", 4), ("stored", 2), ("mux", 2), ("mux", 1))
    probe_config = ("mux", 1)
    probe_windows = 1200
    probe_trees = (AdderKind.RIPPLE, AdderKind.CSA_TREE, AdderKind.CLA)

    def __init__(self, bench: Bench) -> None:
        super().__init__(bench)
        self.sets: list[list[Design]] = []
        for s in range(self.keys):
            coeff_file = bench.write_lines(
                f"coeffs-{s}.txt",
                real_coefficients(bench.rng(f"coefficients-{s}"), self.taps, 6),
            )
            self.sets.append([
                self._design(f"set{s}-{ppg}-m{m}", ppg, m, self.taps, self.coeff_width,
                             self.input_width, coeff_file)
                for ppg, m in self.configs
            ])
        rng = bench.rng("probe")
        self.windows = [
            tuple(random_samples(rng, self.taps, self.input_width))
            for _ in range(self.probe_windows)
        ]
        self.window_count = 1 << (self.taps * self.input_width)
        self.probe_designs: list = []
        self._probe_oracles: dict[int, list[int]] = {}

    def prepare(self) -> None:
        probe = self.configs.index(self.probe_config)
        self.probe_designs = [design.DesignFile.load(str(ds[probe].path)) for ds in self.sets]

    def run_round(self, index: int) -> Round:
        key = index % self.keys
        h = hashlib.sha256()
        rnd = Round(key=key)
        for d in self.sets[key]:
            call, timing = self.bench.timed(
                self.bench.dafir, "verify", "--design", d.path, "--exhaustive"
            )
            rnd.timings.append(timing)
            rnd.outputs += self.window_count
            rnd.calls.append(call)
            _hash_call(h, call)
        probe = self.probe_designs[key]
        mode = engine.PpgMode(self.probe_config[0])
        for kind in self.probe_trees:
            values, timing = self.bench.timed(self._probe, probe, mode, kind)
            rnd.timings.append(timing)
            rnd.outputs += len(values)
            rnd.results[kind.name] = values
            h.update(repr(values).encode())
        rnd.digest = h.hexdigest()
        return rnd

    def _probe(self, probe, mode, kind) -> list[int]:
        return [
            engine.da_inner_product(
                w, probe.coefficients, probe.plan, mode, kind,
                input_width=self.input_width, luts=probe.luts,
                collect_trace=False, bit_level=True,
            )[0]
            for w in self.windows
        ]

    def _probe_oracle(self, key: int) -> list[int]:
        """``direct_fir`` of each window fed oldest sample first; the last output."""
        if key not in self._probe_oracles:
            coeffs = self.probe_designs[key].coefficients.values
            self._probe_oracles[key] = [
                numerics.direct_fir(w[::-1], coeffs)[-1] for w in self.windows
            ]
        return self._probe_oracles[key]

    def check_round(self, rnd: Round) -> Verdict:
        """Each ``dafir verify`` printed ``N/N ok``; probe results equal the oracle.

        Outputs are the window counts the program printed plus the probe
        results; cycles and table reads are derived from them (x L, and x
        groups for stored designs), since verify reports nothing per cycle.
        """
        failed = 0
        outputs = 0
        table_reads = 0
        want = f"{self.window_count}/{self.window_count} ok\n"
        for d, call in zip(self.sets[rnd.key], rnd.calls):
            ok = call.out.split("/", 1)[0]
            ok = int(ok) if ok.isdigit() else 0
            if call.code != 0 or call.out != want:
                failed += self.window_count - ok
            outputs += ok
            if d.ppg == "stored":
                table_reads += ok * self.input_width * d.groups
        expected = self._probe_oracle(rnd.key)
        for kind in self.probe_trees:
            failed += sum(a != b for a, b in zip(rnd.results[kind.name], expected))
            outputs += len(rnd.results[kind.name])
        counts = {
            "engine.outputs": outputs,
            "engine.cycles": outputs * self.input_width,
            "engine.table_reads": table_reads,
            "engine.trace_bytes": 0,
        }
        return Verdict(rnd.outputs, failed, counts)


WORKLOADS = {w.name: w for w in (Stream, Trace, Verify)}
