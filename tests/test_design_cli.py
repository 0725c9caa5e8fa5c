"""Design files and the command-line front end."""

import ast
import errno
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dafir.cli as cli
import dafir.design
import dafir.engine
import dafir.numerics
import dafir.report
from dafir.adders import AdderKind
from dafir.cli import main
from dafir.design import ArchConfig, DesignError, DesignFile, rederive_luts
from dafir.engine import PpgMode, build_lut, check_tables
from dafir.numerics import AccumulatorOverflow, CoefficientSet, FixedFormat
from dafir.report import ArchitectureMismatch


@pytest.fixture
def workspace(tmp_path):
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("0.25\n-0.5\n0.125\n0.0625\n")
    samples = tmp_path / "samples.txt"
    samples.write_text("100\n-200\n3000\n# trailing comment\n-32768\n32767\n")
    return tmp_path


def run_design(workspace, out_name="design.json", *extra):
    out = workspace / out_name
    code = main(
        [
            "design",
            str(workspace / "coeffs.txt"),
            "--coeff-width",
            "16",
            "--input-width",
            "16",
            "--group-size",
            "2",
            "--out",
            str(out),
            *extra,
        ]
    )
    assert code == 0
    return out


def compare_raising(monkeypatch) -> list:
    """Spy on the CLI's compare_architectures; returns the exceptions it raised."""
    raised = []
    real = cli.compare_architectures

    def spy(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(cli, "compare_architectures", spy)
    return raised


def replan(path, groups, padded_taps=0) -> None:
    """Give a stored design file another plan, with the tables that plan needs."""
    data = json.loads(path.read_text())
    fmt = FixedFormat(data["arch"]["coeff_width"])
    coeffs = CoefficientSet.from_integers(data["coefficients"], fmt)
    data["plan"]["groups"] = [list(g) for g in groups]
    data["plan"]["padded_taps"] = padded_taps
    data["luts"] = [list(build_lut(coeffs, g).entries) for g in groups]
    path.write_text(json.dumps(data))


def module_ast(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def overflow_design(tmp_path) -> Path:
    """K=1, coefficient 5, W=8, L=4, M=4, with table 0 entry 1 edited to 511.

    511 fits the 10-bit partial-product width that check_tables allows, but
    no sum of the coefficients gives it: the sample 7 reads it on three
    cycles, and 511 * 7 = 3577 leaves the 12-bit accumulator, which
    consistent tables never leave.
    """
    design = DesignFile.create(
        ArchConfig(1, 8, 4, 4), CoefficientSet.from_integers([5], FixedFormat(8))
    )
    data = design.to_dict()
    data["luts"][0][1] = 511
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    return path


def trace_line(index, rec) -> str:
    """The JSONL line of one cycle record, as ``dafir run --trace`` wrote it sample by sample."""
    return json.dumps(
        {
            "sample_index": index,
            "cycle": rec.cycle,
            "addresses": list(rec.addresses),
            "partials": list(rec.partials),
            "tree_sum": rec.tree_sum,
            "subtract": rec.subtract,
            "acc": rec.acc_after,
        }
    ) + "\n"


def json_paths(node, path=()):
    """Every path into a JSON document, the root () included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from json_paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from json_paths(child, path + (index,))


def replaced(data, path, value):
    """A copy of ``data`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    data = json.loads(json.dumps(data))
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    return data


# Three taps in groups of two: a padding slot, two tables and a null member.
BASE_DESIGN = DesignFile.create(
    ArchConfig(3, 8, 4, 2), CoefficientSet.from_integers([3, -5, 7], FixedFormat(8))
).to_dict()

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=12,
)


class TestLayering:
    def test_design_does_not_import_report(self):
        imported = set()
        for node in ast.walk(module_ast(dafir.design)):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert imported and not any(m.split(".")[-1] == "report" for m in imported)

    def test_report_never_rebuilds_a_plan(self):
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(module_ast(dafir.report))
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert "partition_taps" not in names


class TestArchConfig:
    def test_round_trips_through_dict(self):
        a = ArchConfig(4, 16, 16, 4, PpgMode.MUX, AdderKind.CSA_TREE)
        assert ArchConfig.from_dict(a.to_dict()) == a

    def test_group_size_checked_directly(self):
        for size in (0, 17):
            with pytest.raises(ValueError, match=r"group_size must be in \[1, 16\]"):
                ArchConfig(4, 16, 16, size)
        # only sizes are checked: a group larger than the filter pads
        assert ArchConfig(1, 16, 16, 16).group_size == 16

    def test_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            ArchConfig(4, 1, 16, 2)
        with pytest.raises(ValueError):
            ArchConfig(4, 16, 80, 2)
        with pytest.raises(ValueError):
            ArchConfig(0, 16, 16, 2)


class TestDesignFile:
    def test_create_and_round_trip(self, tmp_path):
        fmt = FixedFormat(16)
        arch = ArchConfig(4, 16, 16, 2)
        design = DesignFile.create(arch, CoefficientSet.from_integers([1, -2, 3, -4], fmt))
        path = tmp_path / "d.json"
        design.save(str(path))
        loaded = DesignFile.load(str(path))
        assert loaded.arch == design.arch
        assert loaded.coefficients.values == (1, -2, 3, -4)
        assert loaded.luts == design.luts
        assert rederive_luts(loaded) == loaded.luts

    def test_unknown_keys_rejected(self, tmp_path):
        fmt = FixedFormat(16)
        design = DesignFile.create(
            ArchConfig(2, 16, 16, 2), CoefficientSet.from_integers([5, 6], fmt)
        )
        data = design.to_dict()
        data["vendor_extras"] = {}
        path = tmp_path / "d.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DesignError, match="unknown keys"):
            DesignFile.load(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        fmt = FixedFormat(16)
        design = DesignFile.create(
            ArchConfig(2, 16, 16, 2), CoefficientSet.from_integers([5, 6], fmt)
        )
        data = design.to_dict()
        data["version"] = 99
        path = tmp_path / "d.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DesignError, match="version"):
            DesignFile.load(str(path))

    def test_mux_design_carries_no_tables(self):
        fmt = FixedFormat(16)
        design = DesignFile.create(
            ArchConfig(4, 16, 16, 2, ppg_mode=PpgMode.MUX),
            CoefficientSet.from_integers([1, 2, 3, 4], fmt),
        )
        assert design.luts is None
        assert design.to_dict()["luts"] is None

    def test_absurd_table_entry_rejected(self, tmp_path):
        fmt = FixedFormat(16)
        design = DesignFile.create(
            ArchConfig(2, 16, 16, 2), CoefficientSet.from_integers([5, 6], fmt)
        )
        data = design.to_dict()
        data["luts"][0][1] = 1 << 40
        path = tmp_path / "d.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DesignError, match="cannot be a sum"):
            DesignFile.load(str(path))

    @pytest.mark.parametrize(
        "path, value",
        [
            (("version",), True),
            (("arch", "input_width"), 8.9),
            (("arch", "group_size"), "2"),
            (("coefficients", 0), True),
            (("luts", 0, 1), True),
            (("plan", "groups", 0, 1), 1.7),
        ],
        ids=["version", "input_width", "group_size", "coefficient", "table_entry", "plan_member"],
    )
    def test_integer_fields_take_only_integers(self, path, value):
        # Each edit used to load: bool is an int subclass, and int()
        # truncated floats and parsed strings.
        fmt = FixedFormat(16)
        design = DesignFile.create(
            ArchConfig(2, 16, 16, 2), CoefficientSet.from_integers([1, 6], fmt)
        )
        data = design.to_dict()
        *parents, last = path
        target = data
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(DesignError):
            DesignFile.from_dict(data)

    @pytest.mark.parametrize(
        "value, shown",
        [
            ("1.5", "1.5"),
            ('"' + "x" * 38 + '"', "'" + "x" * 38 + "'"),  # 40 characters: shown whole
            (json.dumps([7] * 100_000), "[7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, ..."),
            ("[" * 500 + "]" * 500, "[" * 40 + "..."),
        ],
        ids=["float", "forty_characters", "list_of_100000", "nested_500_deep"],
    )
    def test_a_non_integer_is_shown_cut_to_forty_characters(self, tmp_path, capsys, value, shown):
        path = tmp_path / "design.json"
        text = json.dumps(replaced(BASE_DESIGN, ("coefficients", 0), "@"))
        path.write_text(text.replace('"@"', value))
        assert main(["report", "--design", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: every coefficient must be an integer, got {shown}\n"
        )

    def test_coefficient_count_must_match_num_taps(self, tmp_path, capsys):
        # A fifth coefficient on a 4-tap design used to load; running it then
        # failed with the engine's "plan covers 4 taps but the filter has 5".
        design = DesignFile.create(
            ArchConfig(4, 4, 4, 2), CoefficientSet.from_integers([1, -2, 3, -4], FixedFormat(4))
        )
        for values in ([1, -2, 3, -4, 5], [1, -2, 3]):
            data = design.to_dict()
            data["coefficients"] = values
            with pytest.raises(DesignError, match="design.coefficients"):
                DesignFile.from_dict(data)
            path = tmp_path / "design.json"
            path.write_text(json.dumps(data))
            samples = tmp_path / "samples.txt"
            samples.write_text("1\n")
            code = main(
                ["run", "--design", str(path), "--samples", str(samples),
                 "--out", str(tmp_path / "out.txt")]
            )
            assert code == 2
            assert capsys.readouterr().err == (
                f"error: {path}: design.coefficients has {len(values)} values "
                "but design.arch.num_taps is 4\n"
            )

    def test_huge_tap_count_rejected_without_building_a_plan(self):
        data = replaced(BASE_DESIGN, ("arch", "num_taps"), 10**9)
        start = time.perf_counter()
        with pytest.raises(DesignError):
            DesignFile.from_dict(data)
        assert time.perf_counter() - start < 0.5

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(list(json_paths(BASE_DESIGN))), json_values)
    @example(("arch", "num_taps"), 10**9)
    @example(("plan", "groups", 1, 1), True)
    @example(("plan", "groups", 1, 1), 2)
    @example(("arch", "ppg_mode"), {})
    def test_one_edited_node_loads_or_is_refused(self, path, value):
        data = replaced(BASE_DESIGN, path, value)
        start = time.perf_counter()
        try:
            DesignFile.from_dict(data)
        except DesignError:
            pass
        assert time.perf_counter() - start < 0.5


def assert_saved_as_json_dumps(design: DesignFile, path: Path) -> None:
    """``path`` holds what ``json.dumps`` writes for the design with indent 2, and a newline.

    A difference is shown around its first offset: a diff of two
    megabyte texts would take minutes.
    """
    got = path.read_text(encoding="utf-8")
    want = json.dumps(design.to_dict(), indent=2) + "\n"
    if got != want:
        pairs = enumerate(zip(got, want))
        at = next((i for i, (a, b) in pairs if a != b), min(len(got), len(want)))
        pytest.fail(
            f"saved text differs at offset {at} of {len(want)}: "
            f"{got[at - 30 : at + 30]!r} != {want[at - 30 : at + 30]!r}"
        )


SLICE = dafir.design._SLICE
ROOT = Path(__file__).resolve().parents[1]

# Counts the calls of the standard library's JSON encoder into ``calls``:
# ``json.dumps`` and every ``JSONEncoder`` go through ``encode`` or
# ``iterencode``.
COUNT_ENCODER_CALLS = """
import json
calls = []
for name in ("encode", "iterencode"):
    def counted(self, *args, _name=name, _real=getattr(json.JSONEncoder, name), **kwargs):
        calls.append(_name)
        return _real(self, *args, **kwargs)
    setattr(json.JSONEncoder, name, counted)
"""


def encoder_calls(run) -> list[str]:
    """The JSON encoder calls ``run()`` makes, by method name, in order."""
    counter = {}
    real = {name: getattr(json.JSONEncoder, name) for name in ("encode", "iterencode")}
    try:
        exec(COUNT_ENCODER_CALLS, counter)
        run()
    finally:
        for name, method in real.items():
            setattr(json.JSONEncoder, name, method)
    return counter["calls"]


class TestSave:
    # Slice sizes other than the module's put slice boundaries inside
    # tables of every size: 3 leaves a partial last slice of any table
    # longer than 3 entries that is not a multiple of 3, 1 makes every
    # entry a slice. With SLICE itself, M <= 11 tables are shorter than one
    # slice and M >= 12 tables are exact multiples of it.
    @settings(deadline=None, max_examples=40)
    @given(
        group_size=st.integers(1, 16),
        taps=st.integers(1, 32),
        width=st.integers(4, 24),
        mode=st.sampled_from(PpgMode),
        slice_size=st.sampled_from([SLICE, 1000, 3, 1]),
        edit=st.none() | st.tuples(*[st.integers(0, (1 << 16) - 1)] * 3),
    )
    @example(group_size=16, taps=20, width=16, mode=PpgMode.STORED, slice_size=SLICE, edit=None)
    @example(group_size=13, taps=13, width=9, mode=PpgMode.STORED, slice_size=1000, edit=None)
    @example(group_size=4, taps=9, width=4, mode=PpgMode.STORED, slice_size=3, edit=None)
    @example(group_size=2, taps=5, width=8, mode=PpgMode.MUX, slice_size=SLICE, edit=None)
    # Separable M = 16 tables: every table is written as its halves.
    @example(group_size=16, taps=64, width=16, mode=PpgMode.STORED, slice_size=SLICE, edit=None)
    # M = 13, table 1 edited in row 1: one table as its halves, one as a list.
    @example(
        group_size=13, taps=26, width=12, mode=PpgMode.STORED, slice_size=SLICE, edit=(1, 300, 5)
    )
    def test_writes_what_json_dumps_writes_and_loads_back(
        self, tmp_path_factory, group_size, taps, width, mode, slice_size, edit
    ):
        rng = random.Random(f"{group_size}:{taps}:{width}")
        half = 1 << (width - 1)
        values = [rng.randrange(-half, half) for _ in range(taps)]
        design = DesignFile.create(
            ArchConfig(taps, width, width, group_size, ppg_mode=mode),
            CoefficientSet.from_integers(values, FixedFormat(width)),
        )
        if design.luts is not None and edit is not None:
            # An edited table: one entry takes another entry's value, so it
            # stays in range but no longer derives from the coefficients.
            luts = [list(t) for t in design.luts]
            g, a, b = edit
            table = luts[g % len(luts)]
            table[a % len(table)] = table[b % len(table)]
            design.luts = tuple(map(tuple, luts))
        path = tmp_path_factory.mktemp("save") / "d.json"
        with mock.patch.object(dafir.design, "_SLICE", slice_size):
            design.save(str(path))
        assert_saved_as_json_dumps(design, path)
        assert DesignFile.load(str(path)) == design

    @pytest.mark.parametrize("slice_size", [SLICE, 2, 1])
    @pytest.mark.parametrize(
        "luts",
        [
            (),
            ((),),
            ((), (1,)),
            ((True, 1.5, None, 2**70, "a, b", float("nan"), -0.0, "\u00e9\n"),) * 2,
            (tuple(range(-3, 2)), (7,) * 6),
        ],
        ids=["no_tables", "empty_table", "empty_then_one", "json_scalars", "odd_lengths"],
    )
    def test_any_tables_are_written_as_json_dumps_writes_them(self, tmp_path, luts, slice_size):
        # Not loadable designs, but save must still write the document to_dict gives.
        design = DesignFile.create(
            ArchConfig(3, 8, 8, 2), CoefficientSet.from_integers([1, -2, 3], FixedFormat(8))
        )
        design.luts = luts
        path = tmp_path / "d.json"
        with mock.patch.object(dafir.design, "_SLICE", slice_size):
            design.save(str(path))
        assert_saved_as_json_dumps(design, path)

    @pytest.mark.parametrize(
        "taps, group_size, mode, edited, shape",
        [
            (9, 9, PpgMode.STORED, False, lambda d: [len(t["high"]) for t in d["luts"]] == [2]),
            (64, 16, PpgMode.STORED, False, lambda d: all(isinstance(t, dict) for t in d["luts"])),
            (26, 13, PpgMode.STORED, True, lambda d: [type(t) for t in d["luts"]] == [dict, list]),
            (10, 4, PpgMode.MUX, False, lambda d: d["luts"] is None),
            (10, 4, PpgMode.STORED, False, lambda d: d["plan"]["groups"][-1][2:] == [None, None]),
            (1, 1, PpgMode.STORED, False, lambda d: d["luts"] == [[0, d["coefficients"][0]]]),
        ],
        ids=["m9_high_halves_of_2", "m16", "halves_and_list", "mux", "padded", "k1"],
    )
    def test_each_document_form_is_written_as_json_dumps_writes_it(
        self, tmp_path, taps, group_size, mode, edited, shape
    ):
        rng = random.Random(f"{taps}:{group_size}")
        values = [rng.randrange(-(1 << 11), 1 << 11) for _ in range(taps)]
        design = DesignFile.create(
            ArchConfig(taps, 12, 12, group_size, ppg_mode=mode),
            CoefficientSet.from_integers(values, FixedFormat(12)),
        )
        if edited:  # the second table's entry 300 takes entry 5's value: it no longer splits
            luts = [list(t) for t in design.luts]
            luts[1][300] = luts[1][5]
            design.luts = tuple(map(tuple, luts))
        assert shape(design.to_dict())
        path = tmp_path / "d.json"
        design.save(str(path))
        assert_saved_as_json_dumps(design, path)

    # The design shapes the benchmark's workloads save: stored M = 4, stored
    # M = 16 (every table as its halves) and mux, and a plan padded with
    # None slots.
    @pytest.mark.parametrize(
        "taps, group_size, mode",
        [(64, 4, PpgMode.STORED), (64, 16, PpgMode.STORED), (64, 4, PpgMode.MUX),
         (10, 4, PpgMode.STORED)],
        ids=["stored_m4", "stored_m16_halves", "mux_m4", "padded"],
    )
    def test_workload_designs_are_saved_without_a_json_encoder(
        self, tmp_path, taps, group_size, mode
    ):
        rng = random.Random(f"{taps}:{group_size}")
        values = [rng.randrange(-(1 << 15), 1 << 15) for _ in range(taps)]
        design = DesignFile.create(
            ArchConfig(taps, 16, 16, group_size, ppg_mode=mode),
            CoefficientSet.from_integers(values, FixedFormat(16)),
        )
        path = tmp_path / "d.json"
        assert encoder_calls(lambda: design.save(str(path))) == []
        assert_saved_as_json_dumps(design, path)

    def test_importing_the_design_module_encodes_nothing(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        code = COUNT_ENCODER_CALLS + "import dafir.design\nprint(calls)"
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr

    def test_never_builds_the_whole_file_as_one_string(self, tmp_path):
        # K = 64, M = 16, every table edited at address 257 (both bytes
        # nonzero) so that none splits: four lists of 65,536 entries,
        # about 3.5 MB of text.
        values = [(-1) ** k * (977 * k % 32768) for k in range(64)]
        design = DesignFile.create(
            ArchConfig(64, 16, 16, 16), CoefficientSet.from_integers(values, FixedFormat(16))
        )
        luts = [list(t) for t in design.luts]
        for table in luts:
            table[257] += 1 if table[257] < 0 else -1
        design.luts = check_tables(luts, design.plan, 16)
        assert design.luts.parts == (None,) * 4
        path = tmp_path / "d.json"
        tracemalloc.start()
        try:
            design.save(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 3_000_000
        assert peak < size / 4
        assert_saved_as_json_dumps(design, path)


def k64_m16(tmp_path) -> tuple[Path, Path]:
    """A stored K=64, M=16 design saved as written now (halves) and as a list-form file.

    The list form is ``json.dumps(..., indent=2)`` of the same document
    with every table as the list of its 65,536 entries, built by
    ``build_lut``: the layout every earlier version of ``save`` wrote.
    """
    values = [(-1) ** k * (977 * k % 32768) for k in range(64)]
    design = DesignFile.create(
        ArchConfig(64, 16, 16, 16), CoefficientSet.from_integers(values, FixedFormat(16))
    )
    halves, lists = tmp_path / "halves.json", tmp_path / "lists.json"
    design.save(str(halves))
    data = design.to_dict()
    data["luts"] = [list(t) for t in rederive_luts(design)]
    lists.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return halves, lists


class TestHalvesForm:
    """M > 8 tables written as ``{"low": T[:256], "high": T[::256]}``, and list-form files."""

    def test_design_writes_each_separable_table_as_its_halves(self, tmp_path):
        halves, lists = k64_m16(tmp_path)
        data = json.loads(halves.read_text())
        tables = [list(t) for t in rederive_luts(DesignFile.load(str(lists)))]
        assert data["luts"] == [{"low": t[:256], "high": t[::256]} for t in tables]
        assert halves.stat().st_size < lists.stat().st_size // 100
        assert DesignFile.load(str(halves)) == DesignFile.load(str(lists))

    @staticmethod
    def refused(tmp_path, data) -> str:
        path = tmp_path / "d.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        with pytest.raises(DesignError) as raised:
            DesignFile.load(str(path))
        assert time.perf_counter() - start < 0.5
        prefix = f"{path}: "
        assert str(raised.value).startswith(prefix)
        return str(raised.value)[len(prefix):]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t["low"].pop(), "table 1 low half must be a list of 256 integers"),
            (lambda t: t["high"].append(0), "table 1 high half must be a list of 2 integers"),
            (lambda t: t["low"].__setitem__(0, 1),
             "table 1 halves must start at 0, not low 1 and high 0"),
            (lambda t: t["high"].__setitem__(0, -1),
             "table 1 halves must start at 0, not low 0 and high -1"),
            (lambda t: t.update(low=[0, 2047] + [0] * 254, high=[0, 1]),
             "table 1 entry 2048 cannot be a sum of 9 coefficients of 8 bits"),
            (lambda t: t.update(low=[0, 5, -2047] + [0] * 253, high=[0, -2]),
             "table 1 entry -2049 cannot be a sum of 9 coefficients of 8 bits"),
            (lambda t: t["low"].__setitem__(3, True),
             "table 1 low half must be a list of 256 integers"),
            (lambda t: t["high"].__setitem__(1, 1.5),
             "table 1 high half must be a list of 2 integers"),
            (lambda t: t.pop("high"), "table 1 must have exactly the keys 'low' and 'high'"),
            (lambda t: t.update(mid=[]), "table 1 must have exactly the keys 'low' and 'high'"),
        ],
        ids=["short_low", "long_high", "low_origin", "high_origin", "above", "below",
             "true_entry", "float_entry", "missing_key", "unknown_key"],
    )
    def test_malformed_halves_are_refused_naming_file_and_table(self, tmp_path, edit, message):
        # K=18, M=9, W=8: two tables of 512 entries, each written as halves
        # of 256 and 2 entries, whose sums must stay in [-2048, 2048).
        values = [(-1) ** k * (k + 90) for k in range(18)]
        data = DesignFile.create(
            ArchConfig(18, 8, 8, 9), CoefficientSet.from_integers(values, FixedFormat(8))
        ).to_dict()
        assert all(isinstance(t, dict) for t in data["luts"])
        edit(data["luts"][1])
        assert self.refused(tmp_path, data) == message

    def test_halves_are_refused_for_groups_of_eight_or_fewer(self, tmp_path):
        data = DesignFile.create(
            ArchConfig(16, 8, 8, 8), CoefficientSet.from_integers(list(range(16)), FixedFormat(8))
        ).to_dict()
        table = data["luts"][1]
        data["luts"][1] = {"low": table[:16], "high": table[::16]}
        assert self.refused(tmp_path, data) == "table 1 must be a list of 256 integers"

    def test_list_form_files_give_the_same_bytes(self, tmp_path, capsys):
        halves, lists = k64_m16(tmp_path)
        samples = tmp_path / "s.txt"
        samples.write_text("".join(f"{(-1) ** i * (4099 * i % 32768)}\n" for i in range(300)))

        def outcome(design):
            results = []
            for argv in (
                ["run", "--samples", str(samples), "--out", str(tmp_path / "o.txt")],
                ["run", "--samples", str(samples), "--out", str(tmp_path / "o.txt"),
                 "--trace", str(tmp_path / "t.jsonl")],
                ["verify", "--random", "64"],
                ["report"],
            ):
                code = main(argv + ["--design", str(design)])
                files = [(tmp_path / f).read_bytes() for f in ("o.txt", "t.jsonl")
                         if (tmp_path / f).exists()]
                results.append((code, capsys.readouterr(), files))
                for f in ("o.txt", "t.jsonl"):
                    (tmp_path / f).unlink(missing_ok=True)
            return results

        want = outcome(halves)
        assert [code for code, *_ in want] == [0] * 4
        assert want[2][1].out == "64/64 ok\n"
        # The file's encoding changed, not the modelled tables: 2^M entries a group.
        assert json.loads(want[3][1].out)["memory_locations"] == 4 * 65536
        assert outcome(lists) == want

    def test_a_corrupted_list_form_entry_is_caught(self, tmp_path, capsys):
        _, lists = k64_m16(tmp_path)
        design = DesignFile.load(str(lists))
        # The address group 2 reads on cycle 0 of the first window that
        # ``verify --random`` draws (seed 0).
        rng = random.Random(0)
        window = [rng.randint(-(1 << 15), (1 << 15) - 1) for _ in range(64)]
        address = sum((window[k] & 1) << j for j, k in enumerate(design.plan.groups[2]))
        data = json.loads(lists.read_text())
        data["luts"][2][address] += 1
        lists.write_text(json.dumps(data, indent=2) + "\n")
        assert main(["verify", "--design", str(lists), "--random", "64"]) == 1
        assert capsys.readouterr().err.startswith(f"mismatch at window {window}: ")

    @pytest.mark.parametrize("mode", list(PpgMode))
    def test_untraced_run_forms_no_whole_table(self, tmp_path, mode):
        design = tmp_path / "d.json"
        values = [(-1) ** k * (977 * k % 32768) for k in range(64)]
        DesignFile.create(
            ArchConfig(64, 16, 16, 16, ppg_mode=mode),
            CoefficientSet.from_integers(values, FixedFormat(16)),
        ).save(str(design))
        samples = tmp_path / "s.txt"
        samples.write_text("".join(f"{(-1) ** i * (4099 * i % 32768)}\n" for i in range(300)))
        out = tmp_path / "o.txt"
        whole = AssertionError("a table of 2^M entries was formed")
        with mock.patch.object(dafir.engine._CheckedTables, "__getitem__", side_effect=whole):
            argv = ["run", "--design", str(design), "--samples", str(samples), "--out", str(out)]
            assert main(argv) == 0
        want = dafir.numerics.direct_fir(
            [int(x) for x in samples.read_text().split()], tuple(values)
        )
        assert out.read_text() == "".join(f"{y}\n" for y in want)

    def test_verify_forms_no_whole_table(self, tmp_path):
        """verify_windows reads a table with halves at its address bytes, as blocks do."""
        engine = dafir.engine
        rng = random.Random(19)
        fmt = FixedFormat(16)
        coeffs = CoefficientSet.from_integers([rng.randint(-32768, 32767) for _ in range(20)], fmt)
        plan = engine.partition_taps(20, 16)  # groups of taps 0-15 and 16-19 with 12 pads
        design = DesignFile.load(str(k64_m16(tmp_path)[0]))
        cases = [
            (coeffs, plan, PpgMode.STORED, engine.DaFilter(coeffs, plan, input_width=16).tables()),
            (coeffs, plan, PpgMode.MUX, None),
            (design.coefficients, design.plan, PpgMode.STORED, design.luts),
        ]

        def windows(num_taps, count):
            extremes = [(-32768,) * num_taps, (32767,) * num_taps]
            return extremes + [
                tuple(rng.randint(-32768, 32767) for _ in range(num_taps)) for _ in range(count)
            ]

        whole = AssertionError("a table of 2^M entries was formed")
        for taps, split_plan, mode, luts in cases:
            drawn = windows(len(taps), 300)
            with mock.patch.object(engine._CheckedTables, "__getitem__", side_effect=whole):
                got = engine.verify_windows(
                    taps, split_plan, mode, input_width=16, windows=drawn, luts=luts
                )
            assert got == (len(drawn), [])

        # A table edited where no sample reaches (a padding bit) no longer
        # splits: it alone is gathered whole, and still checks clean.
        tables = [list(build_lut(coeffs, g).entries) for g in plan.groups]
        tables[1][1 << 15] += 1
        assert engine.check_tables(tables, plan, 16).parts[1] is None
        drawn = windows(20, 300)
        read = []
        getitem = engine._CheckedTables.__getitem__

        def recording(self, g):
            read.append(g)
            return getitem(self, g)

        with mock.patch.object(engine._CheckedTables, "__getitem__", recording):
            got = engine.verify_windows(
                coeffs, plan, PpgMode.STORED, input_width=16, windows=drawn, luts=tables
            )
        assert got == (len(drawn), []) and set(read) == {1}

        # One entry moved by one is found at the first window that reads it.
        def addresses(window):
            members = [(j, k) for j, k in enumerate(plan.groups[1]) if k is not None]
            return {sum(((window[k] >> n) & 1) << j for j, k in members) for n in range(16)}

        address = min(addresses(drawn[5]))
        tables[1][address] -= 1
        first = next(i for i, window in enumerate(drawn) if address in addresses(window))
        checked, [bad] = engine.verify_windows(
            coeffs, plan, PpgMode.STORED, input_width=16, windows=drawn, luts=tables
        )
        assert (checked, bad.window) == (first + 1, drawn[first])


class TestCmdDesign:
    def test_reports_memory_locations(self, workspace, capsys):
        run_design(workspace)
        assert "memory locations: 8" in capsys.readouterr().out

    def test_mux_reports_no_memory_locations(self, workspace, capsys):
        run_design(workspace, "design.json", "--ppg", "mux")
        assert capsys.readouterr().out == "memory locations: 0\n"

    def test_design_file_round_trips(self, workspace):
        out = run_design(workspace)
        design = DesignFile.load(str(out))
        assert design.arch.num_taps == 4
        assert rederive_luts(design) == design.luts

    def test_quantizes_reals(self, workspace):
        design = DesignFile.load(str(run_design(workspace)))
        # 0.25, -0.5, 0.125, 0.0625 at scale 2^15
        assert design.coefficients.values == (8192, -16384, 4096, 2048)

    def test_integer_lines_taken_verbatim(self, workspace, tmp_path):
        (workspace / "coeffs.txt").write_text("100\n-200\n")
        design = DesignFile.load(str(run_design(workspace)))
        assert design.coefficients.values == (100, -200)

    def test_saturation_warning(self, workspace, capsys):
        (workspace / "coeffs.txt").write_text("1.5\n0.25\n")
        run_design(workspace)
        err = capsys.readouterr().err
        assert "saturated to 32767" in err and "coeffs.txt:1" in err

    def test_zero_file_gives_zero_tables(self, workspace):
        (workspace / "coeffs.txt").write_text("0.0\n0.0\n0.0\n0.0\n")
        design = DesignFile.load(str(run_design(workspace)))
        assert all(v == 0 for table in design.luts for v in table)

    def test_unparsable_line_is_line_numbered_error(self, workspace, capsys):
        (workspace / "coeffs.txt").write_text("0.25\nbogus\n")
        code = main(
            ["design", str(workspace / "coeffs.txt"), "--out", str(workspace / "d.json")]
        )
        assert code == 2
        assert "coeffs.txt:2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["1_0", "0.2_5", "1e1_0", "\u0663", "0.\u0665", "\uff11",
         "5\u3000", "\u00a07", "0.5\u2028", "\x1c0.5", "0.5\x1f"],
    )
    def test_coefficients_are_ascii_without_underscores(self, workspace, capsys, text):
        """int and Decimal read '1_0' as 10, '٣' as 3 and '5\\u3000' as 5; the format lists none.

        Only ASCII whitespace is stripped from a line, and ``Decimal`` also
        takes '\\x1c' to '\\x1f' at an edge.
        """
        (workspace / "coeffs.txt").write_text(f"0.25\n{text}\n", encoding="utf-8")
        out = workspace / "d.json"
        code = main(["design", str(workspace / "coeffs.txt"), "--out", str(out)])
        assert code == 2 and not out.exists()
        path = workspace / "coeffs.txt"
        assert capsys.readouterr().err == f"error: {path}:2: cannot parse coefficient {text!r}\n"

    def test_integer_out_of_range_is_error(self, workspace, capsys):
        (workspace / "coeffs.txt").write_text("40000\n")
        code = main(
            ["design", str(workspace / "coeffs.txt"), "--out", str(workspace / "d.json")]
        )
        assert code == 2
        assert "40000" in capsys.readouterr().err


class TestCmdRun:
    def test_identity_design(self, workspace):
        (workspace / "coeffs.txt").write_text("1\n")
        design = run_design(workspace)
        (workspace / "s.txt").write_text("9\n-3\n")
        out = workspace / "out.txt"
        code = main(
            ["run", "--design", str(design), "--samples", str(workspace / "s.txt"), "--out", str(out)]
        )
        assert code == 0
        assert out.read_text() == "9\n-3\n"

    def test_trace_has_l_lines_per_sample(self, workspace):
        (workspace / "coeffs.txt").write_text("3\n-5\n")
        design = run_design(workspace)
        (workspace / "s.txt").write_text("1\n2\n3\n")
        trace = workspace / "t.jsonl"
        code = main(
            [
                "run",
                "--design",
                str(design),
                "--samples",
                str(workspace / "s.txt"),
                "--out",
                str(workspace / "o.txt"),
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert len(lines) == 3 * 16
        assert set(lines[0]) == {
            "sample_index",
            "cycle",
            "addresses",
            "partials",
            "tree_sum",
            "subtract",
            "acc",
        }
        per_sample = {}
        for rec in lines:
            per_sample.setdefault(rec["sample_index"], []).append(rec)
        for records in per_sample.values():
            assert [r["cycle"] for r in records] == list(range(16))
            assert [r["subtract"] for r in records].count(True) == 1
            assert records[-1]["subtract"]

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_accumulator_overflow_exits_one(self, tmp_path, capsys, traced):
        design = overflow_design(tmp_path)
        samples = tmp_path / "s.txt"
        samples.write_text("1\n7\n")
        out = tmp_path / "y.txt"
        argv = ["run", "--design", str(design), "--samples", str(samples), "--out", str(out)]
        if traced:
            argv += ["--trace", str(tmp_path / "t.jsonl")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: inner product 3577 exceeds the 12-bit accumulator\n"
        )
        assert out.read_text() == "511\n"

    def test_overflow_in_a_later_block_matches_a_push_loop(self, tmp_path, capsys):
        # The overflowing sample sits in the second block of LANES samples.
        design = overflow_design(tmp_path)
        stream = [1, -3] * 700 + [7] + [1] * 5
        samples = tmp_path / "s.txt"
        samples.write_text("".join(f"{x}\n" for x in stream))
        out = tmp_path / "y.txt"
        argv = ["run", "--design", str(design), "--samples", str(samples), "--out", str(out)]
        code = main(argv)
        captured = capsys.readouterr()
        filt = DesignFile.load(str(design)).filter()
        written = []
        with pytest.raises(AccumulatorOverflow) as raised:
            for x in stream:
                written.append(f"{filt.push(x)}\n")
        assert len(written) == 1400 > dafir.engine.LANES
        assert (code, captured.out, captured.err) == (1, "", f"error: {raised.value}\n")
        assert out.read_text() == "".join(written)

    def test_traced_overflow_in_a_later_block_matches_a_push_traced_loop(
        self, tmp_path, capsys
    ):
        # The overflowing sample sits in the second block of LANES samples.
        design = overflow_design(tmp_path)
        stream = [1, -3] * 700 + [7] + [1] * 5
        samples = tmp_path / "s.txt"
        samples.write_text("".join(f"{x}\n" for x in stream))
        out, trace = tmp_path / "y.txt", tmp_path / "t.jsonl"
        argv = ["run", "--design", str(design), "--samples", str(samples), "--out", str(out)]
        code = main(argv + ["--trace", str(trace)])
        captured = capsys.readouterr()
        filt = DesignFile.load(str(design)).filter()
        written, records = [], []
        with pytest.raises(AccumulatorOverflow) as raised:
            for i, x in enumerate(stream):
                y, cycles = filt.push_traced(x)
                written.append(f"{y}\n")
                records += [trace_line(i, rec) for rec in cycles]
        assert len(written) == 1400 > dafir.engine.LANES
        assert (code, captured.out, captured.err) == (1, "", f"error: {raised.value}\n")
        assert out.read_text() == "".join(written)
        assert trace.read_text() == "".join(records)

    def test_trace_of_an_edited_m12_design_is_what_json_dumps_writes(self, tmp_path):
        # M = 12: each read is one group, written through the template's %d
        # slots. Table 1 is edited at 4095, the address an all-ones window
        # reads there on every cycle, so the file holds it as a list.
        values = [(-1) ** k * (k + 90) for k in range(24)]
        design = DesignFile.create(
            ArchConfig(24, 8, 8, 12), CoefficientSet.from_integers(values, FixedFormat(8))
        )
        table = list(build_lut(design.coefficients, design.plan.groups[1]).entries)
        data = design.to_dict()
        data["luts"][1] = table[:4095] + table[4094:4095]
        path = tmp_path / "d.json"
        path.write_text(json.dumps(data))
        stream = [-1] * 40 + [(-1) ** i * (37 * i % 128) for i in range(1100)]
        samples, out, trace = tmp_path / "s.txt", tmp_path / "y.txt", tmp_path / "t.jsonl"
        samples.write_text("".join(f"{x}\n" for x in stream))
        argv = ["run", "--design", str(path), "--samples", str(samples), "--out", str(out)]
        assert main(argv + ["--trace", str(trace)]) == 0
        filt = DesignFile.load(str(path)).filter()
        assert filt.tables()[1][4095] == table[4094] != table[4095]
        written, records = [], []
        for i, x in enumerate(stream):
            y, cycles = filt.push_traced(x)
            written.append(f"{y}\n")
            records += [trace_line(i, rec) for rec in cycles]
        assert out.read_text() == "".join(written)
        assert trace.read_bytes() == "".join(records).encode()
        assert any(rec["addresses"][1] == 4095 for rec in map(json.loads, records))

    def test_repeated_runs_byte_identical(self, workspace):
        design = run_design(workspace)
        out1, out2 = workspace / "o1.txt", workspace / "o2.txt"
        for out in (out1, out2):
            code = main(
                [
                    "run",
                    "--design",
                    str(design),
                    "--samples",
                    str(workspace / "samples.txt"),
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sample_out_of_range_is_line_numbered(self, workspace, capsys):
        design = run_design(workspace)
        (workspace / "s.txt").write_text("1\n99999\n")
        code = main(
            [
                "run",
                "--design",
                str(design),
                "--samples",
                str(workspace / "s.txt"),
                "--out",
                str(workspace / "o.txt"),
            ]
        )
        assert code == 2
        assert "s.txt:2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["1_000", "-1_0", "\u0663", "\uff11", "1\u0660",
         "5\u3000", "\u00a07", "7\x85", "\u20285", "5\x1c"],
    )
    def test_samples_are_ascii_without_underscores(self, workspace, capsys, text):
        """int reads '1_000' as 1000, '٣' as 3 and '5\\u3000' as 5; the file format lists none.

        Only ASCII whitespace is stripped from a line.
        """
        design = run_design(workspace)
        samples = workspace / "s.txt"
        samples.write_text(f"1\n{text}\n2\n", encoding="utf-8")
        out = workspace / "o.txt"
        code = main(["run", "--design", str(design), "--samples", str(samples), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {samples}:2: cannot parse sample {text!r}\n"

    def test_outputs_match_oracle(self, workspace):
        from dafir.numerics import direct_fir

        design_path = run_design(workspace)
        out = workspace / "o.txt"
        main(
            [
                "run",
                "--design",
                str(design_path),
                "--samples",
                str(workspace / "samples.txt"),
                "--out",
                str(out),
            ]
        )
        design = DesignFile.load(str(design_path))
        got = [int(v) for v in out.read_text().split()]
        want = direct_fir([100, -200, 3000, -32768, 32767], design.coefficients)
        assert got == want


def samples_line_by_line(path, width):
    """The sample file's integers, or the error for its first bad line, one line at a time.

    A line is an integer in ASCII without '_', though ``int`` takes '1_000' and '٣' too,
    stripped of ASCII whitespace alone.
    """
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    samples = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f.readlines(), start=1):
            text = line.split("#", 1)[0].strip(" \t\n\r\x0b\x0c")
            if not text:
                continue
            try:
                v = int(text) if text.isascii() and "_" not in text else None
            except ValueError:
                v = None
            if v is None:
                return f"{path}:{lineno}: cannot parse sample {text!r}"
            if not lo <= v <= hi:
                return f"{path}:{lineno}: sample {v} outside signed {width}-bit range"
            samples.append(v)
    return samples


# The pieces hold each character the parsers treat apart from digits and
# signs: '#', '_', the ASCII whitespace a line is stripped of, and '\x1c' to
# '\x1f', which str.split cuts at but int refuses.
sample_pieces = st.sampled_from(
    ["1", "-7", "+2", "1_000", "1__0", "_", "99999", "-40000", "x", "1.5", "\u0663", "#", "# c",
     " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\n", "\n",
     "\r\n", "\r"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(sample_pieces | st.text(max_size=3), max_size=40), st.sampled_from([4, 16]))
@example(["1\n", "\x0c", "2\n", "3\x85", "4\u2028", "5\n"], 16)
@example(["1\r\n", "\r\n", "#x\r\n", "99\r\n", "abc"], 4)
@example([], 4)
@example(["1\n", "\n", "-2\n", "3"], 4)
@example(["1\n", "2", "\x1c", "3\n"], 16)
@example(["1\n", "\x1f", "\n"], 16)
@example(["1_0\n"], 16)
@example(["1\x0b\n", "2\n"], 16)
def test_samples_parse_in_bulk_as_line_by_line(tmp_path_factory, pieces, width):
    """Bulk parsing gives the line-by-line result: the same integers, or the same error line."""
    path = tmp_path_factory.mktemp("samples") / "s.txt"
    path.write_text("".join(pieces), encoding="utf-8", newline="")
    want = samples_line_by_line(path, width)
    try:
        got = cli._parse_samples(str(path), FixedFormat(width))
    except cli.CliError as exc:
        got = str(exc)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.lists(sample_pieces | st.text(max_size=3), max_size=40))
@example([])
@example(["0.5\n", "\n", "-0.25"])
@example(["0.5\n", "\n"])
def test_payloads_are_the_lines_cut_at_hash_and_stripped(tmp_path_factory, pieces):
    """Split at line breaks or stripped line by line, a file gives the same payloads."""
    path = tmp_path_factory.mktemp("payloads") / "p.txt"
    path.write_text("".join(pieces), encoding="utf-8", newline="")
    with open(path, encoding="utf-8") as f:
        want = [line.split("#", 1)[0].strip(" \t\n\r\x0b\x0c") for line in f.readlines()]
    assert cli._read_payloads(str(path)) == want


def payloads_by_readlines(path) -> list[str]:
    """The payloads as ``_read_payloads`` once read them: ``readlines``, then joined."""
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    text = "".join(lines)
    if not any(map(text.__contains__, "# \t\r\x0b\x0c")):
        return text.split("\n")[: len(lines)]
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    return [line.strip(" \t\n\r\x0b\x0c") for line in lines]


@pytest.mark.parametrize(
    "text",
    [
        "1\n-2\n3",
        "1\r\n-2\r\n",
        "1\r-2\r3",
        "1\r\n\r\n-2\r3\n4\r",
        "# head\n1 # one\n\n  \n-2\t#\n#\n3",
        "1\x1c2\n3\x854\n5\u2028",
        "\x1c\n\x85\n# \x1c\n\x85 # \x85\n",
        "",
        "\n",
        "\n\n1",
    ],
    ids=[
        "no_final_break", "crlf", "lone_cr", "mixed_breaks", "comments_and_blanks",
        "separators_inside_lines", "separators_and_comments", "empty", "one_break",
        "blank_lines_first",
    ],
)
def test_payloads_read_whole_are_those_read_line_by_line(tmp_path, text):
    """One ``read`` gives the payloads, and so the line numbers, that ``readlines`` gave."""
    path = tmp_path / "p.txt"
    path.write_text(text, encoding="utf-8", newline="")
    assert cli._read_payloads(str(path)) == payloads_by_readlines(path)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trace_template_writes_what_json_dumps_writes(data):
    """The traced writer's bytes ``%`` template, against json.dumps of each record's dict.

    Its slots take the sample index and each pack's address and partial
    text as bytes (``%s``), or each group's address and partial (``%d``).
    """
    groups = data.draw(st.integers(1, 64), label="groups")
    length = data.draw(st.integers(1, 4), label="length")
    slot = data.draw(st.sampled_from([b"%s", b"%d"]), label="slot")
    size = data.draw(st.integers(1, 8), label="pack size") if slot == b"%s" else 1
    value = st.integers(-(1 << 80), 1 << 80) | st.integers(-2, 2)
    index = data.draw(st.integers(0, 1 << 70))

    def slots(values):
        if slot == b"%d":
            return list(values)
        texts = list(map(b"%d".__mod__, values))
        return [b", ".join(texts[g : g + size]) for g in range(0, groups, size)]

    args, lines = [], []
    for n in range(length):
        rec = dafir.engine.CycleRecord(
            n,
            tuple(data.draw(st.lists(value, min_size=groups, max_size=groups))),
            tuple(data.draw(st.lists(value, min_size=groups, max_size=groups))),
            data.draw(value),
            n,
            n == length - 1,
            data.draw(value),
        )
        args += [b"%d" % index, *slots(rec.addresses), *slots(rec.partials), rec.tree_sum]
        args.append(rec.acc_after)
        lines.append(trace_line(index, rec))
    packs = -(-groups // size)
    assert cli._trace_template(packs, slot, length) % tuple(args) == "".join(lines).encode()


class TestCmdVerify:
    def make_design(self, workspace, coeff_text="3\n-5\n", width=4, **kw):
        (workspace / "coeffs.txt").write_text(coeff_text)
        out = workspace / "design.json"
        code = main(
            [
                "design",
                str(workspace / "coeffs.txt"),
                "--coeff-width",
                "8",
                "--input-width",
                str(width),
                "--group-size",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        return out

    def test_exhaustive_clean(self, workspace, capsys):
        design = self.make_design(workspace)
        code = main(["verify", "--design", str(design), "--exhaustive"])
        assert code == 0
        assert "256/256 ok" in capsys.readouterr().out

    def test_random_reproducible(self, workspace, capsys):
        design = self.make_design(workspace, width=16)
        code = main(["verify", "--design", str(design), "--random", "500", "--seed", "7"])
        assert code == 0
        assert "500/500 ok" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", ["7", "0"])
    def test_seed_with_exhaustive_is_refused(self, workspace, capsys, seed):
        design = self.make_design(workspace)
        capsys.readouterr()
        code = main(["verify", "--design", str(design), "--exhaustive", "--seed", seed])
        assert code == 2
        assert capsys.readouterr() == ("", "error: --seed applies to --random only\n")

    def test_random_without_seed_uses_seed_zero(self, workspace, capsys):
        design = self.make_design(workspace)
        capsys.readouterr()
        runs = []
        for seed in ([], ["--seed", "0"]):
            assert main(["verify", "--design", str(design), "--random", "50", *seed]) == 0
            runs.append(capsys.readouterr())
        assert runs[0] == runs[1] == ("50/50 ok\n", "")

    def test_exhaustive_cap(self, workspace, capsys):
        design = self.make_design(workspace, "3\n-5\n7\n-9\n11\n", width=5)  # 5 * 5 bits > 24
        code = main(["verify", "--design", str(design), "--exhaustive"])
        assert code == 2
        err = capsys.readouterr().err
        assert "num_taps*input_width <= 24 bits, this design has 25" in err

    def test_exhaustive_above_the_old_cap(self, workspace, capsys):
        design = self.make_design(workspace, "3\n-5\n7\n", width=7)  # 21 bits
        capsys.readouterr()
        code = main(["verify", "--design", str(design), "--exhaustive"])
        assert code == 0
        assert capsys.readouterr().out == "2097152/2097152 ok\n"

    def test_mutated_table_caught(self, workspace, capsys):
        design = self.make_design(workspace)
        data = json.loads(design.read_text())
        data["luts"][0][3] += 1
        design.write_text(json.dumps(data))
        code = main(["verify", "--design", str(design), "--exhaustive"])
        assert code == 1
        assert "mismatch at window" in capsys.readouterr().err

    def test_mux_design_verifies(self, workspace, capsys):
        (workspace / "coeffs.txt").write_text("3\n-5\n")
        out = workspace / "mux.json"
        code = main(
            [
                "design",
                str(workspace / "coeffs.txt"),
                "--coeff-width",
                "8",
                "--input-width",
                "4",
                "--ppg",
                "mux",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert main(["verify", "--design", str(out), "--exhaustive"]) == 0
        assert "256/256 ok" in capsys.readouterr().out

    def test_mutated_coefficient_caught(self, workspace, capsys):
        # Stored tables stay consistent with the old coefficients, so the
        # oracle disagrees.
        design = self.make_design(workspace)
        data = json.loads(design.read_text())
        data["coefficients"][0] += 1
        design.write_text(json.dumps(data))
        code = main(["verify", "--design", str(design), "--exhaustive"])
        assert code == 1


class TestCmdReport:
    def test_external_adp(self, workspace, capsys):
        design = run_design(workspace)
        capsys.readouterr()  # drop the design command's output
        code = main(
            ["report", "--design", str(design), "--cells", "606", "--time-ns", "2.375"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["external"]["adp"] == 1439.25
        assert data["memory_locations"] == 8

    def test_model_only_report(self, workspace, capsys):
        design = run_design(workspace)
        capsys.readouterr()
        assert main(["report", "--design", str(design)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["external"] is None
        assert data["adp_model"] > 0
        assert data["cycles_per_output"] == 16

    def test_compare_stored_vs_mux(self, workspace, capsys):
        stored = run_design(workspace, "stored.json")
        mux = run_design(workspace, "mux.json", "--ppg", "mux")
        capsys.readouterr()
        code = main(["report", "--design", str(stored), "--compare", str(mux)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["output_check"].startswith("ok")
        assert data["baseline"]["memory_locations"] == 8
        assert data["candidate"]["memory_locations"] == 0

    def test_compare_corrupt_design_exits_one(self, workspace, capsys):
        stored = run_design(workspace, "stored.json")
        mux = run_design(workspace, "mux.json", "--ppg", "mux")
        data = json.loads(stored.read_text())
        data["luts"][0][3] += 2
        stored.write_text(json.dumps(data))
        code = main(["report", "--design", str(stored), "--compare", str(mux)])
        assert code == 1
        assert "disagree" in capsys.readouterr().err

    def test_compare_edited_table_exits_one_through_the_type(
        self, workspace, capsys, monkeypatch
    ):
        raised = compare_raising(monkeypatch)
        stored = run_design(workspace, "stored.json")
        other = run_design(workspace, "other.json", "--tree", "ripple")
        data = json.loads(other.read_text())
        data["luts"][1][1] -= 1
        other.write_text(json.dumps(data))
        code = main(["report", "--design", str(stored), "--compare", str(other)])
        assert code == 1
        assert [type(exc) for exc in raised] == [ArchitectureMismatch]
        assert str(raised[0]) in capsys.readouterr().err

    def test_compare_runs_the_designs_own_plan(self, workspace, capsys):
        stored = run_design(workspace, "stored.json")
        replan(stored, ((0, 2), (1, 3)))
        mux = run_design(workspace, "mux.json", "--ppg", "mux")
        assert main(["verify", "--design", str(stored), "--random", "200"]) == 0
        assert "200/200 ok" in capsys.readouterr().out
        code = main(["report", "--design", str(stored), "--compare", str(mux)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["output_check"] == "ok (128 samples)"

    def test_compare_reads_the_plans_own_table_entries(self, workspace, capsys, monkeypatch):
        raised = compare_raising(monkeypatch)
        stored = run_design(workspace, "stored.json")
        replan(stored, ((0, 2), (1, 3)))
        mux = run_design(workspace, "mux.json", "--ppg", "mux")
        data = json.loads(stored.read_text())
        data["luts"][1][1] += 1  # read when tap 1's sample bit is set and tap 3's is not
        stored.write_text(json.dumps(data))
        # Tap 1 first sees a set bit at sample 3, cycle 0: the stored side
        # reads -16384 + 1 where the mux side sums coefficient 1, -16384.
        probe = workspace / "probe.txt"
        probe.write_text("0\n0\n1\n0\n")
        code = main(
            ["report", "--design", str(stored), "--compare", str(mux), "--samples", str(probe)]
        )
        assert code == 1
        assert [type(exc) for exc in raised] == [ArchitectureMismatch]
        assert str(raised[0]) == "architectures disagree at sample 3: -16383 vs -16384"

    def test_memory_locations_follow_the_loaded_plan(self, workspace, capsys):
        stored = run_design(workspace, "stored.json")
        replan(stored, ((0, None), (1, None), (2, 3)), padded_taps=2)
        capsys.readouterr()
        assert main(["report", "--design", str(stored)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["memory_locations"] == 12
        assert data["lut_bits"] == 12 * 17

    def test_compare_accumulator_overflow_exits_one(self, tmp_path, capsys):
        design = str(overflow_design(tmp_path))
        assert main(["report", "--design", design, "--compare", design]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: inner product -4088 exceeds the 12-bit accumulator\n"

    def test_cost_model_file(self, workspace, capsys):
        design = run_design(workspace)
        cm = workspace / "cm.json"
        cm.write_text(json.dumps({"fa_gates": 7}))
        assert main(["report", "--design", str(design), "--cost-model", str(cm)]) == 0
        cm.write_text(json.dumps({"fa_gates": 7, "who": 1}))
        code = main(["report", "--design", str(design), "--cost-model", str(cm)])
        assert code == 2
        assert "unknown cost-model keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, message",
        [
            ('{"cla_block_size": 1}', "cla_block_size must be at least 2, not 1"),
            ('{"cla_block_size": 0}', "cla_block_size must be at least 2, not 0"),
            ("[]", "a cost model must be a JSON object, not list"),
            ('{"fa_gates": true}', "cost-model values must be non-negative integers: ['fa_gates']"),
        ],
    )
    @pytest.mark.parametrize("extra", [(), ("--tree", "csa"), ("--ppg", "mux")])
    def test_unusable_cost_model_is_one_error_line(self, workspace, capsys, model, message, extra):
        design = run_design(workspace, "design.json", *extra)
        cm = workspace / "cm.json"
        cm.write_text(model)
        capsys.readouterr()
        code = main(["report", "--design", str(design), "--cost-model", str(cm)])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {cm}: {message}\n")

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--time-ns", "NaN"),
            ("--time-ns", "Infinity"),
            ("--time-ns", "-Infinity"),
            ("--time-ns", "1e999999"),
            ("--power-mw", "NaN"),
            ("--compare-time-ns", "sNaN"),
            ("--compare-power-mw", "2e308"),
        ],
    )
    def test_non_finite_figures_are_refused(self, workspace, capsys, flag, value):
        design = str(run_design(workspace))
        capsys.readouterr()
        args = ["report", "--design", design, "--cells", "10", "--time-ns", "2.5"]
        args += ["--compare", design, "--compare-cells", "10", "--compare-time-ns", "2.5"]
        code = main([*args, f"{flag}={value}"])  # the flag's last value is the one taken
        want = f"error: {flag} must be a finite decimal number in double range, got {value!r}\n"
        assert (code, *capsys.readouterr()) == (2, "", want)

    def test_figures_print_as_json_numbers_or_not_at_all(self, workspace, capsys):
        design = str(run_design(workspace))
        capsys.readouterr()
        # Past the default decimal context's 28 digits, the ADP is still rounded to cents.
        assert main(["report", "--design", design, "--cells", "10", "--time-ns", "1e30"]) == 0
        assert json.loads(capsys.readouterr().out)["external"]["adp"] == 1e31
        # An ADP beyond a double would print as Infinity, which is not JSON.
        assert main(["report", "--design", design, "--cells", "1000", "--time-ns", "1e306"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err == "error: the ADP of cells 1000 and time_ns 1E+306 is past double range\n"

    def test_incomplete_external_pair_rejected(self, workspace, capsys):
        design = run_design(workspace)
        code = main(["report", "--design", str(design), "--cells", "606"])
        assert code == 2
        assert "together" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--samples", "nonexistent.txt"),
            ("--compare-cells", "5"),
            ("--compare-time-ns", "2.5"),
            ("--compare-power-mw", "1.0"),
        ],
    )
    def test_compare_flags_without_compare_are_refused(self, workspace, capsys, flag, value):
        design = run_design(workspace)
        capsys.readouterr()
        code = main(["report", "--design", str(design), flag, value])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag} needs --compare\n"


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_design_file(self, tmp_path, capsys):
        code = main(["verify", "--design", str(tmp_path / "nope.json"), "--exhaustive"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_design_to_an_unwritable_path(self, workspace, capsys):
        out = workspace / "missing" / "d.json"
        code = main(["design", str(workspace / "coeffs.txt"), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: {os.strerror(errno.ENOENT)}\n"
        )

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_run_to_an_unwritable_path(self, workspace, capsys, flag):
        design = run_design(workspace)
        paths = {"--out": workspace / "out.txt", "--trace": workspace / "trace.jsonl"}
        for path in paths.values():
            path.write_bytes(b"keep\n")
        paths[flag] = workspace / "missing" / "file"
        argv = ["run", "--design", str(design), "--samples", str(workspace / "samples.txt")]
        for name, path in paths.items():
            argv += [name, str(path)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {paths[flag]}: {os.strerror(errno.ENOENT)}\n"
        )
        # the path that could be opened is not truncated
        (kept,) = (path for name, path in paths.items() if name != flag)
        assert kept.read_bytes() == b"keep\n"

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_failed_run_makes_no_new_file(self, workspace, capsys, flag):
        # The other path names no file yet; the run that cannot write
        # ``flag`` must not leave one there, whichever is opened first.
        design = run_design(workspace)
        paths = {"--out": workspace / "out.txt", "--trace": workspace / "trace.jsonl"}
        paths[flag] = workspace / "missing" / "file"
        argv = ["run", "--design", str(design), "--samples", str(workspace / "samples.txt")]
        for name, path in paths.items():
            argv += [name, str(path)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {paths[flag]}: {os.strerror(errno.ENOENT)}\n"
        )
        assert sorted(p.name for p in workspace.iterdir()) == [
            "coeffs.txt", "design.json", "samples.txt"
        ]

    @pytest.mark.parametrize("link", ["same", "dotted", "hard", "symbolic", "new"])
    def test_run_refuses_out_and_trace_on_one_file(self, workspace, capsys, link):
        design = run_design(workspace)
        out = workspace / "out.txt"
        if link != "new":
            out.write_bytes(b"keep\n")
        trace = {
            "same": out,
            "dotted": workspace / "." / "out.txt",
            "hard": workspace / "hard.txt",
            "symbolic": workspace / "symbolic.txt",
            "new": out,
        }[link]
        if link == "hard":
            os.link(out, trace)
        elif link == "symbolic":
            trace.symlink_to(out)
        argv = ["run", "--design", str(design), "--samples", str(workspace / "samples.txt")]
        capsys.readouterr()
        assert main(argv + ["--out", str(out), "--trace", str(trace)]) == 2
        assert capsys.readouterr().err == (
            f"error: --out and --trace are the same file: {trace}\n"
        )
        # nothing was truncated, or made
        if link == "new":
            assert not out.exists()
        else:
            assert out.read_bytes() == b"keep\n"

    @pytest.mark.parametrize(
        "content, reason",
        [
            (
                b'{"version": 1',
                "not valid JSON (Expecting ',' delimiter: line 1 column 14 (char 13))",
            ),
            (
                b"\xff\n",
                "not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte)",
            ),
        ],
        ids=["truncated", "not_utf8"],
    )
    def test_undecodable_design_names_its_path_once(self, tmp_path, capsys, content, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["verify", "--design", str(bad), "--exhaustive"]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {reason}\n"
        with pytest.raises(DesignError) as exc:
            DesignFile.load(str(bad))
        assert str(exc.value) == f"{bad}: {reason}"

    @pytest.mark.parametrize("nesting", ["[", '{"a": '], ids=["arrays", "objects"])
    @pytest.mark.parametrize("entry", ["report", "run", "verify", "cost_model"])
    def test_deeply_nested_json_is_a_usage_error(self, workspace, capsys, entry, nesting):
        """JSON nested past the decoder's depth is refused as invalid, exit 2, not a traceback."""
        text = nesting * 100_000
        with pytest.raises(RecursionError) as deep:
            json.loads(text)
        bad = workspace / "deep.json"
        bad.write_text(text, encoding="utf-8")
        argv = {
            "report": ["report", "--design", str(bad)],
            "run": ["run", "--design", str(bad), "--samples", str(workspace / "samples.txt"),
                    "--out", str(workspace / "o.txt")],
            "verify": ["verify", "--design", str(bad), "--random", "4"],
            "cost_model": ["report", "--design", str(run_design(workspace)),
                           "--cost-model", str(bad)],
        }[entry]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}: not valid JSON ({deep.value})\n"

    @pytest.mark.parametrize("reader", ["design", "samples", "coefficients", "cost_model"])
    def test_non_utf8_input_names_its_file(self, workspace, capsys, reader):
        design = run_design(workspace)
        bad = workspace / "bad.bin"
        bad.write_bytes(b"\xff\n")
        samples = str(workspace / "samples.txt")
        argv = {
            "design": ["run", "--design", str(bad), "--samples", samples],
            "samples": ["run", "--design", str(design), "--samples", str(bad)],
            "coefficients": ["design", str(bad)],
            "cost_model": ["report", "--design", str(design), "--cost-model", str(bad)],
        }[reader]
        if argv[0] != "report":
            argv += ["--out", str(workspace / "out")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert "not UTF-8 text" in err
        assert err.count("\n") == 1

    def test_design_load_names_a_non_utf8_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"version": "\xff"}')
        with pytest.raises(DesignError, match=f"^{re.escape(str(bad))}: not UTF-8 text"):
            DesignFile.load(str(bad))

    def test_bad_width_flag_is_usage_error(self, tmp_path, capsys):
        coeffs = tmp_path / "c.txt"
        coeffs.write_text("1\n")
        code = main(
            [
                "design",
                str(coeffs),
                "--coeff-width",
                "1",
                "--out",
                str(tmp_path / "d.json"),
            ]
        )
        assert code == 2
        assert "width" in capsys.readouterr().err

    def test_parser_is_built_once_and_handlers_found_per_call(self, workspace, monkeypatch):
        design = str(run_design(workspace))
        cli._parser.cache_clear()
        for _ in range(3):
            assert main(["report", "--design", design]) == 0
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        # A handler replaced after the parser exists is the one that runs.
        calls = []
        monkeypatch.setattr(cli, "cmd_report", lambda args: calls.append(args.design) or 0)
        assert main(["report", "--design", design]) == 0
        assert calls == [design]

    def test_help_and_errors_come_from_the_one_parser(self, capsys):
        for argv in (["--help"], ["run", "--help"], ["run"], ["frobnicate"]):
            with pytest.raises(SystemExit):
                main(argv)
            first = capsys.readouterr()
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv)
            assert capsys.readouterr() == first


class TestExitCodes:
    """``main`` picks the exit code from the type of what a command raised."""

    @pytest.mark.parametrize(
        "error, code",
        [
            (AccumulatorOverflow, 1),
            (ArchitectureMismatch, 1),
            (DesignError, 2),
            (cli.CliError, 2),
            (ValueError, 2),
        ],
    )
    def test_code_follows_the_type(self, monkeypatch, capsys, error, code):
        def command(args):
            raise error(f"{error.__name__} from {args.design}")

        monkeypatch.setattr(cli, "cmd_report", command)
        assert main(["report", "--design", "d.json"]) == code
        assert capsys.readouterr() == ("", f"error: {error.__name__} from d.json\n")

    def test_design_error_keeps_the_table_fault_as_its_cause(self, workspace, capsys):
        design = run_design(workspace)
        data = json.loads(design.read_text())
        data["luts"][0][1] = 1_000_000
        design.write_text(json.dumps(data))
        with pytest.raises(DesignError) as exc:
            cli._load_design(str(design))
        causes = []
        cause = exc.value.__cause__
        while cause is not None:
            causes.append(cause)
            cause = cause.__cause__
        assert any(
            type(c) is ValueError and str(c).startswith("table 0 entry 1000000 cannot be")
            for c in causes
        )
        capsys.readouterr()
        assert main(["verify", "--design", str(design), "--random", "4"]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_coefficient_range_and_parse_errors(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        argv = ["design", str(path), "--coeff-width", "8", "--out", str(tmp_path / "d.json")]
        for text, message in (
            ("200", "integer coefficient 200 outside signed 8-bit range"),
            ("2x", "cannot parse coefficient '2x'"),
        ):
            path.write_text(f"1\n{text}\n")
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {path}:2: {message}\n")
        assert not (tmp_path / "d.json").exists()
