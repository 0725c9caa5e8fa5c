"""Span tracing for the benchmark's traced run, kept entirely outside ``src/``.

:func:`install` replaces the public functions of ``dafir.numerics``,
``dafir.design``, ``dafir.engine``, ``dafir.adders`` and ``dafir.cli`` (and
a few entry methods, listed in ``_METHODS``) with wrappers that record a
span per call: name, start, end and parent. Every binding of the original
object in any ``dafir`` module is replaced, so ``from .engine import x``
aliases are traced too, and :func:`install` returns a function that puts
the originals back.

Spans are kept in memory, up to ``KEEP`` of them in call order, and
written out by :meth:`Tracer.write` when the benchmark ends. Inclusive and
self time (duration minus the time covered by child spans) are aggregated
per span name for every call, including calls past ``KEEP``, so the
per-layer metrics never depend on the cap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from time import perf_counter_ns
from typing import Callable

MODULES = ("numerics", "design", "engine", "adders", "cli")
KEEP = 100_000  # spans kept in memory and written out

# Stats fields, per span name.
CALLS, UNITS, INCL_NS, SELF_NS = range(4)


class Tracer:
    """In-memory span recorder with per-name inclusive and self time."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.stats: dict[str, list[int]] = {}
        self.enabled = False
        self._stack: list[list] = []  # [name, start_ns, child_ns, index, parent]

    @contextlib.contextmanager
    def active(self):
        """Record spans only inside this block."""
        previous, self.enabled = self.enabled, True
        try:
            yield self
        finally:
            self.enabled = previous

    def begin(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        index = -1
        if len(self.spans) < KEEP:
            index = len(self.spans)
            self.spans.append(None)
        frame = [name, 0, 0, index, parent]
        self._stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def end(self, frame: list, units: int = 1) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        name, start, child, index, parent = frame
        duration = end - start
        self._charge(name, 1, units, duration, duration - child)
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (name, start, end, parent)

    def charge_child(self, name: str, units: int, duration: int) -> None:
        """Account work done inside the current span without a span of its own."""
        self._charge(name, 0, units, duration, duration)
        if self._stack:
            self._stack[-1][2] += duration

    def _charge(self, name: str, calls: int, units: int, incl: int, self_ns: int) -> None:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0, 0, 0]
        entry[CALLS] += calls
        entry[UNITS] += units
        entry[INCL_NS] += incl
        entry[SELF_NS] += self_ns

    def snapshot(self) -> dict[str, tuple[int, ...]]:
        return {name: tuple(entry) for name, entry in self.stats.items()}

    def write(self, path: str) -> int:
        """Write the kept spans as JSONL; returns how many calls were not kept."""
        kept = 0
        with open(path, "w", encoding="utf-8") as f:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent = span
                f.write(
                    json.dumps(
                        {"id": index, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent}
                    )
                    + "\n"
                )
                kept += 1
        total = sum(entry[CALLS] for entry in self.stats.values())
        return total - kept


class _TimedIterator:
    """Charges the time spent producing each item to ``name``."""

    def __init__(self, iterator, tracer: Tracer, name: str) -> None:
        self._iterator = iter(iterator)
        self._tracer = tracer
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        start = perf_counter_ns()
        try:
            item = next(self._iterator)
        except StopIteration:
            self._tracer.charge_child(self._name, 0, perf_counter_ns() - start)
            raise
        self._tracer.charge_child(self._name, 1, perf_counter_ns() - start)
        return item


def _arg(fn: Callable, name: str) -> Callable[[tuple, dict], object]:
    """Fetch parameter ``name`` of ``fn`` from a call's args, falling back to its default."""
    params = list(inspect.signature(fn).parameters.values())
    position = [p.name for p in params].index(name)
    default = params[position].default

    def get(args: tuple, kwargs: dict):
        if name in kwargs:
            return kwargs[name]
        if position < len(args):
            return args[position]
        return default

    return get


def _labels(engine, adders) -> dict[Callable, Callable[[tuple, dict], str]]:
    """Span names that carry the configuration a per-layer metric is split by."""
    group = _arg(engine.build_lut, "group")
    plan = _arg(engine.verify_windows, "plan")
    mode = _arg(engine.verify_windows, "ppg_mode")
    kind = _arg(adders.adder_tree_sum, "kind")
    bit_level = _arg(adders.adder_tree_sum, "bit_level")

    def tree_label(a, k):
        if not bit_level(a, k):
            return "adders.adder_tree_sum.native"
        return f"adders.adder_tree_sum.{kind(a, k).name.lower()}"

    return {
        engine.build_lut: lambda a, k: f"engine.build_lut.m{len(tuple(group(a, k)))}",
        engine.verify_windows: lambda a, k: (
            f"engine.verify_windows.{mode(a, k).value}-m{plan(a, k).group_size}"
        ),
        engine.DaFilter.push: lambda a, k: (
            f"engine.push.{a[0].ppg_mode.value}-m{a[0].plan.group_size}"
        ),
        adders.adder_tree_sum: tree_label,
    }


def _units(engine, numerics) -> dict[Callable, Callable[[tuple, dict, object], int]]:
    """Work units per call, for metrics quoted per output, window or table entry."""
    return {
        numerics.direct_fir: lambda a, k, result: len(result),
        engine.build_lut: lambda a, k, result: len(result.entries),
        engine.verify_windows: lambda a, k, result: result[0],
    }


def _methods(engine, design) -> dict[tuple[type, str], str]:
    return {
        (engine.DaFilter, "__init__"): "engine.filter_init",
        (engine.DaFilter, "push"): "engine.push",
        (engine.DaFilter, "push_traced"): "engine.push_traced",
        (design.DesignFile, "create"): "design.create",
        (design.DesignFile, "save"): "design.save",
        (design.DesignFile, "load"): "design.load",
    }


def _wrap(fn, name, tracer, label, units, iterate):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span = label(args, kwargs) if label else name
        frame = tracer.begin(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame)
        if units:
            tracer.stats[span][UNITS] += units(args, kwargs, result) - 1
        if iterate:
            return _TimedIterator(result, tracer, span)
        return result

    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the public functions of the traced modules; returns the undo."""
    mods = {short: sys.modules[f"dafir.{short}"] for short in MODULES}
    labels = _labels(mods["engine"], mods["adders"])
    units = _units(mods["engine"], mods["numerics"])
    generators = {mods["engine"].all_windows}

    replacements: dict[int, tuple[object, object]] = {}
    for short, module in mods.items():
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                wrapper = _wrap(
                    value, f"{short}.{attr}", tracer, labels.get(value),
                    units.get(value), value in generators,
                )
                replacements[id(value)] = (value, wrapper)

    undo: list[Callable[[], None]] = []
    for module in [m for n, m in sys.modules.items() if n == "dafir" or n.startswith("dafir.")]:
        for attr, value in list(vars(module).items()):
            if id(value) in replacements and replacements[id(value)][0] is value:
                setattr(module, attr, replacements[id(value)][1])
                undo.append(functools.partial(setattr, module, attr, value))

    for (cls, attr), name in _methods(mods["engine"], mods["design"]).items():
        raw = cls.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapper = _wrap(fn, name, tracer, labels.get(fn), units.get(fn), False)
        setattr(cls, attr, classmethod(wrapper) if is_classmethod else wrapper)
        undo.append(functools.partial(setattr, cls, attr, raw))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall
