"""Span recorder that times calls into glpgalois's modules from outside.

`install` wraps every public function of the layer modules (plus the methods
in `WRAPPED_METHODS`) and rebinds each wrapper under every name the package
holds for the original function, because names pulled in with
``from .x import y`` are separate bindings in the importing module.  The
modules are reached through `importlib.import_module`: as an attribute,
``glpgalois.glp`` is the re-exported *function* `glp`, not the module.

Spans are kept in memory, one row per call (or per generator resume), and are
written out only when the benchmark ends.  Self time is a span's duration
minus the durations of its direct child spans, accumulated on the call stack.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional

LAYERS = ("polys", "primes", "newton", "modp", "certify", "glp", "cli")
WRAPPED_METHODS = {"polys": {"Poly": ("shift",)}}
ROOT = "bench.case"
# (function, caller) pairs whose self time is also reported per caller
SELF_UNDER = (("primes.ord_p", "modp.is_good_prime"),)


class Recorder:
    """Stack-based span recorder with per-name calls, self time and errors."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one row per span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_case = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        # aggregates
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.case = -1
        self._stack: list[list[int]] = []  # [span row, child ns]

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    @property
    def current(self) -> Optional[str]:
        if not self._stack:
            return None
        return self.names[self.span_name[self._stack[-1][0]]]

    def enter(self, name: str) -> None:
        row = len(self.span_start)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_case.append(self.case)
        self.span_end.append(0)
        self._stack.append([row, 0])
        self.span_start.append(self.clock())

    def exit(self, error: bool = False) -> None:
        end = self.clock()
        row, child_ns = self._stack.pop()
        self.span_end[row] = end
        duration = end - self.span_start[row]
        name = self.names[self.span_name[row]]
        self.self_ns[name] += duration - child_ns
        if error:
            self.errors[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span called `name`, counting it as one call."""
        self.calls[name] += 1
        self.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.exit(error=True)
            raise
        self.exit()
        return result

    def self_ns_under(self, name: str, parent: str) -> int:
        """Self time of `name` summed over the spans whose parent is `parent`."""
        if name not in self._ids or parent not in self._ids:
            return 0
        nid, pid = self._ids[name], self._ids[parent]
        child = [0] * len(self.span_start)
        for row, up in enumerate(self.span_parent):
            if up >= 0:
                child[up] += self.span_end[row] - self.span_start[row]
        return sum(
            self.span_end[row] - self.span_start[row] - child[row]
            for row, nm in enumerate(self.span_name)
            if nm == nid and self.span_parent[row] >= 0
            and self.span_name[self.span_parent[row]] == pid
        )

    def summary(self) -> dict:
        counters = dict(self.counters)
        for name, parent in SELF_UNDER:
            key = f"{name}.from_{parent}.self_ns"
            counters[key] = counters.get(key, 0) + self.self_ns_under(name, parent)
        return {"calls": dict(self.calls), "errors": dict(self.errors),
                "self_ns": dict(self.self_ns), "counters": counters}

    def merge(self, summary: dict) -> None:
        """Add another recorder's summary (a traced child process)."""
        for key in ("calls", "errors", "self_ns", "counters"):
            mine = getattr(self, key)
            for name, value in summary[key].items():
                mine[name] += value

    def write(self, path, summary: dict) -> None:
        """Write every span: a JSON header line (names and the summary), then
        the raw columns."""
        columns = ("span_name", "span_parent", "span_case", "span_start", "span_end")
        header = {
            "summary": summary,
            "names": self.names,
            "rows": len(self.span_start),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "clock": "perf_counter_ns",
        }
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(out)


Observer = Callable[[Recorder, object, Optional[str]], None]


def _wrap(rec: Recorder, name: str, fn: Callable, observe: Optional[Observer]) -> Callable:
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            rec.calls[name] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    rec.enter(name)
                    try:
                        value = next(it)
                    except StopIteration:
                        rec.exit()
                        return
                    except BaseException:
                        rec.exit(error=True)
                        raise
                    rec.exit()
                    yield value
            finally:
                it.close()

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = rec.current if observe else None
        result = rec.span(name, fn, *args, **kwargs)
        if observe:
            observe(rec, result, parent)
        return result

    return wrapper


def _observe_good_prime(rec: Recorder, result, parent) -> None:
    # primes tested by the good-prime search itself, not factor_degrees' recheck
    if parent == "modp.good_primes":
        rec.counters["modp.good_primes.tested"] += 1
        rec.counters["modp.good_primes.good"] += bool(result)


def _observe_filter(rec: Recorder, result, parent) -> None:
    # {0, n} is the only two-element answer the filter can give
    rec.counters["modp.degree_set_filter.proved"] += len(result) == 2


OBSERVERS = {
    "modp.is_good_prime": _observe_good_prime,
    "modp.degree_set_filter": _observe_filter,
}


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap glpgalois's public functions; returns a function that undoes it."""
    pkg = importlib.import_module("glpgalois")
    modules = {layer: importlib.import_module(f"glpgalois.{layer}") for layer in LAYERS}
    wrapped: dict[int, tuple[Callable, Callable]] = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[id(obj)] = (obj, _wrap(rec, name, obj, OBSERVERS.get(name)))

    undo: list[tuple[object, str, object]] = []
    for mod in (pkg, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    for layer, classes in WRAPPED_METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, _wrap(rec, f"{layer}.{cls_name}.{meth}", original, None))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
