"""Runtime span tracer for the ctfpolys package.

The benchmark installs it in a fresh interpreter before a traced repetition;
it edits no source file. It replaces, in the module namespaces:

* each function a package module imports from another package module (the
  names on its top-level ``from .x import ...`` lines), in the importing
  module, so calls across module boundaries are traced;
* the intra-module globals in ``INTRA``, in their own module, so calls from
  inside that module are traced too;
* the methods in ``METHODS``, on their class.

A wrapped call records a span (name, start, end, parent). A wrapped
generator's span runs from its first ``next`` to its exhaustion, so it covers
full consumption. Spans are kept in typed arrays and written out at exit;
``read_spans`` and ``span_stats`` turn them into per-name call counts and
self times, and ``layer_metrics`` into the per-layer metrics of the
benchmark. Cache counters come from ``cache_info()`` of each module-level
``lru_cache``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

MODULES = ("cli", "counting", "multigraph", "orientations", "polynomials", "verify")

#: Globals traced also when called from inside their own module.
INTRA = {
    "cli": ("main",),
    "counting": (
        "count", "_check_budget", "_iter_tensions", "_iter_flows",
        "_count_tensions", "_count_flows",
        "enum_modular_tensions", "enum_modular_flows",
    ),
    "orientations": ("equivalent", "_circuit_part_positions"),
    "polynomials": (
        "counting_polynomial", "interpolate", "_lagrange_basis", "_tutte_by_key",
    ),
    "verify": ("verify_graph", "_orientation_data", "small_multigraphs", "_canonical_form"),
}

#: Methods traced on their class: (module, class) -> method names.
METHODS = {
    ("polynomials", "BivariatePolynomial"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "substitute", "set_x", "set_y", "evaluate",
    ),
    ("multigraph", "MultiGraph"): ("contract", "restrict"),
}

#: The candidate budget check; it sees every kernel's candidate count.
BUDGET_CHECK = "counting._check_budget"

KERNEL = (
    "counting._iter_tensions", "counting._iter_flows",
    "counting._count_tensions", "counting._count_flows",
    "counting.enum_modular_tensions", "counting.enum_modular_flows",
)
#: Kernels that produce vectors: generators count yields, the others the
#: length of the list they return.
VECTOR_GENERATORS = ("counting._iter_tensions", "counting._iter_flows")
VECTOR_LISTS = ("counting.enum_modular_tensions", "counting.enum_modular_flows")
ARITH = tuple(
    f"polynomials.BivariatePolynomial.{m}"
    for m in METHODS[("polynomials", "BivariatePolynomial")]
)
MINOR = ("multigraph.MultiGraph.contract", "multigraph.MultiGraph.restrict")

#: Module-level lru_caches reported as cache.<fn>.{hits,misses,currsize}.
CACHES = (
    "_structure", "spanning_structure", "_circuit_table", "_flip_signs",
    "_circuit_part_positions", "enumerate_classes", "_tutte_by_key",
)

#: (metric, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("counting.count.calls", "count", "lower"),
    ("counting.count.self_s", "s", "lower"),
    ("counting.kernel.self_s", "s", "lower"),
    ("counting.kernel.candidates", "count", "lower"),
    ("counting.kernel.vectors", "count", "lower"),
    ("counting.kernel.accept_ratio", "ratio", "higher"),
    ("counting.kernel.vectors_per_s", "1/s", "higher"),
    ("counting.budget_exceeded", "count", "lower"),
    ("orientations.enumerate_classes.calls", "count", "lower"),
    ("orientations.enumerate_classes.self_s", "s", "lower"),
    ("orientations.equivalent.calls", "count", "lower"),
    ("orientations.circuit_part.calls", "count", "lower"),
    ("orientations.circuit_part.self_s", "s", "lower"),
    ("polynomials.counting_polynomial.calls", "count", "lower"),
    ("polynomials.counting_polynomial.self_s", "s", "lower"),
    ("polynomials.local_polynomial.calls", "count", "lower"),
    ("polynomials.interpolate.calls", "count", "lower"),
    ("polynomials.interpolate.self_s", "s", "lower"),
    ("polynomials.lagrange_basis.calls", "count", "lower"),
    ("polynomials.arith.self_s", "s", "lower"),
    ("polynomials.tutte.self_s", "s", "lower"),
    ("polynomials.rank_generating.self_s", "s", "lower"),
    ("verify.verify_graph.calls", "count", "lower"),
    ("verify.verify_graph.self_s", "s", "lower"),
    ("verify.orientation_table.calls", "count", "lower"),
    ("verify.orientation_table.self_s", "s", "lower"),
    ("verify.small_multigraphs.self_s", "s", "lower"),
    ("verify.canonical_form.calls", "count", "lower"),
    ("multigraph.minor.calls", "count", "lower"),
    ("multigraph.minor.self_s", "s", "lower"),
    ("multigraph.spanning_structure.misses", "count", "lower"),
    ("multigraph.spanning_structure.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    *(
        (f"cache.{fn}.{field}", "count", better)
        for fn in CACHES
        for field, better in (("hits", "higher"), ("misses", "lower"), ("currsize", "lower"))
    ),
    ("trace.overhead_s", "s", "lower"),
)


def _span_name(obj) -> str:
    return f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}"


def _traceable(obj) -> bool:
    return callable(obj) and not isinstance(obj, type)


class Tracer:
    """Records spans of the wrapped package functions in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}
        self.items: Counter = Counter()
        self.candidates = 0
        self.budget_exceeded = 0
        self.caches: dict[str, object] = {}

    # ---- installation ----

    def install(self, package) -> None:
        modules = {
            name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES
        }
        for module in modules.values():
            for name, obj in vars(module).items():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__:
                    self.caches[name] = obj
        for module in modules.values():
            tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
            for node in tree.body:
                if not (isinstance(node, ast.ImportFrom) and node.level == 1
                        and node.module in modules):
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    obj = getattr(module, local, None)
                    if _traceable(obj):
                        setattr(module, local, self._wrap(obj))
        for module_name, names in INTRA.items():
            module = modules[module_name]
            for name in names:
                obj = getattr(module, name, None)
                # a renamed or removed function reads as zero in the metrics
                if _traceable(obj):
                    setattr(module, name, self._wrap(obj))
        for (module_name, class_name), methods in METHODS.items():
            cls = getattr(modules[module_name], class_name, None)
            if cls is None:
                continue
            for method in methods:
                func = cls.__dict__.get(method)
                if func is not None:
                    setattr(cls, method, self._wrap(func))

    def _wrap(self, func):
        if id(func) in self._wrappers:
            return self._wrappers[id(func)]
        name = _span_name(func)
        if name == BUDGET_CHECK:
            wrapper = self._budget_wrapper(func)
        elif inspect.isgeneratorfunction(func):
            wrapper = self._generator_wrapper(name, func)
        else:
            wrapper = self._function_wrapper(name, func)
        self._wrappers[id(func)] = wrapper
        return wrapper

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        stack = self._stack
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        stack = self._stack
        if stack[-1] == idx:
            stack.pop()
        else:
            stack.remove(idx)

    def _function_wrapper(self, name, func):
        nid = self._name_id(name)
        open_, close = self._open, self._close
        items = self.items if name in VECTOR_LISTS else None

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                close(idx)
            if items is not None:
                items[name] += len(result)
            return result

        return traced

    def _generator_wrapper(self, name, func):
        nid = self._name_id(name)
        open_, close, items = self._open, self._close, self.items

        def consume(gen):
            idx = open_(nid)
            n = 0
            try:
                for n, item in enumerate(gen, 1):
                    yield item
            finally:
                close(idx)
                items[name] += n

        def traced(*args, **kwargs):
            return consume(func(*args, **kwargs))

        return traced

    def _budget_wrapper(self, func):
        tracer = self

        def traced(candidates, *args, **kwargs):
            try:
                func(candidates, *args, **kwargs)
            except Exception:
                tracer.budget_exceeded += 1
                raise
            tracer.candidates += candidates

        return traced

    # ---- output ----

    def counters(self) -> dict:
        return {
            "items": {name: self.items[name] for name in sorted(self.items)},
            "candidates": self.candidates,
            "budget_exceeded": self.budget_exceeded,
            "caches": {
                name: cache.cache_info()._asdict() for name, cache in sorted(self.caches.items())
            },
        }

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the four arrays."""
        end = time.perf_counter()
        for idx in self._stack:
            self.ends[idx] = end
        header = {"names": self.names, "spans": len(self.starts)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def read_spans(path: Path):
    """(names, name_ids, parents, starts, ends) as written by ``Tracer.dump``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("H", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header["names"], *arrays)


def span_stats(names, name_ids, parents, starts, ends) -> dict:
    """Per span name: calls, and self time, which is the span's duration
    minus the part of its interval covered by its child spans."""
    n = len(starts)
    covered = array("d", bytes(8 * n))
    reach = array("d", starts)  # end of the covered prefix of each span
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = starts[i] if starts[i] > reach[p] else reach[p]
        if ends[i] > lo:
            covered[p] += ends[i] - lo
            reach[p] = ends[i]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for i in range(n):
        nid = name_ids[i]
        calls[nid] += 1
        self_s[nid] += max(0.0, ends[i] - starts[i] - covered[i])
    return {
        name: {"calls": calls[k], "self_s": self_s[k]} for k, name in enumerate(names)
    }


def layer_metrics(stats: dict, counters: dict) -> dict:
    """Every metric of ``PER_LAYER`` but ``trace.overhead_s``, from the span
    stats and counters of one traced repetition."""

    def calls(*names):
        return sum(stats.get(name, {}).get("calls", 0) for name in names)

    def self_s(*names):
        return sum(stats.get(name, {}).get("self_s", 0.0) for name in names)

    items = counters["items"]
    vectors = sum(items.get(name, 0) for name in VECTOR_GENERATORS + VECTOR_LISTS)
    candidates = counters["candidates"]
    kernel_s = self_s(*KERNEL)
    caches = counters["caches"]
    values = {
        "counting.count.calls": calls("counting.count"),
        "counting.count.self_s": self_s("counting.count"),
        "counting.kernel.self_s": kernel_s,
        "counting.kernel.candidates": candidates,
        "counting.kernel.vectors": vectors,
        "counting.kernel.accept_ratio": vectors / candidates if candidates else 0.0,
        "counting.kernel.vectors_per_s": vectors / kernel_s if kernel_s else 0.0,
        "counting.budget_exceeded": counters["budget_exceeded"],
        "orientations.enumerate_classes.calls": calls("orientations.enumerate_classes"),
        "orientations.enumerate_classes.self_s": self_s("orientations.enumerate_classes"),
        "orientations.equivalent.calls": calls("orientations.equivalent"),
        "orientations.circuit_part.calls": calls("orientations._circuit_part_positions"),
        "orientations.circuit_part.self_s": self_s("orientations._circuit_part_positions"),
        "polynomials.counting_polynomial.calls": calls("polynomials.counting_polynomial"),
        "polynomials.counting_polynomial.self_s": self_s("polynomials.counting_polynomial"),
        "polynomials.local_polynomial.calls": calls("polynomials.local_polynomial"),
        "polynomials.interpolate.calls": calls("polynomials.interpolate"),
        "polynomials.interpolate.self_s": self_s("polynomials.interpolate"),
        "polynomials.lagrange_basis.calls": calls("polynomials._lagrange_basis"),
        "polynomials.arith.self_s": self_s(*ARITH),
        "polynomials.tutte.self_s": self_s("polynomials.tutte", "polynomials._tutte_by_key"),
        "polynomials.rank_generating.self_s": self_s("polynomials.rank_generating"),
        "verify.verify_graph.calls": calls("verify.verify_graph"),
        "verify.verify_graph.self_s": self_s("verify.verify_graph"),
        "verify.orientation_table.calls": calls("verify._orientation_data"),
        "verify.orientation_table.self_s": self_s("verify._orientation_data"),
        "verify.small_multigraphs.self_s": self_s("verify.small_multigraphs"),
        "verify.canonical_form.calls": calls("verify._canonical_form"),
        "multigraph.minor.calls": calls(*MINOR),
        "multigraph.minor.self_s": self_s(*MINOR),
        "multigraph.spanning_structure.misses":
            caches.get("spanning_structure", {}).get("misses", 0),
        "multigraph.spanning_structure.self_s": self_s("multigraph.spanning_structure"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for fn in CACHES:
        info = caches.get(fn, {})
        for field in ("hits", "misses", "currsize"):
            values[f"cache.{fn}.{field}"] = info.get(field, 0)
    return values
