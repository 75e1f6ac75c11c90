"""Spans around causalog's module boundaries, installed from outside ``src/``.

``Patch`` replaces, in the namespaces of ``causalog.cli``, ``causal``,
``reconstruction`` and ``learning``, every function they take from another
layer (and their own public functions, which they call through the module
globals), plus the methods the layers call on shared objects: ``Program.
desugar``, the ``DependencyGraph`` planning and parsing methods, both
oracles and the dataset CSV round trip. Each call records a span (name,
start, end, parent, request id) in memory; ``per_layer`` turns the spans of
one run into the per-layer table, where a span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections.abc import Mapping

LAYERS = ("cli", "parser", "formula", "model", "graph", "engine", "causal",
          "reconstruction", "learning")

_METHODS = {
    "model": {"Program": ("desugar",)},
    "graph": {"DependencyGraph": ("ancestors", "topological_order", "parse")},
    "reconstruction": {"ExactOracle": ("success_given_parents",)},
    "learning": {"FrequencyOracle": ("success_given_parents",),
                 "Dataset": ("to_csv", "from_csv")},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request, info]
        self._stack: list[int] = []
        self.request = -1

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span[5] = type(err).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = _info(result)
            return result

        return traced


def _info(result):
    """The count a span carries: worlds enumerated, clauses parsed or rows
    sampled, read off the returned object."""
    worlds = getattr(result, "worlds_evaluated", None)
    if worlds is not None:
        return worlds
    cells = getattr(result, "cells", None)
    if isinstance(cells, Mapping):
        return len(cells)
    clauses = getattr(result, "clauses", None)
    if isinstance(clauses, tuple):
        return len(clauses)
    rows = getattr(result, "rows", None)
    if rows is not None and hasattr(rows, "shape"):
        return int(rows.shape[0])
    return None


class Patch:
    """The tracing wrappers for every boundary, ready to be switched on and
    off; ``apply`` installs them and ``revert`` restores the originals."""

    def __init__(self, tracer: Tracer):
        import importlib

        mods = {name: importlib.import_module(f"causalog.{name}") for name in LAYERS}
        self._swaps: list[tuple[object, str, object, object]] = []
        wrappers: dict[int, object] = {}

        def swap_function(mod, attr):
            fn = getattr(mod, attr)
            layer = fn.__module__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                return
            if id(fn) not in wrappers:
                wrappers[id(fn)] = tracer.wrap(fn, f"{layer}.{fn.__name__}")
            self._swaps.append((mod, attr, fn, wrappers[id(fn)]))

        for name in ("cli", "causal", "reconstruction", "learning"):
            for attr, value in vars(mods[name]).items():
                if inspect.isfunction(value) and not attr.startswith("_"):
                    swap_function(mods[name], attr)
        # library entry points the benchmark calls directly
        swap_function(mods["engine"], "joint_table")
        swap_function(mods["parser"], "parse_program")
        for layer, classes in _METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(mods[layer], cls_name)
                for method in methods:
                    raw = inspect.getattr_static(cls, method)
                    name = f"{layer}.{cls_name}.{method}"
                    if isinstance(raw, staticmethod):
                        wrapper = staticmethod(tracer.wrap(raw.__func__, name))
                    else:
                        wrapper = tracer.wrap(raw, name)
                    self._swaps.append((cls, method, raw, wrapper))

    def apply(self) -> None:
        for target, attr, _, wrapper in self._swaps:
            setattr(target, attr, wrapper)

    def revert(self) -> None:
        for target, attr, original, _ in self._swaps:
            setattr(target, attr, original)


def per_layer(spans: list[list], cells: int) -> dict[str, float]:
    """The per-layer table of one traced run. ``cells`` is the number of
    success-table cells the run's ``reconstruct`` requests asked for."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]

    def under(i: int, names: tuple[str, ...]) -> bool:
        while i >= 0:
            if spans[i][0] in names:
                return True
            i = spans[i][3]
        return False

    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_ms = {layer: 0.0 for layer in LAYERS}
    worlds = {"all": 0, "causal": 0, "oracle": 0}
    refused = clauses = rows = 0
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start) * 1e3
        layer = name.split(".", 1)[0]
        self_ms[layer] += (end - start - child_time[i]) * 1e3
        if layer == "engine":
            if info == "EnumerationCapError":
                refused += 1
            elif isinstance(info, int):
                worlds["all"] += info
                if under(parent, ("causal.counterfactual_query",)):
                    worlds["causal"] += info
                if under(parent, ("reconstruction.ExactOracle.success_given_parents",)):
                    worlds["oracle"] += info
        elif name == "parser.parse_program" and isinstance(info, int):
            clauses += info
        elif name == "learning.forward_sample" and isinstance(info, int):
            rows += info

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    def ms(*names):
        return sum(incl.get(n, 0.0) for n in names)

    def rate(amount, millis):
        return amount / (millis / 1e3) if millis > 0 else 0.0

    engine_calls = sum(c for n, c in calls.items() if n.startswith("engine."))
    return {
        "cli.calls": count("cli.main"),
        "cli.self_ms": self_ms["cli"],
        "parser.calls": sum(c for n, c in calls.items() if n.startswith("parser.")),
        "parser.self_ms": self_ms["parser"],
        "parser.clauses": clauses,
        "formula.self_ms": self_ms["formula"],
        "model.desugar_calls": count("model.Program.desugar"),
        "model.desugar_ms": ms("model.Program.desugar"),
        "graph.ancestors_ms": ms("graph.DependencyGraph.ancestors"),
        "graph.topo_calls": count("graph.DependencyGraph.topological_order"),
        "graph.topo_ms": ms("graph.DependencyGraph.topological_order"),
        "graph.parse_ms": ms("graph.DependencyGraph.parse"),
        "engine.calls": engine_calls,
        "engine.self_ms": self_ms["engine"],
        "engine.worlds": worlds["all"],
        "engine.worlds_per_s": rate(worlds["all"], self_ms["engine"]),
        "engine.refused": refused,
        "causal.twin_calls": count("causal.twin_program"),
        "causal.twin_ms": ms("causal.twin_program"),
        "causal.intervene_ms": ms("causal.intervene"),
        "causal.self_ms": self_ms["causal"],
        "causal.worlds": worlds["causal"],
        "reconstruction.oracle_calls": count("reconstruction.ExactOracle.success_given_parents"),
        "reconstruction.oracle_ms": ms("reconstruction.ExactOracle.success_given_parents"),
        "reconstruction.self_ms": self_ms["reconstruction"],
        "reconstruction.worlds_per_cell": worlds["oracle"] / cells if cells else 0.0,
        "learning.sample_ms": ms("learning.forward_sample"),
        "learning.sample_rows_per_s": rate(rows, ms("learning.forward_sample")),
        "learning.csv_write_ms": ms("learning.Dataset.to_csv"),
        "learning.csv_read_ms": ms("learning.Dataset.from_csv"),
        "learning.oracle_calls": count("learning.FrequencyOracle.success_given_parents"),
        "learning.oracle_ms": ms("learning.FrequencyOracle.success_given_parents"),
    }
