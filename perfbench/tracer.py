"""Span tracer that wraps thermwit's layers from outside the package.

A layer is one module of ``src/thermwit``. ``Tracer.install`` replaces every
public function of each layer module, every public class or static method of
its classes, and the private CLI entry points in ``EXTRA`` with a wrapper that
records one span per call. It then patches every reference to an original
function held elsewhere in the package: names re-bound with ``from .x import
y`` and function references inside module-level dicts, tuples and lists such
as ``cli._COMMANDS`` and ``checks.ALL_CHECKS``. Without that, calls through
those references would go uncounted. ``uninstall`` restores every attribute.

Spans stay in memory as lists ``[layer, function, start ns, end ns, parent
span, levels, bytes]``; parents always precede their children. ``summarize``
turns one pass's spans into the per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

PACKAGE = "thermwit"
LAYERS = ("cli", "config", "checks", "witness", "thermal", "systems", "numerics", "entanglement")
EXTRA = {"cli": ("_toy_transition",)}

# Outermost spans of these are the crossing searches.
SEARCHES = frozenset(
    {
        ("witness", "transition_temperature"),
        ("witness", "satisfying_intervals"),
        ("witness", "concurrence_vanishing_temperature"),
        ("numerics", "bisect"),
    }
)
ORACLES = frozenset(
    ("entanglement", name)
    for name in (
        "concurrence_two_qubit",
        "concurrence_signed",
        "ppt_min_eigenvalue",
        "schmidt_coefficients",
        "bipartite_pure_robustness",
    )
)
ALS = ("entanglement", "geometric_measure_als")
# Continuum approximations take the ladder parameters but sum no levels.
THERMAL_NO_SUM = frozenset({"log_partition_function_alpha_gamma", "partition_function_alpha_gamma"})

LAYER, NAME, START, END, PARENT, LEVELS, NBYTES = range(7)


def _thermal_levels(name):
    """Levels a kernel call sums: those of its spectrum, ladder or matrix argument."""
    if name in THERMAL_NO_SUM:
        return None

    def measure(args, kwargs, result):
        for a in (*args, *kwargs.values()):
            if hasattr(a, "n_levels"):
                return int(a.n_levels), 0
            if isinstance(a, np.ndarray) and a.ndim == 2:
                return a.shape[0], 0
        return 0, 0

    return measure


def _eig_dim(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return int(np.shape(m)[0]), 0


def _built_size(args, kwargs, result):
    """Levels of a returned spectrum, or bytes of a returned matrix or state vector."""
    if isinstance(result, np.ndarray):
        return 0, result.nbytes
    amps = getattr(result, "amplitudes", None)
    if isinstance(amps, np.ndarray):
        return 0, amps.nbytes
    if hasattr(result, "n_levels") and hasattr(result, "degeneracies"):
        return int(result.n_levels), 0
    return 0, 0


def _measure_for(layer, name):
    if layer == "thermal":
        return _thermal_levels(name)
    if layer == "numerics" and "eig" in name:
        return _eig_dim
    if layer == "systems":
        return _built_size
    return None


def _own_function(obj, module):
    return (
        callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    )


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer, name, fn):
        measure = _measure_for(layer, name.rsplit(".", 1)[-1])
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, name, 0, 0, stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                span[START] = start
                stack.pop()
            if measure is not None:
                span[LEVELS], span[NBYTES] = measure(args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replace: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, type):
                    if obj.__module__ == mod.__name__ and not name.startswith("_"):
                        self._wrap_class_methods(layer, name, obj)
                elif _own_function(obj, mod) and (
                    not name.startswith("_") or name in EXTRA.get(layer, ())
                ):
                    replace[id(obj)] = (obj, self._wrap(layer, name, obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                new = _rebound(value, replace)
                if new is not value:
                    self._set(mod, attr, new)

    def _wrap_class_methods(self, layer, cls_name, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or not isinstance(raw, (classmethod, staticmethod)):
                continue
            wrapped = self._wrap(layer, f"{cls_name}.{attr}", raw.__func__)
            self._set(cls, attr, type(raw)(wrapped))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """Spans recorded so far; the tracer starts a fresh list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        out = list(self.spans)
        self.spans.clear()
        return out


def _rebound(value, replace):
    hit = replace.get(id(value))
    if hit is not None and hit[0] is value:
        return hit[1]
    if type(value) in (tuple, list):
        items = [_rebound(v, replace) for v in value]
        if any(a is not b for a, b in zip(items, value)):
            return type(value)(items)
    elif type(value) is dict:
        items = {k: _rebound(v, replace) for k, v in value.items()}
        if any(items[k] is not value[k] for k in value):
            return items
    return value


# Per-layer metrics that must repeat exactly between passes with one seed.
COUNT_METRICS = (
    "thermal.levels_summed",
    "crossing.searches",
    "crossing.kernel_calls_per_search",
    "numerics.eigh_calls",
    "numerics.eigh_dim3_computed",
    "systems.dense_mb_computed",
    "systems.spectrum_levels",
    "entanglement.oracle_calls",
    "cli.rows",
) + tuple(f"{layer}.calls" for layer in LAYERS)

UNITS = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "thermal.levels_summed": "count",
    "thermal.self_ns_per_level": "ns",
    "crossing.searches": "count",
    "crossing.kernel_calls_per_search": "count",
    "numerics.eigh_calls": "count",
    "numerics.eigh_s": "s",
    "numerics.eigh_dim3_computed": "count",
    "systems.dense_mb_computed": "MB",
    "systems.spectrum_levels": "count",
    "entanglement.als_s": "s",
    "entanglement.oracle_calls": "count",
    "cli.rows": "count",
    "cli.self_us_per_row": "us",
    "trace.overhead_frac": "ratio",
}


def summarize(spans: list[list], rows: int) -> dict[str, float]:
    """Per-layer metrics of one pass's spans, as ``Tracer.take`` returns them.

    A layer's self time sums its spans' durations minus their direct
    children's, which is the time the innermost open span was in that layer.
    """
    n = len(spans)
    child_ns = [0] * n
    for s in spans:
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += s[END] - s[START]

    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    in_search = [False] * n
    in_oracle = [False] * n
    searches = kernel_calls = levels = oracle_calls = 0
    eigh_calls = eigh_ns = eigh_dim3 = als_ns = 0
    dense_bytes = spectrum_levels = 0
    for i, s in enumerate(spans):
        fn = (s[LAYER], s[NAME])
        layer = s[LAYER]
        parent = s[PARENT]
        up = spans[parent] if parent >= 0 else None
        dur = s[END] - s[START]
        calls[layer] += 1
        self_ns[layer] += dur - child_ns[i]
        outer_search = up is not None and in_search[parent]
        in_search[i] = outer_search or fn in SEARCHES
        searches += fn in SEARCHES and not outer_search
        if layer == "thermal" and (up is None or up[LAYER] != "thermal"):
            levels += s[LEVELS]
            kernel_calls += outer_search
        outer_oracle = up is not None and in_oracle[parent]
        in_oracle[i] = outer_oracle or fn in ORACLES
        oracle_calls += fn in ORACLES and not outer_oracle
        if fn == ALS and (up is None or tuple(up[:2]) != ALS):
            als_ns += dur
        if layer == "numerics" and "eig" in s[NAME]:
            eigh_calls += 1
            eigh_ns += dur
            eigh_dim3 += s[LEVELS] ** 3
        if layer == "systems":
            dense_bytes += s[NBYTES]
            spectrum_levels += s[LEVELS]

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_ns[layer] / 1e9
    out.update(
        {
            "thermal.levels_summed": levels,
            "thermal.self_ns_per_level": self_ns["thermal"] / levels if levels else 0.0,
            "crossing.searches": searches,
            "crossing.kernel_calls_per_search": kernel_calls / searches if searches else 0.0,
            "numerics.eigh_calls": eigh_calls,
            "numerics.eigh_s": eigh_ns / 1e9,
            "numerics.eigh_dim3_computed": eigh_dim3,
            "systems.dense_mb_computed": dense_bytes / 1e6,
            "systems.spectrum_levels": spectrum_levels,
            "entanglement.als_s": als_ns / 1e9,
            "entanglement.oracle_calls": oracle_calls,
            "cli.rows": rows,
            "cli.self_us_per_row": self_ns["cli"] / 1e3 / rows if rows else 0.0,
        }
    )
    return out
