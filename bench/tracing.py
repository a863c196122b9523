"""Span tracer for one traced benchmark round.

Spans (name, start, end, parent, job) are kept in flat arrays in memory and
written once, as one JSON object, when the round ends.  Wrappers are installed from this file on
the public functions of every ``ncmatch`` module, on a few public methods
and on the ``QuadNumber`` constructor and operators; no file of the library
changes.  A layer is a module: a span named ``oracle.census`` belongs to the
``oracle`` layer, and a layer's self time is the time of its spans minus the
part their child spans cover.  Counts are taken from arguments and return
values at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("quadfield", "spectral", "corners", "chains", "zigzag",
          "oracle", "geometry", "doubling", "cli")

# Called once per point triple; a span there would cost more than the work.
SKIP = {"geometry.orientation"}

# Public methods that do a unit of layer work, by (layer, class); hot
# accessors such as PointSet.__getitem__ are left out.
METHODS = {
    ("geometry", "PointSet"): ("validate",),
    ("quadfield", "QuadNumber"): (
        "__init__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
        "__mul__", "__rmul__", "inverse", "__truediv__", "__rtruediv__", "__pow__",
        "sign", "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__abs__",
        "floor", "ceil", "approx", "to_float", "root_float", "from_rational", "sqrt_of",
    ),
}

# The four backtracking walks; census_runners and count_cross_completions
# reach them through census and count_perfect_extensions.
WALKS = ("oracle.census", "oracle.census_corner_split", "oracle.matchings",
         "oracle.count_perfect_extensions")

TABLES = "oracle.tables"
JOB = "bench.job"


def _arg(args, kwargs, i: int, name: str, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _max_bits(*vectors) -> int:
    return max((abs(v).bit_length() for vec in vectors for v in vec), default=0)


class Tracer:
    """Span store plus the counters filled by the wrappers' hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.stack: list[int] = []
        self.job_id = -1  # wrappers pass straight through outside a job
        self.counts: dict[str, int] = defaultdict(int)
        self.useful_steps: dict[tuple, int] = {}
        self.tabled: set = set()

    # -- spans -----------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_job(self, job_id: int) -> int:
        self.job_id = job_id
        return self.open(self.name_id(JOB))

    def end_job(self, idx: int) -> float:
        self.close(idx)
        self.job_id = -1
        return self.end[idx] - self.start[idx]

    def build_tables(self, point_sets, raw_is_noncrossing, empty_matching) -> None:
        """Time the oracle's table build apart: one cheap public call on each
        set not seen before builds and caches its tables."""
        nid = self.name_id(TABLES)
        for ps in point_sets:
            if ps.points in self.tabled:
                continue
            self.tabled.add(ps.points)
            idx = self.open(nid)
            try:
                raw_is_noncrossing(ps, empty_matching)
            finally:
                self.close(idx)

    # -- wrappers --------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if tracer.job_id < 0:
                    yield from fn(*args, **kwargs)
                    return
                idx = tracer.open(nid)
                n = 0
                try:
                    for item in fn(*args, **kwargs):
                        n += 1
                        yield item
                finally:
                    tracer.close(idx)
                if hook is not None:
                    hook(tracer, args, kwargs, n)

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job_id < 0:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """One JSON object: the span names, the counters and one list per
        span field.  Span i is (names[name[i]], start[i], end[i], parent[i],
        job[i]); parent is a span index and job a job index, -1 for none."""
        data = {"names": self.names, "counts": dict(self.counts), "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "job": self.job.tolist()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


# ---------------------------------------------------------------------------
# hooks: counts from arguments and return values
# ---------------------------------------------------------------------------


def _quad_new(t, args, kwargs, result):
    t.counts["quadfield.new_calls"] += 1
    bits = int(_arg(args, kwargs, 4, "d", 1)).bit_length()
    if bits > t.counts["quadfield.max_radicand_bits"]:
        t.counts["quadfield.max_radicand_bits"] = bits


def _build_certificate(t, args, kwargs, cert):
    t.counts["spectral.support_width"] = max(t.counts["spectral.support_width"], cert.support_width())


def _coupled_step(t, args, kwargs, result):
    c_prev, f_prev = _arg(args, kwargs, 0, "c_prev"), _arg(args, kwargs, 1, "f_prev")
    t.counts["corners.step_calls"] += 1
    t.counts["corners.max_len"] = max(t.counts["corners.max_len"], len(c_prev), len(f_prev))
    t.counts["corners.max_bits"] = max(t.counts["corners.max_bits"], _max_bits(*result))


def _runner_counts(t, args, kwargs, vec):
    r, k = _arg(args, kwargs, 0, "r"), _arg(args, kwargs, 1, "k")
    t.counts["chains.steps_done"] += k
    # one pass to the largest k of a job serves every smaller k of that job
    key = (t.job_id, r)
    t.useful_steps[key] = max(t.useful_steps.get(key, 0), k)
    t.counts["chains.max_bits"] = max(t.counts["chains.max_bits"], _max_bits(vec))


def _terms(t, args, kwargs, result):
    t.counts["zigzag.terms"] += _arg(args, kwargs, 0, "kmax") + 1


def _walk(leaves):
    def hook(t, args, kwargs, result):
        t.counts["oracle.calls"] += 1
        t.counts["oracle.leaves"] += leaves(result)

    return hook


def _validate(t, args, kwargs, result):
    t.counts["geometry.points_validated"] += len(args[0])


HOOKS = {
    "quadfield.QuadNumber.__init__": _quad_new,
    "spectral.build_certificate": _build_certificate,
    "corners.coupled_step": _coupled_step,
    "chains.runner_counts": _runner_counts,
    "zigzag.zigzag_series": _terms,
    "zigzag.closed_form_coeffs": _terms,
    "oracle.census": _walk(lambda cen: cen.total),
    "oracle.census_corner_split": _walk(lambda split: sum(split[0]) + sum(split[1])),
    "oracle.matchings": _walk(lambda n: n),
    "oracle.count_perfect_extensions": _walk(lambda n: n),
    "geometry.PointSet.validate": _validate,
}


def instrument(tracer: Tracer) -> dict:
    """Install the wrappers; returns the original functions by span name."""
    modules = [importlib.import_module(f"ncmatch.{layer}") for layer in LAYERS]
    everywhere = modules + [importlib.import_module("ncmatch")]
    originals = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in SKIP or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            wrapped = tracer.wrap(name, obj, HOOKS.get(name))
            originals[name] = obj
            # re-bind every module-level reference, e.g. the package re-exports
            for other in everywhere:
                for key, val in list(vars(other).items()):
                    if val is obj:
                        setattr(other, key, wrapped)
    for (layer, cls_name), meths in METHODS.items():
        cls = getattr(importlib.import_module(f"ncmatch.{layer}"), cls_name)
        for meth in meths:
            name = f"{layer}.{cls_name}.{meth}"
            raw = originals[name] = vars(cls)[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(tracer.wrap(name, raw.__func__, HOOKS.get(name))))
            else:
                setattr(cls, meth, tracer.wrap(name, raw, HOOKS.get(name)))
    return originals


# ---------------------------------------------------------------------------
# layer metrics
# ---------------------------------------------------------------------------


def self_times(tracer: Tracer) -> tuple[dict, dict]:
    """(self seconds by layer, inclusive seconds by span name)."""
    n = len(tracer.start)
    covered = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            covered[p] += tracer.end[i] - tracer.start[i]
    by_layer: dict[str, float] = defaultdict(float)
    by_name: dict[str, float] = defaultdict(float)
    for i in range(n):
        dur = tracer.end[i] - tracer.start[i]
        name = tracer.names[tracer.name[i]]
        by_layer[name.split(".", 1)[0]] += dur - covered[i]
        by_name[name] += dur
    return by_layer, by_name


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced round whose jobs took `traced_wall`."""
    by_layer, by_name = self_times(tracer)
    c = tracer.counts
    walk_s = sum(by_name.get(w, 0.0) for w in WALKS)
    done = c["chains.steps_done"]
    useful = sum(tracer.useful_steps.values())
    library = sum(v for layer, v in by_layer.items() if layer in LAYERS)
    return {
        "quadfield.new_calls": c["quadfield.new_calls"],
        "quadfield.self_s": by_layer.get("quadfield", 0.0),
        "quadfield.max_radicand_bits": c["quadfield.max_radicand_bits"],
        "spectral.rescale_s": by_name.get("spectral.rescale", 0.0),
        "spectral.build_s": by_name.get("spectral.build_certificate", 0.0),
        "spectral.verify_s": by_name.get("spectral.verify_certificate", 0.0),
        "spectral.support_width": c["spectral.support_width"],
        "corners.step_calls": c["corners.step_calls"],
        "corners.step_s": by_name.get("corners.coupled_step", 0.0),
        "corners.band_s": by_name.get("corners.extract_band", 0.0),
        "corners.max_len": c["corners.max_len"],
        "corners.max_bits": c["corners.max_bits"],
        "chains.self_s": by_layer.get("chains", 0.0),
        "chains.steps_done": done,
        "chains.steps_useful_ratio": useful / done if done else 0.0,
        "chains.max_bits": c["chains.max_bits"],
        "zigzag.self_s": by_layer.get("zigzag", 0.0),
        "zigzag.terms": c["zigzag.terms"],
        "oracle.tables_s": by_name.get(TABLES, 0.0),
        "oracle.walk_s": walk_s,
        "oracle.calls": c["oracle.calls"],
        "oracle.leaves": c["oracle.leaves"],
        "oracle.leaves_per_s": c["oracle.leaves"] / walk_s if walk_s else 0.0,
        "geometry.self_s": by_layer.get("geometry", 0.0),
        "geometry.points_validated": c["geometry.points_validated"],
        "doubling.self_s": by_layer.get("doubling", 0.0),
        "cli.self_s": by_layer.get("cli", 0.0),
        "trace_attributed_ratio": library / traced_wall if traced_wall else 0.0,
    }
