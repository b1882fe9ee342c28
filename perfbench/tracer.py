"""Span tracing for the per-layer benchmark metrics.

Spans are recorded from the benchmark side only: the tracer replaces the
public functions of each bergmanlab module (and a few methods on their
classes) with wrappers, in every module that imported the name, so the
package itself is not edited.  Spans stay in memory; ``summary`` turns
them into inclusive and self times per name and per layer, plus the
counters the wrappers collect where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
import weakref
from collections import defaultdict

import numpy as np

LAYERS = ("domains", "kernels", "geometry", "operators", "approximation",
          "diagnostics", "harness")

# (module, class, method, span name); the class's own module is the layer.
METHODS = (
    ("geometry", "GeodesicField", "__init__", "geometry.GeodesicField"),
    ("geometry", "GeodesicField", "distances_from_point",
     "geometry.distances_from_point"),
    ("geometry", "GeodesicField", "distances_from_node",
     "geometry.distances_from_node"),
    ("kernels", "KernelEngine", "metric_batch", "kernels.metric_batch"),
    ("geometry", "Partition", "evaluate", "geometry.Partition.evaluate"),
)


class Tracer:
    """In-memory spans (name, start, end, parent) and named counters."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        # per-field keys already queried, to count the field's cache hits
        self._seen = defaultdict(weakref.WeakKeyDictionary)
        self._restore = []

    # -- recording ----------------------------------------------------

    def _wrap(self, name, fn):
        pre = _PRE.get(name)
        post = _POST.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(self, args, kwargs) if pre else None
            sid = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid][1] = t0
                self.spans[sid][2] = t1
            if post:
                post(self, args, kwargs, out, token)
            return out
        return wrapper

    def install(self, package):
        """Wrap every public function of each layer module, wherever the
        package imported it, and the methods in METHODS."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for fname, fn in vars(mod).items():
                if fname.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for holder in (package, *modules.values()):
            for attr, value in list(vars(holder).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._restore.append((holder, attr, value))
                    setattr(holder, attr, wrapped[id(value)][1])
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(name, fn))

    def uninstall(self):
        for holder, attr, value in reversed(self._restore):
            setattr(holder, attr, value)
        self._restore.clear()

    # -- reporting ----------------------------------------------------

    def summary(self):
        """Inclusive/self seconds and calls per span name, self seconds
        per layer, and the collected counters."""
        incl = defaultdict(float)
        calls = defaultdict(int)
        for name, t0, t1, parent in self.spans:
            incl[name] += t1 - t0
            calls[name] += 1
        self_by_span = [s[2] - s[1] for s in self.spans]
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                self_by_span[parent] -= t1 - t0
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        for (name, *_), s in zip(self.spans, self_by_span):
            self_s[name] += s
            layer_self[name.split(".", 1)[0]] += s
        return {"inclusive_s": dict(incl), "self_s": dict(self_s),
                "calls": dict(calls), "layer_self_s": dict(layer_self),
                "counts": dict(self.counts), "maxima": dict(self.maxima)}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")


# -- counters collected around the wrapped calls ----------------------


def _cache_key(name):
    def pre(tracer, args, kwargs):
        field = args[0]
        arg = args[1] if len(args) > 1 else next(iter(kwargs.values()))
        if name == "geometry.distances_from_point":
            key = np.asarray(arg, dtype=complex).reshape(-1).tobytes()
        else:
            key = int(arg)
        seen = tracer._seen[name].setdefault(field, set())
        if key in seen:
            tracer.counts[name + ".hits"] += 1
        return key

    def post(tracer, args, kwargs, out, key):
        tracer._seen[name][args[0]].add(key)
    return pre, post


def _artifact_bytes(tracer, args, kwargs, out, token):
    tracer.counts["harness.run.nonzero_exits"] += out != 0
    out_dir = args[0].out_dir
    for entry in os.scandir(out_dir):
        if entry.is_file():
            tracer.counts["harness.run.artifact_bytes"] += entry.stat().st_size


def _scan_counts(tracer, args, kwargs, out, token):
    tracer.counts["approximation.boundary_scan.admissible"] += out.n_admissible
    tracer.counts["approximation.boundary_scan.rows"] += len(out.rows)


def _count(key, of):
    def post(tracer, args, kwargs, out, token):
        tracer.counts[key] += of(args, out)
    return post


def _maximum(key, of):
    def post(tracer, args, kwargs, out, token):
        tracer.maxima[key] = max(tracer.maxima[key], of(args, out))
    return post


_PRE = {}
_POST = {
    "domains.build_grid": _count("domains.build_grid.nodes",
                                 lambda a, out: len(out)),
    "kernels.orthonormalize": _count("kernels.orthonormalize.dropped",
                                     lambda a, out: out.dropped),
    "kernels.metric_batch": _count("kernels.metric_batch.points",
                                   lambda a, out: len(out)),
    "geometry.GeodesicField": _count("geometry.GeodesicField.edges",
                                     lambda a, out: a[0].graph.nnz),
    "geometry.build_net": _count("geometry.build_net.centers",
                                 lambda a, out: len(out)),
    "geometry.metric_ball": _count("geometry.metric_ball.members",
                                   lambda a, out: len(out)),
    "operators.hankel_matrix": _maximum("operators.hankel_matrix.max_cols",
                                        lambda a, out: out.source_size),
    "approximation.omega": _count("approximation.omega.rank_deficient",
                                  lambda a, out: out.rank < out.n_unknowns),
    "approximation.boundary_scan": _scan_counts,
    "harness.run": _artifact_bytes,
}
for _name in ("geometry.distances_from_point", "geometry.distances_from_node"):
    _PRE[_name], _POST[_name] = _cache_key(_name)
