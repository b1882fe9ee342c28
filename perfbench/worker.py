"""Run one workload in this process and print its result as one JSON line.

Started by run.py in a fresh interpreter per run, so peak memory and the
geodesic fields' point and node caches belong to this run alone.  With
``--probe`` it only imports what a run imports and reports how long that
took since ``--t0`` (a CLOCK_MONOTONIC reading taken by run.py just
before it started this process).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict

from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")  # spans and scratch files; not committed

SETUPS = 3  # set-up repetitions per run; setup_s takes their median

# timed span names: each reports ``.s`` (inclusive) and ``.self_s``
TIMED = (
    "domains.build_grid",
    "kernels.orthonormalize", "kernels.metric_batch",
    "kernels.reinhardt_basis",
    "geometry.GeodesicField", "geometry.distances_from_point",
    "geometry.distances_from_node", "geometry.build_net",
    "geometry.partition_of_unity", "geometry.Partition.evaluate",
    "geometry.metric_ball",
    "operators.hankel_matrix", "operators.compactness_indicator",
    "operators.weak_null_probe",
    "approximation.omega", "approximation.boundary_scan",
    "approximation.decompose",
    "diagnostics.sbg_check", "diagnostics.t91_equivalences",
    "diagnostics.volume_comparison_check",
    "harness.run",
)
CALLS = ("kernels.reinhardt_basis", "geometry.distances_from_point",
         "geometry.distances_from_node", "geometry.metric_ball",
         "operators.hankel_matrix", "approximation.omega", "harness.run")
COUNTS = ("domains.build_grid.nodes", "kernels.orthonormalize.dropped",
          "kernels.metric_batch.points", "geometry.GeodesicField.edges",
          "geometry.build_net.centers", "approximation.omega.rank_deficient",
          "harness.run.nonzero_exits", "harness.run.artifact_bytes")


class Tally:
    """Items attempted, failed, and failed by a known defect."""

    def __init__(self):
        self.attempted = self.failed = self.known = 0

    def attempt(self, name, fn, known):
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception:  # a raising item is counted, never the run's end
            ok, detail, known = False, traceback.format_exc(), False
        if not ok:
            if known:
                self.known += 1
            else:
                self.failed += 1
            tag = "known failure" if known else "FAILED"
            print(f"[{tag}] {name}: {detail}", file=sys.stderr)


def run_pass(wl, state, p, tally, samples=None, deadline=None):
    """Run pass p's items in order; with a deadline, start none after it.
    Returns False when the deadline cut the pass short."""
    for name, fn, known in wl.items(state, p):
        t = time.perf_counter()
        if deadline is not None and t >= deadline:
            return False
        tally.attempt(name, fn, known)
        if samples is not None:
            samples[name].append(time.perf_counter() - t)
    return True


def timed_run(wl, seconds):
    """End-to-end metrics: set-up SETUPS times, then a closed loop of
    passes for ``seconds`` (the first pass always completes)."""
    builds = []
    state = None
    for _ in range(SETUPS):
        state = None  # release the previous build before the next one
        t = time.perf_counter()
        state = wl.setup()
        builds.append(time.perf_counter() - t)
    tally = Tally()
    samples = defaultdict(list)
    deadline = time.perf_counter() + seconds
    run_pass(wl, state, 0, tally, samples)
    # peak RSS of set-up plus one pass, so it does not grow with the
    # number of passes a faster build manages in the time box
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p = 1
    while run_pass(wl, state, p, tally, samples, deadline):
        p += 1
    err = wl.oracle(state)
    tally.attempt("oracle", lambda: (err <= wl.oracle_tol,
                                     f"relative error {err:.3g}"), False)
    metrics = {
        "build_s": statistics.median(builds),
        # one pass of the stated input: per item, the median of its samples
        "solve_s": sum(statistics.median(v) for v in samples.values()),
        "peak_rss_mb": peak_kb / 1024.0,
        "oracle_digits": -math.log10(max(err, 1e-16)),
    }
    items = {k: round(statistics.median(v), 4) for k, v in samples.items()}
    return tally, metrics, {"passes": p, "oracle_rel_err": err,
                            "item_median_s": items}


def traced_run(wl, spans_path):
    """Per-layer metrics: set-up plus pass 0 untraced, then the same
    again with every layer wrapped; the wall-time gap is the overhead."""
    import bergmanlab

    tally = Tally()
    t = time.perf_counter()
    run_pass(wl, wl.setup(), 0, tally)
    untraced = time.perf_counter() - t
    tracer = Tracer()
    tracer.install(bergmanlab)
    try:
        t = time.perf_counter()
        run_pass(wl, wl.setup(), 0, tally)
        traced = time.perf_counter() - t
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    return tally, layer_metrics(tracer.summary(), traced - untraced, tally), \
        {"untraced_s": untraced, "traced_s": traced}


def layer_metrics(s, overhead, tally):
    incl, self_s, calls = s["inclusive_s"], s["self_s"], s["calls"]
    counts, maxima = s["counts"], s["maxima"]
    m = {}
    for name in TIMED:
        m[name + ".s"] = incl.get(name, 0.0)
        m[name + ".self_s"] = self_s.get(name, 0.0)
    for name in CALLS:
        m[name + ".calls"] = calls.get(name, 0)
    for name in COUNTS:
        m[name] = counts.get(name, 0)
    for name in ("geometry.distances_from_point",
                 "geometry.distances_from_node"):
        m[name + ".hit_ratio"] = counts.get(name + ".hits", 0) \
            / max(calls.get(name, 0), 1)
    m["geometry.metric_ball.members_mean"] = counts.get(
        "geometry.metric_ball.members", 0) \
        / max(calls.get("geometry.metric_ball", 0), 1)
    m["operators.hankel_matrix.max_cols"] = maxima.get(
        "operators.hankel_matrix.max_cols", 0)
    m["approximation.boundary_scan.admissible_ratio"] = counts.get(
        "approximation.boundary_scan.admissible", 0) \
        / max(counts.get("approximation.boundary_scan.rows", 0), 1)
    for layer, v in s["layer_self_s"].items():
        m[layer + ".self_s"] = v
    for layer in LAYERS:
        m.setdefault(layer + ".self_s", 0.0)
    m["trace.overhead_s"] = overhead
    m["checks.known_failures"] = tally.known
    m["checks.failed_frac"] = (tally.failed + tally.known) / tally.attempted
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    import numpy
    import scipy
    import bergmanlab
    import workloads
    import_s = time.monotonic() - args.t0
    if not os.path.abspath(bergmanlab.__file__).startswith(SRC + os.sep):
        print(f"bergmanlab imported from {bergmanlab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__,
           "nproc": len(os.sched_getaffinity(0)),
           "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    if args.probe:
        print(json.dumps({"import_s": import_s}))
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            tally, metrics, info = traced_run(
                wl, os.path.join(OUT, f"spans-{args.workload}.jsonl"))
        else:
            tally, metrics, info = timed_run(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["known_failures"] = tally.known
    print(json.dumps({"import_s": import_s, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics,
                      "info": info, "env": env}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
