"""Alternating parent/change perfbench pairs, written as one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json
        [--claim WORKLOAD:METRIC] [--trace WORKLOAD --trace-metrics M,M]
        [--parent-rev REV] [--note TEXT]

DIR is the root of a checkout.  The run command, its length and the
workloads come from the change's BENCHMARK.json (``command``,
``run_seconds``, ``workloads``).  For every workload, pair i of ten
runs the command once in each checkout with seed 1001 + i, the parent
first on odd seeds and the change first on even ones, one run at a
time.  Every end-to-end metric is summarised per side by its median and
quartiles (numpy.percentile 25/75, linear interpolation), with the pairs
the change wins or ties, the ratio of the medians and a verdict against
the metric's ``bound`` (see ``compare``); "not_within" lists every
workload and metric whose verdict is not "within".  --claim adds the
claimed metric's "claim", whose "met" says whether the gain holds
(see ``claim``).  A run that exits
non-zero, prints nothing, or does not end on a JSON result is recorded
under "failed_runs" with its reason and left out of the statistics.
With --trace, one traced run per side (seed 1001) adds the listed
per-layer metrics.  "src_lines" holds each checkout's line count of
src/bergmanlab/*.py, as ``wc -l`` totals it (see ``src_lines``), and
"src_module_lines" each file's count (see ``module_lines``).  The file
follows BENCH_3.json's layout.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys

import numpy as np

PAIRS = 10
SEED0 = 1001
MACHINE = ("python", "numpy", "scipy", "nproc", "openblas_threads")


def run_once(spec, checkout, workload, seed, trace):
    """One perfbench run: (env line, result, None), or (None, None,
    reason) when it exits non-zero or does not end on a JSON result."""
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]),
                           "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    if proc.returncode != 0:
        return None, None, f"exit code {proc.returncode}"
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, None, "no output"
    try:
        out = json.loads(lines[-1])
        env = next((json.loads(ln[2:]) for ln in lines
                    if ln.startswith("# ")), {})
    except json.JSONDecodeError as exc:
        return None, None, f"not JSON: {exc}"
    if not isinstance(out, dict) or "metrics" not in out:
        return None, None, "last line holds no metrics"
    return env, out, None


def module_lines(checkout):
    """The ``wc -l`` count of each of the checkout's src/bergmanlab/*.py,
    by file name: the number of newline characters in it."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(checkout, "src", "bergmanlab",
                                              "*.py"))):
        with open(path, "rb") as fh:
            counts[os.path.basename(path)] = fh.read().count(b"\n")
    return counts


def src_lines(checkout):
    """The ``wc -l`` total of the checkout's src/bergmanlab/*.py."""
    return sum(module_lines(checkout).values())


def summary(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(med), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4)}


def compare(pairs, better, bound):
    """Per-metric statistics over the pairs (parent, change) of values,
    with a verdict against the metric's bound: "worse" when the change's
    median is worse than the parent's by more than bound x the parent
    median; else "unresolved" when the parent's IQR exceeds that margin,
    unless every change run beats every parent run ("better"); else
    "within"."""
    par = [p for p, _ in pairs]
    chg = [c for _, c in pairs]
    sign = 1.0 if better == "lower" else -1.0
    out = {"better": better, "bound": bound, "parent": summary(par),
           "change": summary(chg),
           "change_wins": sum(sign * (c - p) < 0 for p, c in pairs),
           "ties": sum(c == p for p, c in pairs)}
    pm = out["parent"]["median"]
    out["median_ratio"] = round(out["change"]["median"] / pm, 4) \
        if pm else None
    margin = bound * abs(pm)
    beats_all = max(sign * c for c in chg) < min(sign * p for p in par)
    if sign * (out["change"]["median"] - pm) > margin:
        out["verdict"] = "worse"
    elif out["parent"]["q3"] - out["parent"]["q1"] > margin:
        out["verdict"] = "better" if beats_all else "unresolved"
    else:
        out["verdict"] = "within"
    return out


def claim(stats):
    """A claimed gain from one metric's ``compare`` statistics: "met"
    when the change wins at least 9 of the 10 pairs (a tie counts for
    neither side) and its median beats the parent's by more than the
    parent's IQR."""
    iqr = round(stats["parent"]["q3"] - stats["parent"]["q1"], 4)
    gain = stats["parent"]["median"] - stats["change"]["median"]
    if stats["better"] == "higher":
        gain = -gain
    return {"parent_median": stats["parent"]["median"],
            "change_median": stats["change"]["median"],
            "change_wins": stats["change_wins"], "parent_iqr": iqr,
            "met": bool(10 * stats["change_wins"] >= 9 * PAIRS
                        and gain > iqr)}


def bench_workload(args, spec, workload, metrics, machine):
    pairs = {m: [] for m, *_ in metrics}
    fails = {"parent": [0, 0], "change": [0, 0]}
    failed_runs = []
    for i in range(PAIRS):
        seed = SEED0 + i
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        res = {}
        for side in order:
            env, out, reason = run_once(spec, getattr(args, side), workload,
                                        seed, 0)
            print(f"{workload} seed {seed} {side}: "
                  + (f"run failed ({reason})" if out is None else
                     " ".join(f"{m}={out['metrics'][m]['value']:.4g}"
                              for m, *_ in metrics)),
                  file=sys.stderr, flush=True)
            if out is None:
                failed_runs.append({"seed": seed, "side": side,
                                    "reason": reason})
                continue
            machine.update({k: env[k] for k in MACHINE if k in env})
            fails[side][0] += out["failed"]
            fails[side][1] += out["attempted"]
            res[side] = out["metrics"]
        if len(res) == 2:
            for m, *_ in metrics:
                pairs[m].append((res["parent"][m]["value"],
                                 res["change"][m]["value"]))
    entry = {m: compare(pairs[m], better, bound)
             for m, better, bound in metrics if pairs[m]}
    entry["failed_of_attempted"] = fails
    if failed_runs:
        entry["failed_runs"] = failed_runs
    return entry


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--claim", default="")
    ap.add_argument("--trace", default="")
    ap.add_argument("--trace-metrics", default="")
    ap.add_argument("--parent-rev", default="")
    ap.add_argument("--note", default="")
    args = ap.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = [(m["name"], m["better"], m["bound"])
               for m in spec["end_to_end"]]
    machine = {}
    report = {
        "change": args.note, "parent": args.parent_rev,
        "command": " ".join(spec["command"]) + " --workload W --seed S "
                   f"--seconds {spec['run_seconds']} --trace 0",
        "seeds": [SEED0 + i for i in range(PAIRS)],
        "pairs_per_workload": PAIRS,
        "order": "alternating: parent first on odd seeds, change first "
                 "on even seeds",
        "quartiles": "numpy.percentile 25/75, linear interpolation",
        "machine": machine,
        "src_lines": {side: src_lines(getattr(args, side))
                      for side in ("parent", "change")},
        "src_module_lines": {side: module_lines(getattr(args, side))
                             for side in ("parent", "change")},
        "workloads": {}}
    for w in spec["workloads"]:
        report["workloads"][w["name"]] = bench_workload(
            args, spec, w["name"], metrics, machine)
    report["not_within"] = [
        {"workload": w, "metric": m, "verdict": entry[m]["verdict"]}
        for w, entry in report["workloads"].items() for m, *_ in metrics
        if m in entry and entry[m]["verdict"] != "within"]
    if args.claim:
        w, m = args.claim.split(":")
        report["claim"] = {"workload": w, "metric": m,
                           **claim(report["workloads"][w][m])}
    if args.trace:
        keep = [m for m in args.trace_metrics.split(",") if m]
        traced = {}
        for side in ("parent", "change"):
            _, out, _ = run_once(spec, getattr(args, side), args.trace,
                                 SEED0, 1)
            traced[side] = None if out is None else {
                m: round(out["metrics"][m]["value"], 4)
                for m in keep or out["metrics"] if m in out["metrics"]}
        key = f"trace_{args.trace.replace('-', '_')}_seed_{SEED0}"
        report[key] = traced
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
