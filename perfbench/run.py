"""bergmanlab benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Workloads: scan-bidisc, hankel-bidisc, cli-disc, kernel-egg (see
perfbench/README.md).  With --trace 0 the result holds the end-to-end
metrics, with --trace 1 the per-layer ones; a traced run also writes its
spans to perfbench/out/spans-NAME.jsonl.  The last line of standard
output is {"correct", "attempted", "failed", "metrics"}; the line before
it records the Python, numpy and scipy versions, nproc and the thread
cap.  Any error exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# time a run may take beyond --seconds: three set-ups, the pass that
# straddles the time box, the oracle and the import probes, or a traced
# run's two set-ups and passes.  With --seconds 12 a run ends within 180 s.
ALLOWANCE_S = 150.0
IMPORT_PROBES = 2  # extra fresh interpreters timed for setup_s's imports
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB",
         "oracle_digits": "digits"}


def child_env():
    """This process's environment with BLAS pinned to one thread.

    threadpoolctl is not available to cap threads after import, so the
    environment is the only cap.  One thread (never more than nproc) keeps
    timings steady on a small shared machine: a two-thread matmul on
    2 vCPUs varied by 20% run to run, a one-thread one by 7%.
    """
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(extra, env, deadline):
    """Run worker.py in a fresh interpreter; its last stdout line is JSON.
    subprocess.run kills and reaps the child if the deadline passes."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, "--t0", repr(t0), *extra], env=env,
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    deadline = time.monotonic() + args.seconds + ALLOWANCE_S
    env = child_env()
    extra = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        res = run_worker(extra, env, deadline)
        metrics = res["metrics"]
        if not args.trace:
            imports = [res["import_s"]] + [
                run_worker(extra + ["--probe"], env, deadline)["import_s"]
                for _ in range(IMPORT_PROBES)]
            build = metrics.pop("build_s")
            metrics = {"setup_s": statistics.median(imports) + build,
                       **metrics}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("# " + json.dumps({**res["env"], "workload": args.workload,
                             "seed": args.seed, "info": res["info"]}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": UNITS.get(k) or unit_of(k)}
                    for k, v in metrics.items()}}))
    return 0


def unit_of(name):
    """Unit of a per-layer metric, from its suffix."""
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_mean"):
        return "nodes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
