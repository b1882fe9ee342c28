"""Byte manifests of a fixed list of CLI runs, and their comparison.

    python3 tools/cli_manifest.py CHECKOUT OUT.json
    python3 tools/cli_manifest.py --compare A.json B.json

The first form runs every entry of RUNS from the checkout's source
(PYTHONPATH=CHECKOUT/src, OPENBLAS_NUM_THREADS=1), each in a fresh
temporary directory with ``--out out``, one run at a time.  It records
per run the exit code and the sha256 of stdout, of stderr and of every
file the run wrote, by path relative to its directory.  The second form
lists every run and file whose record differs between two manifests,
and exits 1 if any does (0 when they agree).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_DISC = ("kernel", "metric", "distance", "net", "hankel", "omega-scan",
         "decompose", "sbg-check", "t91")
_COARSE = ("distance", "omega-scan", "decompose", "t91", "variety",
           "sbg-check")
# (run name, CLI arguments): the disc commands for both symbols, the
# other domains at resolution 0.2 for conj(z1), the egg2 hankel, whose
# truncations and probe run on grid-orthonormalized bases, and a ball2
# decompose fine enough that some of its audits are admissible
RUNS = [(f"disc-{cmd}-{sym}", [cmd, "--domain", "disc", "--symbol", sym])
        for cmd in _DISC for sym in ("conj(z1)", "z1*z1")] \
    + [(f"{dom}-{cmd}-conj(z1)", [cmd, "--domain", dom, "--resolution",
                                  "0.2", "--symbol", "conj(z1)"])
       for dom in ("polydisc2", "ball2", "egg2") for cmd in _COARSE] \
    + [("egg2-hankel-conj(z1)", ["hankel", "--domain", "egg2",
                                 "--resolution", "0.3", "--symbol",
                                 "conj(z1)"]),
       ("ball2-decompose-0.15-conj(z1)", ["decompose", "--domain", "ball2",
                                          "--resolution", "0.15",
                                          "--symbol", "conj(z1)"])]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(checkout, args):
    """One CLI run in a fresh directory: its exit code and hashes."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(checkout).resolve() / "src"))
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(
            [sys.executable, "-m", "bergmanlab.cli", *args, "--out", "out"],
            cwd=work, env=env, capture_output=True)
        files = {str(p.relative_to(work)): _sha(p.read_bytes())
                 for p in sorted(Path(work).rglob("*")) if p.is_file()}
    return {"exit": proc.returncode, "stdout": _sha(proc.stdout),
            "stderr": _sha(proc.stderr), "files": files}


def build(checkout, runs=RUNS):
    return {name: {"args": args, **run_one(checkout, args)}
            for name, args in runs}


def differences(a, b):
    """Every run and file whose record differs, as printable lines."""
    out = []
    for name in sorted(set(a) | set(b)):
        ra, rb = a.get(name), b.get(name)
        if ra is None or rb is None:
            out.append(f"{name}: only in {'B' if ra is None else 'A'}")
            continue
        for key in ("exit", "stdout", "stderr"):
            if ra[key] != rb[key]:
                out.append(f"{name}: {key} differs")
        for path in sorted(set(ra["files"]) | set(rb["files"])):
            if ra["files"].get(path) != rb["files"].get(path):
                out.append(f"{name}: {path} differs")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--compare", action="store_true",
                    help="compare two manifests instead of building one")
    ap.add_argument("paths", nargs=2, metavar="PATH")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.paths)
        diff = differences(a, b)
        print("\n".join(diff) if diff else f"{len(a)} runs agree")
        return 1 if diff else 0
    checkout, out = args.paths
    Path(out).write_text(json.dumps(build(checkout), indent=1,
                                    sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
