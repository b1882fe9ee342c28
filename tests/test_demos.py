"""The demos that drive the closed-form disc and ball kernels and
metrics, call the net, partition and decomposition API, or parse
symbols (the boundary scan, and the diagnostics with their
analytic-disc tests), run to completion; demo 03 is left out to keep
the suite short."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_kernels_and_metric.py",
                                  "02_distances_and_nets.py",
                                  "04_omega_boundary_scan.py",
                                  "05_decomposition.py",
                                  "06_diagnostics_and_varieties.py"])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
