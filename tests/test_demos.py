"""Every demo runs to completion: the closed-form disc and ball kernels
and metrics, the net, partition and decomposition API, the Hankel
spectra on product-polar grids, and the demos that parse symbols (the
boundary scan, and the diagnostics with their analytic-disc tests)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_kernels_and_metric.py",
                                  "02_distances_and_nets.py",
                                  "03_hankel_spectra.py",
                                  "04_omega_boundary_scan.py",
                                  "05_decomposition.py",
                                  "06_diagnostics_and_varieties.py"])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
