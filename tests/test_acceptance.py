"""End-to-end acceptance gate.

Each test is one named criterion; pytest -v therefore reports one
pass/fail line per criterion.  Each test also prints a one-line verdict
with the measured numbers so the run log is self-contained.
"""

import math
import time

import numpy as np
import pytest

from bergmanlab import domains as dom
from bergmanlab.approximation import (boundary_scan, decompose, omega,
                                      variety_test)
from bergmanlab.diagnostics import (sbg_check, t91_equivalences,
                                    volume_comparison_check,
                                    volume_equivalence_bracket)
from bergmanlab.geometry import (GeodesicField, build_net, covering_audit,
                                 metric_ball, partition_of_unity,
                                 separation_audit)
from bergmanlab.harness import bump_symbol, symbol_parse
from bergmanlab.kernels import engine_for, reinhardt_basis
from bergmanlab.operators import compactness_indicator, hankel_matrix

from conftest import zbar1


def _verdict(num, label, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} "
          f"{label}: {detail}", flush=True)
    assert ok, f"criterion {num} ({label}): {detail}"


# ---------------------------------------------------------------------


def test_criterion_01_kernel_oracle(disc_domain, disc_engine):
    t0 = time.time()
    grid = dom.build_grid(disc_domain, 0.0, scheme="product-polar",
                          degree=40)
    num = engine_for(disc_domain, grid, degree=40)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, (40, 1)) + 1j * rng.uniform(-1, 1, (40, 1))
    pts = 0.8 * pts / np.maximum(np.abs(pts), 1.0)
    worst = 0.0
    for i in range(len(pts) - 1):
        a = num.kernel(pts[i:i + 1], pts[i + 1:i + 2])[0]
        b = disc_engine.kernel(pts[i:i + 1], pts[i + 1:i + 2])[0]
        worst = max(worst, abs(a - b) / abs(b))
    elapsed = time.time() - t0
    _verdict(1, "kernel vs closed form, disc, N=40",
             worst <= 1e-6 and elapsed < 30.0,
             f"max rel err {worst:.2e} (<= 1e-6), {elapsed:.1f}s (< 30s)")


def test_criterion_02_hankel_spectrum_oracle(disc_domain):
    quad = dom.build_grid(disc_domain, 0.0, scheme="product-polar",
                          degree=70)
    basis = reinhardt_basis(disc_domain, 60)
    sig = hankel_matrix(zbar1(1), basis, quad, guard=0).singular_values
    worst = max(abs(sig[j] - 1.0 / math.sqrt((j + 1) * (j + 2)))
                for j in range(11))
    _verdict(2, "disc conj(z) singular values, N=60",
             worst <= 1e-4,
             f"max |sigma_j - oracle| = {worst:.2e} for j <= 10 (<= 1e-4)")


def test_criterion_03_noncompactness_signature(bidisc_zbar2_signature):
    # 0.85 * sigma_0 = 0.85 / sqrt(2) = 0.60: the count of sigma > 0.6
    ind, probe = bidisc_zbar2_signature
    counts_ok = all(abs(c - (n + 1)) <= 1
                    for n, c in zip(ind.degrees, ind.counts))
    growing = all(b > a for a, b in zip(ind.counts, ind.counts[1:]))
    _verdict(3, "bidisc conj(z2) linear count growth + probe",
             counts_ok and growing and np.min(probe) >= 0.3,
             f"counts {ind.counts} vs N+1 (+/-1), "
             f"min probe {np.min(probe):.3f} (>= 0.3)")


def test_criterion_04_consistency_matrix(disc_domain, disc_field,
                                         bidisc_domain, bidisc_field):
    t0 = time.time()
    quad = dom.build_grid(bidisc_domain, 0.0, scheme="product-polar",
                          degree=12)
    steps = (0.5, 0.6, 0.7, 0.8, 0.85)
    suite = [
        # (symbol, domain, scan directions, expected compact)
        ("conj(z1)", disc_domain, None, True),
        ("conj(z2)", bidisc_domain,
         np.array([[1.0, 0.0j], [1j, 0.0]]), False),
        ("conj(z1)+conj(z2)", bidisc_domain,
         np.array([[1.0, 0.0j], [0.0, 1.0 + 0j]]), False),
        ("z2*z2", bidisc_domain, np.array([[1.0, 0.0j]]), True),
        ("bump", bidisc_domain, None, True),
        ("abs2(z1)", bidisc_domain,
         np.array([[0.0, 1.0 + 0j], [0.0j, 1j]]), False),
    ]
    rows = []
    for expr, d, dirs, expected in suite:
        sym = bump_symbol(2) if expr == "bump" else symbol_parse(expr, d.dim)
        if d.dim == 1:
            field = disc_field
            q = dom.build_grid(d, 0.0, scheme="product-polar", degree=24)
            pv = False
        else:
            field, q, pv = bidisc_field, quad, True

        def build(n):
            return hankel_matrix(sym,
                                 reinhardt_basis(d, n, per_variable=pv),
                                 q, guard=2, per_variable=pv)

        ind = compactness_indicator(build, (2, 4, 6, 8),
                                    threshold_ratio=0.5, zero_tol=1e-6)
        scan = boundary_scan(field, sym, radius=1.0, degree=2,
                             directions=dirs, n_rays=2, steps=steps)
        rows.append((expr, ind.compact, scan.decaying, expected))
    elapsed = time.time() - t0
    agree = all(c == s == e for _, c, s, e in rows)
    detail = "; ".join(f"{n}: operator={'C' if c else 'N'} "
                       f"scan={'C' if s else 'N'}"
                       for n, c, s, _ in rows)
    _verdict(4, "six-symbol scan/operator agreement",
             agree and elapsed < 600.0,
             f"{detail}; {elapsed:.0f}s (< 600s)")


def test_criterion_05_omega_closed_form(disc_field_dense):
    ball = metric_ball(disc_field_dense, np.array([0.0j]), 1.0)
    val = omega(disc_field_dense, ball, zbar1(1), 6).value
    err = abs(val - 0.7904) / 0.7904
    _verdict(5, "disc conj(z) omega at center, r=1, D=6",
             err <= 0.02,
             f"omega = {val:.4f} vs 0.7904 (rel err {err:.2%} <= 2%)")


def test_criterion_06_omega_boundary_rate(disc_field_dense):
    rates = []
    for a in (0.5, 0.7, 0.9, 0.95):
        ball = metric_ball(disc_field_dense, np.array([a + 0.0j]), 1.0)
        val = omega(disc_field_dense, ball, zbar1(1), 2).value
        rates.append(val / (1.0 - a * a) ** 2)
    bracket = max(rates) / min(rates)
    _verdict(6, "omega_1(zeta)/(1-|zeta|^2)^2 bracket",
             bracket < 3.0,
             f"spread factor {bracket:.2f} over |zeta| in "
             f"{{0.5,0.7,0.9,0.95}} (< 3)")


def test_criterion_07_decomposition_audits(disc_field):
    net = build_net(disc_field, 0.5)
    part = partition_of_unity(net)
    d = decompose(part, zbar1(1), degree=6)
    ident = d.identity_error()
    psum = float(np.max(np.abs(
        np.sum(part.evaluate(disc_field.grid.nodes), axis=0) - 1.0)))
    pairs_ok = len(d.pair_audit) > 0 and all(a["holds"]
                                             for a in d.pair_audit)
    decay = d.shell_epsilon_decay()
    _verdict(7, "phi = phi1 + phi2 decomposition audits",
             ident <= 1e-12 and psum <= 1e-10 and pairs_ok
             and decay >= 5.0,
             f"identity {ident:.1e} (<= 1e-12), partition sum {psum:.1e} "
             f"(<= 1e-10), {len(d.pair_audit)}/{len(d.pair_audit)} pair "
             f"audits hold, shell decay {decay:.1f}x (>= 5x)")


def test_criterion_08_geometry_oracle(disc_field, disc_field_fine):
    oracle = math.sqrt(2.0) * math.atanh(0.5)  # 0.77682...
    a = np.array([0.0j])
    b = np.array([0.5 + 0.0j])
    e1 = abs(disc_field.distance(a, b) - oracle) / oracle
    e2 = abs(disc_field_fine.distance(a, b) - oracle) / oracle
    net = build_net(disc_field, 0.5)
    sep = separation_audit(net)
    cov = covering_audit(net)
    _verdict(8, "disc dist(0, 0.5) + net audits",
             e1 <= 0.02 and e2 <= 0.005 and sep >= 0.5 and cov == 1.0,
             f"rel err {e1:.2%} (<= 2%), {e2:.2%} at half resolution "
             f"(<= 0.5%); separation {sep:.3f} >= 0.5, covering {cov}")


def test_criterion_09_diagnostics(disc_domain, disc_engine, disc_grid,
                                  disc_field, ball2_domain, ball2_engine,
                                  ball2_field, bidisc_engine, bidisc_field):
    c5 = volume_comparison_check(disc_engine, disc_grid)
    c5_err = abs(c5.value - 2.0 * math.pi)
    sbg = sbg_check(disc_engine, dom.build_grid(disc_domain, 0.004))
    finite = []
    for eng, f, centers in [
            (disc_engine, disc_field, np.array([[0.0j], [0.3], [0.5j]])),
            (ball2_engine, ball2_field,
             np.array([[0.0j, 0.0j], [0.3, 0.1j]])),
            (bidisc_engine, bidisc_field,
             np.array([[0.0j, 0.0j], [0.3, 0.2j]]))]:
        rep = t91_equivalences(eng, f, centers, r=1.0)
        finite.append(rep["all_finite"] and rep["coherent"])
    centers2 = np.array([[0.0j, 0.0j], [0.3, 0.1j]])
    bra = volume_equivalence_bracket(ball2_engine, ball2_field, centers2,
                                     r=1.0)
    half = GeodesicField(ball2_engine, dom.build_grid(ball2_domain, 0.05))
    bra_half = volume_equivalence_bracket(ball2_engine, half, centers2,
                                          r=1.0)
    drift = abs(bra_half.value - bra.value) / bra.value
    _verdict(9, "constants and equivalence diagnostics",
             c5_err <= 1e-6 and 1.8 <= sbg.value <= 2.0 and all(finite)
             and math.isfinite(bra.value) and drift <= 0.10,
             f"C5 err {c5_err:.1e} (<= 1e-6); SBG sup {sbg.value:.3f} in "
             f"[1.8, 2.0]; five-condition check finite+coherent on "
             f"disc/ball/bidisc: {finite}; kernel-mass bracket "
             f"{bra.value:.2f}, drift {drift:.1%} under halving (<= 10%)")


def test_criterion_10_variety_tester(bidisc_domain):
    disc_map = lambda w: np.array([np.exp(0.7j), w])
    r1 = variety_test(symbol_parse("conj(z1)", 2), bidisc_domain, disc_map)
    r2 = variety_test(symbol_parse("z2*z2", 2), bidisc_domain, disc_map)
    r3 = variety_test(symbol_parse("conj(z2)", 2), bidisc_domain, disc_map)
    _verdict(10, "boundary-disc obstruction dichotomy",
             r1 <= 1e-8 and r2 <= 1e-8 and abs(r3 - 1.0) <= 1e-3,
             f"residuals conj(z1): {r1:.1e}, z2^2: {r2:.1e} (<= 1e-8); "
             f"conj(z2): {r3:.6f} (= 1 +/- 1e-3)")
