"""The four benchmark workloads.

Each workload builds its shared objects in ``setup`` and then yields, per
pass, the items of its stated input: one verdict each, computed through
bergmanlab's public API (or ``harness.run``, as the CLI does) and checked
against the expected verdict or a closed form.  Pass ``p`` of seed ``s``
draws its inputs from ``default_rng([s, p])``; the program sees only those
inputs.  ``oracle`` returns the relative error against the workload's
closed-form oracle (at most ``oracle_tol`` when correct) and is not timed.

Items whose failure is a known, documented defect carry ``known=True``;
they are still run and checked, and counted apart from the other items.

Module attributes are looked up at call time (``geometry.metric_ball``,
not a name imported here) so the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from functools import partial

import numpy as np

from bergmanlab import (approximation, diagnostics, domains, geometry,
                        harness, kernels, operators)

TWO_PI = 2.0 * math.pi
ORACLE = 2 ** 31 - 1  # the oracle's input stream, apart from every pass


def _rng(seed, p):
    return np.random.default_rng([seed, p])


class ScanBidisc:
    """Boundary scans on the bidisc, dominated by off-grid Dijkstra.

    Each ray runs a non-compact symbol first (every centre misses the
    field's point cache) and then a compact one on the same centres
    (every centre hits), so both the miss path and caching show.
    """

    name = "scan-bidisc"
    oracle_tol = 0.3  # the overshoot is about 0.2 at this resolution
    resolution = 0.12
    steps = (0.5, 0.6, 0.7, 0.8, 0.85)
    # (ray direction as a function of its phase, [(symbol, compact), ...])
    rays = ((lambda th: [np.exp(1j * th), 0.0],
             (("conj(z2)", False), ("z2*z2", True))),
            (lambda th: [0.0, np.exp(1j * th)],
             (("abs2(z1)", False), ("bump", True))))

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        dom = domains.polydisc(2)
        grid = domains.build_grid(dom, self.resolution)
        return geometry.GeodesicField(kernels.engine_for(dom), grid)

    def items(self, field, p):
        phases = _rng(self.seed, p).uniform(0.0, TWO_PI, len(self.rays))
        for (ray, symbols), th in zip(self.rays, phases):
            dirs = np.array([ray(th)], dtype=complex)
            for expr, compact in symbols:
                yield (f"scan {expr}",
                       partial(self._scan, field, dirs, expr, compact), False)

    def _scan(self, field, dirs, expr, compact):
        scan = approximation.boundary_scan(
            field, harness.resolve_symbol(expr, 2), radius=1.0, degree=2,
            directions=dirs, steps=self.steps)
        return scan.decaying == compact, \
            f"decaying={scan.decaying} trend={scan.tail_trend:.3g}"

    def oracle(self, field):
        """field.distance from the anchor against the closed form
        sqrt(2 sum_j atanh^2 |z_j|): the mean relative error over seeded
        points, since the worst one swings with the sample (the graph's
        direction-dependent overshoot)."""
        rng = _rng(self.seed, ORACLE)
        pts = rng.uniform(0.3, 0.8, (512, 2)) \
            * np.exp(1j * rng.uniform(0.0, TWO_PI, (512, 2)))
        anchor = field.domain.anchor_point
        errs = []
        for z in pts:
            exact = math.sqrt(2.0 * np.sum(np.arctanh(np.abs(z)) ** 2))
            errs.append(abs(field.distance(anchor, z) - exact) / exact)
        return float(np.mean(errs))


class HankelBidisc:
    """Operator truncations on product grids, with no geometry at all."""

    name = "hankel-bidisc"
    oracle_tol = 1e-4
    # symbol, expected compact, largest singular value of the unscaled
    # symbol's Hankel operator on the bidisc (closed form)
    rows = (("conj(z2)", False, 1.0 / math.sqrt(2.0)),
            ("conj(z1)+conj(z2)", False, 1.0),
            ("z2*z2", True, 0.0),
            ("abs2(z1)", False, 1.0 / math.sqrt(12.0)))
    row_grid_degree = 10
    row_degrees = (2, 4, 6)
    sweep_resolution = 0.12
    sweep_degrees = (4, 8, 12)
    probe_grid_degree = 8
    probe_basis_degree = 12

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        disc, bidisc = domains.disc(), domains.polydisc(2)
        pp = partial(domains.build_grid, resolution=0.0,
                     scheme="product-polar")
        return {"disc": disc, "bidisc": bidisc,
                "disc_grid": pp(disc, degree=70),
                "row_grid": pp(bidisc, degree=self.row_grid_degree),
                "probe_grid": pp(bidisc, degree=self.probe_grid_degree),
                "sweep_grid": domains.build_grid(bidisc,
                                                 self.sweep_resolution),
                "engine": kernels.engine_for(bidisc)}

    def items(self, st, p):
        rng = _rng(self.seed, p)
        yield "disc oracle", partial(self._disc_oracle, st), False
        for (expr, compact, sigma0), c in zip(
                self.rows, rng.uniform(0.5, 2.0, len(self.rows)).tolist()):
            yield (f"rows {expr}",
                   partial(self._row, st, expr, c, compact, sigma0), False)
        yield "sweep conj(z2)", partial(self._sweep, st), False
        t = np.sort(rng.uniform(0.5, 0.95, 4))
        centers = np.stack([t * np.exp(1j * rng.uniform(0.0, TWO_PI, 4)),
                            np.zeros(4)], axis=1)
        yield "probe conj(z2)", partial(self._probe, st, centers), False

    @staticmethod
    def _disc_sigma_error(st):
        """Acceptance criterion 02: sigma_j of H_conj(z) on the disc,
        N = 60, against 1/sqrt((j+1)(j+2)); abs and relative errors."""
        basis = kernels.reinhardt_basis(st["disc"], 60)
        sig = operators.hankel_matrix(harness.symbol_parse("conj(z1)", 1),
                                      basis, st["disc_grid"],
                                      guard=0).singular_values
        exact = 1.0 / np.sqrt((np.arange(11) + 1.0) * (np.arange(11) + 2.0))
        err = np.abs(sig[:11] - exact)
        return float(np.max(err)), float(np.max(err / exact))

    def _disc_oracle(self, st):
        err, _ = self._disc_sigma_error(st)
        return err <= 1e-4, f"max |sigma_j - oracle| = {err:.2e}"

    def _row(self, st, expr, c, compact, sigma0):
        """Acceptance criterion 04, operator side, for c * symbol."""
        sym = harness.symbol_parse(f"{c!r}*({expr})", 2)
        bidisc, grid = st["bidisc"], st["row_grid"]
        ind = operators.compactness_indicator(
            lambda n: operators.hankel_matrix(
                sym, kernels.reinhardt_basis(bidisc, n, per_variable=True),
                grid, guard=2, per_variable=True),
            self.row_degrees, threshold_ratio=0.5, zero_tol=1e-6)
        sigma_ok = abs(ind.sigma0 - c * sigma0) <= 1e-8 * max(1.0, c)
        return ind.compact == compact and sigma_ok, \
            f"compact={ind.compact} counts={ind.counts} sigma0={ind.sigma0}"

    def _sweep(self, st):
        """Acceptance criterion 03: counts above 0.85 sigma_0 grow as N+1."""
        sym = harness.symbol_parse("conj(z2)", 2)
        bidisc, grid = st["bidisc"], st["sweep_grid"]
        ind = operators.compactness_indicator(
            lambda n: operators.hankel_matrix(
                sym, kernels.reinhardt_basis(bidisc, n, per_variable=True),
                grid, guard=0, per_variable=True),
            self.sweep_degrees, threshold_ratio=0.85)
        counts_ok = all(abs(c - (n + 1)) <= 1
                        for n, c in zip(ind.degrees, ind.counts))
        growing = all(b > a for a, b in zip(ind.counts, ind.counts[1:]))
        return counts_ok and growing, f"counts={ind.counts}"

    def _probe(self, st, centers):
        vals = operators.weak_null_probe(
            harness.symbol_parse("conj(z2)", 2), st["engine"],
            kernels.reinhardt_basis(st["bidisc"], self.probe_basis_degree,
                                    per_variable=True),
            st["probe_grid"], centers)
        return bool(np.min(vals) >= 0.3), f"min probe {np.min(vals):.3f}"

    def oracle(self, st):
        return self._disc_sigma_error(st)[1]


class CliDisc:
    """A CLI session on the disc through harness.run, one workspace per
    command as each CLI call builds its own."""

    name = "cli-disc"
    oracle_tol = 0.03
    commands = ("distance", "net", "decompose", "omega-scan", "hankel", "t91")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.calls = 0

    def setup(self):
        return None

    def _config(self, expr, seed):
        self.calls += 1
        out = os.path.join(self.workdir, f"run{self.calls}")
        return harness.ExperimentConfig(domain="disc", symbol=expr, seed=seed,
                                        out_dir=out)

    def items(self, st, p):
        rng = _rng(self.seed, p)
        c, seed = float(rng.uniform(0.5, 1.5)), int(rng.integers(0, 2 ** 31))
        for label, expr in (("c*conj(z1)", f"{c!r}*conj(z1)"),
                            ("z1*z1", "z1*z1")):
            for cmd in self.commands:
                yield (f"{cmd} {label}",
                       partial(self._command, expr, seed, cmd),
                       cmd == "hankel")

    def _command(self, expr, seed, cmd):
        cfg = self._config(expr, seed)
        try:
            rc = harness.run(cfg, cmd)
            if rc != 0:
                return False, f"exit code {rc}"
            if cmd == "distance":
                err = self._distance_error(cfg)
                return err <= self.oracle_tol, f"worst rel err {err:.3g}"
            report = f"{cmd.replace('-', '_')}_report.json"
            with open(os.path.join(cfg.out_dir, report)) as fh:
                summary = json.load(fh)["summary"]
            return self._check(cmd, "conj" in expr, summary), str(summary)
        finally:
            shutil.rmtree(cfg.out_dir, ignore_errors=True)

    @staticmethod
    def _check(cmd, antiholomorphic, s):
        if cmd == "net":
            return s["separation_min"] >= 0.5 and s["covering_max"] == 1.0
        if cmd == "decompose":
            ok = s["identity_error"] <= 1e-12 and s["pair_audit_pass"]
            if antiholomorphic:
                return ok and s["shell_epsilon_decay"] >= 5.0
            return ok and s["eps_max"] <= 1e-10
        if cmd == "omega-scan":
            return s["decaying"]
        if cmd == "hankel":
            return s["compact"]
        return s["all_finite"] and s["coherent"]  # t91

    @staticmethod
    def _distance_error(cfg):
        """distance.csv against sqrt(2) atanh|t| for the command's targets
        (the anchor 0 and ray points at 0.3-0.6 of the way out)."""
        dom = domains.disc()
        dirs = approximation.ray_directions(dom, 8, seed=cfg.seed)
        with open(os.path.join(cfg.out_dir, "distance.csv")) as fh:
            rows = list(csv.DictReader(fh))
        worst = 0.0
        for row in rows:
            i = int(row["target"])
            t = approximation.ray_point(dom, dirs[i], 0.3 + 0.1 * (i % 4))
            exact = math.sqrt(2.0) * math.atanh(abs(t[0]))
            worst = max(worst,
                        abs(float(row["bergman_distance"]) - exact) / exact)
        return worst

    def oracle(self, st):
        seed = int(_rng(self.seed, ORACLE).integers(0, 2 ** 31))
        cfg = self._config("z1*z1", seed)
        try:
            if harness.run(cfg, "distance") != 0:
                raise RuntimeError("distance command failed")
            return self._distance_error(cfg)
        finally:
            shutil.rmtree(cfg.out_dir, ignore_errors=True)


class KernelEgg:
    """The grid-orthonormalized kernel and the diagnostics on the egg."""

    name = "kernel-egg"
    oracle_tol = 0.05  # about 0.005 at this grid and degree
    resolution = 0.15
    basis_degree = 10

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        dom = domains.egg(2)
        grid = domains.build_grid(dom, self.resolution)
        engine = kernels.engine_for(dom, grid, degree=self.basis_degree)
        return geometry.GeodesicField(engine, grid)

    def items(self, field, p):
        rng = _rng(self.seed, p)
        dom = field.domain
        dirs = approximation.ray_directions(dom, 4, seed=int(
            rng.integers(0, 2 ** 31)))
        centers = np.stack([approximation.ray_point(dom, u, t) for u, t in
                            zip(dirs, rng.uniform(0.1, 0.5, len(dirs)))])
        scan_seed = int(rng.integers(0, 2 ** 31))
        yield "sbg_check", partial(self._sbg, field), False
        yield "volume_comparison", partial(self._c5, field), False
        yield "t91", partial(self._t91, field, centers), False
        yield "scan conj(z1)", partial(self._scan, field, scan_seed), True

    @staticmethod
    def _sbg(field):
        q = diagnostics.sbg_check(field.engine, field.grid)
        return math.isfinite(q.value), f"Q={q.value:.4g}"

    @staticmethod
    def _c5(field):
        c5 = diagnostics.volume_comparison_check(field.engine, field.grid)
        return math.isfinite(c5.value), f"C5={c5.value:.4g}"

    @staticmethod
    def _t91(field, centers):
        rep = diagnostics.t91_equivalences(field.engine, field, centers,
                                           r=1.0)
        ok = rep["all_finite"] and rep["coherent"] and rep["cond5_skipped"]
        return ok, rep["verdict"]

    @staticmethod
    def _scan(field, seed):
        """The egg has no analytic discs in its boundary: H_conj(z1) is
        compact, so the scan should decay (CLI omega-scan defaults)."""
        cfg = harness.ExperimentConfig(domain="egg2")
        scan = approximation.boundary_scan(
            field, harness.symbol_parse("conj(z1)", 2), radius=cfg.radius,
            degree=cfg.approx_degree, n_rays=cfg.rays, steps=cfg.steps,
            seed=seed)
        return scan.decaying, (f"decaying={scan.decaying} from "
                               f"{scan.n_admissible} admissible points")

    def oracle(self, field):
        """Grid-orthonormalized engine vs the exact Reinhardt basis of the
        same degree at seeded points: the larger of the mean relative
        errors of kernel_diag and of metric_batch (the worst point swings
        with the sample)."""
        rng = _rng(self.seed, ORACLE)
        n = 1000
        z = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        z *= (0.6 * rng.uniform(0.0, 1.0, n)
              / np.linalg.norm(z, axis=1))[:, None]
        exact = kernels.engine_for(field.domain, degree=self.basis_degree,
                                   exact=True)
        num = field.engine
        kd = np.abs(num.kernel_diag(z) - exact.kernel_diag(z)) \
            / exact.kernel_diag(z)
        g, g0 = num.metric_batch(z), exact.metric_batch(z)
        gm = np.linalg.norm(g - g0, axis=(1, 2)) \
            / np.linalg.norm(g0, axis=(1, 2))
        return float(max(np.mean(kd), np.mean(gm)))


WORKLOADS = {w.name: w for w in (ScanBidisc, HankelBidisc, CliDisc,
                                 KernelEgg)}
