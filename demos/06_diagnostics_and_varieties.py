"""Geometry diagnostics, self-bounded-gradient checks, and boundary
analytic discs.

These are the sanity instruments: two-sided constants relating kernel,
metric volume, and metric balls; the self-bounded-gradient quantity
for log B; and a direct test for symbols failing to be holomorphic
along an analytic disc in the boundary (the polydisc obstruction).
"""

import math

import numpy as np

from bergmanlab import domains as dom
from bergmanlab.approximation import variety_test
from bergmanlab.diagnostics import (off_diagonal_check, sbg_check,
                                    t91_equivalences,
                                    volume_comparison_check)
from bergmanlab.geometry import GeodesicField
from bergmanlab.harness import symbol_parse
from bergmanlab.kernels import engine_for

disc = dom.disc()
grid = dom.build_grid(disc, 0.025)
eng = engine_for(disc)
field = GeodesicField(eng, grid)
centers = np.array([[0.0j], [0.3], [0.5j]])

# -- constants ---------------------------------------------------------

c5 = volume_comparison_check(eng, grid)
print(f"disc det g / B ratio C5 = {c5.value:.10f}   "
      f"(exactly 2 pi = {2 * math.pi:.10f})")

c3 = off_diagonal_check(eng, field, centers)
print(f"off-diagonal kernel comparability C3 = {c3.value:.3f} "
      f"at distance < 1")

# -- self-bounded gradient --------------------------------------------

q = sbg_check(eng, dom.build_grid(disc, 0.01))
print(f"\nSBG quantity sup |d log B|^2_g = {q.value:.4f} "
      f"(disc value is 2 at the boundary)")

# -- five-condition coherence -----------------------------------------

rep = t91_equivalences(eng, field, centers, r=1.0)
print(f"\nfive-condition equivalence check on the disc: "
      f"all finite = {rep['all_finite']}, coherent = {rep['coherent']}")
print(f"  verdict: {rep['verdict']}")

# -- analytic discs in the bidisc boundary ----------------------------

bid = dom.polydisc(2)
F = lambda w: np.array([np.exp(0.7j), w])  # disc inside {|z1| = 1}
print("\nmean |dbar(phi o F)| along the boundary disc "
      "F(w) = (e^{0.7i}, w):")
for expr in ("conj(z1)", "z2*z2", "conj(z2)"):
    res = variety_test(symbol_parse(expr, 2), bid, F)
    tag = "holomorphic along the disc" if res < 1e-8 \
        else "OBSTRUCTED (Hankel not compact)"
    print(f"  {expr:10s} residual {res:.2e}   {tag}")
