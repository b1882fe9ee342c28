"""Bergman kernels and the induced metric on model domains.

Closed forms exist for the disc, balls, and polydiscs; everything else
goes through an orthonormalized monomial basis.  This script compares
the two routes and prints metric values at a few points.
"""

import numpy as np

from bergmanlab import domains as dom
from bergmanlab.kernels import engine_for

np.set_printoptions(precision=6, suppress=True)

# -- disc: closed form vs numerical basis ------------------------------

disc = dom.disc()
closed = engine_for(disc)

quad = dom.build_grid(disc, 0.0, scheme="product-polar", degree=40)
numerical = engine_for(disc, quad, degree=40)

z = np.array([[0.3 + 0.4j]])
w = np.array([[-0.2 + 0.1j]])
a = closed.kernel(z, w)[0]
b = numerical.kernel(z, w)[0]
print("disc kernel B(z, w)")
print("  closed form :", a)
print("  degree-40   :", b)
print("  rel error   :", abs(a - b) / abs(a))

# -- diagonal growth toward the boundary -------------------------------

print("\ndisc B(z, z) along the radius (blows up like (1-|z|^2)^-2):")
for t in (0.0, 0.5, 0.9, 0.99):
    val = closed.kernel_diag(np.array([[t + 0.0j]]))[0]
    print(f"  |z| = {t:4.2f}   B = {val:12.3f}   "
          f"(1-|z|^2)^2 B = {val * (1 - t * t) ** 2:.6f}")

# -- metric tensor on the ball ----------------------------------------

ball = dom.ball(2)
eng = engine_for(ball)
pts = np.array([[0.0j, 0.0j], [0.5, 0.0j], [0.5, 0.5j]])
print("\nball(2) metric tensor g at a few points:")
for p in pts:
    g = eng.metric(p)
    print(f"  z = {p}   eigenvalues {np.linalg.eigvalsh(g)}")

# -- volume density ----------------------------------------------------

print("\nBergman volume density det g on the disc "
      "(equals 2/(1-|z|^2)^2):")
disc_eng = engine_for(disc)
for t in (0.0, 0.5, 0.9):
    d = disc_eng.volume_density_batch(np.array([[t + 0.0j]]))[0]
    print(f"  |z| = {t:4.2f}   det g = {d:10.4f}   "
          f"oracle {2.0 / (1 - t * t) ** 2:10.4f}")

# -- an egg domain has no closed form ---------------------------------

egg = dom.egg(2)
grid = dom.build_grid(egg, 0.1)
eng = engine_for(egg, grid, degree=12)
print("\negg(2) (|z1|^2 + |z2|^4 < 1), degree-12 basis:")
print("  B(0, 0)     =", eng.kernel_diag(np.zeros((1, 2),
                                                  dtype=complex))[0])
print("  metric eigs =", np.linalg.eigvalsh(
    eng.metric(np.zeros(2, dtype=complex))))
