"""Splitting a symbol into a small part plus a smooth part.

Over a separated net with a subordinate partition of unity, the symbol
is split as phi = phi_1 + phi_2: phi_1 glues the local best holomorphic
approximants, phi_2 = phi - phi_1 is small in the local L^2 sense when
the approximation functional decays.  The audits verify the gluing
inequalities numerically.
"""

import numpy as np

from bergmanlab import domains as dom
from bergmanlab.approximation import decompose
from bergmanlab.geometry import GeodesicField, build_net, partition_of_unity
from bergmanlab.harness import symbol_parse
from bergmanlab.kernels import engine_for

disc = dom.disc()
field = GeodesicField(engine_for(disc), dom.build_grid(disc, 0.025))
net = build_net(field, 0.5)
sym = symbol_parse("conj(z1)", 1)

dec = decompose(partition_of_unity(net), sym, degree=6)

print(f"net: {len(net)} centers at separation 0.5")
print(f"identity |phi1 + phi2 - phi| on the grid: "
      f"{dec.identity_error():.2e}")

# -- local residuals per net shell ------------------------------------

print("\nper-shell max local residual eps_m (admissible centers):")
for s in sorted(set(dec.shell_index[dec.epsilon_admissible])):
    sel = (dec.shell_index == s) & dec.epsilon_admissible
    print(f"  shell {s}: {np.sum(sel):3d} centers, "
          f"max eps = {np.max(dec.epsilon[sel]):.4f}")
print(f"first/last shell decay factor: "
      f"{dec.shell_epsilon_decay():.2f}x")

# -- audits ------------------------------------------------------------

holds = sum(a["holds"] for a in dec.pair_audit)
print(f"\noverlapping-pair approximant-coherence audit: "
      f"{holds}/{len(dec.pair_audit)} hold")
print(f"phi_2 size audit (|phi2| vs local eps sums): bracket "
      f"{max(a['ratio'] for a in dec.phi2_audit):.2e}")
print(f"dbar(phi_1) audit (gradient leakage vs eps / overlap): bracket "
      f"{max(a['ratio'] for a in dec.dbar_audit):.3f}")
