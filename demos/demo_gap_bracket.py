"""Bracketing a gap length from one edge: the perturbative probes.

From the reduced edge data (B, zeta), lowering the energy by delta acts as
C - delta P(theta) with an explicit P; the averaged discriminant
d(delta) = -delta [B11^2] zeta + delta^2 ([B11^2][B12^2] - [B11 B12]^2)
changes sign across the opposite edge.  Probing delta_2 = |zeta|^{11/10}
(inside, uniformly hyperbolic) and delta_1 = |zeta|^{9/10} (beyond, back in
the spectrum) brackets the gap length between the two scales.
"""

import numpy as np

from qpsl.diophantine import frequency_vector, golden_mean
from qpsl.fourier import build_potential
from qpsl.kam import KamParams, run_reducibility
from qpsl.label_set import build_schedule, construct_label_set
from qpsl.moser_poschel import bracket_gap, discriminant, edge_data_from_reduction

freq = frequency_vector(golden_mean(80), gamma=0.5, tau=1.5)
sched = build_schedule(10, 0.9, depth=6)
ks = construct_label_set(freq, sched, j1=0, spacing=2, count=1)
V = build_potential(ks, k=2.0)
params = KamParams(tau=1.5, k_exponent=2.0, schedule=sched,
                   max_degree=384, grid_size=2048, seed=1)

res = run_reducibility(V, freq.floats(), {"label_index": 0, "edge": "upper"},
                       params=params)
print(f"upper edge E+ = {res.energy:.10f}, zeta = {res.zeta:.6e}")

edge = edge_data_from_reduction(res, freq.floats())
print(f"averages: [B11^2] = {edge.A11:.6f}, [B11 B12] = {edge.A12:.6f}, "
      f"[B12^2] = {edge.A22:.6f}")
print(f"structure checks: {edge.checks}")

for delta in (1e-4, 1e-3, 1e-2):
    print(f"  d({delta:.0e}) = {discriminant(edge, delta=delta):+.3e}")

print("\nprobing both scales (verdicts from one averaging step through B):")
out = bracket_gap(edge, V)
delta2, delta1 = out["bracket"]
for name, delta in (("delta2", delta2), ("delta1", delta1)):
    print(f"  {name} = {delta:.4e}: verdict {out[name]['verdict']} "
          f"(margin {out[name]['margin']:.2f}, by {out[name]['decided_by']}; "
          f"d({name}) = {out[name]['d']:+.3e})")
print(f"\n=> the gap at label {res.label} has length between "
      f"{delta2:.3e} and {delta1:.3e}")
print(f"   (compare the lower edge: reducing there gives the other endpoint; "
      f"the measured gap is about {V.coefficients[0]:.3e})")
