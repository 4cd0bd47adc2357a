"""Reducibility at a gap edge: the full conjugation pipeline.

Builds the one-label potential V = cos(16 theta)/256 over the golden
rotation, locates both edges of the gap labeled 16 by a Newton search on
the reduced constant's trace, and reduces the cocycle there to the
parabolic normal form [[1, zeta], [0, 1]].  The conjugation identity is
certified at random probe points at every step and for the final answer.
"""

import numpy as np

from qpsl.diophantine import frequency_vector, golden_mean
from qpsl.fourier import build_potential
from qpsl.kam import KamParams, run_reducibility
from qpsl.label_set import build_schedule, construct_label_set

freq = frequency_vector(golden_mean(80), gamma=0.5, tau=1.5)
sched = build_schedule(10, 0.9, depth=6)
ks = construct_label_set(freq, sched, j1=0, spacing=2, count=1)
V = build_potential(ks, k=2.0)
print(f"label set: {ks.labels()}, coefficient {V.coefficients[0]:.6g}")

params = KamParams(tau=1.5, k_exponent=2.0, schedule=sched,
                   max_degree=384, grid_size=2048, conj_residual_tol=1e-9, seed=1)

for edge in ("lower", "upper"):
    res = run_reducibility(V, freq.floats(), {"label_index": 0, "edge": edge},
                           params=params)
    print(f"\n{edge} edge at E = {res.energy:.12f}")
    print(f"  zeta = {res.zeta:+.6e} (sign selects the edge side)")
    print(f"  conjugation residual = {res.conj_residual:.2e}")
    print(f"  edge search: {res.edge_search['evaluations']} reductions, "
          f"failures {res.edge_search['failures']}")
    print(f"  reducing series: degree {res.B.degree:.0f}, {len(res.B)} modes "
          f"on the doubled torus")
    for rep in res.reports:
        print(f"  step {rep.j}: {rep.case:7s} site={rep.site} "
              f"|F| {rep.norm_before:.2e} -> {rep.norm_after:.2e} "
              f"residual {rep.residual:.1e}")
    w = res.zeta_window
    if w:
        print(f"  |zeta| vs relaxed window [{w['lower']:.2e}, "
              f"{'inf' if w['upper'] == float('inf') else format(w['upper'], '.2e')}]: "
              f"inside={w['inside']}")
