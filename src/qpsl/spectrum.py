"""Spectrum-side computations: integrated density of states, rotation-number
curves, gap detection with labels, and gap-size exponent reports.

The IDS and the rotation number are one pivot count
(:func:`qpsl.cocycle.pivot_negatives`).  Started from r = inf on a Dirichlet
truncation, its negative pivots count the eigenvalues at or above E (Sturm
counting; boundary contamination is O(1/N) and absorbed into tolerances);
started from a solution ratio along the orbit, they count the solution's sign
changes, twice the rotation number.  The two are tied by N(E) = 1 - 2 rho(E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import oscillation_rho, orbit_potential, pivot_negatives, random_phases
from .diophantine import dist_to_integers
from .errors import NonConvergence, QpslError

__all__ = [
    "IdsCurve", "RotationCurve", "GapRecord",
    "finite_ids", "ids_curve", "rotation_curve", "detect_gaps",
    "gap_bounds_check",
]


def _eigen_fractions(V, alpha, thetas, N, energies):
    """Fraction of eigenvalues < E of the (2N+1)-site Dirichlet truncation
    with phases theta + m alpha, m = -N..N, for each energy and phase."""
    if N < 10:
        raise QpslError("N must be >= 10")
    sites = 2 * N + 1
    start = thetas + 2 * math.pi * -N * alpha
    neg = pivot_negatives(energies, orbit_potential(V, alpha, start, sites), math.inf)
    return (sites - neg) / sites


def finite_ids(V, alpha, theta, N, E):
    """Fraction of eigenvalues < E of the (2N+1)-site Dirichlet truncation
    with phases theta + m alpha, m = -N..N."""
    alpha = np.atleast_1d(np.asarray(alpha, float))
    theta = np.atleast_1d(np.asarray(theta, float))
    out = _eigen_fractions(V, alpha, theta[None, :], N, np.atleast_1d(E))[:, 0]
    return float(out[0]) if np.isscalar(E) else out


@dataclass
class IdsCurve:
    energies: np.ndarray
    values: np.ndarray


def ids_curve(V, alpha, energies, N=1000, phases=4, seed=0):
    """Finite-volume IDS on an energy grid, averaged over ``phases`` phases
    of :func:`qpsl.cocycle.random_phases`."""
    alpha = np.atleast_1d(np.asarray(alpha, float))
    th = random_phases(phases, alpha.size, seed)
    energies = np.asarray(energies, float)
    acc = np.zeros_like(energies)
    for col in _eigen_fractions(V, alpha, th, N, energies).T:
        acc += col
    return IdsCurve(energies=energies, values=acc / phases)


@dataclass
class RotationCurve:
    energies: np.ndarray
    rho: np.ndarray
    dispersion: np.ndarray


def rotation_curve(V, alpha, energies, iters=100_000, samples=3, seed=0):
    """rho(E) on a sorted grid by oscillation counting
    (:func:`qpsl.cocycle.oscillation_rho`), averaged over random phases."""
    energies = np.asarray(energies, float)
    if np.any(np.diff(energies) < 0):
        raise QpslError("energy grid must be sorted")
    per = oscillation_rho(V, alpha, energies, iters, samples, seed)
    return RotationCurve(energies=energies, rho=per.mean(axis=1),
                         dispersion=per.max(axis=1) - per.min(axis=1))


@dataclass
class GapRecord:
    label: tuple
    E_minus: float
    E_plus: float
    length: float
    rho_locked: float


def detect_gaps(curve: RotationCurve, alpha, labels, tol=1e-3, rho_fn=None,
                refine_bisections=40, refine_tol=None):
    """Find maximal plateaus where 2 rho(E) locks onto <n, alpha> mod 1.

    ``labels`` is a list of candidate lattice vectors (ints for d=1); both
    signs are tried.  Edges are refined on the lock condition when ``rho_fn``
    (sorted energy array -> rho array) is supplied; otherwise the plateau's
    grid bounds are reported.  Plateaus of under three grid points are
    numerical flats.  ``refine_tol`` tightens the lock tolerance during
    refinement (the rotation number departs from the lock like sqrt(E - edge),
    so a tolerance t leaves an O(t^2) edge bias; it defaults to tol).  All
    edges are refined together, one ``rho_fn`` call per stage; a plateau
    whose midpoint is unlocked at ``refine_tol`` raises
    :class:`NonConvergence`.
    """
    refine_tol = tol if refine_tol is None else refine_tol
    alpha = np.atleast_1d(np.asarray(alpha, float))
    cands = []
    for n in labels:
        n = (int(n),) if np.isscalar(n) else tuple(int(c) for c in n)
        for s in (1, -1):
            cand = tuple(s * c for c in n)
            if cand not in cands:
                cands.append(cand)

    # the nearest candidate lock per energy (argmin: first candidate on ties)
    E = curve.energies
    dist = dist_to_integers(2.0 * curve.rho[:, None] - _shifts(cands, alpha))
    best = np.where(dist.min(axis=1) < tol, dist.argmin(axis=1), -1)
    starts = np.flatnonzero(np.diff(best, prepend=-2, append=-2))
    plateaus = [(cands[best[i]], i, j) for i, j in zip(starts[:-1], starts[1:] - 1)
                if best[i] >= 0 and j - i + 1 >= 3]

    if rho_fn is None:
        found = [E[k] for _, i, j in plateaus for k in (i, j)]
    else:
        edges = []
        for n, i, j in plateaus:
            anchor = 0.5 * (E[i] + E[j])
            edges += [(n, "E_minus", anchor, E[max(i - 1, 0)]),
                      (n, "E_plus", anchor, E[min(j + 1, E.size - 1)])]
        found = _refine_edges(rho_fn, edges, alpha, refine_tol, refine_bisections)
    records = []
    for (n, _, _), lo, hi in zip(plateaus, found[0::2], found[1::2]):
        lock = dist_to_integers(float(np.dot(n, alpha)) / 2.0)
        records.append(GapRecord(label=n, E_minus=float(lo), E_plus=float(hi),
                                 length=float(hi - lo), rho_locked=lock))
    return records


def _shifts(labels, alpha):
    return np.array([float(np.dot(n, alpha)) for n in labels])


def _refine_edges(rho_fn, edges, alpha, tol, budget):
    """Edge energies for ``edges`` (label, side, anchor, E_out), refined in
    lockstep between the plateau interior (``anchor``, reliably locked) and an
    unlocked energy ``E_out`` beyond the edge.

    A stage lays a 33-point grid on each open bracket and evaluates the union
    of the grids in one ``rho_fn`` call on the sorted energies.  Every energy
    is its own column of the pivot count, so each edge gets the rho it would
    get alone, bit for bit.  An edge closes when its bracket shrinks below the
    equivalent of ``budget`` bisections, or when its whole grid is locked;
    there are at most 12 stages.
    """
    lo = np.array([e[2] for e in edges], float)   # locked side
    hi = np.array([e[3] for e in edges], float)   # unlocked side
    target = np.abs(hi - lo) * 0.5 ** budget
    shift = _shifts([e[0] for e in edges], alpha)
    for _ in range(12):
        idx = np.flatnonzero(np.abs(hi - lo) > target)
        if idx.size == 0:
            break
        grids = np.stack([np.linspace(lo[k], hi[k], 33) for k in idx])  # may run downward
        flat = grids.ravel()
        order = np.argsort(flat, kind="stable")
        rho = np.empty_like(flat)
        rho[order] = np.asarray(rho_fn(flat[order]))
        locked = dist_to_integers(2.0 * rho.reshape(grids.shape) - shift[idx, None]) < tol
        for k, grid, lock in zip(idx, grids, locked):
            lo[k], hi[k] = _refine_edge(grid, lock, edges[k])
    return lo


def _refine_edge(grid, locked, edge):
    """One stage of one edge: the new bracket (lo, hi) from the grid laid
    from its locked side and the lock flags of the grid points; an all-locked
    grid closes the bracket at its far end."""
    if locked.all():
        return grid[-1], grid[-1]
    k = int(np.argmin(locked))             # first unlocked point
    if k == 0:
        label, side, anchor, _ = edge
        raise NonConvergence(f"gap {label} {side}: the plateau midpoint "
                             f"{float(anchor)!r} is unlocked at the refinement tolerance")
    return grid[k - 1], grid[k]


def gap_bounds_check(gap: GapRecord, k, tau):
    """Exponent ratio r = log|I| / log|n| against the window
    [-11k/10 - 6 tau, -9k/10 + 56 tau], reported and not asserted."""
    n_norm = max(abs(c) for c in gap.label)
    if n_norm < 2 or gap.length <= 0:
        return {"r": None, "window": None, "inside": None,
                "note": "degenerate label or empty gap"}
    r = math.log(gap.length) / math.log(n_norm)
    lo = -11.0 * k / 10.0 - 6.0 * tau
    hi = -9.0 * k / 10.0 + 56.0 * tau
    return {"r": r, "window": [lo, hi], "inside": lo <= r <= hi,
            "window_nonempty": lo <= hi}
