"""Finite Fourier series on the torus and the explicit sparse potential.

A series is a finite map from frequencies n in Z^d to scalar or 2x2 complex
coefficients, evaluated as sum_n F(n) e^{i<n, theta>} with theta in radians.
Series on the doubled torus (period 4*pi) are stored with ``halved=True``:
a key m then stands for the half-integer frequency m/2.

The analytic norm |F|_h and the C^k norm are implemented as the coefficient
majorants sum ||F(n)|| e^{|n| h} and sum ||F(n)|| (1+|n|)^k.  The true sup
over a complex strip is not computable from finite data; the majorant
dominates it, and every smallness threshold in the package is interpreted
against the majorant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeOverflow, DomainMismatch, QpslError
from .label_set import LabelSet

__all__ = [
    "FourierSeries",
    "Potential",
    "multiply",
    "build_potential",
    "potential_series",
    "amo_potential",
]

_TWO_PI = 2.0 * math.pi


def _coeff_norm(v):
    if np.isscalar(v) or getattr(v, "ndim", 0) == 0:
        return abs(v)
    return float(np.linalg.norm(v, 2))


def _coeff_norms(values, scalar):
    """_coeff_norm of a stack of coefficients in one call, bit for bit:
    hypot for scalars (np.abs rounds differently), the top singular value
    for 2x2 matrices."""
    values = np.asarray(values)
    if scalar:
        return np.hypot(values.real, values.imag)
    return np.linalg.svd(values, compute_uv=False).max(axis=-1)


class FourierSeries:
    """Finite frequency -> coefficient map on T^d or 2T^d.

    kind is one of 'scalar', 'matrix', 'su11', 'sl2r'; the last three are
    matrix-valued.
    """

    __slots__ = ("d", "coeffs", "halved", "kind", "dropped_mass")

    def __init__(self, d, coeffs=None, halved=False, kind="scalar"):
        self.d = int(d)
        self.halved = bool(halved)
        self.kind = kind
        self.dropped_mass = 0.0
        self.coeffs = {}
        if coeffs:
            for n, v in coeffs.items():
                self[n] = v

    # -- mapping plumbing -------------------------------------------------
    def _key(self, n):
        if isinstance(n, int):
            n = (n,)
        n = tuple(int(c) for c in n)
        if len(n) != self.d:
            raise DomainMismatch(f"key {n} has length {len(n)}, series has d={self.d}")
        return n

    def __setitem__(self, n, v):
        n = self._key(n)
        if self.kind == "scalar":
            self.coeffs[n] = complex(v)
        else:
            arr = np.array(v, dtype=complex)
            if arr.shape != (2, 2):
                raise QpslError(f"matrix coefficient must be 2x2, got {arr.shape}")
            self.coeffs[n] = arr

    def __getitem__(self, n):
        n = self._key(n)
        if n in self.coeffs:
            return self.coeffs[n]
        return 0j if self.kind == "scalar" else np.zeros((2, 2), complex)

    def items(self):
        return sorted(self.coeffs.items())

    def copy(self):
        out = FourierSeries(self.d, halved=self.halved, kind=self.kind)
        for n, v in self.coeffs.items():
            out.coeffs[n] = v if self.kind == "scalar" else v.copy()
        out.dropped_mass = self.dropped_mass
        return out

    def __len__(self):
        return len(self.coeffs)

    def freq(self, n):
        """Frequency vector (possibly half-integer) of a stored key."""
        s = 0.5 if self.halved else 1.0
        return tuple(c * s for c in n)

    def freq_norm(self, n):
        return max(abs(c) for c in n) * (0.5 if self.halved else 1.0)

    @property
    def degree(self):
        if not self.coeffs:
            return 0.0
        return max(self.freq_norm(n) for n in self.coeffs)

    def mean(self):
        return self[(0,) * self.d]

    def prune(self, tol=0.0):
        if self.coeffs:
            norms = _coeff_norms(list(self.coeffs.values()), self.kind == "scalar")
            for n, m in zip(list(self.coeffs), norms):
                if m <= tol:
                    del self.coeffs[n]
        return self

    # -- algebra ----------------------------------------------------------
    def _check_compat(self, other):
        if self.d != other.d:
            raise DomainMismatch("dimension mismatch")

    def __add__(self, other):
        self._check_compat(other)
        a, b = _common_denominator(self, other)
        out = a.copy()
        for n, v in b.coeffs.items():
            out[n] = out[n] + v
        out.kind = a.kind if a.kind == b.kind else ("matrix" if a.kind != "scalar" else a.kind)
        return out.prune()

    def __neg__(self):
        out = self.copy()
        for n in out.coeffs:
            out.coeffs[n] = -out.coeffs[n]
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        out = self.copy()
        for n in out.coeffs:
            out.coeffs[n] = c * out.coeffs[n]
        return out

    def shift(self, alpha):
        """Translate theta -> theta + 2*pi*alpha (alpha in cycles), in place of
        evaluation: each coefficient picks up e^{2*pi*i <freq, alpha>}."""
        alpha = np.atleast_1d(np.asarray(alpha, float))
        if alpha.size != self.d:
            raise DomainMismatch("alpha dimension mismatch")
        out = self.copy()
        for n in out.coeffs:
            ph = np.exp(2j * np.pi * float(np.dot(self.freq(n), alpha)))
            out.coeffs[n] = ph * out.coeffs[n]
        return out

    def map_values(self, f, kind=None):
        """Apply a linear map to every coefficient (e.g. constant conjugation)."""
        out = FourierSeries(self.d, halved=self.halved, kind=kind or self.kind)
        for n, v in self.coeffs.items():
            out[n] = f(v)
        return out

    # -- evaluation -------------------------------------------------------
    def eval(self, theta, real=False):
        """Value at a point theta (radians, length d)."""
        theta = np.atleast_1d(np.asarray(theta, float))
        if theta.size != self.d:
            raise DomainMismatch(f"theta has dimension {theta.size}, series d={self.d}")
        acc = 0j if self.kind == "scalar" else np.zeros((2, 2), complex)
        for n, v in self.coeffs.items():
            acc = acc + v * np.exp(1j * float(np.dot(self.freq(n), theta)))
        if real:
            return _checked_real(acc, self.coeff_mass())
        return acc

    def sample(self, thetas, real=False):
        """Vectorized evaluation; thetas shape (m,) for d=1 or (m, d)."""
        th = np.asarray(thetas, float)
        if self.d == 1 and th.ndim == 1:
            th = th[:, None]
        if th.ndim != 2 or th.shape[1] != self.d:
            raise DomainMismatch(f"thetas must be (m, {self.d})")
        m = th.shape[0]
        if self.kind == "scalar":
            acc = np.zeros(m, complex)
            for n, v in self.coeffs.items():
                acc += v * np.exp(1j * th @ np.asarray(self.freq(n)))
        else:
            acc = np.zeros((m, 2, 2), complex)
            for n, v in self.coeffs.items():
                acc += np.exp(1j * th @ np.asarray(self.freq(n)))[:, None, None] * v
        if real:
            return _checked_real(acc, self.coeff_mass())
        return acc

    # -- truncation -------------------------------------------------------
    def truncate(self, K):
        """T_K: keep frequencies with |n| <= K."""
        if K < 0:
            raise QpslError("K must be >= 0")
        out = FourierSeries(self.d, halved=self.halved, kind=self.kind)
        for n, v in self.coeffs.items():
            if self.freq_norm(n) <= K:
                out.coeffs[n] = v
        return out

    def project_tail(self, K):
        """R_K: keep frequencies with |n| > K; T_K F + R_K F = F exactly."""
        if K < 0:
            raise QpslError("K must be >= 0")
        out = FourierSeries(self.d, halved=self.halved, kind=self.kind)
        for n, v in self.coeffs.items():
            if self.freq_norm(n) > K:
                out.coeffs[n] = v
        return out

    # -- norms ------------------------------------------------------------
    def coeff_mass(self):
        return sum(_coeff_norm(v) for v in self.coeffs.values())

    def analytic_norm(self, h):
        """Majorant of sup over the strip of width h: sum ||F(n)|| e^{|n| h}."""
        if h < 0:
            raise QpslError("h must be >= 0")
        return sum(_coeff_norm(v) * math.exp(self.freq_norm(n) * h)
                   for n, v in self.coeffs.items())

    def ck_norm_estimate(self, k):
        """Majorant of the C^k norm: sum ||F(n)|| (1+|n|)^k (an upper bound
        for the sup of derivatives up to order k, not the exact sup)."""
        if k < 0 or int(k) != k:
            raise QpslError("k must be a nonnegative integer")
        return sum(_coeff_norm(v) * (1.0 + self.freq_norm(n)) ** k
                   for n, v in self.coeffs.items())

    # -- structure --------------------------------------------------------
    def real_symmetry_residual(self):
        """For scalar series: max |F(-n) - conj(F(n))| (0 means real-valued)."""
        if self.kind != "scalar":
            raise QpslError("real symmetry applies to scalar series")
        worst = 0.0
        for n, v in self.coeffs.items():
            worst = max(worst, abs(self[tuple(-c for c in n)] - np.conj(v)))
        return worst

    def lift_halved(self):
        """Re-express an integer-frequency series on the doubled torus."""
        if self.halved:
            return self.copy()
        out = FourierSeries(self.d, halved=True, kind=self.kind)
        for n, v in self.coeffs.items():
            out.coeffs[tuple(2 * c for c in n)] = v
        return out

    # -- serialization ----------------------------------------------------
    def to_json(self):
        rows = []
        for n, v in self.items():
            if self.kind == "scalar":
                rows.append([list(n), v.real, v.imag])
            else:
                flat = []
                for x in np.asarray(v).ravel():
                    flat.extend([float(x.real), float(x.imag)])
                rows.append([list(n), flat])
        return json.dumps({"d": self.d, "halved": self.halved,
                           "kind": self.kind, "coeffs": rows})

    @staticmethod
    def from_json(text):
        data = json.loads(text)
        out = FourierSeries(data["d"], halved=data["halved"], kind=data["kind"])
        for row in data["coeffs"]:
            n = tuple(row[0])
            if data["kind"] == "scalar":
                out[n] = complex(row[1], row[2])
            else:
                flat = row[1]
                vals = [complex(flat[2 * i], flat[2 * i + 1]) for i in range(4)]
                out[n] = np.array(vals, complex).reshape(2, 2)
        return out

    @staticmethod
    def constant(d, value, halved=False):
        kind = "scalar" if np.isscalar(value) else "matrix"
        out = FourierSeries(d, halved=halved, kind=kind)
        out[(0,) * d] = value
        return out


def _checked_real(acc, mass, rel=1e-12):
    imag = np.max(np.abs(np.imag(np.atleast_1d(acc))))
    if imag > rel * max(mass, 1.0) + 1e-300:
        raise QpslError(f"imaginary residue {imag:.3e} exceeds tolerance for real output")
    return np.real(acc)


def _common_denominator(a, b):
    if a.halved == b.halved:
        return a, b
    return (a if a.halved else a.lift_halved(),
            b if b.halved else b.lift_halved())


def multiply(F: FourierSeries, G: FourierSeries, max_degree=None, strict=False):
    """Convolution product; matrix kinds multiply per term with the matrix
    product.  Frequencies beyond ``max_degree`` are dropped with their mass
    recorded on ``result.dropped_mass`` (or raise DegreeOverflow if strict).
    """
    if F.d != G.d:
        raise DomainMismatch("dimension mismatch")
    A, B = _common_denominator(F, G)
    scalar = A.kind == "scalar" and B.kind == "scalar"
    if A.kind == "scalar" and B.kind != "scalar":
        A, B = B, A  # matrix * scalar commutes coefficientwise
    out = FourierSeries(A.d, halved=A.halved,
                        kind="scalar" if scalar else "matrix")
    acc = {}
    for n1, v1 in A.coeffs.items():
        for n2, v2 in B.coeffs.items():
            n = tuple(c1 + c2 for c1, c2 in zip(n1, n2))
            term = v1 * v2 if (scalar or B.kind == "scalar") else v1 @ v2
            if n in acc:
                acc[n] = acc[n] + term
            else:
                acc[n] = term
    dropped = 0.0
    for n, v in acc.items():
        if max_degree is not None and out.freq_norm(n) > max_degree:
            mass = _coeff_norm(v)
            if strict and mass > 0:
                raise DegreeOverflow(
                    f"mode {n} exceeds max degree {max_degree} (mass {mass:.3e})")
            dropped += mass
            continue
        out.coeffs[n] = v
    out.prune(0.0)
    out.dropped_mass = dropped
    return out


@dataclass
class Potential:
    """Real trigonometric potential V(theta) = sum_j c_j cos(<n_j, theta>).

    ``bound_const`` is the constant c with |c_j| <= c |n_j|^(-k) declared at
    construction.
    """

    labels: list
    coefficients: list
    k_exponent: float
    bound_const: float = 1.0
    label_set: LabelSet | None = None

    @property
    def d(self):
        return len(self.labels[0]) if self.labels else 1

    def sample(self, theta):
        """V at one point (theta length d) or a batch (m, d) / (m,) for d=1."""
        th = np.asarray(theta, float)
        if self.d == 1:
            if th.ndim == 0:
                return float(sum(c * math.cos(lab[0] * float(th))
                                 for lab, c in zip(self.labels, self.coefficients)))
            acc = np.zeros(th.shape[0])
            for lab, c in zip(self.labels, self.coefficients):
                acc += c * np.cos(lab[0] * th)
            return acc
        if th.ndim == 1:
            return float(sum(c * math.cos(float(np.dot(lab, th)))
                             for lab, c in zip(self.labels, self.coefficients)))
        acc = np.zeros(th.shape[0])
        for lab, c in zip(self.labels, self.coefficients):
            acc += c * np.cos(th @ np.asarray(lab, float))
        return acc

    def sup_bound(self):
        return sum(abs(c) for c in self.coefficients)

    def series(self, truncation=None):
        return potential_series(self, truncation)


def build_potential(labels: LabelSet, k, coeff_fn=None, bound_const=1.0):
    """Potential with default coefficients |n|^(-k) on the label set; a user
    coefficient rule must stay within bound_const * |n|^(-k)."""
    if not labels.entries:
        raise QpslError("label set is empty")
    if k <= 0:
        raise QpslError("k must be positive")
    labs, coefs = [], []
    for e in labels.entries:
        n = e.label
        norm = max(abs(int(c)) for c in n)
        if norm == 0:
            raise QpslError("zero label cannot carry a |n|^-k coefficient")
        c = float(norm) ** (-k) if coeff_fn is None else float(coeff_fn(n))
        cap = bound_const * float(norm) ** (-k)
        if abs(c) > cap * (1 + 1e-12):
            raise QpslError(f"coefficient {c:.3e} at {n} exceeds bound {cap:.3e}")
        labs.append(tuple(int(x) for x in n))
        coefs.append(c)
    return Potential(labels=labs, coefficients=coefs, k_exponent=float(k),
                     bound_const=float(bound_const), label_set=labels)


def potential_series(P: Potential, truncation=None):
    """Scalar Fourier series of the potential: V(n) = V(-n) = c_n / 2."""
    out = FourierSeries(P.d, kind="scalar")
    for lab, c in zip(P.labels, P.coefficients):
        if truncation is not None and max(abs(x) for x in lab) > truncation:
            continue
        pos = tuple(int(x) for x in lab)
        neg = tuple(-int(x) for x in lab)
        out[pos] = out[pos] + c / 2
        out[neg] = out[neg] + c / 2
    return out


def amo_potential(lam):
    """Almost Mathieu potential 2*lambda*cos(theta) as a d=1 Potential."""
    return Potential(labels=[(1,)], coefficients=[2.0 * lam], k_exponent=0.0,
                     bound_const=2.0 * lam)


# ---------------------------------------------------------------------------
# uniform-grid transforms (shared by the KAM machinery)


def grid_points(d, G, halved=False):
    """Uniform G^d grid on the torus (period 2*pi, or 4*pi when halved),
    returned as an (G^d, d) array in C order."""
    period = 4 * math.pi if halved else _TWO_PI
    axis = np.linspace(0.0, period, G, endpoint=False)
    if d == 1:
        return axis[:, None]
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def series_from_grid(values, d, halved=False, kind="scalar", max_degree=None,
                     prune_tol=None):
    """Inverse transform of values sampled on the :func:`grid_points` grid.

    ``values`` has shape (G^d,) or (G^d, 2, 2); modes are recovered up to
    G/2 per dimension (higher content aliases), then truncated to
    ``max_degree`` in frequency units with the dropped mass recorded.
    Modes of norm <= ``prune_tol`` (default 0) are skipped and count as
    neither kept nor dropped.  Keys are inserted in the C order of the FFT
    block (per axis 0, 1, ..., G/2 - 1, -G/2, ..., -1), and the dropped
    mass is summed left to right in that same order.
    """
    values = np.asarray(values)
    scalar = kind == "scalar"
    G = round(values.shape[0] ** (1.0 / d))
    if G ** d != values.shape[0]:
        raise QpslError("grid values do not form a cube")
    shape = (G,) * d
    spec = np.fft.fftn(values.reshape(shape + values.shape[1:]),
                       axes=tuple(range(d))) / (G ** d)
    spec = spec.reshape(values.shape)
    freqs = np.fft.fftfreq(G, 1.0 / G).astype(int)
    keys = freqs[np.indices(shape).reshape(d, -1).T]
    norms = _coeff_norms(spec, scalar)
    floor = prune_tol if prune_tol is not None else 0.0
    keep = ~(norms <= floor)  # not norms > floor: NaN modes stay
    dropped = 0.0
    if max_degree is not None:
        over = np.abs(keys).max(axis=1) * (0.5 if halved else 1.0) > max_degree
        drop = keep & over
        if drop.any():
            dropped = float(np.cumsum(norms[drop])[-1])  # sequential, not pairwise
        keep &= ~over
    out = FourierSeries(d, halved=halved, kind=kind)
    kept = spec[keep]
    out.coeffs = dict(zip(map(tuple, keys[keep].tolist()),
                          kept.tolist() if scalar else kept))
    out.dropped_mass = dropped
    return out


def shift_modes(F: FourierSeries, delta):
    """Multiply by the character of -delta: new coefficient at n is the old
    one at n - delta (keys move by +delta)."""
    delta = (delta,) if isinstance(delta, int) else tuple(delta)
    out = FourierSeries(F.d, halved=F.halved, kind=F.kind)
    for n, v in F.coeffs.items():
        out.coeffs[tuple(a + b for a, b in zip(n, delta))] = v
    return out
