"""Finite Fourier series on the torus and the explicit sparse potential.

A series is a finite map from frequencies n in Z^d to scalar or 2x2 complex
coefficients, evaluated as sum_n F(n) e^{i<n, theta>} with theta in radians.
It is stored as one dense centred block: ``block[n + K]`` (per axis) holds
F(n), the block has shape (2K+1,)*d followed by (2, 2) for the matrix kinds,
and K is the smallest half-width that holds the nonzero modes.  A mode is
present exactly when its coefficient is nonzero.  Series on the doubled torus
(period 4*pi) are stored with ``halved=True``: a key m then stands for the
half-integer frequency m/2.

The analytic norm |F|_h and the C^k norm are implemented as the coefficient
majorants sum ||F(n)|| e^{|n| h} and sum ||F(n)|| (1+|n|)^k.  The true sup
over a complex strip is not computable from finite data; the majorant
dominates it, and every smallness threshold in the package is interpreted
against the majorant.

A :class:`Potential` stays a sparse list of labels, whose modes can lie far
beyond any block size; :func:`potential_modes` and :func:`shift_sum` work on
it without a dense block.
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
    "potential_modes",
    "amo_potential",
]

_TWO_PI = 2.0 * math.pi


def _coeff_norms(values, scalar):
    """Coefficient norms of a stack of coefficients: hypot for scalars
    (np.abs rounds differently), the top singular value for 2x2 matrices."""
    values = np.asarray(values)
    if scalar:
        return np.hypot(values.real, values.imag)
    return np.linalg.svd(values, compute_uv=False).max(axis=-1)


def key_grid(K, d):
    """The keys of a centred block of half-width K, shape (2K+1,)*d + (d,)."""
    axis = np.arange(-K, K + 1)
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1)


def _trimmed(block, d):
    """The block cut to the smallest centred half-width holding its nonzero
    modes (half-width 0 when every mode is zero)."""
    nz = block != 0
    if nz.ndim > d:
        nz = nz.any(axis=(-2, -1))
    idx = np.argwhere(nz)
    if not idx.size:
        return np.zeros((1,) * d + block.shape[d:], complex)
    K = (block.shape[0] - 1) // 2
    k = int(np.abs(idx - K).max())
    return block[(slice(K - k, K + k + 1),) * d]


class FourierSeries:
    """Finite frequency -> coefficient map on T^d or 2T^d, stored as one
    centred block (see the module docstring).

    kind is one of 'scalar', 'matrix', 'su11', 'sl2r'; the last three are
    matrix-valued.  ``coeffs`` lists the nonzero modes.
    """

    __slots__ = ("d", "block", "halved", "kind", "dropped_mass")

    def __init__(self, d, coeffs=None, halved=False, kind="scalar"):
        self.d = int(d)
        self.halved = bool(halved)
        self.kind = kind
        self.dropped_mass = 0.0
        self.block = np.zeros((1,) * self.d + self._tail, complex)
        if coeffs:
            self.block = FourierSeries.from_modes(d, list(coeffs), list(coeffs.values()),
                                                  halved, kind).block

    @staticmethod
    def from_block(d, block, halved=False, kind="scalar"):
        """Series with the given centred coefficient block (not copied)."""
        out = FourierSeries(d, halved=halved, kind=kind)
        out.block = _trimmed(block, out.d)
        return out

    @staticmethod
    def from_modes(d, keys, vals, halved=False, kind="scalar"):
        """Series with the modes keys[i] -> vals[i] (scalars, or 2x2 for the
        matrix kinds); repeated keys add up in order."""
        out = FourierSeries(d, halved=halved, kind=kind)
        keys = np.array(keys, dtype=np.int64).reshape(len(keys), -1 if len(keys) else d)
        vals = np.array(vals, dtype=complex)
        if keys.shape[1] != out.d:
            raise DomainMismatch(f"keys have length {keys.shape[1]}, series has d={out.d}")
        if vals.shape[1:] != out._tail:
            raise QpslError(f"coefficients must have shape {out._tail}, got {vals.shape[1:]}")
        K = int(np.abs(keys).max(initial=0))
        block = np.zeros((2 * K + 1,) * out.d + out._tail, complex)
        np.add.at(block, tuple((keys + K).T), vals)
        out.block = _trimmed(block, out.d)
        return out

    def _like(self, block, kind=None):
        return FourierSeries.from_block(self.d, block, self.halved, kind or self.kind)

    # -- block plumbing ---------------------------------------------------
    @property
    def _tail(self):
        return () if self.kind == "scalar" else (2, 2)

    @property
    def K(self):
        """Half-width of the coefficient block."""
        return (self.block.shape[0] - 1) // 2

    def padded(self, K):
        """A new copy of the block at half-width K >= self.K."""
        pad = K - self.K
        return np.pad(self.block, [(pad, pad)] * self.d + [(0, 0)] * len(self._tail))

    def support(self):
        """Boolean mask of the nonzero modes over the key axes of the block."""
        nz = self.block != 0
        return nz.any(axis=(-2, -1)) if self._tail else nz

    def restrict(self, mask):
        """The series with only the modes where ``mask`` (over the key axes
        of the block) is true."""
        mask = np.reshape(mask, mask.shape + (1,) * len(self._tail))
        return self._like(np.where(mask, self.block, 0))

    def _freq_norms(self):
        """|n| in frequency units over the block."""
        return np.abs(key_grid(self.K, self.d)).max(axis=-1) * (0.5 if self.halved else 1.0)

    def _norms(self):
        return _coeff_norms(self.block, self.kind == "scalar")

    def _key(self, n):
        if isinstance(n, int):
            n = (n,)
        n = tuple(int(c) for c in n)
        if len(n) != self.d:
            raise DomainMismatch(f"key {n} has length {len(n)}, series has d={self.d}")
        return n

    def __setitem__(self, n, v):
        n = self._key(n)
        arr = np.asarray(v, dtype=complex)
        if arr.shape != self._tail:
            raise QpslError(f"matrix coefficient must be 2x2, got {arr.shape}")
        K = max([self.K] + [abs(c) for c in n])
        block = self.padded(K)
        block[tuple(c + K for c in n)] = arr
        self.block = _trimmed(block, self.d)

    def __getitem__(self, n):
        n = self._key(n)
        if max(abs(c) for c in n) > self.K:
            return np.zeros(self._tail, complex)[()]
        return self.block[tuple(c + self.K for c in n)].copy()

    def modes(self):
        """(keys (m, d), coefficients) of the nonzero modes, keys sorted."""
        mask = self.support()
        return np.argwhere(mask) - self.K, self.block[mask]

    @property
    def coeffs(self):
        """The nonzero modes as a {key: coefficient} dict (a fresh copy)."""
        keys, vals = self.modes()
        return dict(zip(map(tuple, keys.tolist()),
                        vals.tolist() if self.kind == "scalar" else vals))

    def copy(self):
        out = self._like(self.block.copy())
        out.dropped_mass = self.dropped_mass
        return out

    def __len__(self):
        return int(np.count_nonzero(self.support()))

    def freq_norm(self, n):
        return max(abs(c) for c in n) * (0.5 if self.halved else 1.0)

    @property
    def degree(self):
        return self.K * (0.5 if self.halved else 1.0)

    def mean(self):
        return self[(0,) * self.d]

    def prune(self, tol=0.0):
        """Drop, in place, the modes of norm <= tol (NaN modes stay)."""
        self.block = self.restrict(~(self._norms() <= tol)).block
        return self

    # -- algebra ----------------------------------------------------------
    def __add__(self, other):
        if self.d != other.d:
            raise DomainMismatch("dimension mismatch")
        a, b = _common_denominator(self, other)
        K = max(a.K, b.K)
        return a._like(a.padded(K) + b.padded(K),
                       kind=a.kind if a.kind == b.kind else "matrix")

    def scale(self, c):
        return self._like(c * self.block)

    def shift(self, alpha):
        """Translate theta -> theta + 2*pi*alpha (alpha in cycles), in place of
        evaluation: each coefficient picks up e^{2*pi*i <freq, alpha>}."""
        alpha = np.atleast_1d(np.asarray(alpha, float))
        if alpha.size != self.d:
            raise DomainMismatch("alpha dimension mismatch")
        scale = 0.5 if self.halved else 1.0
        ph = np.exp(2j * np.pi * (key_grid(self.K, self.d) @ (alpha * scale)))
        return self._like(ph.reshape(ph.shape + (1,) * len(self._tail)) * self.block)

    def map_values(self, f, kind=None):
        """Apply a coefficientwise linear map, given in array form: ``f``
        takes the stacked coefficients (shape (..., 2, 2) for matrix kinds)
        and returns the new stack (e.g. a constant conjugation)."""
        return self._like(f(self.block), kind)

    # -- evaluation -------------------------------------------------------
    def eval(self, theta):
        """Value at a point theta (radians, length d)."""
        return self.sample(np.atleast_1d(np.asarray(theta, float))[None, :])[0]

    def sample(self, thetas):
        """Values at arbitrary points, thetas shape (m,) for d=1 or (m, d);
        on the :func:`grid_points` grid use :func:`grid_values` instead."""
        th = np.asarray(thetas, float)
        if self.d == 1 and th.ndim == 1:
            th = th[:, None]
        if th.ndim != 2 or th.shape[1] != self.d:
            raise DomainMismatch(f"thetas must be (m, {self.d})")
        keys, vals = self.modes()
        freqs = keys * (0.5 if self.halved else 1.0)
        vals = vals.reshape(len(keys), 4 if self._tail else 1)
        return (np.exp(1j * (th @ freqs.T)) @ vals).reshape((th.shape[0],) + self._tail)

    # -- truncation -------------------------------------------------------
    def truncate(self, K):
        """T_K: keep frequencies with |n| <= K."""
        if K < 0:
            raise QpslError("K must be >= 0")
        return self.restrict(self._freq_norms() <= K)

    def project_tail(self, K):
        """R_K: keep frequencies with |n| > K; T_K F + R_K F = F exactly."""
        if K < 0:
            raise QpslError("K must be >= 0")
        return self.restrict(self._freq_norms() > K)

    # -- norms ------------------------------------------------------------
    def coeff_mass(self):
        return float(np.sum(self._norms()))

    def analytic_norm(self, h):
        """Majorant of sup over the strip of width h: sum ||F(n)|| e^{|n| h}."""
        if h < 0:
            raise QpslError("h must be >= 0")
        return float(np.sum(self._norms() * np.exp(self._freq_norms() * h)))

    def ck_norm_estimate(self, k):
        """Majorant of the C^k norm: sum ||F(n)|| (1+|n|)^k (an upper bound
        for the sup of derivatives up to order k, not the exact sup)."""
        if k < 0 or int(k) != k:
            raise QpslError("k must be a nonnegative integer")
        return float(np.sum(self._norms() * (1.0 + self._freq_norms()) ** k))

    # -- structure --------------------------------------------------------
    def real_symmetry_residual(self):
        """For scalar series: max |F(-n) - conj(F(n))| (0 means real-valued)."""
        if self.kind != "scalar":
            raise QpslError("real symmetry applies to scalar series")
        return float(np.max(np.abs(np.flip(self.block) - np.conj(self.block))))

    def lift_halved(self):
        """Re-express an integer-frequency series on the doubled torus."""
        if self.halved:
            return self.copy()
        block = np.zeros((4 * self.K + 1,) * self.d + self._tail, complex)
        block[(slice(None, None, 2),) * self.d] = self.block
        return FourierSeries.from_block(self.d, block, halved=True, kind=self.kind)

    # -- serialization ----------------------------------------------------
    def to_json(self):
        return series_json(self.d, *self.modes(), halved=self.halved, kind=self.kind)

    @staticmethod
    def from_json(text):
        data = json.loads(text)
        rows, kind, d = data["coeffs"], data["kind"], data["d"]
        scalar = kind == "scalar"
        keys = [row[0] for row in rows]
        flat = np.array([row[1:] if scalar else row[1] for row in rows], float)
        vals = flat.reshape(len(rows), 2 if scalar else 8).view(complex)
        vals = vals.reshape(len(rows)) if scalar else vals.reshape(len(rows), 2, 2)
        return FourierSeries.from_modes(d, keys, vals, halved=data["halved"], kind=kind)

    @staticmethod
    def constant(d, value, halved=False):
        kind = "scalar" if np.isscalar(value) else "matrix"
        return FourierSeries(d, {(0,) * d: value}, halved=halved, kind=kind)


def series_json(d, keys, values, halved=False, kind="scalar"):
    """JSON text of a series given by its nonzero modes, keys sorted: one row
    [key, re, im] per scalar mode, [key, [re, im] * 4 entries] per matrix."""
    vals = np.asarray(values, complex)
    flat = np.stack([vals.real, vals.imag], axis=-1).reshape(len(vals), -1).tolist()
    rows = [[n] + v if kind == "scalar" else [n, v]
            for n, v in zip(np.asarray(keys).tolist(), flat)]
    return json.dumps({"d": d, "halved": halved, "kind": kind, "coeffs": rows})


def _common_denominator(a, b):
    if a.halved == b.halved:
        return a, b
    return a.lift_halved(), b.lift_halved()


def _shift_add(copies, K_out, d, tail):
    """Sum of centred blocks, each moved by its key (mode n to n + key), on a
    centred window of half-width K_out.  ``copies`` yields (key, block)
    pairs; the blocks have half-width K and coefficient shape ``tail``.
    Returns the window and the summed mass of the modes each copy puts
    outside it."""
    out = np.zeros((2 * K_out + 1,) * d + tail, complex)
    outside = 0.0
    for k, piece in copies:
        K = (piece.shape[0] - 1) // 2
        moved = [np.arange(-K, K + 1) + c for c in k]
        inside = [np.abs(m) <= K_out for m in moved]
        out[np.ix_(*[m[i] + K_out for m, i in zip(moved, inside)])] += piece[np.ix_(*inside)]
        if not all(i.all() for i in inside):
            norms = _coeff_norms(piece, not tail)
            norms[np.ix_(*inside)] = 0.0
            outside += float(np.sum(norms))
    return out, outside


def multiply(F: FourierSeries, G: FourierSeries, max_degree=None, strict=False):
    """Convolution product; matrix kinds multiply per term with the matrix
    product.  Frequencies beyond ``max_degree`` are dropped with their mass
    recorded on ``result.dropped_mass`` (or raise DegreeOverflow if strict).

    The product is a direct convolution, not an FFT product, so a mode that
    no pair of modes reaches stays exactly zero and the degree is not
    inflated by round-off.  It is a shift-and-add over the nonzero modes of
    the sparser factor: the reducing series hold a few modes spread over a
    wide block, where a dense convolution of the blocks costs far more.
    """
    if F.d != G.d:
        raise DomainMismatch("dimension mismatch")
    A, B = _common_denominator(F, G)
    scalar = A.kind == "scalar" and B.kind == "scalar"
    if A.kind == "scalar" and B.kind != "scalar":
        A, B = B, A  # matrix * scalar commutes coefficientwise
    a, b = A.block, B.block
    if B.kind == "scalar" and not scalar:
        b = b[..., None, None]
    mul = np.multiply if B.kind == "scalar" else np.matmul
    if len(B) <= len(A):
        copies = ((k, mul(a, v)) for k, v in zip(*B.modes()))
    else:
        copies = ((k, mul(v, b)) for k, v in zip(*A.modes()))
    block, _ = _shift_add(copies, A.K + B.K, A.d, () if scalar else (2, 2))
    out = FourierSeries.from_block(A.d, block, halved=A.halved,
                                   kind="scalar" if scalar else "matrix")
    if max_degree is not None:
        over = out._freq_norms() > max_degree
        mass = _coeff_norms(out.block[over], scalar)
        if strict and np.any(mass > 0):
            i = np.argmax(mass > 0)
            raise DegreeOverflow(f"mode {tuple((np.argwhere(over)[i] - out.K).tolist())} "
                                 f"exceeds max degree {max_degree} (mass {mass[i]:.3e})")
        out = out.restrict(~over)
        out.dropped_mass = float(np.sum(mass))
    return out


def shift_sum(F: FourierSeries, keys, values, max_degree=None):
    """Product of F with the sparse scalar series {keys[i]: values[i]}, as
    sum_i values[i] F(. - keys[i]): mode n of F moves to n + keys[i].

    With ``max_degree`` (in frequency units) the product is kept to
    |n| <= max_degree, and no block wider than that is made however far the
    keys lie.  Each moved copy then adds the mass it puts past max_degree to
    ``dropped_mass``; the copies' tails are not summed first, so this bounds
    the tail mass of the product from above (with equality when no two
    copies overlap past max_degree).
    """
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, F.d)
    K_out = F.K + int(np.abs(keys).max(initial=0))
    if max_degree is not None:
        K_out = min(K_out, math.floor(max_degree / (0.5 if F.halved else 1.0)))
    copies = ((k, v * F.block) for k, v in zip(keys.tolist(), values))
    block, dropped = _shift_add(copies, K_out, F.d, F._tail)
    out = F._like(block)
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


def potential_modes(P: Potential, truncation=None):
    """The nonzero modes of the potential's series, V(n) = V(-n) = c_n / 2
    summed over the labels, as (keys (m, d) sorted, values (m,)).  Sparse:
    labels of any size cost no block."""
    labs = np.array(P.labels, dtype=np.int64).reshape(-1, P.d)
    half = np.asarray(P.coefficients, float) / 2
    if truncation is not None:
        keep = np.abs(labs).max(axis=1) <= truncation
        labs, half = labs[keep], half[keep]
    keys, inv = np.unique(np.stack([labs, -labs], axis=1).reshape(-1, P.d), axis=0,
                          return_inverse=True)
    vals = np.zeros(len(keys), complex)
    np.add.at(vals, inv.ravel(), np.repeat(half, 2))
    nz = vals != 0
    return keys[nz], vals[nz]


def potential_series(P: Potential, truncation=None):
    """Scalar Fourier series of the potential: V(n) = V(-n) = c_n / 2, as a
    dense block (use :func:`potential_modes` for labels of any size)."""
    return FourierSeries.from_modes(P.d, *potential_modes(P, truncation))


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
    neither kept nor dropped.  The dropped mass is summed left to right in
    the C order of the FFT block (per axis 0, 1, ..., G/2 - 1, -G/2, ..., -1).
    """
    values = np.asarray(values)
    G = round(values.shape[0] ** (1.0 / d))
    if G ** d != values.shape[0]:
        raise QpslError("grid values do not form a cube")
    tail = values.shape[1:]
    spec = np.fft.fftn(values.reshape((G,) * d + tail), axes=tuple(range(d))) / (G ** d)
    freqs = np.fft.fftfreq(G, 1.0 / G).astype(int)
    norms = _coeff_norms(spec, kind == "scalar")
    keep = ~(norms <= (prune_tol or 0.0))  # not norms > tol: NaN modes stay
    dropped = 0.0
    if max_degree is not None:
        keys = np.stack(np.meshgrid(*([freqs] * d), indexing="ij"), axis=-1)
        drop = np.abs(keys).max(axis=-1) * (0.5 if halved else 1.0) > max_degree
        if (keep & drop).any():
            dropped = float(np.cumsum(norms[keep & drop])[-1])  # sequential, not pairwise
        keep &= ~drop
    block = np.zeros((2 * (G // 2) + 1,) * d + tail, complex)
    block[np.ix_(*[freqs + G // 2] * d)] = np.where(keep.reshape(keep.shape + (1,) * len(tail)),
                                                    spec, 0)
    out = FourierSeries.from_block(d, block, halved=halved, kind=kind)
    out.dropped_mass = dropped
    return out


def grid_values(F: FourierSeries, G, shift=None):
    """F on the ``grid_points(F.d, G, F.halved)`` grid, or on that grid moved
    by 2*pi*shift (shift in cycles, as for :meth:`FourierSeries.shift`), by
    one inverse FFT: the exact inverse of :func:`series_from_grid`.  Modes
    with |n| > G/2 fold onto n mod G by summation."""
    if shift is not None:
        F = F.shift(shift)
    spec = np.zeros((G,) * F.d + F.block.shape[F.d:], complex)
    np.add.at(spec, np.ix_(*[np.arange(-F.K, F.K + 1) % G] * F.d), F.block)
    vals = np.fft.ifftn(spec, axes=tuple(range(F.d))) * (G ** F.d)
    return vals.reshape((G ** F.d,) + F.block.shape[F.d:])
