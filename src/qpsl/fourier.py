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

The grid transforms run by FFT; :func:`lattice_values` reads series on the
lattice of their content and returns its g, the ``stride`` of the inverse.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatch, QpslError
from .label_set import LabelSet

__all__ = [
    "FourierSeries",
    "Potential",
    "multiply",
    "build_potential",
    "potential_modes",
    "amo_potential",
]

_TWO_PI = 2.0 * math.pi


def _coeff_norms(values, scalar):
    """Coefficient norms of a stack of coefficients: hypot for scalars
    (np.abs rounds differently), the top singular value for 2x2 matrices,
    by SVD of the nonzero (or NaN) ones only: the zero ones read 0.0 in place."""
    values = np.asarray(values)
    if scalar:
        return np.hypot(values.real, values.imag)
    norms = np.zeros(values.shape[:-2])
    live = (values != 0).any(axis=(-2, -1))
    if live.any():
        norms[live] = np.linalg.svd(values[live], compute_uv=False).max(axis=-1)
    return norms


@functools.lru_cache(maxsize=32)
def key_grid(K, d):
    """The keys of a centred block of half-width K, shape (2K+1,)*d + (d,).
    Memoized: the array is shared, and read-only."""
    axis = np.arange(-K, K + 1)
    keys = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1)
    keys.setflags(write=False)
    return keys


def shift_phases(keys, alpha):
    """e^{2 pi i <n, alpha>} over keys n (..., d): the factors that move a
    series by 2 pi alpha (alpha in cycles)."""
    return np.exp(2j * np.pi * (keys @ alpha))


def _trimmed(block, d):
    """The block cut to the smallest centred half-width holding its nonzero
    modes (half-width 0 when every mode is zero)."""
    nz = block != 0
    if nz.ndim > d:
        nz = nz.any(axis=(-2, -1))
    if not nz.any():
        return np.zeros((1,) * d + block.shape[d:], complex)
    K, k = (block.shape[0] - 1) // 2, 0
    for a in range(d):  # the support's extent along each axis
        line = nz.any(axis=tuple(b for b in range(d) if b != a)) if d > 1 else nz
        k = max(k, K - int(line.argmax()), K - int(line[::-1].argmax()))
    return block[(slice(K - k, K + k + 1),) * d]


class FourierSeries:
    """Finite frequency -> coefficient map on T^d or 2T^d, stored as one
    centred block (see the module docstring).

    kind is one of 'scalar', 'matrix', 'sl2r'; the last two are
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
        slots = np.ravel_multi_index(tuple((keys + K).T), block.shape[:out.d])
        flat, ordered = block.reshape((-1,) + out._tail), np.sort(slots)
        if (ordered[1:] != ordered[:-1]).all():  # unique keys: 0 + v, as np.add.at adds
            flat[slots] += vals
        else:
            np.add.at(flat, slots, vals)
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
        out = np.zeros((2 * K + 1,) * self.d + self._tail, complex)
        out[(slice(K - self.K, K + self.K + 1),) * self.d] = self.block
        return out

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

    @property
    def degree(self):
        return self.K * (0.5 if self.halved else 1.0)

    @property
    def stride(self):
        """The gcd of the keys of the nonzero modes over every axis: the
        series lives on the lattice of its multiples (0 when it has no mode
        off key 0)."""
        return int(np.gcd.reduce(self.modes()[0], axis=None))

    def mean(self):
        return self[(0,) * self.d]

    def prune(self, tol=0.0):
        """Drop, in place, the modes of norm <= tol (NaN modes stay)."""
        self.block = self.restrict(~(self._norms() <= tol)).block
        return self

    # -- algebra ----------------------------------------------------------
    def shift(self, alpha):
        """Translate theta -> theta + 2*pi*alpha (alpha in cycles), in place of
        evaluation: each coefficient picks up e^{2*pi*i <freq, alpha>}."""
        alpha = np.atleast_1d(np.asarray(alpha, float))
        if alpha.size != self.d:
            raise DomainMismatch("alpha dimension mismatch")
        ph = shift_phases(key_grid(self.K, self.d), alpha * (0.5 if self.halved else 1.0))
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

    # -- serialization ----------------------------------------------------
    def as_dict(self):
        return series_dict(self.d, *self.modes(), halved=self.halved, kind=self.kind)

    @staticmethod
    def from_dict(data):
        rows, kind, d = data["coeffs"], data["kind"], data["d"]
        scalar = kind == "scalar"
        keys = [row[0] for row in rows]
        flat = np.array([row[1:] if scalar else row[1] for row in rows], float)
        vals = flat.reshape(len(rows), 2 if scalar else 8).view(complex)
        vals = vals.reshape(len(rows)) if scalar else vals.reshape(len(rows), 2, 2)
        return FourierSeries.from_modes(d, keys, vals, halved=data["halved"], kind=kind)

    @staticmethod
    def constant(d, value, halved=False):
        out = FourierSeries(d, halved=halved, kind="scalar" if np.isscalar(value) else "matrix")
        value = np.asarray(value, complex)
        if value.shape != out._tail:
            raise QpslError(f"coefficients must have shape {out._tail}, got {value.shape}")
        out.block[(0,) * out.d] += value  # 0 + value, as from_modes adds it
        return out


def series_dict(d, keys, values, halved=False, kind="scalar"):
    """JSON-ready dict of a series given by its nonzero modes, keys sorted: one
    row [key, re, im] per scalar mode, [key, [re, im] * 4 entries] per matrix."""
    vals = np.asarray(values, complex)
    flat = np.stack([vals.real, vals.imag], axis=-1).reshape(len(vals), -1).tolist()
    rows = [[n] + v if kind == "scalar" else [n, v]
            for n, v in zip(np.asarray(keys).tolist(), flat)]
    return {"d": d, "halved": halved, "kind": kind, "coeffs": rows}


def _place(keys, shifts, products, K, tail):
    """The one placement loop of :func:`multiply` and :func:`shift_sum`.

    Term i is the key shifts[i] and ``products``' i-th stack, the products of
    one coefficient with the other factor's coefficients at ``keys`` (its
    nonzero keys, sorted); they are added at keys + shifts[i] into a centred
    block of half-width K, term by term.  Returns the block and, per term,
    the coefficient mass of the products whose keys fall outside it."""
    block = np.zeros((2 * K + 1,) * keys.shape[1] + tail, complex)
    crosses = np.abs(shifts).max(axis=1, initial=0) + np.abs(keys).max(initial=0) > K
    outside, keys = [0.0] * len(shifts), keys + K
    for i, (k, p) in enumerate(zip(shifts, products)):
        moved = keys + k
        if crosses[i]:  # some keys may fall outside: place the others
            inside = ((moved >= 0) & (moved <= 2 * K)).all(axis=1)
            outside[i] = float(np.sum(_coeff_norms(p[~inside], not tail)))
            moved, p = moved[inside], p[inside]
        block[tuple(moved.T)] += p
    return block, outside


def multiply(F: FourierSeries, G: FourierSeries, max_degree=None):
    """Convolution product of two scalar or two matrix series; matrix kinds
    multiply per term with the matrix product.  Frequencies beyond
    ``max_degree`` are dropped with their mass recorded on
    ``result.dropped_mass``.

    The product is a direct convolution, not an FFT product, so a mode that
    no pair of modes reaches stays exactly zero and the degree is not
    inflated by round-off.  It runs over pairs of nonzero modes, as the
    reducing series hold a few modes spread over a wide block: one term per
    mode of the sparser factor, in key order, is placed by :func:`_place`
    into the full block of the product, so nothing falls outside it; the
    cut to ``max_degree`` is exact, on the summed product.  An integer-torus
    factor meets a doubled-torus one with its keys doubled.  Each slot sums
    the same nonzero terms in the same order as a product over every slot
    (whose zero slots add signed zeros), so for finite coefficients the bits
    agree; only a zero slot times an inf coefficient, NaN there, is no
    longer formed.
    """
    if F.d != G.d:
        raise DomainMismatch("dimension mismatch")
    scalar = F.kind == "scalar"
    if scalar != (G.kind == "scalar"):
        raise QpslError(f"multiply takes two scalar or two matrix series, not "
                        f"{F.kind} and {G.kind}")
    sa, sb = 1 + (G.halved > F.halved), 1 + (F.halved > G.halved)
    (ka, va), (kb, vb) = F.modes(), G.modes()
    mul = np.multiply if scalar else np.matmul
    if len(kb) <= len(ka):
        keys, shifts, products = sa * ka, sb * kb, (mul(va, v) for v in vb)
    else:
        keys, shifts, products = sb * kb, sa * ka, (mul(v, vb) for v in va)
    block, _ = _place(keys, shifts, products, sa * F.K + sb * G.K, F._tail)
    out = FourierSeries.from_block(F.d, block, halved=F.halved or G.halved,
                                   kind="scalar" if scalar else "matrix")
    if max_degree is None or out.degree <= max_degree:
        if out.block.base is not None:  # own the trimmed block, not a view of the product's
            out.block = out.block.copy()
    else:
        over = out._freq_norms() > max_degree
        mass = _coeff_norms(out.block[over], scalar)
        out = out.restrict(~over)
        out.dropped_mass = float(np.sum(mass))
    return out


def shift_sum(F: FourierSeries, keys, values, max_degree=None):
    """Product of F with the sparse scalar series {keys[i]: values[i]}, as
    sum_i values[i] F(. - keys[i]): mode n of F moves to n + keys[i], one
    :func:`_place` term per key.

    With ``max_degree`` (in frequency units) the product is kept to
    |n| <= max_degree, and no block wider than that is made however far the
    keys lie.  Each moved copy then adds the mass of its nonzero products
    past max_degree to ``dropped_mass``; the copies' tails are not summed
    first, so this bounds the tail mass of the product from above (with
    equality when no two copies overlap past max_degree).
    """
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, F.d)
    K = F.K + int(np.abs(keys).max(initial=0))
    if max_degree is not None:
        K = min(K, math.floor(max_degree / (0.5 if F.halved else 1.0)))
    fk, fv = F.modes()
    block, outside = _place(fk, keys, (v * fv for v in values), K, F._tail)
    out = F._like(block)
    out.dropped_mass = sum(outside, 0.0)
    return out


@dataclass
class Potential:
    """Real trigonometric potential V(theta) = sum_j c_j cos(<n_j, theta>)."""

    labels: list
    coefficients: list
    k_exponent: float
    label_set: LabelSet | None = None

    @property
    def d(self):
        return len(self.labels[0]) if self.labels else 1

    def sample(self, theta):
        """V at one point (theta length d, or a scalar for d=1) or a batch
        (m, d) / (m,) for d=1, each point as a row of one (m, d) batch.
        <n, theta> is the sum of the per-axis products n_i theta_i in axis
        order, one path for every d and no BLAS call (``pts @ n`` costs
        several times as much, and OpenBLAS may spread its gemv over
        threads)."""
        th = np.asarray(theta, float)
        pts = th.reshape(-1, self.d)
        acc = np.zeros(len(pts))
        for lab, c in zip(self.labels, self.coefficients):
            phase = pts[:, 0] * lab[0]
            for i in range(1, self.d):
                phase += pts[:, i] * lab[i]
            acc += c * np.cos(phase)
        return float(acc[0]) if th.ndim == (0 if self.d == 1 else 1) else acc

    def sup_bound(self):
        return sum(abs(c) for c in self.coefficients)


def build_potential(labels: LabelSet, k):
    """Potential with coefficients |n|^(-k) on the label set."""
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
        labs.append(tuple(int(x) for x in n))
        coefs.append(float(norm) ** (-k))
    return Potential(labels=labs, coefficients=coefs, k_exponent=float(k),
                     label_set=labels)


def potential_modes(P: Potential):
    """The nonzero modes of the potential's series, V(n) = V(-n) = c_n / 2
    summed over the labels, as (keys (m, d) sorted, values (m,)).  Sparse:
    labels of any size cost no block."""
    labs = np.array(P.labels, dtype=np.int64).reshape(-1, P.d)
    half = np.asarray(P.coefficients, float) / 2
    keys, inv = np.unique(np.stack([labs, -labs], axis=1).reshape(-1, P.d), axis=0,
                          return_inverse=True)
    vals = np.zeros(len(keys), complex)
    np.add.at(vals, inv.ravel(), np.repeat(half, 2))
    nz = vals != 0
    return keys[nz], vals[nz]


def amo_potential(lam):
    """Almost Mathieu potential 2*lambda*cos(theta) as a d=1 Potential."""
    return Potential(labels=[(1,)], coefficients=[2.0 * lam], k_exponent=0.0)


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


def grid_spectra(values, d, halved=False, max_degree=None, prune_tol=None, K=None,
                 stride=1):
    """Inverse transform of a stack of n value arrays, shape (n, G^d) + the
    coefficient shape, sampled on the :func:`grid_points` grid, by one FFT.

    Returns the coefficients as stacked centred blocks of half-width K
    (default G // 2, at least that) and the list of the n dropped masses.
    Modes are recovered up to G/2 per dimension (higher content aliases),
    then truncated to ``max_degree`` in frequency units with the dropped mass
    recorded.  Modes of norm <= ``prune_tol`` (default 0) are set to zero and
    count as neither kept nor dropped.  The dropped mass is summed left to
    right in the C order of the FFT block (per axis 0, 1, ..., G/2 - 1,
    -G/2, ..., -1).

    With ``stride`` g (values from :func:`lattice_values` with it), key m of
    the blocks stands for key g m, at frequency g m (g m / 2 when halved).
    """
    n, G = len(values), round(values.shape[1] ** (1.0 / d))
    if G ** d != values.shape[1]:
        raise QpslError("grid values do not form a cube")
    tail = values.shape[2:]
    K = G // 2 if K is None else K
    place, drop = _fft_layout(G, d, K, stride * (0.5 if halved else 1.0), max_degree)
    spec = _fft(np.fft.fft, np.fft.fftn, values.reshape((n,) + (G,) * d + tail),
                d).reshape(values.shape) / (G ** d)
    norms = _coeff_norms(spec, not tail)
    keep = ~(norms <= (prune_tol or 0.0))  # not norms > tol: NaN modes stay
    kept, dropped = keep, [0.0] * n
    if drop is not None:
        kept = keep & ~drop
        # sequential, not pairwise
        dropped = [float(np.cumsum(norm[k])[-1]) if k.any() else 0.0
                   for norm, k in zip(norms, keep & drop)]
    blocks = np.zeros((n, (2 * K + 1) ** d) + tail, complex)
    blocks[:, place] = np.where(kept.reshape(keep.shape + (1,) * len(tail)), spec, 0)
    return blocks.reshape((n,) + (2 * K + 1,) * d + tail), dropped


@functools.lru_cache(maxsize=16)
def _fft_layout(G, d, K, scale, max_degree):
    """For the keys of the G^d FFT block in its C order (per axis 0, 1, ...,
    G/2 - 1, -G/2, ..., -1): the flat index of each in a centred block of
    half-width K, and the mask of those beyond ``max_degree`` (frequencies
    ``scale`` times the keys), None when there are none.  Memoized: shared,
    read-only arrays."""
    freqs = np.fft.fftfreq(G, 1.0 / G).astype(int)
    keys = np.stack(np.meshgrid(*([freqs] * d), indexing="ij"), axis=-1).reshape(-1, d)
    place = np.ravel_multi_index(tuple((keys + K).T), (2 * K + 1,) * d)
    drop = np.zeros(G ** d, bool)
    if max_degree is not None:
        drop = np.abs(keys).max(axis=-1) * scale > max_degree
    place.setflags(write=False)
    drop.setflags(write=False)
    return place, drop if drop.any() else None


def series_from_grid(values, d, halved=False, kind="scalar", max_degree=None,
                     prune_tol=None, stride=1):
    """Inverse transform of values sampled on the :func:`grid_points` grid
    (or by :func:`lattice_values`, with its ``stride``): :func:`grid_spectra`
    as series on ordinary keys.

    ``values`` has shape (G^d,) or (G^d, 2, 2); a stack of n such arrays
    (a leading axis of length n) is transformed by one FFT into a list of n
    series, each with its dropped mass.
    """
    values = np.asarray(values)
    single = values.ndim == (1 if kind == "scalar" else 3)
    blocks, dropped = grid_spectra(values[None] if single else values, d, halved=halved,
                                   max_degree=max_degree, prune_tol=prune_tol, stride=stride)
    out = []
    for b, mass in zip(dilate(blocks, stride, d), dropped):
        out.append(FourierSeries.from_block(d, b, halved=halved, kind=kind))
        out[-1].dropped_mass = mass
    return out[0] if single else out


def stack_blocks(series, K=None):
    """The blocks of ``series`` (one d and kind) padded to one half-width K
    (default the widest) and stacked on a leading axis."""
    K = max(F.K for F in series) if K is None else K
    return np.stack([F.padded(K) for F in series])


def lattice(blocks, stride, d):
    """The slots of stacked centred blocks at the multiples of ``stride``, as
    stacked centred blocks of half-width K // stride (a view)."""
    K = (blocks.shape[1] - 1) // 2
    return blocks[(slice(None),) + (slice(K % stride, None, stride),) * d]


def dilate(blocks, stride, d):
    """Stacked centred lattice blocks (key m standing for key stride m) as
    ordinary blocks, zero off the lattice: the inverse of :func:`lattice`."""
    if stride == 1:
        return blocks
    K = (blocks.shape[1] - 1) // 2
    out = np.zeros((len(blocks),) + (2 * stride * K + 1,) * d + blocks.shape[1 + d:], complex)
    out[(slice(None),) + (slice(None, None, stride),) * d] = blocks
    return out


def lattice_values(series, G):
    """Values of ``series`` (one d and kind) by one :func:`grid_values` call
    on the lattice of their content: for g the largest divisor of G dividing
    every key of their nonzero modes (G if none lies off key 0), one period
    2 pi / g, the first G / g points per axis.  Returns (values, g)."""
    d, g = series[0].d, math.gcd(G, *(S.stride for S in series))
    return grid_values(lattice(stack_blocks(series), g, d), G // g, d), g


def grid_values(blocks, G, d):
    """Values on the ``grid_points(d, G, halved)`` grid (halved for blocks of
    series on the doubled torus) of stacked centred coefficient blocks, shape
    (n, (2K+1,)*d) + the coefficient shape, by one inverse FFT: the exact
    inverse of :func:`grid_spectra`.  Returns shape
    (n, G^d) + the coefficient shape.  Mode n folds onto n mod G; the modes
    that share a residue add up in the C order of their keys.
    """
    n, K = len(blocks), (blocks.shape[1] - 1) // 2
    tail = blocks.shape[1 + d:]
    # chunks of G consecutive keys from the multiple of G at or below -K: the
    # p-th key of every chunk folds onto residue p, and the chunks add up in
    # the order of their keys
    start = -(-K // G) * G - K  # the residue of key -K
    spans = []
    for c in range((start + 2 * K + 1 + G - 1) // G):
        a, b = max(c * G - start, 0), min((c + 1) * G - start, 2 * K + 1)
        spans.append((slice(a, b), slice(a + start - c * G, b + start - c * G)))
    spec = np.zeros((n,) + (G,) * d + tail, complex)
    for chunk in itertools.product(spans, repeat=d):
        src, dst = zip(*chunk)
        spec[(slice(None),) + dst] += blocks[(slice(None),) + src]
    vals = _fft(np.fft.ifft, np.fft.ifftn, spec, d) * (G ** d)
    return vals.reshape((n, G ** d) + tail)


def _fft(one, many, x, d):
    """``many`` (fftn or ifftn) over the key axes 1..d of x; for d = 1 the
    one-axis ``one`` (fft or ifft), the same pocketfft transform at half the
    wrapper cost."""
    return one(x, axis=1) if d == 1 else many(x, axes=tuple(range(1, d + 1)))
