"""Compactly supported orthonormal wavelet sieve on an interval.

The mother wavelet is a Daubechies wavelet of a given genus N (2N filter
taps, support length S = 2N-1), evaluated on a dyadic table by cascade
refinement of the two-scale equation.  The first-derivative table comes
from differentiating the refinement relation (an eigenvector problem at the
integers, then the same dyadic refinement with factor 2).

Basis enumeration over the interval [-s_X, s_X]: level-major, translate-
minor.  Level j holds S*2^j translates r = 0..S*2^j-1 and the flat index is

    k = (2^j - 1)*S + r.

Translate r at level j is the mother wavelet mapped affinely onto the cell
[-s_X + r*c_j, -s_X + (r+1)*c_j] with c_j = 2*s_X/(S*2^j), normalized to
unit L2 norm.  Under the global affine map of [-s_X, s_X] onto [0, S] this
family is exactly the subfamily {2^{j/2} psi(2^j u - S r)} of the standard
orthonormal wavelet system (translate steps of S in the wavelet's own
argument), hence orthonormal across all levels and translates, and every
member is supported inside the interval.

A point meets one translate per level.  `WaveletBasis.locate` finds those
cells for every point and level in one pass (`SieveCells`), and the design
and its two derivatives are read from the cells by one cubic Hermite
interpolant of the tables: points located once give all three.  The grid
scan reads the in-sieve entries of the same cells, without the zeros of the
dense design.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np


def daubechies_filter(genus: int) -> np.ndarray:
    """Orthonormal Daubechies low-pass filter with `genus` vanishing moments.

    Returns the 2*genus tap filter h with sum(h) = sqrt(2), computed by
    spectral factorization (minimal-phase root selection).
    """
    N = int(genus)
    if N < 1:
        raise ValueError("genus must be >= 1")
    if N == 1:
        return np.array([1.0, 1.0]) / np.sqrt(2.0)
    # P(y) = sum_k C(N-1+k, k) y^k, the Bezout factor of the halfband filter.
    from math import comb

    P = np.array([comb(N - 1 + k, k) for k in range(N)], dtype=float)
    yroots = np.roots(P[::-1])
    zroots = []
    for y in yroots:
        # y = (2 - z - 1/z)/4  =>  z^2 - (2 - 4y) z + 1 = 0
        b = 2.0 - 4.0 * y
        disc = np.sqrt(b * b - 4.0 + 0j)
        z1 = (b + disc) / 2.0
        z2 = (b - disc) / 2.0
        zroots.append(z1 if abs(z1) < 1.0 else z2)
    poly = np.array([1.0 + 0j])
    for z in zroots:
        poly = np.convolve(poly, np.array([1.0, -z]))
    for _ in range(N):
        poly = np.convolve(poly, np.array([0.5, 0.5]))
    h = np.real(poly)
    h *= np.sqrt(2.0) / h.sum()
    return h


def _integer_values(h, deriv_order):
    """Values of the scaling function's derivative of given order at integers.

    Solves the eigenproblem T v = 2^{-deriv_order} v with T[i, j] =
    sqrt(2) h[2i - j], then applies the moment normalization
    sum_i i^q phi^{(q)}(i) = (-1)^q q!.
    """
    n = h.size  # support [0, n-1]
    T = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            k = 2 * i - j
            if 0 <= k < n:
                T[i, j] = np.sqrt(2.0) * h[k]
    w, V = np.linalg.eig(T)
    target = 0.5**deriv_order
    idx = int(np.argmin(np.abs(w - target)))
    v = np.real(V[:, idx])
    i = np.arange(n, dtype=float)
    q = deriv_order
    if q == 0:
        v = v / v.sum()
    else:
        from math import factorial

        mom = np.sum((i**q) * v)
        v = v * ((-1.0) ** q * factorial(q) / mom)
    # endpoints of the support vanish for genus >= 2
    v[0] = 0.0
    v[-1] = 0.0
    return v


def _refine(values, h, deriv_order, levels):
    """Dyadic refinement phi^{(q)}(k/2^{j+1}) = 2^q sqrt(2) sum_m h_m phi^{(q)}(k/2^j - m)."""
    n = h.size
    S = n - 1
    v = values.copy()
    factor = (2.0**deriv_order) * np.sqrt(2.0)
    for j in range(levels):
        step = 2**j
        out = np.zeros(S * 2 ** (j + 1) + 1)
        for m in range(n):
            out[m * step : m * step + v.size] += factor * h[m] * v
        v = out
    return v


class WaveletTables(NamedTuple):
    """Dyadic tables of the mother wavelet psi and its derivative on [0, S]."""

    genus: int
    j_table: int
    psi: np.ndarray
    dpsi: np.ndarray
    dpsi_h: np.ndarray  # dpsi times the table step 2^-j_table

    @property
    def support_len(self):
        return 2 * self.genus - 1


def wavelet_tables(genus=7) -> WaveletTables:
    """The tables of `genus` on the dyadic grid of step 2^-12 (their j_table),
    built once per genus.

    The genus is an integer >= 2.  Genus 1 (Haar) is rejected:
    `_integer_values` zeroes the two ends of the support, which are Haar's
    only integers, so its tables would be all zeros.
    """
    if not (genus >= 2 and float(genus).is_integer()):  # NaN fails the comparison
        raise ValueError(f"genus must be an integer >= 2, got {genus!r}")
    return _wavelet_tables(int(genus), 12)


@lru_cache(maxsize=None)
def _wavelet_tables(N, J):
    h = daubechies_filter(N)
    n = h.size
    S = n - 1
    g = np.array([(-1.0) ** m * h[n - 1 - m] for m in range(n)])

    def build(order):
        phi = _refine(_integer_values(h, order), h, order, J)
        psi = np.zeros(S * 2**J + 1)
        fac = (2.0**order) * np.sqrt(2.0)
        for m in range(n):
            lo = m * 2**J
            # psi^{(q)}(i/2^J) = 2^q sqrt2 sum_m g_m phi^{(q)}(2i/2^J - m):
            # source index 2i - lo into the level-J phi table.  i0 is the
            # first i with 2i - lo >= 0 (lo is odd for odd m when J = 0); the
            # strided slice then ends at the last i with 2i - lo < phi.size.
            i0 = (lo + 1) // 2
            src = phi[2 * i0 - lo :: 2]
            psi[i0 : i0 + src.size] += fac * g[m] * src
        return psi

    dpsi = build(1)
    return WaveletTables(N, J, build(0), dpsi, dpsi * (1.0 / 2.0**J))


def level_of_index(k, support_len):
    """Decompose flat index k = (2^j - 1)*S + r into (j, r)."""
    if k < 0 or support_len < 1:
        raise ValueError("index >= 0 and support length >= 1 required")
    j = 0
    while (2 ** (j + 1) - 1) * support_len <= k:
        j += 1
    r = k - (2**j - 1) * support_len
    return j, r


class _Workspace:
    """Where the arrays of a `WaveletBasis._locate` call, and of the values
    read from its cells, go, by key.

    With a size, each key has one buffer of `size` entries, allocated on
    first use, and an array of k entries is a view of its first k: a
    caller that evaluates many blocks of points allocates them once.
    Without one, every array is new.
    """

    def __init__(self, size=None):
        self.size = size
        self._buffers = {}

    def __call__(self, key, k, dtype=float):
        """The `out` of a numpy call that writes k entries: the first k of
        the buffer `key`, or None (a new array) without a size."""
        if self.size is None:
            return None
        try:
            return self._buffers[key][:k]
        except KeyError:
            buf = self._buffers[key] = np.empty(self.size, dtype)
            return buf[:k]

    def ints(self, key, x):
        """x.astype(int), into the buffer `key`."""
        if self.size is None:
            return x.astype(int)
        out = self(key, x.size, int)
        np.copyto(out, x, casting="unsafe")
        return out

    def arange(self, k):
        """np.arange(k); with a size, a view of one kept from the first call."""
        if self.size is None:
            return np.arange(k)
        if "arange" not in self._buffers:
            self._buffers["arange"] = np.arange(self.size)
        return self._buffers["arange"][:k]


class SieveCells:
    """Where the points of an index vector fall in the sieve of `basis`
    (`WaveletBasis.locate`); its `design`, `ddesign` and `d2design` read
    the cells in place of the points.

    One entry per point and level, level-major.  `levels` holds (rows,
    entries) per level: the points it meets, in order, and the slice of
    their entries.  Every level but the last meets every point; the last,
    which the sieve may fill only in part, only those inside the sieve.
    Per entry, cols is the flat index k = (2^j - 1)*S + r of its basis
    function, idx the table cell and s the fraction of the cell at the
    point.
    """

    def __init__(self, basis, n, levels, cols, idx, s):
        self.basis, self.n, self.levels = basis, n, levels
        self.cols, self.idx, self.s = cols, idx, s

    @cached_property
    def flat(self):
        """Each entry's position in the flattened n x m design."""
        flat = np.empty_like(self.cols)
        for rows, e in self.levels:
            np.multiply(rows, self.basis.m, out=flat[e])
        flat += self.cols
        return flat


def _hermite(tab, idx, s, want, ws):
    """Cubic Hermite interpolation of the (psi, psi') tables of `tab` at
    the fractions s of the table cells idx.

    want: 0 -> value, 1 -> first derivative, 2 -> second derivative, all
    with respect to u = x / 2^j_table for the table coordinate x = idx + s.
    idx and s are read only.  The value's temporaries are arrays of the
    `_Workspace` ws and the value is its array "vals" (a derivative is a
    new array).  Each formula keeps the operations and their order of the
    textbook one, so the result has its bits.
    """
    psi, dpsi = tab.psi, tab.dpsi
    k = s.size
    # idx is inside the tables, so mode="clip" takes the same entries, and
    # spares the copy of `out` that the default mode makes
    y0 = psi.take(idx, out=ws("y0", k), mode="clip")
    if want == 0:
        # y0 (1 - q) + d0 h (s^3 - 2 s^2 + s) + y1 q + d1 h (s^3 - s^2)
        # with q = 3 s^2 - 2 s^3, summed left to right; each temporary is
        # written over one that is no longer read
        s2 = np.multiply(s, s, out=ws("s2", k))
        s3 = np.multiply(s2, s, out=ws("s3", k))
        q = np.multiply(3, s2, out=ws("q", k))
        q -= np.multiply(2, s3, out=ws("vals", k))
        out = np.subtract(1, q, out=ws("vals", k))
        out *= y0
        w = np.multiply(2, s2, out=y0)
        np.subtract(s3, w, out=w)
        w += s
        s3 -= s2
        s3 *= tab.dpsi_h[1:].take(idx, out=s2, mode="clip")
        w *= tab.dpsi_h.take(idx, out=s2, mode="clip")
        out += w
        y1 = psi[1:].take(idx, out=s2, mode="clip")
        y1 *= q
        out += y1
        out += s3
        return out
    y1 = psi[1:].take(idx)
    h = 1.0 / 2.0**tab.j_table
    d0 = dpsi.take(idx)
    d1 = dpsi[1:].take(idx)
    if want == 1:
        s2 = s * s
        c = 3 * s2
        return 6 * (s2 - s) * (y0 - y1) / h + d0 * (c - 4 * s + 1) + d1 * (c - 2 * s)
    s6 = 6 * s
    return ((12 * s - 6) * (y0 - y1) / h + d0 * (s6 - 4) + d1 * (s6 - 2)) / h


class WaveletBasis:
    """m-function wavelet sieve on [-s_X, s_X].

    Evaluation of the model surface uses a C^1 cubic Hermite interpolant
    built from the (psi, psi') refinement tables, so analytic gradients and
    finite differences of the same surface agree.
    """

    def __init__(self, m, s_X, genus=7):
        if not (m >= 1 and float(m).is_integer()):  # NaN fails the comparison
            raise ValueError(f"m must be an integer >= 1, got {m!r}")
        if not 0 < s_X < np.inf:
            raise ValueError(f"s_X must be finite and > 0, got {s_X!r}")
        self.m = int(m)
        self.s_X = float(s_X)
        self.tables = wavelet_tables(genus)
        self.genus = self.tables.genus
        self.j_table = self.tables.j_table
        S = self.tables.support_len
        self.support_len = S
        self.n_levels = level_of_index(self.m - 1, S)[0] + 1  # levels rise with the index
        # the factor of level j's entries in the want-th derivative
        self._scale = [[self._norm_scale(j) * (S / self.cell_width(j)) ** want
                        for j in range(self.n_levels)] for want in range(3)]

    def __reduce__(self):
        # a copy takes its tables from the `wavelet_tables` cache, not the pickle
        return type(self), (self.m, self.s_X, self.genus)

    def cell_width(self, j):
        return 2.0 * self.s_X / (self.support_len * 2**j)

    def _norm_scale(self, j):
        # gamma_j with ||e_k||_2 = 1: e_k = gamma_j * psi(S (t - t0)/c_j)
        return np.sqrt(self.support_len / self.cell_width(j))

    def locate(self, t):
        """The `SieveCells` of the points t (flattened) on every level."""
        return self._locate(np.asarray(t, dtype=float).ravel(), _Workspace())

    def _locate(self, t, ws):
        """`locate` of the flat array t, its arrays taken from the
        `_Workspace` ws: with a size (at least n_levels * t.size) they are
        views of its buffers, valid until ws is used again.  t may be a view
        of ws's buffer "t" (the grid scan's index matrix), which is then
        shifted in place.

        The translates of one level tile the interval, so each point meets
        exactly one of them per level.  Each level writes the points'
        positions, in its cells, into one array, and the cell, table
        coordinate, table cell and fraction are computed once for all.
        """
        S, n, last = self.support_len, t.size, self.n_levels - 1
        x_top = S * 2**self.j_table  # the last node of the tables
        shifted = np.add(t, self.s_X, out=ws("t", n))
        a = ws("a", (last + 1) * n)
        a = np.empty((last + 1) * n) if a is None else a
        for j in range(last):
            np.divide(shifted, self.cell_width(j), out=a[j * n:(j + 1) * n])
        levels = [(ws.arange(n), slice(j * n, (j + 1) * n)) for j in range(last)]
        width = self.m - (2**last - 1) * S  # translates of the last level in the sieve
        full = last + (width == S * 2**last)  # the levels the sieve fills
        if full > last:
            levels.append((ws.arange(n), slice(last * n, None)))
            np.divide(shifted, self.cell_width(last), out=a[last * n:])
        else:
            # the cell of a point is its truncated position, clipped to the
            # level: below `width` exactly when the position is; flat
            # positions, not a boolean mask, since a mask gathers and
            # scatters a scattered selection several times slower
            pos = np.divide(shifted, self.cell_width(last), out=shifted)
            rows = np.less(pos, width, out=ws("below", n, bool)).nonzero()[0]
            levels.append((rows, slice(last * n, None)))
            a = a[:last * n + rows.size]
            pos.take(rows, out=a[last * n:], mode="clip")
        # truncation differs from the floor only below 0, clipped there; a
        # full level clips above at its last translate, below which the
        # points kept on a partial one lie
        cols = ws.ints("cols", a)
        np.maximum(cols, 0, out=cols)
        for j in range(full):
            np.minimum(cols[j * n:(j + 1) * n], S * 2**j - 1, out=cols[j * n:(j + 1) * n])
        # table coordinate 2^j_table S (a - r) of the point in its cell r;
        # scaling by a power of two after rounding gives the same bits
        x = np.subtract(a, cols, out=a)
        x *= x_top
        np.maximum(x, 0.0, out=x)
        np.minimum(x, float(x_top), out=x)
        idx = ws.ints("idx", x)  # x >= 0, so truncation is the floor
        np.minimum(idx, x_top - 1, out=idx)  # the last cell of the tables
        s = np.subtract(x, idx, out=x)
        for j in range(1, last + 1):
            cols[j * n:(j + 1) * n] += (2**j - 1) * S
        return SieveCells(self, n, levels, cols, idx, s)

    def _values(self, cells, want, ws):
        """The want-th derivative of each entry's basis function at its
        point, in the array "vals" of the `_Workspace` ws."""
        if cells.basis is not self:
            raise ValueError("cells located by another basis")
        vals = _hermite(self.tables, cells.idx, cells.s, want, ws)
        for (_, e), scale in zip(cells.levels, self._scale[want]):
            vals[e] *= scale
        return vals

    def _design_general(self, t, want):
        cells = t if isinstance(t, SieveCells) else self.locate(t)
        out = np.zeros(cells.n * self.m)
        out[cells.flat] = self._values(cells, want, _Workspace())
        return out.reshape(cells.n, self.m)

    def design(self, t):
        """n x m matrix of basis values e_k(t_i) (C^1 surface), at the points
        t or their `SieveCells`."""
        return self._design_general(t, 0)

    def ddesign(self, t):
        """n x m matrix of first derivatives e_k'(t_i), at t or its cells."""
        return self._design_general(t, 1)

    def d2design(self, t):
        """n x m matrix of second derivatives e_k''(t_i) (piecewise linear),
        at t or its cells."""
        return self._design_general(t, 2)

    def synth(self, t, eta):
        """f(t) = sum_k eta_k e_k(t)."""
        return self.design(t) @ np.asarray(eta, dtype=float)
