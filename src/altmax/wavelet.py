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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "daubechies_filter",
    "WaveletTables",
    "wavelet_tables",
    "WaveletBasis",
    "level_of_index",
]


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


@dataclass(frozen=True)
class WaveletTables:
    """Dyadic tables of the mother wavelet psi and its derivative on [0, S]."""

    genus: int
    j_table: int
    psi: np.ndarray
    dpsi: np.ndarray
    dpsi_h: np.ndarray  # dpsi times the table step 2^-j_table

    @property
    def support_len(self):
        return 2 * self.genus - 1


def wavelet_tables(genus=7, j_table=12) -> WaveletTables:
    """The tables of `genus` on the dyadic grid of step 2^-j_table, built once per pair.

    genus 1 (Haar) is rejected: `_integer_values` zeroes the two ends of
    the support, which are Haar's only integers, so its tables would be all
    zeros.
    """
    if int(genus) < 2:
        raise ValueError("genus >= 2 required")
    return _wavelet_tables(int(genus), int(j_table))


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
    return WaveletTables(
        genus=N, j_table=J, psi=build(0), dpsi=dpsi,
        dpsi_h=dpsi * (1.0 / 2.0**J),
    )


def level_of_index(k, support_len):
    """Decompose flat index k = (2^j - 1)*S + r into (j, r)."""
    if k < 0 or support_len < 1:
        raise ValueError("index >= 0 and support length >= 1 required")
    j = 0
    while (2 ** (j + 1) - 1) * support_len <= k:
        j += 1
    r = k - (2**j - 1) * support_len
    return j, r


def _hermite_eval(tab, x, want):
    """Cubic Hermite interpolation of the (psi, psi') tables of `tab`.

    want: 0 -> value, 1 -> first derivative, 2 -> second derivative, all
    with respect to u = x / 2^j_table.  x is an array of table coordinates
    already inside [0, S*2^j_table]; the integer part of x picks the table
    cell and its fraction s is the position inside the cell.  x is
    overwritten.  Each formula keeps the operations and their order of the
    textbook one, so the result has its bits.
    """
    psi, dpsi = tab.psi, tab.dpsi
    idx = x.astype(int)  # x >= 0, so truncation is the floor
    np.minimum(idx, psi.size - 2, out=idx)
    s = np.subtract(x, idx, out=x)
    y0 = psi.take(idx)
    y1 = psi[1:].take(idx)
    if want == 0:
        # y0 (1 - q) + d0 h (s^3 - 2 s^2 + s) + y1 q + d1 h (s^3 - s^2)
        # with q = 3 s^2 - 2 s^3, summed left to right; in place, because
        # the grid scan evaluates blocks of many thousand points
        s2 = s * s
        s3 = s2 * s
        q = 3 * s2
        q -= 2 * s3
        out = np.subtract(1, q)
        out *= y0
        w = 2 * s2
        np.subtract(s3, w, out=w)
        w += s
        w *= tab.dpsi_h.take(idx)
        out += w
        y1 *= q
        out += y1
        s3 -= s2
        s3 *= tab.dpsi_h[1:].take(idx)
        out += s3
        return out
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
        if m < 1:
            raise ValueError("m >= 1 required")
        if s_X <= 0:
            raise ValueError("s_X > 0 required")
        self.m = int(m)
        self.s_X = float(s_X)
        self.tables = wavelet_tables(genus)
        self.genus = self.tables.genus
        self.j_table = self.tables.j_table
        S = self.tables.support_len
        self.support_len = S
        self.n_levels = max(level_of_index(k, S)[0] for k in range(self.m)) + 1

    def cell_width(self, j):
        return 2.0 * self.s_X / (self.support_len * 2**j)

    def _norm_scale(self, j):
        # gamma_j with ||e_k||_2 = 1: e_k = gamma_j * psi(S (t - t0)/c_j)
        return np.sqrt(self.support_len / self.cell_width(j))

    def level_pairs(self, t, want=0):
        """Sparse form of the design (want=0) or of its derivatives (1, 2).

        The translates of one level tile the interval, so each point meets
        exactly one of them per level; on the last level, which the sieve may
        fill only in part, that translate can lie beyond the sieve.  Returns
        the in-sieve entries of each level as 1-D arrays (rows, cols, vals):
        vals[e] is the want-th derivative of basis function cols[e] at the
        point t.flat[rows[e]], and rows is increasing.  Every level but the
        last meets the sieve at every point, so its rows are arange(t.size).
        """
        t = np.asarray(t, dtype=float).ravel()
        S = self.support_len
        x_top = S * 2**self.j_table  # the last node of the tables
        shifted = t + self.s_X
        entries = []
        for j in range(self.n_levels):
            c = self.cell_width(j)
            a = shifted / c  # position in cells of level j
            width = min(S * 2**j, self.m - (2**j - 1) * S)  # translates in the sieve
            if width < S * 2**j:
                # the cell of a point is its truncated position, clipped to
                # the level: below `width` exactly when the position is;
                # flat positions, not a boolean mask, since a mask gathers
                # and scatters a scattered selection several times slower
                rows = np.flatnonzero(a < width)
                a = a[rows]
            else:
                rows = np.arange(t.size)
            # truncation differs from the floor only below 0, clipped there
            rr = a.astype(int)
            np.maximum(rr, 0, out=rr)
            np.minimum(rr, S * 2**j - 1, out=rr)
            # table coordinate 2^j_table S (a - rr) of the point in its cell;
            # scaling by a power of two after rounding gives the same bits
            x = np.subtract(a, rr, out=a)
            x *= x_top
            np.maximum(x, 0.0, out=x)
            np.minimum(x, float(x_top), out=x)
            vals = _hermite_eval(self.tables, x, want)
            vals *= self._norm_scale(j) * (S / c) ** want
            rr += (2**j - 1) * S
            entries.append((rows, rr, vals))
        return entries

    def _design_general(self, t, want):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros((t.size, self.m))
        for rows, cols, vals in self.level_pairs(t, want):
            out[rows, cols] = vals
        return out

    def design(self, t):
        """n x m matrix of basis values e_k(t_i) (C^1 surface)."""
        return self._design_general(t, 0)

    def ddesign(self, t):
        """n x m matrix of first derivatives e_k'(t_i)."""
        return self._design_general(t, 1)

    def d2design(self, t):
        """n x m matrix of second derivatives e_k''(t_i) (piecewise linear)."""
        return self._design_general(t, 2)

    def synth(self, t, eta):
        """f(t) = sum_k eta_k e_k(t)."""
        return self.design(t) @ np.asarray(eta, dtype=float)
