import re
import tracemalloc

import numpy as np
import pytest

from altmax.wavelet import (
    WaveletBasis,
    _integer_values,
    _refine,
    _wavelet_tables,
    daubechies_filter,
    level_of_index,
    wavelet_tables,
)

# WaveLab MakeONFilter('Daubechies', 14) reference taps
WAVELAB_DB7 = np.array([
    0.077852054085, 0.396539319482, 0.729132090846, 0.469782287405,
    -0.143906003929, -0.224036184994, 0.071309219267, 0.080612609151,
    -0.038029936935, -0.016574541631, 0.012550998556, 0.000429577973,
    -0.001801640704, 0.000353713800,
])


def test_filter_orthonormality_and_sum():
    for genus in (2, 7, 8):
        h = daubechies_filter(genus)
        assert h.size == 2 * genus
        assert abs(h.sum() - np.sqrt(2.0)) < 1e-12
        assert abs(h @ h - 1.0) < 1e-12
        for l in range(1, genus):
            assert abs(h[: h.size - 2 * l] @ h[2 * l :]) < 1e-12


def test_filter_matches_published_db7():
    h = daubechies_filter(7)
    assert np.abs(h - WAVELAB_DB7).max() < 1e-9


def table_grid(tab):
    """The nodes u of the dyadic tables of `tab` on [0, S]."""
    S = tab.support_len
    return np.linspace(0.0, S, S * 2**tab.j_table + 1)


def test_mother_tables_zero_mean_unit_norm():
    tab = wavelet_tables(7)
    g = table_grid(tab)
    assert abs(np.trapezoid(tab.psi, g)) < 1e-8
    assert abs(np.trapezoid(tab.psi**2, g) - 1.0) < 1e-6
    # derivative table consistent with the value table
    num = np.gradient(tab.psi, g)
    assert np.abs(num - tab.dpsi).max() / np.abs(tab.dpsi).max() < 1e-4


def reference_tables(N, J):
    """(psi, dpsi, dpsi_h) by the per-tap masked gather that the strided
    slices of `_wavelet_tables` replaced, kept here as their oracle."""
    h = daubechies_filter(N)
    n = h.size
    S = n - 1
    g = np.array([(-1.0) ** m * h[n - 1 - m] for m in range(n)])

    def build(order):
        phi = _refine(_integer_values(h, order), h, order, J)
        psi = np.zeros(S * 2**J + 1)
        fac = (2.0**order) * np.sqrt(2.0)
        for m in range(n):
            src = 2 * np.arange(psi.size) - m * 2**J
            ok = (src >= 0) & (src < phi.size)
            psi[ok] += fac * g[m] * phi[src[ok]]
        return psi

    dpsi = build(1)
    return build(0), dpsi, dpsi * (1.0 / 2.0**J)


@pytest.mark.parametrize("genus", range(1, 10))
def test_tables_match_the_masked_gather_bit_for_bit(genus):
    # j_table = 0 has odd tap offsets; a slice that starts at lo // 2 misses it.
    # Genus 1 (Haar) has no derivative: `_integer_values` divides by its zero
    # first moment, then zeroes the two-point vector it produced.
    quiet = {"divide": "ignore", "invalid": "ignore"} if genus == 1 else {}
    for J in (0, 1, 2, 3, 5, 8, 12, 13):
        with np.errstate(**quiet):
            tab = _wavelet_tables.__wrapped__(genus, J)
            want_all = reference_tables(genus, J)
        for got, want in zip((tab.psi, tab.dpsi, tab.dpsi_h), want_all):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (genus, J)


def test_table_build_peak_memory():
    # numpy reports its buffers to tracemalloc, so the peak repeats exactly;
    # the masked gather peaked at 2.83 MB here
    tracemalloc.start()
    try:
        _wavelet_tables.__wrapped__(7, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0e6


def test_index_decomposition_roundtrip():
    S = 13
    for k in range(0, 200):
        j, r = level_of_index(k, S)
        assert 0 <= r < S * 2**j
        assert (2**j - 1) * S + r == k
    assert level_of_index(12, S) == (0, 12)
    assert level_of_index(13, S) == (1, 0)
    assert level_of_index(39, S) == (2, 0)


def cell_bounds(b, k):
    """The support [lo, hi] of basis function k of `b`: cell r of level j."""
    j, r = level_of_index(k, b.support_len)
    c = b.cell_width(j)
    lo = -b.s_X + r * c
    return lo, lo + c


def eval_linear(b, k, t):
    """Basis function k of `b` by linear table lookup; 0 outside its support."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    j = level_of_index(k, b.support_len)[0]
    lo, _ = cell_bounds(b, k)
    u = b.support_len * (t - lo) / b.cell_width(j)
    out = np.zeros_like(t)
    inside = (u >= 0.0) & (u <= b.support_len)
    out[inside] = b._norm_scale(j) * np.interp(u[inside], table_grid(b.tables), b.tables.psi)
    return out


def test_basis_zero_outside_support():
    b = WaveletBasis(m=6, s_X=1.0)
    for k in range(6):
        lo, hi = cell_bounds(b, k)
        t = np.array([lo - 1e-9, hi + 1e-9, 0.5 * (lo + hi)])
        for values in (eval_linear(b, k, t), b.design(t)[:, k]):
            assert values[0] == 0.0 and values[1] == 0.0
            assert abs(values[2]) > 0.0


def test_basis_orthonormal_at_table_resolution():
    b = WaveletBasis(m=8, s_X=0.8)
    t = np.linspace(-0.8, 0.8, 40001)
    E = b.design(t)
    G = E.T @ E * (t[1] - t[0])
    assert np.abs(np.diag(G) - 1.0).max() < 1e-3
    off = G - np.diag(np.diag(G))
    assert np.abs(off).max() < 1e-3


def test_basis_multi_level_orthonormal():
    # 20 functions span levels 0 and 1
    b = WaveletBasis(m=20, s_X=1.0)
    t = np.linspace(-1.0, 1.0, 60001)
    E = b.design(t)
    G = E.T @ E * (t[1] - t[0])
    assert np.abs(np.diag(G) - 1.0).max() < 1e-3
    assert np.abs(G - np.diag(np.diag(G))).max() < 1e-3


def test_design_derivative_consistency():
    b = WaveletBasis(m=6, s_X=1.0)
    rng = np.random.default_rng(0)
    t = rng.uniform(-1, 1, 500)
    h = 1e-7
    dnum = (b.design(t + h) - b.design(t - h)) / (2 * h)
    dana = b.ddesign(t)
    scale = np.abs(dana).max()
    assert np.abs(dnum - dana).max() / scale < 1e-5


def test_genus8_option():
    b = WaveletBasis(m=4, s_X=1.0, genus=8)
    assert b.support_len == 15
    t = np.linspace(-1.0, 1.0, 30001)
    E = b.design(t)
    G = E.T @ E * (t[1] - t[0])
    assert np.abs(np.diag(G) - 1.0).max() < 1e-3


def test_linear_and_hermite_surfaces_agree():
    # the linear table lookup and the C^1 model surface are the same function
    # up to the interpolation error of the table
    b = WaveletBasis(m=6, s_X=1.0)
    rng = np.random.default_rng(3)
    t = rng.uniform(-1, 1, 2000)
    E = b.design(t)
    for k in range(6):
        lin = eval_linear(b, k, t)
        assert np.abs(lin - E[:, k]).max() < 1e-5 * max(1.0, np.abs(E[:, k]).max())


def test_bad_args():
    with pytest.raises(ValueError):
        WaveletBasis(m=0, s_X=1.0)
    with pytest.raises(ValueError):
        WaveletBasis(m=3, s_X=-1.0)
    # genus 1 (Haar) would build all-zero tables after a division by zero,
    # and a fractional genus was truncated: 7.5 built genus 7, 2.9 genus 2
    for genus in (0, 1, 7.5, 2.9, float("nan"), float("inf")):
        msg = f"genus must be an integer >= 2, got {genus!r}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            wavelet_tables(genus)
        with pytest.raises(ValueError, match=re.escape(msg)):
            WaveletBasis(m=3, s_X=1.0, genus=genus)
    assert WaveletBasis(m=3, s_X=1.0, genus=8.0).genus == wavelet_tables(np.int64(8)).genus == 8


def test_basis_rejects_a_non_finite_radius_and_a_fractional_m():
    # a NaN radius gave a design of zeros, and m = 2.7 a basis of m = 2
    for s_X in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="s_X must be finite and > 0"):
            WaveletBasis(m=3, s_X=s_X)
    for m in (2.7, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            WaveletBasis(m=m, s_X=1.0)
    assert WaveletBasis(m=3.0, s_X=1.0).m == WaveletBasis(m=np.int64(3), s_X=1.0).m == 3
