"""The blocked sparse grid scan against a brute-force per-point reference.

`reference_grid_init` is the per-point loop that `grid_init` replaced: one
dense design, one SVD condition number and one LAPACK solve per grid point
(`reference_eta_step`).  `reference_design` is the dense design builder
that `level_pairs` replaced, with the textbook cubic Hermite formula of
`reference_hermite`.  All four are kept here, independent of the code under
test, as oracles.
"""

import numpy as np
import pytest

from altmax import _lapack
from altmax.alternation import SolverError
from altmax.singleindex import (
    SingleIndexDataset,
    SingleIndexModel,
    _scan_grid,
    _well_conditioned,
    generate,
    grid_init,
    uniform_ball,
)
from altmax.statcore import ParameterPoint
from altmax.wavelet import WaveletBasis

ETA = (1.0, -0.8, 0.9, -0.7, 0.6, 0.8)


def reference_grid(N, p):
    if p == 1:
        return np.array([[1.0]])
    if p == 2:
        ang = -np.pi / 2 + (np.arange(N) + 0.5) * np.pi / N
        return np.column_stack([np.cos(ang), np.sin(ang)])
    rng = np.random.default_rng(20170 + N)
    g = rng.standard_normal((N, p))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    g[:, 0] = np.abs(g[:, 0])
    return g


def reference_eta_step(dataset, basis, theta):
    """The closed-form eta step by its rule: accept the normal equations at an
    SVD condition number <= 1e12, else retry once with the ridge
    1e-8 * trace/m; None when both fail."""
    E = basis.design(dataset.X @ theta)
    G, b = E.T @ E / dataset.n, E.T @ dataset.y / dataset.n
    m = G.shape[0]
    for lam in (0.0, 1e-8 * np.trace(G) / m):
        Gl = G + lam * np.eye(m)
        if np.linalg.cond(Gl) <= 1e12:
            return _lapack.solve(Gl, b)
    return None


def reference_grid_init(dataset, basis, N, noise_scale=1.0):
    """(ParameterPoint, tau, winning index) by one eta step per grid point."""
    grid = reference_grid(N, dataset.p)
    if grid.shape[0] == 1:
        tau = 0.0
    else:
        d2 = np.sum((grid[:, None, :] - grid[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        tau = float(np.sqrt(d2.min(axis=1)).max())
    inv2s = 1.0 / (2.0 * noise_scale**2)
    best = None
    for i in range(grid.shape[0]):
        th = grid[i]
        eta = reference_eta_step(dataset, basis, th)
        if eta is None:
            continue
        r = dataset.y - basis.design(dataset.X @ th) @ eta
        L = -inv2s * float(r @ r)
        if best is None or L > best[0]:
            best = (L, i, th, eta)
    if best is None:
        raise SolverError("eta step failed on every grid point")
    return ParameterPoint(best[2], best[3]), tau, best[1]


def reference_hermite(y, d, u, j_table, want):
    """Cubic Hermite interpolation of the dyadic table (y, d) at u in [0, S]."""
    scale = 2.0**j_table
    x = u * scale
    idx = np.minimum(x.astype(int), y.size - 2)
    s = x - idx
    h = 1.0 / scale
    y0 = y[idx]
    y1 = y[idx + 1]
    d0 = d[idx]
    d1 = d[idx + 1]
    if want == 0:
        s2 = s * s
        s3 = s2 * s
        return (
            y0 * (2 * s3 - 3 * s2 + 1)
            + d0 * h * (s3 - 2 * s2 + s)
            + y1 * (-2 * s3 + 3 * s2)
            + d1 * h * (s3 - s2)
        )
    if want == 1:
        s2 = s * s
        return (
            6 * (s2 - s) * (y0 - y1) / h
            + d0 * (3 * s2 - 4 * s + 1)
            + d1 * (3 * s2 - 2 * s)
        )
    return ((12 * s - 6) * (y0 - y1) / h + d0 * (6 * s - 4) + d1 * (6 * s - 2)) / h


def reference_design(basis, t, want):
    """Dense n x m design (want = derivative order), one level at a time."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros((t.size, basis.m))
    S = basis.support_len
    tab = basis.tables
    for j in range(basis.n_levels):
        c = basis.cell_width(j)
        rr = np.floor((t + basis.s_X) / c).astype(int)
        np.clip(rr, 0, S * 2**j - 1, out=rr)
        u = S * ((t + basis.s_X) / c - rr)
        np.clip(u, 0.0, float(S), out=u)
        cols = (2**j - 1) * S + rr
        keep = cols < basis.m
        if not np.any(keep):
            continue
        chain = (S / c) ** want
        vals = basis._norm_scale(j) * chain * reference_hermite(
            tab.psi, tab.dpsi, u[keep], basis.j_table, want
        )
        out[np.nonzero(keep)[0], cols[keep]] = vals
    return out


def dataset(n, p, m, seed, sigma=0.5):
    basis = WaveletBasis(m=m, s_X=1.0)
    theta = np.zeros(p)
    theta[0], theta[1] = np.cos(0.3), np.sin(0.3)
    eta = [ETA[k % len(ETA)] for k in range(m)]
    return generate(n, p, theta, eta, sigma, 1.0, seed=seed, basis=basis), basis


def assert_same_start(ds, basis, N, noise_scale=1.0):
    ref_pt, ref_tau, ref_i = reference_grid_init(ds, basis, N, noise_scale)
    assert _scan_grid(ds, basis, reference_grid(N, ds.p), noise_scale) == ref_i
    pt, tau = grid_init(ds, basis, N, noise_scale=noise_scale)
    assert pt.theta.tobytes() == ref_pt.theta.tobytes()
    assert pt.eta.tobytes() == ref_pt.eta.tobytes()
    assert tau == ref_tau


@pytest.mark.parametrize("m", [1, 3, 6, 13, 14, 20, 39, 40, 100])
def test_level_pairs_rebuild_design_exactly(m):
    basis = WaveletBasis(m=m, s_X=1.0)
    rng = np.random.default_rng(m)
    # every cell boundary of every level, one ulp either side of it, the
    # interval ends one ulp either side, and indices as far out as the
    # admissible theta norm lets them reach
    cap = SingleIndexModel.theta_cap
    bounds = np.concatenate([
        -1.0 + np.arange(basis.support_len * 2**j + 1) * basis.cell_width(j)
        for j in range(basis.n_levels)
    ])
    t = np.concatenate([
        [-1.0, 1.0, 0.0, -0.0, -1.02, 1.02, -cap, cap],
        bounds, np.nextafter(bounds, -np.inf), np.nextafter(bounds, np.inf),
        np.nextafter([-1.0, 1.0], -np.inf), np.nextafter([-1.0, 1.0], np.inf),
        rng.uniform(-1, 1, 300), rng.uniform(-cap, cap, 100),
    ])
    T = np.concatenate([rng.uniform(-1.0, 1.0, (200, 7)), rng.uniform(-cap, cap, (40, 7))])
    for want, dense in enumerate((basis.design, basis.ddesign, basis.d2design)):
        assert dense(t).tobytes() == reference_design(basis, t, want).tobytes()
        entries = basis.level_pairs(T, want)
        assert len(entries) == basis.n_levels
        E = np.zeros((T.size, m))
        for j, (rows, cols, vals) in enumerate(entries):
            assert rows.shape == cols.shape == vals.shape
            # one entry per point and level, in row order, in the sieve only
            assert np.all(np.diff(rows) > 0)
            assert np.all((0 <= cols) & (cols < m))
            if j < basis.n_levels - 1:
                assert np.array_equal(rows, np.arange(T.size))
            E[rows, cols] = vals
        E = E.reshape(T.shape + (m,))
        for k in range(T.shape[1]):
            assert E[:, k].tobytes() == reference_design(basis, T[:, k], want).tobytes()


@pytest.mark.parametrize("n", [250, 1000])
@pytest.mark.parametrize("p", [2, 3])
# one level below 13 functions, two from 13 to 38, three from 39: each
# boundary with its neighbours
@pytest.mark.parametrize("m", [1, 3, 6, 12, 13, 14, 20, 39, 40])
def test_scan_matches_per_point_loop(m, p, n):
    for sigma in (0.5, 0.0):
        ds, basis = dataset(n, p, m, seed=100 * m + 10 * p + n, sigma=sigma)
        # 200 points: twelve full blocks and a partial one
        assert_same_start(ds, basis, 200, noise_scale=0.5)


def test_scan_matches_loop_noiseless_and_tiny_grids():
    ds, basis = dataset(400, 2, 6, seed=3, sigma=0.0)
    for N in (1, 2, 17, 64):
        assert_same_start(ds, basis, N)


def test_scan_ridge_fallback_on_empty_column():
    # data inside the ball of radius 0.5 of a sieve on [-1, 1]: the cells of
    # columns 0-3 receive no point, so every Gram matrix is singular and each
    # eta step needs the ridge
    basis = WaveletBasis(m=6, s_X=1.0)
    X = uniform_ball(np.random.default_rng(4), 300, 2, 0.5)
    y = np.sin(3.0 * X[:, 0]) + 0.1 * np.random.default_rng(5).standard_normal(300)
    ds = SingleIndexDataset(X=X, y=y, s_X=1.0)
    E = basis.design(X @ np.array([1.0, 0.0]))
    assert np.linalg.cond(E.T @ E) > 1e12
    assert_same_start(ds, basis, 64)


def test_scan_ridge_fallback_two_levels():
    basis = WaveletBasis(m=20, s_X=1.0)
    X = uniform_ball(np.random.default_rng(6), 400, 3, 0.5)
    y = np.cos(4.0 * X[:, 1]) + 0.1 * np.random.default_rng(7).standard_normal(400)
    assert_same_start(SingleIndexDataset(X=X, y=y, s_X=1.0), basis, 48)


def test_scan_exact_condition_fallback_two_levels(monkeypatch):
    # 60 points for 20 functions: a cell holds a few points, so the cheap
    # bound of `_well_conditioned` cannot accept many Gram matrices whose
    # condition number np.linalg.cond finds below 1e12
    basis = WaveletBasis(m=20, s_X=1.0)
    rng = np.random.default_rng(6)
    X = uniform_ball(rng, 60, 2, 1.0)
    y = np.cos(4.0 * X[:, 1]) + 0.1 * rng.standard_normal(60)
    ds = SingleIndexDataset(X=X, y=y, s_X=1.0)
    cond, accepted = np.linalg.cond, []

    def spy(G):
        out = cond(G)
        accepted.extend(np.atleast_1d(out <= 1e12))
        return out

    monkeypatch.setattr(np.linalg, "cond", spy)
    _scan_grid(ds, basis, reference_grid(48, 2))
    monkeypatch.undo()
    assert sum(accepted) >= 10
    assert_same_start(ds, basis, 48)


def test_well_conditioned_is_the_svd_rule():
    # condition numbers on both sides of 1e12 and of the bound's 1e10, with
    # the off-diagonal mass large (the bound fails) and small (it decides)
    rng = np.random.default_rng(8)
    m = 7
    G = []
    for kappa in [1.0, 1e4, 1e9, 9.9e9, 1.01e10, 1e11, 1e12 * (1 - 1e-3), 1e12,
                  1e12 * (1 + 1e-3), 1e13, np.inf]:
        for spread in (1.0, 1e-6):
            Q, _ = np.linalg.qr(np.eye(m) + spread * rng.standard_normal((m, m)))
            lam = np.geomspace(1.0, 1.0 / kappa if kappa < np.inf else 1e-300, m)
            if kappa == np.inf:
                lam[-1] = 0.0
            A = (Q * lam) @ Q.T
            G.append(0.5 * (A + A.T))
    # a unit diagonal with one near-singular pair: cond = (1 + rho)/(1 - rho)
    for rho in (1 - 1e-9, 1 - 1e-13):
        A = np.eye(m)
        A[0, 1] = A[1, 0] = rho
        G.append(A)
    G = np.array(G)
    d = np.ascontiguousarray(np.diagonal(G, axis1=1, axis2=2))
    want = np.linalg.cond(G) <= 1e12
    assert 0 < want.sum() < want.size
    assert np.array_equal(_well_conditioned(d, G), want)
    # a diagonal stack: the ratio of the extremes, which the SVD gives exactly
    D = np.geomspace(1.0, np.array([1e-3, 1e-11, 1e-12, 1.0000001e-12, 1e-13]), m).T
    D = np.vstack([D, np.zeros(m), np.r_[np.zeros(m - 1), 1.0]])
    want = np.array([np.linalg.cond(np.diag(row)) <= 1e12 for row in D])
    assert np.array_equal(_well_conditioned(D, None), want)


def test_scan_every_point_fails():
    # every index is 0, in a cell outside the 3-function sieve: E = 0
    basis = WaveletBasis(m=3, s_X=1.0)
    ds = SingleIndexDataset(X=np.zeros((50, 2)), y=np.ones(50), s_X=1.0)
    assert _scan_grid(ds, basis, reference_grid(32, 2)) is None
    with pytest.raises(SolverError, match="every grid point"):
        reference_grid_init(ds, basis, 32)
    with pytest.raises(SolverError, match="every grid point"):
        grid_init(ds, basis, 32)
