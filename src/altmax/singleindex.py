"""Single-index regression with a wavelet sieve for the link function.

Data: y_i = f(X_i' theta*) + eps_i with X_i uniform on the ball of radius
s_X, theta* on the half-sphere (first coordinate positive), and f a finite
combination of the wavelet sieve.  The fitted functional is the Gaussian
log-likelihood

    L(theta, eta) = -1/(2 sigma~^2) sum_i (y_i - sum_k eta_k e_k(X_i' theta))^2

with sigma~ the model's noise scale (the dataset's sigma when known and
positive, else 1), so that the Wilks statistic calibrates against chi^2.

The eta-step is linear least squares in closed form.  The theta-step
maximizes L(., eta) through one objective, `_Fit` (L at one point, with its
theta-gradient and theta-Hessian on first use), and one backtracking line
search, `_line_search`.  Two solvers use them: `theta_step` on the
half-sphere (projected gradient ascent with a normalization retraction,
perturbed restarts and a tangent Newton polish), and
`SingleIndexModel._theta_newton` in R^p (Newton ascent with a gradient
fallback inside the theta_cap ball) for the local Wilks/Fisher analysis,
where the finite sieve identifies the index scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _lapack
from .alternation import SolverError
from .modelapi import Model, ModelDomainError
from .statcore import BlockInformation, ParameterPoint
from .wavelet import WaveletBasis


@dataclass(frozen=True)
class SingleIndexDataset:
    X: np.ndarray  # n x p, rows inside the ball of radius s_X
    y: np.ndarray
    s_X: float
    eta_star: np.ndarray | None = None
    sigma: float | None = None

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]


def _check_half_sphere(theta, name="theta_star"):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if abs(np.linalg.norm(theta) - 1.0) > 1e-9:
        raise ValueError(f"{name} must have unit norm, got ||.|| = {np.linalg.norm(theta)!r}")
    if theta[0] <= 0.0:
        raise ValueError(f"{name} must have positive first coordinate (half-sphere)")
    return theta


def uniform_ball(rng, n, p, radius):
    z = rng.standard_normal((n, p))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    r = radius * rng.random(n) ** (1.0 / p)
    return z * r[:, None]


def generate(n, p, theta_star, eta_star, sigma, s_X, seed, basis) -> SingleIndexDataset:
    """Simulate a dataset; deterministic per seed.  f = sum_k eta_star_k e_k of `basis`."""
    theta_star = _check_half_sphere(theta_star)
    if theta_star.size != p:
        raise ValueError("theta_star dimension does not match p")
    eta_star = np.atleast_1d(np.asarray(eta_star, dtype=float))
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    rng = np.random.default_rng(seed)
    X = uniform_ball(rng, n, p, s_X)
    f = basis.synth(X @ theta_star, eta_star)
    eps = sigma * rng.standard_normal(n) if sigma > 0 else np.zeros(n)
    return SingleIndexDataset(
        X=X, y=f + eps, s_X=float(s_X), eta_star=eta_star, sigma=float(sigma),
    )


def _noise_scale(sigma):
    """The noise scale of L: sigma when known and positive, else 1."""
    return float(sigma) if sigma is not None and sigma > 0 else 1.0


def information_at_truth(basis, star, n, s_X, sigma, r_datasets, *, seed):
    """Monte Carlo estimate of -Hessian of E L at the truth `star`.

    Averages the analytic blocks over r_datasets datasets of n points, each
    drawn as `generate` draws one from the truth; seeded and deterministic.
    """
    rng = np.random.default_rng(seed)
    p, m = star.p, basis.m
    D2 = np.zeros((p, p))
    A = np.zeros((p, m))
    H2 = np.zeros((m, m))
    c = 1.0 / _noise_scale(sigma)**2
    for _ in range(r_datasets):
        X = uniform_ball(rng, n, p, s_X)
        t = X @ star.theta
        E = basis.design(t)
        fp = basis.ddesign(t) @ star.eta
        Jt = X * fp[:, None]
        D2 += c * (Jt.T @ Jt)
        A += c * (Jt.T @ E)
        H2 += c * (E.T @ E)
        if sigma > 0:
            # the noise of dataset r is not read, but it is drawn: the
            # X of every later dataset, and so the blocks, follow it
            rng.standard_normal(n)
    D2 /= r_datasets
    A /= r_datasets
    H2 /= r_datasets
    return BlockInformation(D2=0.5 * (D2 + D2.T), A=A, H2=0.5 * (H2 + H2.T))


def eta_step_closed_form(dataset, basis, theta):
    """Normal-equations solution of the basis regression at fixed theta.

    Solves (1/n sum e e') eta = 1/n sum y_i e.  A condition number above
    1e12 (`_well_conditioned`, the rule the grid scan shares) triggers one
    fallback ridge of 1e-8 * trace/m; a singular system after the fallback
    raises.
    """
    G, b = _normal_equations(dataset, basis, theta)
    m = G.shape[0]
    last_exc = None
    for lam in (0.0, 1e-8 * np.trace(G) / m):
        Gl = G + lam * np.eye(m)
        try:
            if not _well_conditioned(np.diagonal(Gl)[None], Gl[None])[0]:
                raise np.linalg.LinAlgError("condition estimate above 1e12")
            return _lapack.solve(Gl, b)
        except (np.linalg.LinAlgError, ValueError) as exc:
            last_exc = exc
    raise SolverError(f"eta step singular even after ridge fallback: {last_exc}")


def _normal_equations(dataset, basis, theta):
    """G = 1/n sum e e' and b = 1/n sum y_i e of the basis regression at theta."""
    E = basis.design(dataset.X @ np.atleast_1d(np.asarray(theta, dtype=float)))
    return E.T @ E / dataset.n, E.T @ dataset.y / dataset.n


def _eta_on_ball(dataset, basis, theta, radius):
    """argmax over ||eta|| <= radius of L(theta, .), for a theta whose closed-form
    eta lies outside the ball.

    On the sphere the maximizer is (G + lam I)^{-1} b, with G, b the
    `_normal_equations` at theta and lam > 0 the root of
    ||eta(lam)|| = radius; the root is bisected in the eigenbasis of G and
    taken from the side inside the ball.
    """
    G, b = _normal_equations(dataset, basis, theta)
    w, V = np.linalg.eigh(G)
    w = np.clip(w, 0.0, None)
    c = V.T @ b

    def norm(lam):
        return float(np.linalg.norm(c / (w + lam)))

    lo, hi = 0.0, float(np.linalg.norm(c)) / radius
    while norm(hi) > radius:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if norm(mid) > radius:
            lo = mid
        else:
            hi = mid
    return V @ (c / (w + hi))


class _Fit:
    """L(theta, eta) at one point, with its theta-derivatives on first use.

    `t = X theta`, the design at t, the residual and the value are built
    once; `dE` (the design's derivative), `grad` and `hess` (the theta-
    gradient and theta-Hessian of L) when first read.
    """

    def __init__(self, dataset, basis, inv2s, theta, eta):
        self.X, self.basis, self.inv2s = dataset.X, basis, inv2s
        self.theta, self.eta = theta, eta
        self.t = dataset.X @ theta
        self.E = basis.design(self.t)
        self.r = dataset.y - self.E @ eta
        self.value = -inv2s * float(self.r @ self.r)

    @cached_property
    def dE(self):
        return self.basis.ddesign(self.t)

    @cached_property
    def fp(self):
        return self.dE @ self.eta

    @cached_property
    def grad(self):
        return 2.0 * self.inv2s * (self.X.T @ (self.r * self.fp))

    @cached_property
    def hess(self):
        fpp = self.basis.d2design(self.t) @ self.eta
        w = self.r * fpp - self.fp * self.fp
        return 2.0 * self.inv2s * ((self.X * w[:, None]).T @ self.X)


def _line_search(fit_at, L, move, scale, tries, gn=None, gnorm=None, noise=0.0):
    """Backtracking: halve `scale` until the fit at `move(scale)` is accepted.

    `move(scale)` is the candidate theta, or None where it is infeasible.  A
    candidate is accepted when its value beats L or, with `gnorm` given, when
    it is within `noise` of L and gnorm(fit) < gn: near the optimum the value
    surface is flat to rounding.  A candidate with the same bytes as the
    last one fitted is skipped without a fit, since it would be rejected
    again: once `scale` falls below an ulp of the step, `move` returns one
    point on every remaining try.  Returns (fit, scale) of the accepted
    candidate, or (None, scale) after `tries` candidates.
    """
    last = None
    for _ in range(tries):
        theta = move(scale)
        if theta is not None and (key := theta.tobytes()) != last:
            last = key
            fit = fit_at(theta)
            if fit.value > L or (
                gnorm is not None and fit.value >= L - noise and gnorm(fit) < gn
            ):
                return fit, scale
        scale *= 0.5
    return None, scale


def _retract(theta):
    """theta normalized onto the unit sphere; None off the half-sphere."""
    theta = theta / np.linalg.norm(theta)
    return theta if theta[0] > 0 else None


def _tangent_basis(theta):
    """Orthonormal basis of the tangent space of the unit sphere at theta."""
    p = theta.size
    M = np.eye(p) - np.outer(theta, theta)
    q, r = np.linalg.qr(M)
    cols = [q[:, i] for i in range(p) if abs(r[i, i]) > 1e-8]
    return np.column_stack(cols[: p - 1]) if cols else np.zeros((p, 0))


def theta_step(dataset, basis, eta, theta_init, gtol=1e-8, noise_scale=1.0):
    """Local maximizer of L(., eta) on the half-sphere.

    Projected gradient ascent (at most 400 iterations) with normalization
    retraction and backtracking line search, followed by a tangent-space
    Newton polish; five perturbed restarts, best value returned.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    theta_init = np.atleast_1d(np.asarray(theta_init, dtype=float))
    p = theta_init.size
    if p == 1:
        return np.array([1.0])
    inv2s = 1.0 / (2.0 * noise_scale**2)

    def fit_at(th):
        return _Fit(dataset, basis, inv2s, th, eta)

    def tangent_grad(fit):
        g, th = fit.grad, fit.theta
        return g - (g @ th) * th

    def ascend(th0):
        th = th0 / np.linalg.norm(th0)
        if th[0] <= 0:
            th = -th
        fit = fit_at(th)
        L = fit.value
        alpha = 1.0 / (1.0 + np.linalg.norm(fit.grad))
        for _ in range(400):
            rg = tangent_grad(fit)
            if np.linalg.norm(rg) <= gtol * (1.0 + abs(L)):
                break
            th = fit.theta
            fit_c, alpha = _line_search(fit_at, L, lambda s: _retract(th + s * rg), alpha, 60)
            if fit_c is None:
                break
            fit, L = fit_c, fit_c.value
            alpha *= 1.6
        # tangent Newton polish (Riemannian Hessian of the sphere), accepting
        # flat values with a falling gradient norm
        noise = 64.0 * np.finfo(float).eps * (1.0 + abs(L))
        for _ in range(25):
            rg = tangent_grad(fit)
            gn = np.linalg.norm(rg)
            if gn <= 1e-13 * (1.0 + abs(L)):
                break
            th = fit.theta
            T = _tangent_basis(th)
            Hc = T.T @ (fit.hess - (fit.grad @ th) * np.eye(p)) @ T
            try:
                step = np.linalg.solve(Hc, -(T.T @ rg))
            except np.linalg.LinAlgError:
                break
            if not np.all(np.linalg.eigvalsh(Hc) < 0):
                break
            fit_c, _ = _line_search(
                fit_at, L, lambda s: _retract(th + T @ (s * step)), 1.0, 30,
                gn, lambda f: np.linalg.norm(tangent_grad(f)), noise,
            )
            if fit_c is None:
                break
            fit, L = fit_c, max(fit_c.value, L)
        return fit.theta, L

    rng = np.random.default_rng(1729)
    best = ascend(theta_init)
    for _ in range(5):
        pert = rng.standard_normal(p)
        th, L = ascend(best[0] + 0.05 * pert / np.linalg.norm(pert))
        if L > best[1]:
            best = (th, L)
    return best[0]


# grid points scored together by grid_init; bounds the n x block temporaries.
# Larger blocks score a little faster, but a block of 64 raised si_wilks'
# peak RSS by 6-9%, beyond the 5% that the benchmark allows.
_SCAN_BLOCK = 16


def grid_init(dataset, basis, N, noise_scale=1.0):
    """Grid-search initialization on the half-sphere.

    Returns (ParameterPoint, tau) where tau is the maximal nearest-neighbor
    gap of the grid.  For each grid point the closed-form eta is computed and
    the best (theta, eta) by functional value is returned; the grid is scored
    in blocks from the sparse sieve design (`_scan_grid`), and the winner's
    eta comes from `eta_step_closed_form`.  The grid and tau depend on
    (p, N) only and are computed once per pair (`_half_sphere_grid`).
    """
    if N < 1:
        raise ValueError("grid size N must be >= 1")
    grid, tau = _half_sphere_grid(dataset.p, N)
    best = _scan_grid(dataset, basis, grid, noise_scale)
    if best is None:
        raise SolverError("eta step failed on every grid point")
    th = grid[best]
    return ParameterPoint(th, eta_step_closed_form(dataset, basis, th)), tau


@lru_cache(maxsize=8)
def _half_sphere_grid(p, N):
    """The N-point grid of `grid_init` (read-only) and its tau.

    Both depend on (p, N) only: p = 2 uses equispaced angles, p >= 3 a draw
    seeded by 20170 + N.
    """
    if p == 1:
        grid = np.array([[1.0]])
    elif p == 2:
        ang = -np.pi / 2 + (np.arange(N) + 0.5) * np.pi / N
        grid = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        rng = np.random.default_rng(20170 + N)
        g = rng.standard_normal((N, p))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        g[:, 0] = np.abs(g[:, 0])
        grid = g
    if grid.shape[0] == 1:
        tau = 0.0
    else:
        d2 = np.sum((grid[:, None, :] - grid[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        tau = float(np.sqrt(d2.min(axis=1)).max())
    grid.setflags(write=False)
    return grid, tau


def _scan_grid(dataset, basis, grid, noise_scale=1.0):
    """Index of the grid point whose closed-form eta gives the largest L.

    Scores _SCAN_BLOCK points at a time from the in-sieve entries of the
    design (`WaveletBasis.level_pairs`): the normal equations of a block
    are segment sums (`_gram_block`), and the residual sum of squares
    follows from them.  A point is accepted as in `eta_step_closed_form`;
    ties keep the first index.  Returns None when the eta step fails on
    every point.
    """
    X, y = dataset.X, dataset.y
    n, m = dataset.n, basis.m
    inv2s = 1.0 / (2.0 * noise_scale**2)
    yy = float(y @ y) / n
    best_L, best_i = -np.inf, None
    for lo in range(0, grid.shape[0], _SCAN_BLOCK):
        T = X @ grid[lo:lo + _SCAN_BLOCK].T
        c, d, G = _gram_block(basis.level_pairs(T), y, T.shape[1], m)
        eta = _solve_block(c, d, G)
        if G is None:
            quad = np.einsum("bk,bk,bk->b", eta, d, eta)
        else:
            quad = np.einsum("bk,bkl,bl->b", eta, G, eta)
        rss = yy - 2.0 * np.einsum("bk,bk->b", c, eta) + quad
        L = np.where(np.isnan(rss), -np.inf, -inv2s * n * rss)
        i = int(np.argmax(L))
        if L[i] > best_L:
            best_L, best_i = L[i], lo + i
    return best_i


def _gram_block(entries, y, B, m):
    """E'y/n and E'E/n for every point of a block, as segment sums.

    entries: `level_pairs` of the n x B index matrix.  Returns c (B, m), the
    diagonal d (B, m) of E'E/n and E'E/n itself (B, m, m), None for a
    one-level sieve: a point meets one function per level, so the
    level-diagonal blocks are diagonal and only the cross-level blocks need
    pair bins.
    """
    n = y.size
    c = np.zeros(B * m)
    d = np.zeros(B * m)
    bins = []
    for rows, cols, vals in entries:
        i = rows // B  # flat position i*B + b: data row i, point b
        bins.append((rows - i * B) * m + cols)  # bin b*m + col
        c += np.bincount(bins[-1], vals * y[i], B * m)
        d += np.bincount(bins[-1], vals * vals, B * m)
    c, d = c.reshape(B, m) / n, d.reshape(B, m) / n
    if len(entries) == 1:
        return c, d, None
    G = np.zeros(B * m * m)
    for a, (_, _, vals_a) in enumerate(entries):
        for rows_b, cols_b, vals_b in entries[a + 1:]:
            # level a meets every point (only the last level is partial),
            # so its entry for a point is at the point's flat position
            G += np.bincount(bins[a][rows_b] * m + cols_b, vals_a[rows_b] * vals_b, B * m * m)
    G = G.reshape(B, m, m)
    G = (G + G.transpose(0, 2, 1)) / n
    G.reshape(B, m * m)[:, ::m + 1] = d
    return c, d, G


def _solve_block(c, d, G):
    """`eta_step_closed_form` for a block of normal equations (`_gram_block`).

    Accept by `_well_conditioned`, else retry once with the ridge
    1e-8 * trace/m; the eta of a point that fails both is left NaN.  A
    diagonal system (G None) is solved by division.
    """
    B, m = c.shape
    eta = np.full((B, m), np.nan)

    def solve(todo, dl, Gl):
        """Solve the accepted systems among `todo`; return the others."""
        ok = _well_conditioned(dl, Gl)
        done = todo[ok]
        if Gl is None:
            eta[done] = c[done] / dl[ok]
        else:
            eta[done] = np.linalg.solve(Gl[ok], c[done, :, None])[..., 0]
        return todo[~ok]

    todo = solve(np.arange(B), d, G)
    if todo.size:
        lam = 1e-8 * d[todo].sum(axis=1) / m
        solve(todo, d[todo] + lam[:, None],
              None if G is None else G[todo] + lam[:, None, None] * np.eye(m))
    return eta


def _well_conditioned(d, G):
    """Whether each matrix of a stack has condition number <= 1e12: the
    acceptance rule of the eta step.

    d (B, m) holds the diagonals and G (B, m, m) the symmetric matrices, or
    None where they are diagonal and the ratio of the diagonal's extremes
    is the condition number.  A cheap bound accepts what it certifies below
    1e10, a margin far beyond the rounding of the bound and of
    `np.linalg.cond`; only the rest pay an SVD.  NaN is not accepted.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = d.max(axis=-1) / d.min(axis=-1)
        if G is None:
            return bound <= 1e12
        # cond(G) <= cond(D) cond(K) for K = D^-1/2 G D^-1/2, whose
        # eigenvalues lie within 1 -+ r (Gershgorin), r the largest row sum
        # of |K| less its unit diagonal
        s = 1.0 / np.sqrt(d)
        r = (s * (np.abs(G) @ s[:, :, None])[..., 0] - 1.0).max(axis=-1)
        ok = (r < 1.0) & (bound * (1.0 + r) / (1.0 - r) <= 1e10)
    rest = np.flatnonzero(~ok)
    if rest.size:
        ok[rest] = np.linalg.cond(G[rest]) <= 1e12
    return ok


class SingleIndexModel(Model):
    """Dataset-bound single-index model satisfying the model contract.

    constrain_theta=True keeps theta-updates on the half-sphere; False runs
    them unconstrained in R^p (the finite sieve identifies the scale
    locally), which is the mode used for Wilks/Fisher calibration.  The
    noise scale is the dataset's sigma when known and positive, else 1.
    """

    theta_cap = 4.0  # admissible theta norm
    theta_gtol = 1e-9  # relative gradient tolerance of the theta solvers

    def __init__(self, dataset: SingleIndexDataset, basis: WaveletBasis,
                 constrain_theta=True, eta_radius=None):
        self.dataset = dataset
        self.basis = basis
        self.constrain_theta = bool(constrain_theta)
        self.noise_scale = _noise_scale(dataset.sigma)
        if eta_radius is None:
            if dataset.eta_star is not None:
                eta_radius = max(10.0 * float(np.linalg.norm(dataset.eta_star)), 1.0)
            else:
                eta_radius = 1e3
        self.eta_radius = float(eta_radius)
        self._inv2s = 1.0 / (2.0 * self.noise_scale**2)

    def _check(self, point: ParameterPoint):
        if point.p != self.dataset.p or point.m != self.basis.m:
            raise ModelDomainError("point dimensions do not match the model")
        tn = float(np.linalg.norm(point.theta))
        if not np.isfinite(tn) or tn > self.theta_cap:
            raise ModelDomainError(
                f"theta norm {tn!r} outside the admissible cap {self.theta_cap}"
            )
        en = float(np.linalg.norm(point.eta))
        if not np.isfinite(en) or en > self.eta_radius * (1.0 + 1e-9):
            raise ModelDomainError(
                f"eta norm {en!r} outside the ball of radius {self.eta_radius}"
            )

    def _fit(self, theta, eta):
        return _Fit(self.dataset, self.basis, self._inv2s, theta, eta)

    def evaluate(self, point):
        self._check(point)
        return self._fit(point.theta, point.eta).value

    def gradient(self, point):
        self._check(point)
        f = self._fit(point.theta, point.eta)
        return f.grad, 2.0 * self._inv2s * (f.E.T @ f.r)

    def hessian(self, point):
        self._check(point)
        f = self._fit(point.theta, point.eta)
        c = 2.0 * self._inv2s
        H_te = c * (self.dataset.X.T @ (f.dE * f.r[:, None] - f.E * f.fp[:, None]))
        return np.block([[f.hess, H_te], [H_te.T, -c * (f.E.T @ f.E)]])

    def eta_argmax(self, theta):
        eta = eta_step_closed_form(self.dataset, self.basis, theta)
        if float(np.linalg.norm(eta)) > self.eta_radius:
            return _eta_on_ball(self.dataset, self.basis, theta, self.eta_radius)
        return eta

    def theta_argmax(self, eta, theta_init=None):
        p = self.dataset.p
        if theta_init is None:
            theta_init = np.zeros(p)
            theta_init[0] = 1.0
        if self.constrain_theta:
            return theta_step(
                self.dataset, self.basis, eta, theta_init,
                gtol=self.theta_gtol, noise_scale=self.noise_scale,
            )
        return self._theta_newton(np.asarray(eta, dtype=float),
                                  np.asarray(theta_init, dtype=float))

    def _theta_newton(self, eta, th):
        """Unconstrained Newton ascent in theta with backtracking; gradient fallback.

        Inside the theta_cap ball.  Newton steps also accept flat values with
        a falling gradient norm.
        """
        def fit_at(theta):
            return self._fit(theta, eta)

        def inside(theta):
            return theta if np.linalg.norm(theta) < self.theta_cap else None

        fit = fit_at(th)
        L = fit.value
        alpha = 1.0
        for _ in range(200):
            g = fit.grad
            gn = float(np.linalg.norm(g))
            if gn <= self.theta_gtol * (1.0 + abs(L)):
                break
            use_newton = False
            try:
                if np.all(np.linalg.eigvalsh(fit.hess) < 0):
                    d = np.linalg.solve(fit.hess, -g)
                    use_newton = True
            except np.linalg.LinAlgError:
                pass
            if not use_newton:
                d = g / gn
            th = fit.theta
            fit_c, scale = _line_search(
                fit_at, L, lambda s: inside(th + s * d), 1.0 if use_newton else alpha, 60,
                gn, (lambda f: np.linalg.norm(f.grad)) if use_newton else None,
                64.0 * np.finfo(float).eps * (1.0 + abs(L)),
            )
            if fit_c is None:
                break
            fit, L = fit_c, max(fit_c.value, L)
            if not use_newton:
                alpha = min(scale * 1.6, 1e3)
        return fit.theta

    def default_start(self, N=64):
        """The start of `grid_init` on N grid points, inside the eta ball.

        Where the grid's closed-form eta leaves the ball, the grid theta is
        kept (not re-scored) with the model's eta step, which stays inside.
        """
        start, _tau = grid_init(self.dataset, self.basis, N, noise_scale=self.noise_scale)
        if float(np.linalg.norm(start.eta)) > self.eta_radius:
            start = ParameterPoint(start.theta, self.eta_argmax(start.theta))
        return start

