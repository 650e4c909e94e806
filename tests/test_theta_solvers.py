"""The shared single-index objective and line search against closure oracles.

`reference_theta_step` and `reference_theta_newton` are the two theta
solvers as they were before they shared `_Fit` and `_line_search`: each
rebuilt the design inside its own value, gradient and Hessian closures and
ran its own backtracking loops.  `reference_value`, `reference_gradient`
and `reference_hessian` are the model methods of that code.  All are kept
here, independent of the code under test, as oracles; the new code must
reproduce them bit for bit.
"""

import numpy as np
import pytest

from altmax.singleindex import SingleIndexModel, _line_search, generate, theta_step
from altmax.statcore import ParameterPoint
from altmax.wavelet import WaveletBasis

ETA = (1.0, -0.8, 0.9, -0.7, 0.6, 0.8)


def reference_tangent_basis(theta):
    p = theta.size
    M = np.eye(p) - np.outer(theta, theta)
    q, r = np.linalg.qr(M)
    cols = [q[:, i] for i in range(p) if abs(r[i, i]) > 1e-8]
    return np.column_stack(cols[: p - 1]) if cols else np.zeros((p, 0))


def reference_theta_step(dataset, basis, eta, theta_init, gtol=1e-8, max_iter=400,
                         restarts=5, noise_scale=1.0):
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    theta_init = np.atleast_1d(np.asarray(theta_init, dtype=float))
    p = theta_init.size
    if p == 1:
        return np.array([1.0])
    inv2s = 1.0 / (2.0 * noise_scale**2)
    X, y = dataset.X, dataset.y

    def value(th):
        r = y - basis.design(X @ th) @ eta
        return -inv2s * float(r @ r)

    def grad(th):
        t = X @ th
        r = y - basis.design(t) @ eta
        fp = basis.ddesign(t) @ eta
        return 2.0 * inv2s * (X.T @ (r * fp))

    def hess(th):
        t = X @ th
        r = y - basis.design(t) @ eta
        fp = basis.ddesign(t) @ eta
        fpp = basis.d2design(t) @ eta
        w = r * fpp - fp * fp
        return 2.0 * inv2s * ((X * w[:, None]).T @ X)

    def ascend(th0):
        th = th0 / np.linalg.norm(th0)
        if th[0] <= 0:
            th = -th
        L = value(th)
        alpha = 1.0 / (1.0 + np.linalg.norm(grad(th)))
        stalled = False
        for _ in range(max_iter):
            g = grad(th)
            rg = g - (g @ th) * th
            gn = np.linalg.norm(rg)
            if gn <= gtol * (1.0 + abs(L)):
                break
            accepted = False
            for _ in range(60):
                cand = th + alpha * rg
                cand /= np.linalg.norm(cand)
                if cand[0] <= 0:
                    alpha *= 0.5
                    continue
                Lc = value(cand)
                if Lc > L:
                    th, L = cand, Lc
                    alpha *= 1.6
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                stalled = True
                break
        noise = 64.0 * np.finfo(float).eps * (1.0 + abs(L))
        for _ in range(25):
            g = grad(th)
            rg = g - (g @ th) * th
            gn = np.linalg.norm(rg)
            if gn <= 1e-13 * (1.0 + abs(L)):
                break
            T = reference_tangent_basis(th)
            Hc = T.T @ (hess(th) - (g @ th) * np.eye(p)) @ T
            gc = T.T @ rg
            try:
                step = np.linalg.solve(Hc, -gc)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.linalg.eigvalsh(Hc) < 0):
                break
            moved = False
            scale = 1.0
            for _ in range(30):
                cand = th + T @ (scale * step)
                cand /= np.linalg.norm(cand)
                if cand[0] > 0:
                    Lc = value(cand)
                    gcand = grad(cand)
                    gn_cand = np.linalg.norm(gcand - (gcand @ cand) * cand)
                    if Lc > L or (Lc >= L - noise and gn_cand < gn):
                        th, L = cand, max(Lc, L)
                        moved = True
                        break
                scale *= 0.5
            if not moved:
                break
        return th, L, stalled

    rng = np.random.default_rng(1729)
    best = None
    th0 = theta_init
    for _ in range(restarts + 1):
        th, L, _ = ascend(th0)
        if best is None or L > best[1]:
            best = (th, L)
        pert = rng.standard_normal(p)
        th0 = best[0] + 0.05 * pert / np.linalg.norm(pert)
    return best[0]


def reference_theta_newton(model, eta, th):
    X, y, basis, inv2s = model.dataset.X, model.dataset.y, model.basis, model._inv2s

    def val(t):
        r = y - basis.design(X @ t) @ eta
        return -inv2s * float(r @ r)

    def grad(t):
        tt = X @ t
        r = y - basis.design(tt) @ eta
        fp = basis.ddesign(tt) @ eta
        return 2.0 * inv2s * (X.T @ (r * fp))

    def hess(t):
        tt = X @ t
        r = y - basis.design(tt) @ eta
        fp = basis.ddesign(tt) @ eta
        fpp = basis.d2design(tt) @ eta
        w = r * fpp - fp * fp
        return 2.0 * inv2s * ((X * w[:, None]).T @ X)

    L = val(th)
    alpha = 1.0
    for _ in range(200):
        g = grad(th)
        gn = float(np.linalg.norm(g))
        if gn <= model.theta_gtol * (1.0 + abs(L)):
            return th
        H = hess(th)
        use_newton = False
        try:
            if np.all(np.linalg.eigvalsh(H) < 0):
                d = np.linalg.solve(H, -g)
                use_newton = True
        except np.linalg.LinAlgError:
            pass
        if not use_newton:
            d = g / gn
        accepted = False
        scale = 1.0 if use_newton else alpha
        noise = 64.0 * np.finfo(float).eps * (1.0 + abs(L))
        for _ in range(60):
            cand = th + scale * d
            if np.linalg.norm(cand) >= model.theta_cap:
                scale *= 0.5
                continue
            Lc = val(cand)
            gd = use_newton and Lc >= L - noise and float(
                np.linalg.norm(grad(cand))
            ) < gn
            if Lc > L or gd:
                th, L = cand, max(Lc, L)
                accepted = True
                if not use_newton:
                    alpha = min(scale * 1.6, 1e3)
                break
            scale *= 0.5
        if not accepted:
            return th
    return th


def reference_value(model, pt):
    r = model.dataset.y - model.basis.design(model.dataset.X @ pt.theta) @ pt.eta
    return -model._inv2s * float(r @ r)


def reference_gradient(model, pt):
    X, basis, c = model.dataset.X, model.basis, 2.0 * model._inv2s
    t = X @ pt.theta
    E = basis.design(t)
    r = model.dataset.y - E @ pt.eta
    fp = basis.ddesign(t) @ pt.eta
    return c * (X.T @ (r * fp)), c * (E.T @ r)


def reference_hessian(model, pt):
    X, basis, c = model.dataset.X, model.basis, 2.0 * model._inv2s
    t = X @ pt.theta
    E = basis.design(t)
    r = model.dataset.y - E @ pt.eta
    dE = basis.ddesign(t)
    fp = dE @ pt.eta
    fpp = basis.d2design(t) @ pt.eta
    w = r * fpp - fp * fp
    H_tt = c * ((X * w[:, None]).T @ X)
    H_te = c * (X.T @ (dE * r[:, None] - E * fp[:, None]))
    H_ee = -c * (E.T @ E)
    return np.vstack([np.hstack([H_tt, H_te]), np.hstack([H_te.T, H_ee])])


def bind(p, m, seed, sigma=0.5, constrain_theta=True):
    basis = WaveletBasis(m=m, s_X=1.0)
    theta = np.zeros(p)
    theta[0], theta[1] = np.cos(0.3), np.sin(0.3)
    eta = [ETA[k % len(ETA)] for k in range(m)]
    ds = generate(400, theta, eta, sigma, seed=seed, basis=basis)
    return SingleIndexModel(ds, basis, constrain_theta=constrain_theta), theta, np.array(eta)


def starts(p, theta_star, seed):
    """The truth, two points near the half-sphere edge and a random direction."""
    rng = np.random.default_rng(seed)
    out = [theta_star]
    for side in (-1.0, 1.0):
        edge = np.zeros(p)
        edge[0], edge[1] = 0.02, side
        out.append(edge / np.linalg.norm(edge))
    th = rng.standard_normal(p)
    th[0] = abs(th[0])
    out.append(th / np.linalg.norm(th))
    return out


def perturbed_etas(eta, seed):
    rng = np.random.default_rng(seed)
    return [eta, eta + 0.3 * rng.standard_normal(eta.size)]


CASES = [(p, m) for p in (2, 3) for m in (6, 20)]


@pytest.mark.parametrize("p,m", CASES)
def test_model_methods_match_reference(p, m):
    model, theta, eta = bind(p, m, seed=10 * p + m)
    rng = np.random.default_rng(m)
    for _ in range(5):
        th = theta + 0.3 * rng.standard_normal(p)
        pt = ParameterPoint(th, eta + 0.3 * rng.standard_normal(m))
        assert model.evaluate(pt) == reference_value(model, pt)
        for got, ref in zip(model.gradient(pt), reference_gradient(model, pt)):
            assert np.array_equal(got, ref)
        assert np.array_equal(model.hessian(pt), reference_hessian(model, pt))


@pytest.mark.parametrize("p,m", CASES)
@pytest.mark.parametrize("sigma", [0.5, 0.0])
def test_theta_step_matches_reference(p, m, sigma):
    model, theta, eta = bind(p, m, seed=20 * p + m, sigma=sigma)
    ds, basis, s = model.dataset, model.basis, model.noise_scale
    e = perturbed_etas(eta, seed=m)[1]
    ref = reference_theta_step(ds, basis, e, theta, gtol=model.theta_gtol, noise_scale=s)
    assert np.array_equal(theta_step(model, e, theta), ref)
    # theta_argmax runs theta_step
    for e in perturbed_etas(eta, seed=m):
        for th0 in starts(p, theta, seed=p):
            ref = reference_theta_step(ds, basis, e, th0, gtol=model.theta_gtol,
                                       noise_scale=s)
            assert np.array_equal(model.theta_argmax(e, th0), ref)


@pytest.mark.parametrize("p,m", CASES)
@pytest.mark.parametrize("sigma", [0.5, 0.0])
def test_theta_newton_matches_reference(p, m, sigma):
    model, theta, eta = bind(p, m, seed=30 * p + m, sigma=sigma, constrain_theta=False)
    for e in perturbed_etas(eta, seed=m):
        # the last start lies near the theta_cap ball, so steps leave it
        for th0 in starts(p, theta, seed=p) + [3.9 * theta]:
            ref = reference_theta_newton(model, e, th0)
            assert np.array_equal(model.theta_argmax(e, th0), ref)


class CountingFit:
    """`fit_at` of a constant value that counts the thetas it is asked for."""

    def __init__(self, value):
        self.value, self.thetas = value, []

    def __call__(self, theta):
        self.thetas.append(theta)
        return self


def test_line_search_fits_a_repeated_candidate_once():
    # past an ulp of the step every candidate is the same point: one fit,
    # and the scale still halves on every try
    fit_at = CountingFit(-2.0)
    theta = np.array([0.6, 0.8])
    assert _line_search(fit_at, -1.0, lambda s: theta.copy(), 0.75, 60) == (None, 0.75 * 0.5**60)
    assert len(fit_at.thetas) == 1
    # distinct candidates are each fitted
    fit_at = CountingFit(-2.0)
    _line_search(fit_at, -1.0, lambda s: np.array([1.0, s]), 1.0, 10)
    assert len(fit_at.thetas) == 10


def test_line_search_skip_leaves_infeasible_candidates_alone():
    theta = np.array([0.6, 0.8])

    def move(s):
        return None if s > 0.3 else theta.copy()

    # two infeasible tries halve the scale without a fit; the feasible
    # candidate is fitted and accepted
    fit_at = CountingFit(0.0)
    fit, scale = _line_search(fit_at, -1.0, move, 1.0, 60)
    assert (fit, scale, len(fit_at.thetas)) == (fit_at, 0.25, 1)
    # rejected, it is fitted once; an infeasible try between two equal
    # candidates does not make the second one new
    fit_at = CountingFit(-2.0)
    assert _line_search(fit_at, -1.0, move, 1.0, 60) == (None, 0.5**60)
    assert len(fit_at.thetas) == 1
    fit_at = CountingFit(-2.0)
    assert _line_search(fit_at, -1.0, lambda s: None if s == 0.5 else theta.copy(),
                        1.0, 4) == (None, 0.0625)
    assert len(fit_at.thetas) == 1
