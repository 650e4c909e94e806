"""The acceptance gate's instruments: checks of the library that no run reads.

- `exact_alternation`, the toy model's closed-form alternation iterate, which
  the engine's iterates must match (criterion 1);
- `finite_difference_gradient` and `gradient_check`, the central-difference
  check of a model's analytic gradient (criterion 10);
- `validate_quad_tail`, the seeded Monte Carlo check of the quadratic-form
  tail bound (criterion 3);
- `convert_conditions`, the projected-condition constants of the paper, which
  the bound oracle's tests compare with `tests/reference_bounds.py`.
"""

from __future__ import annotations

import math

import numpy as np

from altmax import _lapack
from altmax.bounds import ConditionConstants, quad_form_quantile
from altmax.modelapi import Model
from altmax.statcore import ParameterPoint
from altmax.toy import ToyGaussianModel


def exact_alternation(model: ToyGaussianModel, start: ParameterPoint, k: int) -> ParameterPoint:
    """Closed-form alternation iterate (theta_k, eta_k) after k full steps.

    theta_k - y_theta = M^k (theta_0 - y_theta) with M = D2^{-1} A H2^{-1} A.T,
    and eta_k is the eta-update at theta_{k-1}.  k = 0 returns the start.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return start
    p = model.F2.p
    y_th = model.Y[:p]
    M = _lapack.solve(model.F2.D2, model.F2.A @ _lapack.solve(model.F2.H2, model.F2.A.T))
    err = start.theta - y_th
    prev = err
    for _ in range(k):
        prev = err
        err = M @ err
    theta_k = y_th + err
    eta_k = model.eta_argmax(y_th + prev)
    return ParameterPoint(theta_k, eta_k)


def finite_difference_gradient(model: Model, point: ParameterPoint, h=1e-6):
    """Central-difference split gradient of model.evaluate at the point."""
    v0 = point.as_vector()
    p = point.p
    g = np.zeros(v0.size)
    for j in range(v0.size):
        vp = v0.copy()
        vm = v0.copy()
        vp[j] += h
        vm[j] -= h
        fp = model.evaluate(ParameterPoint.from_vector(vp, p))
        fm = model.evaluate(ParameterPoint.from_vector(vm, p))
        g[j] = (fp - fm) / (2.0 * h)
    return g[:p], g[p:]


def gradient_check(model: Model, points, h=1e-6):
    """Max relative error between analytic and central-difference gradients."""
    worst = 0.0
    for pt in points:
        gt, ge = model.gradient(pt)
        ft, fe = finite_difference_gradient(model, pt, h=h)
        g = np.concatenate([gt, ge])
        f = np.concatenate([ft, fe])
        denom = max(float(np.linalg.norm(g)), 1e-12)
        worst = max(worst, float(np.linalg.norm(g - f)) / denom)
    return worst


def convert_conditions(cc: ConditionConstants, nu):
    """(g_breve, nu_breve): the projected-condition constants implied by the
    full ones under coupling nu.  delta(r) and omega carry over unchanged."""
    fac = (1.0 + nu * math.sqrt(1.0 + nu**2)) / math.sqrt(1.0 - nu**2)
    g_breve = cc.g / fac if not math.isinf(cc.g) else math.inf
    return g_breve, nu * fac


def validate_quad_tail(B, x_list, n_draws, seed, g=math.inf):
    """Empirical exceedance of ||B xi|| over the quantile, per x.

    Draws are generated in chunks of 20 000, each with a seed derived from
    (seed, chunk index), so the result is independent of execution schedule.
    Pass criterion: fraction <= 2 exp(-x) + 3 binomial standard errors.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    dim = B.shape[0]
    zs = [quad_form_quantile(x, B, g) for x in x_list]
    counts = np.zeros(len(x_list), dtype=np.int64)
    chunk = 20_000
    for c, lo in enumerate(range(0, n_draws, chunk)):
        size = min(chunk, n_draws - lo)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
        xi = rng.standard_normal((size, dim))
        norms = np.linalg.norm(xi @ B.T, axis=1)
        for i, z in enumerate(zs):
            counts[i] += int(np.count_nonzero(norms > z))
    out = []
    for i, x in enumerate(x_list):
        frac = counts[i] / n_draws
        se = math.sqrt(max(frac * (1.0 - frac), 1.0 / n_draws) / n_draws)
        bound = 2.0 * math.exp(-x)
        out.append(
            {
                "x": float(x),
                "z": float(zs[i]),
                "count": int(counts[i]),
                "fraction": float(frac),
                "se": float(se),
                "bound": float(bound),
                "ok": bool(frac <= bound + 3.0 * se),
            }
        )
    return out
