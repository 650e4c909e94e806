"""Contract a statistical model must satisfy to be driven by the alternator.

A model wraps one realized dataset and exposes the random functional L, its
split gradient and Hessian, its two partial maximizers, `eta_argmax` and
`theta_argmax`, and a `default_start`.  A model provides both maximizers:
the engine alternates them and has no generic ascent to fall back on.  The
contract needs no truth: the experiments build the information at the
truth from the truth itself.
"""

from __future__ import annotations

import numpy as np

from .statcore import ParameterPoint


class ModelDomainError(ValueError):
    """A point lies outside the model's admissible set; message names the constraint."""


class Model:
    """Base class; a subclass implements every operation below."""

    def evaluate(self, point: ParameterPoint) -> float:
        raise NotImplementedError

    def gradient(self, point: ParameterPoint):
        """Split gradient (grad_theta, grad_eta) of L at the point."""
        raise NotImplementedError

    def hessian(self, point: ParameterPoint):
        raise NotImplementedError

    def eta_argmax(self, theta):
        """argmax over eta of L(theta, .)."""
        raise NotImplementedError

    def theta_argmax(self, eta, theta_init=None):
        """argmax over theta of L(., eta); theta_init is the previous theta."""
        raise NotImplementedError

    def default_start(self) -> ParameterPoint:
        raise NotImplementedError


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
