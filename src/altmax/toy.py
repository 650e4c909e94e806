"""Exactly solvable linear-Gaussian model: the analytic oracle for the alternator.

Observation Y = upsilon_star + eps with eps ~ N(0, inv(F2)), functional
L(u) = -||F (u - Y)||^2 / 2.  Both partial maximizers are linear maps, so
every alternation iterate has a closed form: theta_k - y_theta =
M^k (theta_0 - y_theta) with M = D2^{-1} A H2^{-1} A', and eta_k is the
eta-update at theta_{k-1}.  The acceptance gate compares the engine's
iterates with it (`tests/instruments.py`).  The maximizers' solves are
scipy's SPD solve, with each diagonal block factored once per model
(`_lapack._factor`) and applied on every step: for the 1x1 blocks of every
shipped config that is scipy's scalar quotient, with no LAPACK call.
"""

from __future__ import annotations

import numpy as np

from . import _lapack
from .modelapi import Model, ModelDomainError
from .statcore import BlockInformation, ParameterPoint


class ToyGaussianModel(Model):
    def __init__(self, F2: BlockInformation, Y):
        F2.validate()
        self.F2 = F2
        self.Y = np.asarray(Y, dtype=float).copy()
        if self.Y.size != F2.p + F2.m:
            raise ValueError("Y dimension does not match the information F2")
        self._full = F2.full
        self._p = F2.p
        # what the partial maximizers read on every step
        self._y_th, self._y_et = self.Y[: self._p], self.Y[self._p :]
        self._A, self._At = F2.A, F2.A.T
        self._d2 = _lapack._factor(F2.D2)
        self._h2 = _lapack._factor(F2.H2)

    def _check(self, point):
        v = point.as_vector()
        if v.size != self.Y.size:
            raise ModelDomainError("point dimension does not match the model")
        if np.count_nonzero(np.isfinite(v)) < v.size:  # as in _lapack._check_finite
            raise ModelDomainError("point has non-finite coordinates")
        return v

    def evaluate(self, point):
        d = self._check(point) - self.Y
        return float(-0.5 * d @ (self._full @ d))

    def gradient(self, point):
        g = -self._full @ (self._check(point) - self.Y)
        return g[: self._p], g[self._p :]

    def hessian(self, point):
        return -self._full

    def eta_argmax(self, theta):
        th = _argument(theta, self._y_th, "theta")
        return self._y_et - _lapack._apply(self._h2, self._At @ (th - self._y_th))

    def theta_argmax(self, eta, theta_init=None):
        et = _argument(eta, self._y_et, "eta")
        return self._y_th - _lapack._apply(self._d2, self._A @ (et - self._y_et))

    def default_start(self):
        return ParameterPoint(np.zeros(self._p), np.zeros(self.F2.m))


def _argument(x, y, name):
    """x as a float vector of y's size; ModelDomainError otherwise."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != y.shape:
        raise ModelDomainError(f"{name} must have {y.size} coordinates, got shape {x.shape}")
    return x


def simulate(F2: BlockInformation, upsilon_star: ParameterPoint, seed):
    """Draw Y = upsilon_star + inv(F) z with z standard normal; deterministic per seed."""
    F2.validate()
    star = upsilon_star.as_vector()
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(star.size)
    Y = star + np.linalg.solve(F2.full_sqrt, z)
    return ToyGaussianModel(F2, Y)
