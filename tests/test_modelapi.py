import numpy as np
import pytest

from altmax.modelapi import Model
from altmax.singleindex import SingleIndexModel, generate, uniform_ball
from altmax.statcore import ParameterPoint
from altmax.wavelet import WaveletBasis
from instruments import finite_difference_gradient


class Bare(Model):
    def evaluate(self, point):
        v = point.as_vector()
        return float(-(v @ v))

    def gradient(self, point):
        g = -2.0 * point.as_vector()
        return g[:1], g[1:]


def test_base_operations_raise_not_implemented():
    m = Model()
    pt = ParameterPoint([0.0], [0.0])
    for call in (
        lambda: m.evaluate(pt),
        lambda: m.gradient(pt),
        lambda: m.hessian(pt),
        lambda: m.eta_argmax([0.0]),
        lambda: m.theta_argmax([0.0]),
        lambda: m.default_start(),
    ):
        with pytest.raises(NotImplementedError):
            call()


def test_finite_difference_gradient():
    m = Bare()
    pt = ParameterPoint([0.3], [-0.7])
    gt, ge = finite_difference_gradient(m, pt, h=1e-6)
    at, ae = m.gradient(pt)
    assert abs(gt[0] - at[0]) < 1e-8 and abs(ge[0] - ae[0]) < 1e-8


def expected_evaluate(model, star, point, n_mc, seed):
    """Monte Carlo E L(point) = -n/(2s^2) (E[(f* - f_point)^2] + sigma^2) of a
    single-index model whose data are drawn from the truth `star`."""
    ds, basis = model.dataset, model.basis
    rng = np.random.default_rng(seed)
    X = uniform_ball(rng, n_mc, ds.p, basis.s_X)
    fstar = basis.synth(X @ star.theta, star.eta)
    fhat = basis.synth(X @ point.theta, point.eta)
    mse = float(np.mean((fstar - fhat) ** 2))
    return -ds.n / (2.0 * model.noise_scale**2) * (mse + ds.sigma**2)


def test_expected_functional_maximized_at_truth_single_index():
    basis = WaveletBasis(m=3, s_X=1.0)
    theta_star = np.array([np.cos(0.3), np.sin(0.3)])
    eta_star = np.array([1.0, -0.8, 0.9])
    ds = generate(200, theta_star, eta_star, 0.3, seed=1, basis=basis)
    model = SingleIndexModel(ds, basis)
    star = ParameterPoint(theta_star, eta_star)
    base = expected_evaluate(model, star, star, n_mc=50_000, seed=5)
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = 0.1 * rng.standard_normal(5)
        th = theta_star + d[:2]
        th /= np.linalg.norm(th)
        pt = ParameterPoint(th, eta_star + d[2:])
        assert expected_evaluate(model, star, pt, n_mc=50_000, seed=5) <= base + 1e-9
