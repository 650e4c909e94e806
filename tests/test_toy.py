import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning

from altmax import _lapack, toy
from altmax.alternation import AlternationConfig, run
from altmax.modelapi import ModelDomainError
from altmax.statcore import (
    BlockInformation,
    ParameterPoint,
    coupling_norm,
    efficient_information,
    sqrt_spd,
)
from altmax.toy import ToyGaussianModel, simulate
from instruments import exact_alternation, gradient_check

F2_CANON = BlockInformation(D2=[[2.0]], A=[[1.0]], H2=[[2.0]])
STAR = ParameterPoint([0.0], [0.0])


def canon_model():
    return ToyGaussianModel(F2_CANON, Y=[1.0, 0.0])


def expected_evaluate(model, star, point):
    """E over the noise of L(point), for data drawn from the truth `star`:
    -||F(u - u*)||^2/2 - p*/2."""
    d = point.as_vector() - star.as_vector()
    return float(-0.5 * d @ (model.F2.full @ d) - 0.5 * d.size)


def contraction_matrix(F2):
    """M0 = Ftheta^{-1} A Feta^{-2} A.T Ftheta^{-1} and its spectral norm (= nu)."""
    F2.validate()
    Fth = sqrt_spd(F2.D2)
    inner = F2.A @ _lapack.solve(F2.H2, F2.A.T)
    M0 = np.linalg.solve(Fth, np.linalg.solve(Fth, inner).T)
    M0 = 0.5 * (M0 + M0.T)
    return M0, float(np.linalg.norm(M0, 2))


def test_evaluate_examples():
    m = canon_model()
    assert m.evaluate(ParameterPoint([1.0], [0.0])) == 0.0
    ident = ToyGaussianModel(BlockInformation(D2=[[1.0]], A=[[0.0]], H2=[[1.0]]), Y=[1.0, 0.0])
    assert abs(ident.evaluate(ParameterPoint([0.0], [0.0])) + 0.5) < 1e-14


def test_gradient_example_and_fd():
    m = canon_model()
    gt, ge = m.gradient(ParameterPoint([0.0], [0.0]))
    assert abs(gt[0] - 2.0) < 1e-14 and abs(ge[0] - 1.0) < 1e-14
    gmax, gemax = m.gradient(ParameterPoint([1.0], [0.0]))
    assert abs(gmax[0]) < 1e-12 and abs(gemax[0]) < 1e-12
    rng = np.random.default_rng(1)
    pts = [ParameterPoint(rng.standard_normal(1), rng.standard_normal(1)) for _ in range(100)]
    assert gradient_check(m, pts, h=1e-6) <= 1e-6


def test_simulate_zero_noise_and_reproducibility():
    star = ParameterPoint([0.3], [0.7])
    # with no noise (Y = upsilon_star) the functional peaks at the truth
    m0 = ToyGaussianModel(F2_CANON, star.as_vector())
    assert m0.evaluate(star) == 0.0
    assert not np.concatenate(m0.gradient(star)).any()
    m1 = simulate(F2_CANON, star, seed=5)
    # the noise is inv(F) z, with z the seed's standard normal draw
    z = np.random.default_rng(5).standard_normal(2)
    assert np.allclose(F2_CANON.full_sqrt @ (m1.Y - star.as_vector()), z)
    m2 = simulate(F2_CANON, star, seed=5)
    assert np.array_equal(m1.Y, m2.Y)
    assert not np.allclose(simulate(F2_CANON, star, seed=6).Y, m1.Y)


def test_simulate_covariance_matches_inverse_information():
    star = ParameterPoint([0.0], [0.0])
    reps = 10_000
    ys = np.array([simulate(F2_CANON, star, seed=s).Y for s in range(reps)])
    cov = np.cov(ys.T)
    target = np.linalg.inv(F2_CANON.full)
    se = np.abs(target) * np.sqrt(2.0 / reps) + 1e-3
    assert np.all(np.abs(cov - target) < 3.0 * (se + np.sqrt(2.0 / reps) * np.abs(target).max()))


def test_contraction_matrix_examples():
    A0 = BlockInformation(D2=np.eye(2), A=np.zeros((2, 2)), H2=np.eye(2))
    M0, nrm = contraction_matrix(A0)
    assert np.allclose(M0, 0.0) and nrm == 0.0
    M0c, nc = contraction_matrix(F2_CANON)
    assert abs(M0c[0, 0] - 0.25) < 1e-14 and abs(nc - 0.25) < 1e-14
    rng = np.random.default_rng(2)
    for _ in range(10):
        p, m = rng.integers(1, 4), rng.integers(1, 4)
        Qp, _ = np.linalg.qr(rng.standard_normal((p, p)))
        Qm, _ = np.linalg.qr(rng.standard_normal((m, m)))
        D2 = Qp @ np.diag(rng.uniform(1, 3, p)) @ Qp.T
        H2 = Qm @ np.diag(rng.uniform(1, 3, m)) @ Qm.T
        A = 0.3 * rng.standard_normal((p, m))
        blocks = BlockInformation(D2=D2, A=A, H2=H2)
        _, nrm = contraction_matrix(blocks)
        assert abs(nrm - coupling_norm(blocks)) < 1e-10


def test_exact_alternation_sequence():
    m = canon_model()
    start = ParameterPoint([0.0], [0.0])
    p1 = exact_alternation(m, start, 1)
    assert abs(p1.theta[0] - 0.75) < 1e-14
    p2 = exact_alternation(m, start, 2)
    assert abs(p2.theta[0] - 0.9375) < 1e-14
    p30 = exact_alternation(m, start, 30)
    assert abs(p30.theta[0] - 1.0) < 1e-15  # fixed point y_theta
    # error ratio per step equals ||M0||
    errs = [abs(exact_alternation(m, start, k).theta[0] - 1.0) for k in range(1, 6)]
    for a, b in zip(errs[:-1], errs[1:]):
        assert abs(b / a - 0.25) < 1e-10


def test_run_matches_exact_alternation_various_dims():
    rng = np.random.default_rng(9)
    for trial in range(6):
        p, m = rng.integers(1, 9), rng.integers(1, 9)
        Qp, _ = np.linalg.qr(rng.standard_normal((p, p)))
        Qm, _ = np.linalg.qr(rng.standard_normal((m, m)))
        D2 = Qp @ np.diag(rng.uniform(1.0, 4.0, p)) @ Qp.T
        H2 = Qm @ np.diag(rng.uniform(1.0, 4.0, m)) @ Qm.T
        A = 0.35 * rng.standard_normal((p, m))
        F2 = BlockInformation(D2=D2, A=A, H2=H2)
        if coupling_norm(F2) >= 1.0:
            continue
        star = ParameterPoint(np.zeros(p), np.zeros(m))
        model = simulate(F2, star, seed=trial)
        start = ParameterPoint(rng.standard_normal(p), rng.standard_normal(m))
        trace = run(model, start, AlternationConfig(max_steps=20, solver_tolerance=1e-14))
        for rec in trace.records:
            ex = exact_alternation(model, start, rec.k)
            assert np.abs(rec.point_kk.as_vector() - ex.as_vector()).max() < 1e-12


def test_error_ratio_invariant_isotropic_blocks():
    # isotropic blocks make M0 a multiple of the identity: the ratio is exact
    F2 = BlockInformation(D2=3.0 * np.eye(2), A=0.8 * np.eye(2), H2=2.0 * np.eye(2))
    nu = coupling_norm(F2)
    star = ParameterPoint(np.zeros(2), np.zeros(2))
    model = simulate(F2, star, seed=3)
    Fth = sqrt_spd(F2.D2)
    start = ParameterPoint([1.0, -0.5], [0.0, 0.0])
    trace = run(model, start, AlternationConfig(max_steps=12, solver_tolerance=1e-15))
    y_th = model.Y[:2]
    errs = [np.linalg.norm(Fth @ (r.point_kk.theta - y_th)) for r in trace.records]
    for k in range(2, 8):
        assert abs(errs[k] / errs[k - 1] - nu) < 1e-10


def test_exact_profile_and_efficient_information():
    # the joint maximizer is Y, and the profile curvature of the blocks is
    # D2 - A H2^{-1} A.T = 2 - 1/2
    m = canon_model()
    gt, ge = m.gradient(ParameterPoint(m.Y[:1], m.Y[1:]))
    assert not gt.any() and not ge.any()
    assert np.allclose(efficient_information(F2_CANON), [[1.5]])


def test_standardized_estimator_is_standard_normal():
    # D_eff (theta_tilde - theta*) over replications: mean ~ 0, var ~ 1
    reps = 2000
    Deff = np.sqrt(1.5)
    vals = np.empty(reps)
    for s in range(reps):
        model = simulate(F2_CANON, STAR, seed=1000 + s)
        vals[s] = Deff * (model.Y[0] - 0.0)  # profile theta is y_theta
    se_mean = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean()) < 3.0 * se_mean
    var = vals.var(ddof=1)
    se_var = np.sqrt(2.0 / (reps - 1))
    assert abs(var - 1.0) < 3.0 * se_var


def test_expected_functional_maximized_at_truth():
    m = canon_model()
    star_val = expected_evaluate(m, STAR, STAR)
    rng = np.random.default_rng(4)
    for _ in range(50):
        v = 2.0 * rng.standard_normal(2)
        assert expected_evaluate(m, STAR, ParameterPoint(v[:1], v[1:])) <= star_val + 1e-12


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        ToyGaussianModel(F2_CANON, Y=[1.0, 0.0, 3.0])


def _solve_expressions(model, x, which):
    """The toy's maximizers written with `_lapack.solve` on the blocks, as they
    were before the blocks were factored once per model."""
    F2, p = model.F2, model.F2.p
    y_th, y_et = model.Y[:p], model.Y[p:]
    if which == "eta":
        return y_et - _lapack.solve(F2.H2, F2.A.T @ (np.atleast_1d(x) - y_th))
    return y_th - _lapack.solve(F2.D2, F2.A @ (np.atleast_1d(x) - y_et))


def _outcome(fn, *args):
    """fn's result with the warning categories it raised, or its exception type."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except Exception as exc:  # noqa: BLE001 - the exception type is compared
            return type(exc), []
    return out, [w.category for w in caught]


def _toy_models(rng):
    for p in (1, 2, 3):
        for m in (1, 2, 3):
            A = 0.3 * rng.standard_normal((p, m))
            for D2, H2 in (
                (sqrt_spd(np.cov(rng.standard_normal((p, 4 * p)))) + np.eye(p),
                 sqrt_spd(np.cov(rng.standard_normal((m, 4 * m)))) + np.eye(m)),
                (1e-310 * np.eye(p), np.eye(m)),
                (np.eye(p), 1e-310 * np.eye(m)),
            ):
                F2 = BlockInformation(D2=D2, A=A, H2=H2)
                yield ToyGaussianModel(F2, rng.standard_normal(p + m))


def test_prepared_solves_match_the_solve_expressions_bit_for_bit():
    rng = np.random.default_rng(59)
    for model in _toy_models(rng):
        p, m = model.F2.p, model.F2.m
        for _ in range(5):
            for which, fn, size in (("eta", model.eta_argmax, p), ("theta", model.theta_argmax, m)):
                x = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3)
                want, want_w = _outcome(_solve_expressions, model, x, which)
                got, got_w = _outcome(fn, x)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (p, m, which)
                assert got_w == want_w, (p, m, which)


def test_prepared_solves_reject_a_non_finite_right_hand_side():
    rng = np.random.default_rng(61)
    for model in _toy_models(rng):
        p, m = model.F2.p, model.F2.m
        for bad in (np.nan, np.inf, -np.inf):
            for which, fn, size in (("eta", model.eta_argmax, p), ("theta", model.theta_argmax, m)):
                x = rng.standard_normal(size)
                x[-1] = bad
                assert _outcome(fn, x)[0] is ValueError
                assert _outcome(_solve_expressions, model, x, which)[0] is ValueError


def test_ill_conditioned_block_warns_on_every_solve():
    # a subnormal 2x2 block is ill-conditioned for dpocon: every solve warns,
    # not only the first for a model
    F2 = BlockInformation(D2=1e-310 * np.eye(2), A=0.5 * np.eye(2), H2=1e-310 * np.eye(2))
    model = ToyGaussianModel(F2, [0.5, -0.2, 0.1, 0.3])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(3):
            model.theta_argmax(np.ones(2))
            model.eta_argmax(np.ones(2))
    assert [w.category for w in caught] == [LinAlgWarning] * 6
    # each names the maximizer's line in toy.py, as `_lapack.solve` did
    assert {w.filename for w in caught} == {toy.__file__}
    # and `_lapack.solve`, which runs the same two halves, names its caller
    with pytest.warns(LinAlgWarning) as caught:
        _lapack.solve(F2.D2, np.ones(2))
    assert [w.filename for w in caught] == [__file__]


def test_maximizers_reject_an_argument_of_the_wrong_size():
    F2 = BlockInformation(D2=2.0 * np.eye(2), A=np.eye(2, 3), H2=2.0 * np.eye(3))
    model = ToyGaussianModel(F2, np.arange(5.0))
    with pytest.raises(ModelDomainError, match="theta must have 2 coordinates"):
        model.eta_argmax(np.array([0.5]))
    with pytest.raises(ModelDomainError, match="eta must have 3 coordinates"):
        model.theta_argmax(np.array([0.5]))
    with pytest.raises(ModelDomainError, match="eta must have 3 coordinates"):
        model.theta_argmax(np.ones((1, 3)))
    # the right sizes, and a scalar where the block is 1x1
    assert model.eta_argmax(np.ones(2)).shape == (3,)
    assert model.theta_argmax(np.ones(3)).shape == (2,)
    assert canon_model().eta_argmax(0.5).shape == (1,)
