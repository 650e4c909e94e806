import numpy as np
import pytest

from altmax import singleindex
from altmax.alternation import (
    AlternationConfig,
    ProfileEstimateError,
    eta_update,
    profile_estimate,
    run,
)
from altmax.harness import ExperimentConfig, build_context
from altmax.modelapi import ModelDomainError
from altmax.singleindex import (
    SingleIndexModel,
    eta_step_closed_form,
    generate,
    grid_init,
    information_at_truth,
    theta_step,
    uniform_ball,
)
from altmax.statcore import ParameterPoint
from altmax.wavelet import WaveletBasis
from instruments import gradient_check

THETA2 = np.array([np.cos(0.3), np.sin(0.3)])
ETA6 = np.array([1.0, -0.8, 0.9, -0.7, 0.6, 0.8])
STAR = ParameterPoint(THETA2, ETA6)


def desk(n=600, sigma=0.5, seed=0, m=6):
    basis = WaveletBasis(m=m, s_X=1.0)
    ds = generate(n, THETA2, ETA6[:m], sigma, seed=seed, basis=basis)
    return ds, basis


def test_generate_noiseless_and_deterministic():
    ds, basis = desk(sigma=0.0)
    f = basis.synth(ds.X @ THETA2, ETA6)
    assert np.array_equal(ds.y, f)
    ds2, _ = desk(sigma=0.0)
    assert np.array_equal(ds.X, ds2.X) and np.array_equal(ds.y, ds2.y)
    assert np.all(np.linalg.norm(ds.X, axis=1) <= 1.0 + 1e-12)


def test_generate_validates_theta_star():
    basis = WaveletBasis(m=2, s_X=1.0)
    with pytest.raises(ValueError, match="unit norm"):
        generate(10, [1.0, 1.0], [1.0, 1.0], 0.1, seed=0, basis=basis)
    with pytest.raises(ValueError, match="positive first"):
        generate(10, [-1.0, 0.0], [1.0, 1.0], 0.1, seed=0, basis=basis)


def test_generate_and_information_at_truth_reject_a_non_finite_sigma():
    # a NaN sigma gave a noiseless dataset whose model used noise scale 1,
    # and an infinite one a non-finite y
    basis = WaveletBasis(m=2, s_X=1.0)
    for sigma in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            generate(10, THETA2, [1.0, 1.0], sigma, seed=0, basis=basis)
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            information_at_truth(basis, ParameterPoint(THETA2, [1.0, 1.0]), 10, sigma, 2, seed=0)


def test_generate_noise_variance():
    basis = WaveletBasis(m=3, s_X=1.0)
    sigma = 0.7
    ds = generate(10_000, THETA2, ETA6[:3], sigma, seed=3, basis=basis)
    eps = ds.y - basis.synth(ds.X @ THETA2, ETA6[:3])
    v = eps.var(ddof=1)
    se = sigma**2 * np.sqrt(2.0 / (ds.n - 1))
    assert abs(v - sigma**2) < 3.0 * se


def test_eta_step_scalar_least_squares():
    basis = WaveletBasis(m=1, s_X=1.0)
    ds = generate(400, THETA2, [1.3], 0.4, seed=5, basis=basis)
    theta = THETA2
    eta = eta_step_closed_form(ds, basis, theta)
    e0 = basis.design(ds.X @ theta)[:, 0]
    oracle = (ds.y @ e0) / (e0 @ e0)
    assert abs(eta[0] - oracle) < 1e-12


def test_eta_step_noiseless_recovery():
    ds, basis = desk(sigma=0.0, n=800)
    eta = eta_step_closed_form(ds, basis, THETA2)
    r = ds.y - basis.design(ds.X @ THETA2) @ eta
    assert float(r @ r) < 1e-16 * ds.n * np.abs(ds.y).max() ** 2


def test_eta_step_matches_dense_least_squares():
    ds, basis = desk(n=500, seed=21)
    for ang in (0.1, 0.3, 0.8):
        th = np.array([np.cos(ang), np.sin(ang)])
        eta = eta_step_closed_form(ds, basis, th)
        E = basis.design(ds.X @ th)
        oracle, *_ = np.linalg.lstsq(E, ds.y, rcond=None)
        assert np.abs(eta - oracle).max() < 1e-9


def test_profile_estimate_noiseless_recovers_truth():
    from altmax.alternation import profile_estimate

    N = 128
    ang = -np.pi / 2 + (np.arange(N) + 0.5) * np.pi / N
    theta_star = np.array([np.cos(ang[90]), np.sin(ang[90])])
    basis = WaveletBasis(m=4, s_X=1.0)
    ds = generate(400, theta_star, ETA6[:4], 0.0, seed=19, basis=basis)
    model = SingleIndexModel(ds, basis, constrain_theta=True)
    start, _ = grid_init(ds, basis, N)
    pt, _ = profile_estimate(
        model, AlternationConfig(max_steps=40, solver_tolerance=1e-11), start
    )
    assert np.abs(pt.theta - theta_star).max() < 1e-6
    assert np.abs(pt.eta - ETA6[:4]).max() < 1e-6


def test_eta_step_orthonormal_design_limit():
    # p = 1, index uniform on [-1/2, 1/2]: Gram -> identity and the solution
    # collapses onto the empirical inner products, with error (I - G) eta
    basis = WaveletBasis(m=3, s_X=0.5)
    ds = generate(10_000, [1.0], [0.8, -0.5, 0.6], 0.2, seed=9, basis=basis)
    eta = eta_step_closed_form(ds, basis, [1.0])
    E = basis.design(ds.X @ np.array([1.0]))
    inner = E.T @ ds.y / ds.n
    G = E.T @ E / ds.n
    gram_gap = np.linalg.norm(G - np.eye(3), 2)
    assert gram_gap < 0.25
    assert np.allclose(G @ eta, inner, atol=1e-10)
    assert np.linalg.norm(eta - inner) <= gram_gap * np.linalg.norm(eta) * (1 + 1e-9)
    assert np.abs(eta - inner).max() < 0.1


def test_theta_step_p1_trivial():
    basis = WaveletBasis(m=2, s_X=1.0)
    ds = generate(100, [1.0], [1.0, 0.5], 0.1, seed=2, basis=basis)
    assert np.array_equal(theta_step(SingleIndexModel(ds, basis), [1.0, 0.5], [1.0]), [1.0])


def test_theta_step_stationarity_and_mesh_oracle():
    ds, basis = desk(n=400, seed=12)
    model = SingleIndexModel(ds, basis)
    eta = eta_step_closed_form(ds, basis, THETA2)
    th = theta_step(model, eta, THETA2)
    t = ds.X @ th
    r = ds.y - basis.design(t) @ eta
    g = 2.0 / (2 * model.noise_scale**2) * (ds.X.T @ (r * (basis.ddesign(t) @ eta)))
    rg = g - (g @ th) * th
    L = -float(r @ r) / (2 * model.noise_scale**2)
    assert np.linalg.norm(rg) <= 1e-7 * (1.0 + abs(L))
    # brute-force mesh on the half-circle within mesh width
    ang = np.arange(-np.pi / 2 + 5e-4, np.pi / 2, 1e-3)
    best_val, best_th = -np.inf, None
    for a in ang:
        cand = np.array([np.cos(a), np.sin(a)])
        rr = ds.y - basis.design(ds.X @ cand) @ eta
        v = -float(rr @ rr)
        if v > best_val:
            best_val, best_th = v, cand
    assert np.linalg.norm(th - best_th) <= 1e-3


def test_grid_init_examples():
    ds, basis = desk(n=300, seed=4)
    # N = 2.5 would build a 3-point grid spaced pi/2.5
    for N in (0, 2.5, np.nan):
        with pytest.raises(ValueError, match=f"grid size N must be an integer >= 1, got {N!r}"):
            grid_init(ds, basis, N)
    pt1, tau1 = grid_init(ds, basis, 1)
    assert pt1.theta.shape == (2,)
    assert tau1 == 0.0
    _, tau64 = grid_init(ds, basis, 64)
    _, tau128 = grid_init(ds, basis, 128)
    ratio = tau64 / tau128
    assert abs(ratio - 2.0) < 0.4  # halves (+-20%) when N doubles at p = 2


def test_grid_init_noiseless_recovery_on_grid():
    # theta* placed exactly on the midpoint grid
    N = 64
    ang = -np.pi / 2 + (np.arange(N) + 0.5) * np.pi / N
    a_star = ang[40]
    theta_star = np.array([np.cos(a_star), np.sin(a_star)])
    basis = WaveletBasis(m=4, s_X=1.0)
    ds = generate(400, theta_star, ETA6[:4], 0.0, seed=8, basis=basis)
    pt, _ = grid_init(ds, basis, N)
    assert np.abs(pt.theta - theta_star).max() < 1e-12
    r = ds.y - basis.design(ds.X @ pt.theta) @ pt.eta
    assert float(r @ r) < 1e-18 * ds.n


def test_model_gradient_fd_agreement():
    ds, basis = desk(n=500, seed=7)
    model = SingleIndexModel(ds, basis, constrain_theta=False)
    rng = np.random.default_rng(0)
    pts = []
    for _ in range(100):
        th = rng.standard_normal(2)
        th /= np.linalg.norm(th)
        th[0] = abs(th[0])
        pts.append(ParameterPoint(th, ETA6 + 0.3 * rng.standard_normal(6)))
    assert gradient_check(model, pts, h=1e-7) <= 1e-6


def test_model_value_sign_and_domain():
    ds, basis = desk(n=200, sigma=0.0, seed=1)
    model = SingleIndexModel(ds, basis)
    assert model.evaluate(ParameterPoint(THETA2, ETA6)) == 0.0
    off = ParameterPoint(THETA2, ETA6 + 0.1)
    assert model.evaluate(off) < 0.0
    with pytest.raises(ModelDomainError, match="eta norm"):
        model.evaluate(ParameterPoint(THETA2, 1e6 * ETA6))
    with pytest.raises(ModelDomainError, match="theta norm"):
        model.evaluate(ParameterPoint(10.0 * THETA2, ETA6))


def test_model_hessian_fd():
    ds, basis = desk(n=200, seed=3)
    model = SingleIndexModel(ds, basis, constrain_theta=False)
    pt = ParameterPoint(THETA2, ETA6 * 0.9)
    H = model.hessian(pt)
    v0 = pt.as_vector()
    h = 1e-6
    num = np.zeros_like(H)
    for j in range(v0.size):
        vp, vm = v0.copy(), v0.copy()
        vp[j] += h
        vm[j] -= h
        gp = np.concatenate(model.gradient(ParameterPoint.from_vector(vp, 2)))
        gm = np.concatenate(model.gradient(ParameterPoint.from_vector(vm, 2)))
        num[:, j] = (gp - gm) / (2 * h)
    assert np.abs(H - num).max() / np.abs(H).max() < 1e-4


def test_fit_and_hessian_locate_the_index_once(monkeypatch):
    # a fit reads E, dE and d2E from the sieve cells of one locate call, as
    # do the model's Hessian and each block of the information at the truth
    ds, basis = desk(n=200, seed=3)
    pt = ParameterPoint(THETA2, ETA6 * 0.9)
    t = ds.X @ THETA2
    dense = [f(t).tobytes() for f in (basis.design, basis.ddesign, basis.d2design)]
    calls = []
    locate = WaveletBasis.locate

    def counted(self, t):
        calls.append(np.size(t))
        return locate(self, t)

    monkeypatch.setattr(WaveletBasis, "locate", counted)
    model = SingleIndexModel(ds, basis, constrain_theta=False)
    fit = model._fit(pt.theta, pt.eta)
    fit.value, fit.grad, fit.hess
    assert calls == [200]
    assert [fit.E.tobytes(), fit.dE.tobytes()] == dense[:2]
    model.hessian(pt)
    assert calls == [200, 200]
    information_at_truth(basis, STAR, 200, 0.5, 3, seed=1)  # one block of 3 datasets
    assert calls == [200, 200, 600]


def test_information_at_truth_noiseless_is_spd():
    basis = WaveletBasis(m=6, s_X=1.0)
    info = information_at_truth(basis, STAR, 300, 0.0, 10, seed=6)
    w = np.linalg.eigvalsh(info.full)
    assert w.min() > 0


def test_information_at_truth_replication_oracle():
    basis = WaveletBasis(m=6, s_X=1.0)
    info = information_at_truth(basis, STAR, 400, 0.5, 200, seed=100)
    ref = information_at_truth(basis, STAR, 400, 0.5, 2000, seed=999)
    # each entry within 3 standard errors of the long-run estimate
    D, Dref = info.full, ref.full
    scale = np.abs(Dref).max()
    se = 3.0 * scale / np.sqrt(200)
    assert np.abs(D - Dref).max() < 3.0 * se


@pytest.mark.parametrize("m, sigma", [(6, 0.5), (20, 0.5), (6, 0.0)])
def test_information_at_truth_matches_a_textbook_loop(m, sigma):
    # R datasets drawn one after another from one generator, each as
    # `generate` draws one (X, then the noise), and the analytic blocks
    # -Hessian of E L averaged over them
    eta = np.resize(ETA6, m)
    basis = WaveletBasis(m=m, s_X=1.0)
    R = 5
    info = information_at_truth(
        basis, ParameterPoint(THETA2, eta), 200, sigma, R, seed=17
    )
    rng = np.random.default_rng(17)
    c = 1.0 / (sigma if sigma > 0 else 1.0)**2
    D2, A, H2 = np.zeros((2, 2)), np.zeros((2, m)), np.zeros((m, m))
    for _ in range(R):
        X = generate(200, THETA2, eta, sigma, seed=rng, basis=basis).X
        t = X @ THETA2
        E = basis.design(t)
        Jt = X * (basis.ddesign(t) @ eta)[:, None]
        D2 += c * (Jt.T @ Jt)
        A += c * (Jt.T @ E)
        H2 += c * (E.T @ E)
    D2, A, H2 = D2 / R, A / R, H2 / R
    assert np.array_equal(info.D2, 0.5 * (D2 + D2.T))
    assert np.array_equal(info.A, A)
    assert np.array_equal(info.H2, 0.5 * (H2 + H2.T))


def reference_uniform_ball(rng, n, p, radius):
    """The ball draw as `generate` has always made it, one dataset alone."""
    z = rng.standard_normal((n, p))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    r = radius * rng.random(n) ** (1.0 / p)
    return z * r[:, None]


@pytest.mark.parametrize("p", [1, 2, 3, 5, 7, 8, 9])
def test_uniform_ball_is_the_reference_draw(p):
    # uniform_ball sums each row's squares left to right; numpy's norm does
    # too below 8 columns, so the bytes agree there.  From 8 columns numpy
    # sums 8 partial sums pairwise, which moves the last bits only.
    rng, ref = np.random.default_rng(p), np.random.default_rng(p)
    for n in (1, 2, 7, 1000, 1001):
        for radius in (1.0, 0.5, 3.7):
            X, R = uniform_ball(rng, n, p, radius), reference_uniform_ball(ref, n, p, radius)
            if p < 8:
                assert X.tobytes() == R.tobytes()
            else:
                np.testing.assert_array_max_ulp(X, R, maxulp=4)


def reference_information_at_truth(basis, star, n, s_X, sigma, r_datasets, seed):
    """The blocks of `information_at_truth` by one dataset at a time: its
    design and derivative design, then the products, then the noise draw."""
    rng = np.random.default_rng(seed)
    p, m = star.p, basis.m
    D2, A, H2 = np.zeros((p, p)), np.zeros((p, m)), np.zeros((m, m))
    c = 1.0 / (sigma if sigma > 0 else 1.0)**2
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
            rng.standard_normal(n)
    D2, A, H2 = D2 / r_datasets, A / r_datasets, H2 / r_datasets
    return 0.5 * (D2 + D2.T), A, 0.5 * (H2 + H2.T)


def assert_blocks_equal_reference(n, m, p, sigma, r_datasets):
    basis = WaveletBasis(m=m, s_X=1.0)
    theta = np.zeros(p)
    theta[:2] = THETA2
    star = ParameterPoint(theta, np.resize(ETA6, m))
    info = information_at_truth(basis, star, n, sigma, r_datasets, seed=17)
    D2, A, H2 = reference_information_at_truth(basis, star, n, 1.0, sigma, r_datasets, 17)
    assert info.D2.tobytes() == D2.tobytes()
    assert info.A.tobytes() == A.tobytes()
    assert info.H2.tobytes() == H2.tobytes()


INFO_N = [77, 250, 333, 1000, 1001]
INFO_M = [1, 3, 6, 13, 14, 20]


@pytest.mark.parametrize("r_datasets", [1, 7])
@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("m", INFO_M)
@pytest.mark.parametrize("n", INFO_N)
def test_information_at_truth_blocks_equal_one_dataset_at_a_time(n, m, p, sigma, r_datasets):
    # 7 datasets make one block, or several with a partial last one (4 + 3
    # at n = 1000, m = 20)
    assert_blocks_equal_reference(n, m, p, sigma, r_datasets)


@pytest.mark.parametrize("m", INFO_M)
@pytest.mark.parametrize("n", INFO_N)
def test_information_at_truth_blocks_equal_one_dataset_at_a_time_at_200(n, m):
    # the acceptance r_cov: many blocks, or all 200 datasets in one
    # (n = 77, m = 1)
    assert_blocks_equal_reference(n, m, 2, 0.5, 200)


@pytest.mark.parametrize("block", [1, 250 * 6, 3 * 250 * 6 - 1, 3 * 250 * 6])
def test_information_at_truth_any_block_bound(monkeypatch, block):
    # one dataset per block from a bound below or at its 250 x 6 entries,
    # then blocks of 2 + 2 + 2 + 1 and of 3 + 3 + 1 datasets
    monkeypatch.setattr(singleindex, "_INFO_BLOCK", block)
    assert_blocks_equal_reference(250, 6, 2, 0.5, 7)


def test_noiseless_identifiability_sphere_alternation():
    # sigma = 0, f in span, n >= 5m: alternation from grid recovers the truth
    basis = WaveletBasis(m=6, s_X=1.0)
    ds = generate(600, THETA2, ETA6, 0.0, seed=11, basis=basis)
    model = SingleIndexModel(ds, basis, constrain_theta=True)
    start, _ = grid_init(ds, basis, 512)
    cfg = AlternationConfig(max_steps=12, solver_tolerance=1e-11)
    tr = run(model, start, cfg)
    assert model.evaluate(tr.final()) >= -1e-12
    assert np.linalg.norm(tr.final().theta - THETA2) <= 1e-4
    assert tr.monotone_defect() <= 0.0


def test_eta_update_stays_in_eta_ball():
    ds, basis = desk(n=100)
    model = SingleIndexModel(ds, basis)
    eta = eta_update(model, THETA2)
    assert np.linalg.norm(eta) <= model.eta_radius


def test_eta_argmax_on_the_ball_is_the_constrained_maximizer():
    # a ball smaller than the closed-form eta: the eta step is the maximizer of
    # L(theta, .) over the ball, which lies on its sphere and beats the radial
    # projection of the closed form and every other point of the ball
    ds, basis = desk(n=300, seed=4)
    free = eta_step_closed_form(ds, basis, THETA2)
    radius = 0.5 * float(np.linalg.norm(free))
    model = SingleIndexModel(ds, basis)
    model.eta_radius = radius
    eta = model.eta_argmax(THETA2)
    assert radius * (1 - 1e-9) <= np.linalg.norm(eta) <= radius

    def L(e):
        return model.evaluate(ParameterPoint(THETA2, e))

    best = L(eta)
    assert best > L(free * (radius / np.linalg.norm(free)))
    rng = np.random.default_rng(2)
    for _ in range(200):
        e = rng.standard_normal(6)
        e *= radius * rng.random() ** (1 / 6) / np.linalg.norm(e)
        assert L(e) <= best
    # KKT: the eta-gradient points along eta, outwards
    g = model.gradient(ParameterPoint(THETA2, eta))[1]
    assert g @ eta > 0 and g @ eta >= (1 - 1e-9) * np.linalg.norm(g) * np.linalg.norm(eta)
    # inside the ball the eta step is the closed form, bit for bit
    assert np.array_equal(SingleIndexModel(ds, basis).eta_argmax(THETA2), free)


def test_default_start_lies_inside_the_eta_ball():
    # at this size the 64-point grid's closed-form eta of replications 0 and
    # 19 lies outside the model's eta ball (norms 150 and 26.6 against a
    # radius of 15.65); the default start keeps the grid theta with the
    # model's eta step, so profile_estimate can start from it.  From there
    # replication 19 becomes stationary; replication 0 does not within 200
    # steps, so profile_estimate rejects it
    ctx = build_context(ExperimentConfig(
        family="single-index", reps=1, si_n=250, si_m=3, si_eta_star=(1.0, -0.8, 0.9),
        si_r_cov=20, si_grid_n=64, master_seed=3,
    ))
    rep0, rep19 = ctx.cfg.model(0), ctx.cfg.model(19)
    for model in (rep0, rep19):
        assert np.linalg.norm(model.default_start().eta) <= model.eta_radius
    with pytest.raises(ProfileEstimateError, match="not stationary after 200 steps"):
        profile_estimate(rep0, AlternationConfig(max_steps=20))
    _, trace = profile_estimate(rep19, AlternationConfig(max_steps=20))
    assert trace.stop_reason == "stationary"
    # inside the ball the default start is the grid start, byte for byte
    model = ctx.cfg.model(1)
    grid_start, _ = grid_init(model.dataset, model.basis, 64)
    assert np.linalg.norm(grid_start.eta) <= model.eta_radius
    start = model.default_start(64)
    assert start.theta.tobytes() == grid_start.theta.tobytes()
    assert start.eta.tobytes() == grid_start.eta.tobytes()
