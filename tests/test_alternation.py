import math
from dataclasses import replace

import numpy as np
import pytest

from altmax.alternation import (
    AlternationConfig,
    MonotoneViolationError,
    ProfileEstimateError,
    eta_update,
    fisher_residual,
    profile_estimate,
    run,
    theta_update,
    wilks_statistic,
)
from altmax.modelapi import Model
from altmax.statcore import (
    BlockInformation,
    EfficientScore,
    ParameterPoint,
    efficient_score,
    sqrt_spd,
)
from altmax.toy import ToyGaussianModel, simulate

F2 = BlockInformation(D2=[[2.0]], A=[[1.0]], H2=[[2.0]])
STAR = ParameterPoint([0.0], [0.0])


def canon():
    return ToyGaussianModel(F2, Y=[1.0, 0.0])


def test_eta_update_closed_form():
    m = canon()
    assert abs(eta_update(m, [0.0])[0] - 0.5) < 1e-14
    # fixed point: eta at profile theta equals the joint maximizer's eta
    assert abs(eta_update(m, [1.0])[0] - 0.0) < 1e-14


def test_theta_update_closed_form():
    m = canon()
    assert abs(theta_update(m, [0.5])[0] - 0.75) < 1e-14


def test_run_theta_sequence_and_monotone():
    m = canon()
    cfg = AlternationConfig(max_steps=6, solver_tolerance=1e-12)
    tr = run(m, ParameterPoint([0.0], [0.0]), cfg)
    thetas = [r.point_kk.theta[0] for r in tr.records]
    assert abs(thetas[1] - 0.75) < 1e-14
    assert abs(thetas[2] - 0.9375) < 1e-14
    assert abs(thetas[3] - 0.984375) < 1e-14
    assert tr.monotone_defect() <= 0.0
    vals = tr.interleaved_values()
    assert all(b >= a for a, b in zip(vals[:-1], vals[1:]))


def test_run_fixed_point_start():
    m = canon()
    cfg = AlternationConfig(max_steps=5, solver_tolerance=1e-12)
    tr = run(m, ParameterPoint([1.0], [0.0]), cfg)
    for rec in tr.records:
        assert np.abs(rec.point_kk.as_vector() - m.Y).max() < 1e-14
    assert tr.stop_reason == "stationary"


def test_trace_csv(tmp_path):
    m = canon()
    tr = run(m, ParameterPoint([0.0], [0.0]), AlternationConfig(max_steps=3))
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "k,theta_0,eta_0,L_kk,L_kk1,step_norm"
    assert len(lines) == len(tr.records) + 1
    # every cell reads back as a number (no `np.float64(...)` text)
    for line, rec in zip(lines[1:], tr.records):
        cells = [float(cell) for cell in line.split(",")]
        assert cells[0] == rec.k
        assert cells[1:3] == [*rec.point_kk.theta, *rec.point_kk.eta]


def test_profile_estimate_toy_exact():
    m = canon()
    cfg = AlternationConfig(max_steps=60, solver_tolerance=1e-13)
    pt, _ = profile_estimate(m, cfg)
    assert np.abs(pt.as_vector() - m.Y).max() < 1e-12
    # fixed point: one more alternation step moves by < solver tolerance
    eta2 = eta_update(m, pt.theta)
    th2 = theta_update(m, eta2)
    move = np.abs(np.concatenate([th2 - pt.theta, eta2 - pt.eta])).max()
    assert move < 1e-12


def test_profile_estimate_matches_joint_ascent_oracle():
    # independent oracle: long-budget joint gradient ascent on the full vector
    model = simulate(F2, STAR, seed=21)
    v = np.zeros(2)
    step = 0.1
    L = model.evaluate(ParameterPoint.from_vector(v, 1))
    for _ in range(5000):
        gt, ge = model.gradient(ParameterPoint.from_vector(v, 1))
        g = np.concatenate([gt, ge])
        cand = v + step * g
        Lc = model.evaluate(ParameterPoint.from_vector(cand, 1))
        if Lc > L:
            v, L = cand, Lc
            step *= 1.2
        else:
            step *= 0.5
        if np.linalg.norm(g) < 1e-12:
            break
    pt, _ = profile_estimate(model, AlternationConfig(max_steps=80, solver_tolerance=1e-13))
    D = sqrt_spd(F2.full)
    assert np.linalg.norm(D @ (pt.as_vector() - v)) < 1e-8


def test_wilks_statistic_examples():
    m = canon()
    assert wilks_statistic(m, [0.0], [0.0]) == 0.0
    # theta_k = y_theta: equals D_eff^2 (y_theta - theta*)^2 = 1.5
    assert abs(wilks_statistic(m, [1.0], [0.0]) - 1.5) < 1e-12
    # mid-trajectory closed form
    for th in (0.75, 0.9375):
        expect = 1.5 * ((0.0 - 1.0) ** 2 - (th - 1.0) ** 2)
        assert abs(wilks_statistic(m, [th], [0.0]) - expect) < 1e-12


def test_fisher_residual_examples():
    m = canon()
    gt, ge = m.gradient(STAR)
    score = efficient_score(F2, gt, ge)
    # at theta_k = y_theta the exact linear model has zero residual
    assert fisher_residual(F2, score, [1.0], [0.0]) < 1e-12
    # at theta* the residual is ||xi||
    assert abs(fisher_residual(F2, score, [0.0], [0.0]) - np.linalg.norm(score.xi)) < 1e-14
    # mid-trajectory: exact geometric decay of the residual
    cfg = AlternationConfig(max_steps=8, solver_tolerance=1e-14)
    tr = run(m, ParameterPoint([0.0], [0.0]), cfg)
    res = [fisher_residual(F2, score, r.point_kk.theta, [0.0]) for r in tr.records]
    Deff = np.sqrt(1.5)
    for k in range(1, 6):
        assert abs(res[k] - Deff * 0.25**k * 1.0) < 1e-12
    with pytest.raises(ValueError):
        fisher_residual(F2, score, [1.0, 2.0], [0.0])


class QuadNoClosedForm(Model):
    """Tiny quadratic model without partial maximizers."""

    def __init__(self):
        self._full = np.array([[2.0, 1.0], [1.0, 2.0]])
        self.Y = np.array([1.0, 0.0])

    def evaluate(self, point):
        d = point.as_vector() - self.Y
        return float(-0.5 * d @ self._full @ d)

    def gradient(self, point):
        g = -self._full @ (point.as_vector() - self.Y)
        return g[:1], g[1:]


def test_model_without_partial_maximizers_is_rejected():
    # the engine calls the model's own maximizers; there is no numeric fallback
    with pytest.raises(NotImplementedError):
        run(QuadNoClosedForm(), ParameterPoint([0.0], [0.0]), AlternationConfig(max_steps=3))


class BrokenEtaStep(ToyGaussianModel):
    def eta_argmax(self, theta):
        return super().eta_argmax(theta) + 2.0  # not a maximizer


class BrokenThetaStep(ToyGaussianModel):
    def theta_argmax(self, eta, theta_init=None):
        return super().theta_argmax(eta, theta_init) + 2.0  # not a maximizer


class LateBrokenEtaStep(ToyGaussianModel):
    """An eta step that is exact on its first call only."""

    calls = 0

    def eta_argmax(self, theta):
        self.calls += 1
        return super().eta_argmax(theta) + (2.0 if self.calls > 1 else 0.0)


def test_monotone_violation_aborts():
    m = BrokenEtaStep(F2, Y=[1.0, 0.0])
    with pytest.raises(MonotoneViolationError):
        run(m, ParameterPoint([0.0], [0.0]), AlternationConfig(max_steps=4))
    # after the first step.  canon() from (0, 0): eta_1 = 0.5 and
    # L(0, 0.5) = -0.75.  A theta step to 0.75 + 2 gives L(2.75, 0.5) =
    # -4.1875; an exact one gives L(0.75, 0.5) = -0.1875, and an eta step to
    # 0.125 + 2 then gives L(0.75, 2.125) = -4.046875
    with pytest.raises(MonotoneViolationError, match=(
            r"^theta-update decreased L by 3\.438e\+00 \(> 1\.0e-08\) at k=1$")):
        run(BrokenThetaStep(F2, Y=[1.0, 0.0]), STAR, AlternationConfig(max_steps=4))
    with pytest.raises(MonotoneViolationError, match=(
            r"^eta-update decreased L by 3\.859e\+00 \(> 1\.0e-08\) at k=1$")):
        run(LateBrokenEtaStep(F2, Y=[1.0, 0.0]), STAR, AlternationConfig(max_steps=4))


class AlwaysBroken(ToyGaussianModel):
    def eta_argmax(self, theta):
        return super().eta_argmax(theta) + 5.0


def test_profile_estimate_all_starts_fail():
    # a run that raises fails the estimate, and the message names the engine's error
    m = AlwaysBroken(F2, Y=[1.0, 0.0])
    with pytest.raises(ProfileEstimateError) as exc:
        profile_estimate(m, AlternationConfig(max_steps=5), ParameterPoint([1.0], [1.0]))
    assert str(exc.value).startswith(
        "no start became stationary: start 0 failed: eta-update decreased L by "
    )
    assert isinstance(exc.value.__cause__, MonotoneViolationError)


def test_profile_estimate_rejects_a_run_that_is_not_stationary():
    # nu = 0.999: each step shrinks the distance to the maximizer by only
    # nu^2, so 200 steps end far from stationarity
    near_one = BlockInformation(D2=[[1.0]], A=[[0.999]], H2=[[1.0]])
    m = ToyGaussianModel(near_one, Y=[1.0, 0.0])
    with pytest.raises(ProfileEstimateError) as exc:
        profile_estimate(m, AlternationConfig(max_steps=5), STAR)
    assert str(exc.value) == (
        "no start became stationary: start 0 failed: not stationary after 200 steps"
    )


def test_config_validation():
    with pytest.raises(ValueError):
        AlternationConfig(max_steps=0)
    # a NaN or infinite tolerance would switch off the monotone check and the
    # stationary stop
    for tol in (0.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ValueError, match="solver_tolerance must be finite and > 0"):
            AlternationConfig(solver_tolerance=tol)


class CountingToy(ToyGaussianModel):
    evaluations = 0

    def evaluate(self, point):
        self.evaluations += 1
        return super().evaluate(point)


def test_profile_estimate_reads_the_final_value_from_the_trace():
    # run() evaluates twice per record; profile_estimate adds none
    m = CountingToy(F2, Y=[1.0, 0.0])
    cfg = AlternationConfig(max_steps=60, solver_tolerance=1e-13)
    start = ParameterPoint([3.0], [-2.0])
    expected = run(m, start, replace(cfg, max_steps=200))
    m.evaluations = 0
    pt, trace = profile_estimate(m, cfg, start)
    assert m.evaluations == 2 * len(expected.records)
    assert trace.records[-1].L_kk == m.evaluate(pt)
    assert [r.L_kk for r in trace.records] == [r.L_kk for r in expected.records]


def _norm_cases(rng):
    """1,000 random vectors of sizes 1 to 9 and scales 1e-150 to 1e150, then a zero vector."""
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        yield rng.standard_normal(n) * 10.0 ** rng.uniform(-150, 150)
    yield np.zeros(int(rng.integers(1, 10)))


def test_weighted_norm_is_np_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(47)
    plain = AlternationConfig()
    weights = {n: sqrt_spd(np.cov(rng.standard_normal((n, 3 * n)))) for n in range(1, 10)}
    for v in _norm_cases(rng):
        assert plain.weighted_norm(v) == float(np.linalg.norm(v))
        M = weights[v.size]
        weighted = AlternationConfig(norm_matrix=M)
        assert weighted.weighted_norm(v) == float(np.linalg.norm(M @ v))


def test_fisher_residual_is_np_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(53)
    infos = {}
    for p in range(1, 10):
        infos[p] = BlockInformation(D2=np.eye(p) + np.diag(rng.random(p)),
                                    A=0.2 * rng.standard_normal((p, 2)), H2=np.eye(2))
    for v in _norm_cases(rng):
        info = infos[v.size]
        xi = rng.standard_normal(v.size)
        score = EfficientScore(breve_grad=xi, xi=xi)
        th_s = rng.standard_normal(v.size)
        th_k = th_s + v
        want = float(np.linalg.norm(info.efficient_root @ (th_k - th_s) - score.xi))
        assert fisher_residual(info, score, th_k, th_s) == want


def test_norms_overflow_to_inf():
    big = np.array([1e200, -1e200])
    info = BlockInformation(D2=np.eye(2), A=np.zeros((2, 1)), H2=[[1.0]])
    score = EfficientScore(breve_grad=np.zeros(2), xi=np.zeros(2))
    with np.errstate(over="ignore"):
        assert np.linalg.norm(big) == np.inf
        assert AlternationConfig().weighted_norm(big) == np.inf
        assert AlternationConfig(norm_matrix=2.0 * np.eye(2)).weighted_norm(big) == np.inf
        assert fisher_residual(info, score, big, np.zeros(2)) == np.inf
