import math

import numpy as np
import pytest

import reference_bounds as ref
from altmax.bounds import (
    BoundInputs,
    C_nu,
    ConditionConstants,
    FieldValueError,
    UnsupportedRegimeError,
    check_A3,
    check_B1,
    combined_quantile,
    compute_bound_report,
    concentration_radius_R0,
    entropy_quantile,
    entropy_quantile_sq,
    fisher_radius,
    fisher_radius_refined,
    initial_level_K0,
    kappa,
    me_radius,
    quad_form_quantile,
    spread_parametric,
    spread_semiparametric,
    spread_semiparametric_plain,
    stopping_steps,
)
from instruments import convert_conditions, validate_quad_tail

RTOL = 1e-12


def close(a, b):
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------- hand values

def test_quad_form_hand_values():
    assert close(quad_form_quantile(2.0, np.eye(1)), math.sqrt(19.0))
    assert close(quad_form_quantile(0.1, np.eye(4)), math.sqrt(10.6))


def test_quad_form_regime_error():
    with pytest.raises(UnsupportedRegimeError):
        quad_form_quantile(1.0, np.eye(4), g=1.0)


def test_entropy_sq_hand_values():
    assert close(entropy_quantile_sq(1.0, 8.0, 10.0), 16.0)
    assert close(entropy_quantile_sq(1.0, 8.0, 2.0), 122.0)
    # boundary 1 + sqrt(x+Q) = g0 takes the first branch
    assert close(entropy_quantile_sq(1.0, 8.0, 4.0), 16.0)


def test_entropy_hand_values():
    assert close(entropy_quantile(1.0, 7.0, 10.0), 4.0)
    assert close(entropy_quantile(1.0, 7.0, 2.0), 5.0)
    assert entropy_quantile(0.0, 0.0, 10.0) == 0.0


def test_initial_level_hand_values():
    cc = ConditionConstants()
    assert initial_level_K0(0.0, 1.0, cc, 0.0) == 0.0
    cc = ConditionConstants(nu0=1.0, omega=0.05, delta_const=0.1)
    assert close(initial_level_K0(2.0, 1.0, cc, 3.0), 13.3)
    # monotone in R_K and z
    for dR in (0.1, 1.0):
        assert initial_level_K0(2.0 + dR, 1.0, cc, 3.0) > initial_level_K0(2.0, 1.0, cc, 3.0)
        assert initial_level_K0(2.0, 1.0, cc, 3.0 + dR) > initial_level_K0(2.0, 1.0, cc, 3.0)


def test_concentration_radius_hand_values():
    cc = ConditionConstants(nu0=1.0, b=1.0)
    assert concentration_radius_R0(1.0, 0.0, 2, cc, 0.5, 100.0) == 100.0
    assert close(concentration_radius_R0(1.0, 0.0, 2, cc, 0.5, 1.0), 12.0 * math.sqrt(5.8))
    r1 = concentration_radius_R0(1.0, 5.0, 2, cc, 0.5, 1.0)
    r0 = concentration_radius_R0(1.0, 0.0, 2, cc, 0.5, 1.0)
    assert r1 > r0


def test_spread_hand_values():
    cc0 = ConditionConstants(omega=0.0)
    assert spread_parametric(2.0, 1.0, 2, cc0) == 0.0
    # delta(r) = 0.01 r, omega = 0.05, z0^2 forced to 16 via g0 (x+4p* = 9 -> 1+3=4<=g0? no)
    # instead feed z0^2 = 16 by using x=1, p*=2 (Q=8): 1+sqrt(9)=4, squared = 16 with g0 large
    cc = ConditionConstants(nu1=1.0, omega=0.05, delta_slope=0.01)
    val = spread_parametric(2.0, 1.0, 2, cc)
    assert close(val, 0.01 * 2.0 * 2.0 + 0.3 * (16.0 + 8.0))
    assert close(val, 7.24)


def test_spread_semiparametric_hand_values():
    # nu = 0: breve constants equal the plain ones
    cc = ConditionConstants(nu1=1.0, omega=0.05, delta_slope=0.01)
    # choose x, p*, p with z0(x, 2p*+2p)^2 = 16: x + Q = 9 -> Q = 8 -> p* + p = 4
    val = spread_semiparametric(1.0, 1.0, 3, 1, cc, 0.0)
    assert close(val, 8.0 * 0.01 + 0.3 * (16.0 + 2.0))
    assert close(val, 5.48)
    cc0 = ConditionConstants()
    assert spread_semiparametric(1.0, 1.0, 3, 1, cc0, 0.3) == 0.0


def test_spread_plain_hand_values():
    # z(x, 2p*+2p) = 4: 2(x+Q) = 16 -> x+Q = 8 -> x=1, Q=7 not reachable with
    # integer dims (Q = 2p*+2p); use x = 0, p* = 3, p = 1 -> Q = 8, z = 4
    cc = ConditionConstants(nu1=1.0, omega=0.05, delta_slope=0.01)
    val = spread_semiparametric_plain(1.0, 0.0, 3, 1, cc, 0.0)
    assert close(val, 8.0 * 0.01 + 6.0 * 0.05 * 4.0 * 1.0)
    assert close(val, 1.28)
    cc0 = ConditionConstants()
    assert spread_semiparametric_plain(1.0, 1.0, 3, 1, cc0, 0.3) == 0.0
    # linear in r when the non-quadraticity term vanishes
    cc_lin = ConditionConstants(nu1=1.0, omega=0.05)
    v1 = spread_semiparametric_plain(1.0, 0.0, 3, 1, cc_lin, 0.0)
    v2 = spread_semiparametric_plain(2.0, 0.0, 3, 1, cc_lin, 0.0)
    assert close(v2, 2.0 * v1)


def test_convert_conditions():
    cc = ConditionConstants(g=1.0)
    g0, nu0 = convert_conditions(cc, 0.0)
    assert g0 == 1.0 and nu0 == 0.0
    g, nu = convert_conditions(ConditionConstants(g=1.0, omega=0.07, delta_slope=0.02), 0.5)
    fac = (1.0 + 0.5 * math.sqrt(1.25)) / math.sqrt(0.75)
    assert close(g, 1.0 / fac)
    assert close(nu, 0.5 * fac)


def test_fisher_radius_hand_values():
    v0 = fisher_radius(0, 1.0, 0.25, 20.0, 3.0, 1.0)
    assert close(v0, 2.0 * math.sqrt(2.0) / 0.5 * (4.0 + 1.5 * 20.0))
    vinf = fisher_radius(400, 1.0, 0.25, 20.0, 3.0, 1.0)
    assert close(vinf, 2.0 * math.sqrt(2.0) * 2.0 * 4.0)
    vals = [fisher_radius(k, 1.0, 0.25, 20.0, 3.0, 1.0) for k in range(8)]
    assert all(b <= a for a, b in zip(vals[:-1], vals[1:]))


def test_refined_radius_limits():
    plain = fisher_radius_refined(5, 1.0, 0.25, 20.0, 3.0, 0.0)
    C = C_nu(0.25)
    assert close(plain, C * 3.0 + 0.25**5 * C * 20.0)
    up = fisher_radius_refined(5, 1.0, 0.25, 20.0, 3.0, 1e-5)
    assert up >= plain
    with pytest.raises(UnsupportedRegimeError):
        fisher_radius_refined(5, 1.0, 0.25, 1e6, 3.0, 1e-3)


def test_check_A3():
    c1, c2, ok = check_A3(0.0, 3.0, 20.0, 0.25)
    assert c1 == 0.0 and c2 == 0.0 and ok
    _, c2b, okb = check_A3(0.01, 3.0, 1e6, 0.25)
    assert c2b > 1.0 and not okb


def test_check_B1():
    assert check_B1(1.0, 4, ConditionConstants(g_r=math.inf))
    assert not check_B1(1.0, 4, ConditionConstants(g_r=1e-3))  # g_r = 0 is rejected
    # boundary equality passes (<= convention)
    x, p_star = 1.0, 4
    lhs = 1.0 + math.sqrt(x + 4.0 * p_star)
    cc = ConditionConstants(nu_r=1.0, b=1.0, g_r=lhs / 3.0)
    assert check_B1(x, p_star, cc)


@pytest.mark.parametrize("key", ["nu0", "nu1", "nu2", "nu_r", "b"])
def test_condition_constants_reject_an_infinite_scale(key):
    # the bound formulas are not defined there: nu0 = inf gave K0 = nan;
    # g, g0 and g_r keep inf, which selects the Gaussian branch
    with pytest.raises(FieldValueError) as info:
        ConditionConstants(**{key: math.inf})
    assert (str(info.value), info.value.fields) == (f"{key} must be finite", [key])
    assert ConditionConstants(g=math.inf, g0=math.inf, g_r=math.inf).g_r == math.inf


def test_stopping_steps():
    assert stopping_steps(3.0, 50.0, 0.5) == 4
    assert stopping_steps(10.0, 50.0, 0.5) == 0  # z^2 >= 2 R0
    with pytest.raises(ValueError):
        stopping_steps(3.0, 50.0, 1.0)


def test_kappa_hand_values():
    assert kappa(10.0, ConditionConstants(), 0.0, 0.0, 0.0, 0.0) == 0.0
    cc = ConditionConstants(delta_const=0.1)
    assert close(kappa(10.0, cc, 0.0, 0.0, 5.0, 0.0), 2.0 * math.sqrt(2.0) * 0.1)
    cc2 = ConditionConstants(delta_const=0.05, omega2=0.01, nu2=1.0)
    val = kappa(10.0, cc2, 0.25, 0.1, 5.0, 2.0)
    pref = 2.0 * math.sqrt(2.0) * 1.5 / math.sqrt(0.75)
    assert close(val, pref * (0.05 + 0.45 + 0.2))


def test_me_radius_hand_values():
    assert close(me_radius(0, 0.05, 0.5, 10.0), 2.0 * math.sqrt(2.0) * 10.0)
    assert close(me_radius(10, 0.05, 0.5, 10.0), 0.5**10 * 2.0 * math.sqrt(2.0) * 10.0 / 0.5)
    # second branch agrees with the independent script
    v = me_radius(10, 0.2, 0.5, 10.0)
    assert close(v, ref.ref_me_radius(10, 0.2, 0.5, 10.0))
    with pytest.raises(UnsupportedRegimeError):
        me_radius(3, 0.9, 0.5, 10.0)


def test_me_radius_vanishes_for_small_kappa():
    # nu < 1/e so the floor exponent L(k) is >= 1 for large k
    vals = [me_radius(k, 0.05, 0.3, 25.0) for k in range(2, 400, 25)]
    assert vals[-1] < 1e-6 * vals[0]


# ----------------------------------------------------- oracle agreement sweep

def draw_params(rng):
    return {
        "x": float(rng.uniform(0.1, 10.0)),
        "nu": float(rng.uniform(0.0, 0.9)),
        "p": int(rng.integers(1, 5)),
        "m": int(rng.integers(1, 8)),
        "nu0": float(rng.uniform(0.5, 2.0)),
        "nu1": float(rng.uniform(0.5, 2.0)),
        "nu2": float(rng.uniform(0.5, 2.0)),
        "omega": float(rng.uniform(0.0, 0.5)),
        "omega2": float(rng.uniform(0.0, 0.5)),
        "b": float(rng.uniform(0.2, 3.0)),
        "nu_r": float(rng.uniform(0.5, 2.0)),
        "g": float(rng.uniform(6.0, 40.0)),
        "g0": float(rng.uniform(1.0, 10.0)),
        "delta_slope": float(rng.uniform(0.0, 0.05)),
        "delta_const": float(rng.uniform(0.0, 0.1)),
        "g_r": float(rng.uniform(0.0, 50.0)),
        "r": float(rng.uniform(0.1, 5.0)),
        "R0": float(rng.uniform(1.0, 40.0)),
        "RK": float(rng.uniform(0.0, 10.0)),
        "z": float(rng.uniform(0.5, 8.0)),
        "k": int(rng.integers(0, 12)),
        "eps": float(rng.uniform(0.0, 0.01)),
        "eigs": rng.uniform(0.2, 2.0, size=int(rng.integers(1, 7))),
        "norm_dinv": float(rng.uniform(0.0, 0.5)),
        "z6": float(rng.uniform(0.0, 8.0)),
        "zh": float(rng.uniform(0.0, 3.0)),
        "kap": float(rng.uniform(0.001, 0.5)),
        "Rt": float(rng.uniform(1.0, 30.0)),
    }


def test_all_operations_agree_with_reference_script():
    rng = np.random.default_rng(20240817)
    checked_branches = set()
    for _ in range(50):
        d = draw_params(rng)
        cc = ConditionConstants(
            nu0=d["nu0"], nu1=d["nu1"], nu2=d["nu2"], omega=d["omega"],
            omega2=d["omega2"], g=d["g"], g0=d["g0"], b=d["b"], nu_r=d["nu_r"],
            delta_slope=d["delta_slope"], delta_const=d["delta_const"],
            g_r=d["g_r"],
        )
        p_star = d["p"] + d["m"]
        x, nu, r, z, R0, k = d["x"], d["nu"], d["r"], d["z"], d["R0"], d["k"]

        # quadratic-form quantile on a random symmetric PSD matrix
        eigs = d["eigs"]
        Q, _ = np.linalg.qr(rng.standard_normal((eigs.size, eigs.size)))
        B = (Q * eigs) @ Q.T
        g_ok = d["g"] if d["g"] ** 2 >= 2.0 * float((eigs**2).sum()) else math.inf
        assert close(quad_form_quantile(x, B, g_ok), ref.ref_quad_quantile(x, eigs, g_ok))
        if not math.isinf(g_ok):
            checked_branches.add(ref.ref_quad_branch(x, eigs, g_ok))

        assert close(entropy_quantile_sq(x, 4.0 * p_star, d["g0"]),
                     ref.ref_entropy_sq(x, 4.0 * p_star, d["g0"]))
        assert close(entropy_quantile(x, 6.0 * p_star, d["g0"]),
                     ref.ref_entropy(x, 6.0 * p_star, d["g0"]))
        assert close(initial_level_K0(d["RK"], x, cc, z),
                     ref.ref_k0(d["RK"], x, d["nu0"], d["omega"], cc.delta(d["RK"]), z))
        K0 = initial_level_K0(d["RK"], x, cc, z)
        assert close(concentration_radius_R0(x, K0, p_star, cc, nu, z),
                     ref.ref_r0(x, K0, p_star, d["nu0"], d["b"], nu, z))
        assert close(spread_parametric(r, x, p_star, cc),
                     ref.ref_spread_q(r, x, p_star, d["nu1"], d["omega"], d["g0"], cc.delta(r)))
        gb, nub = ref.ref_convert(d["g"], nu)
        g_breve, nu_breve = convert_conditions(cc, nu)
        assert close(g_breve, gb) and close(nu_breve, nub)
        assert close(
            spread_semiparametric(r, x, p_star, d["p"], cc, nu),
            ref.ref_spread_breve(r, x, p_star, d["p"], d["nu1"], d["omega"],
                                 d["g0"], cc.delta(r), nu),
        )
        assert close(
            spread_semiparametric_plain(r, x, p_star, d["p"], cc, nu),
            ref.ref_spread_breve_plain(r, x, p_star, d["p"], d["nu1"], d["omega"],
                                       d["g0"], cc.delta(r), nu),
        )
        assert close(C_nu(nu), ref.ref_c_nu(nu))
        sp = spread_parametric(R0, x, p_star, cc)
        assert close(fisher_radius(k, x, nu, R0, z, sp), ref.ref_rk(k, nu, R0, z, sp))
        c1, c2, ok = check_A3(d["eps"], z, R0, nu)
        rc1, rc2, rok = ref.ref_check_a3(d["eps"], z, R0, nu)
        assert close(c1, rc1) and close(c2, rc2) and ok == rok
        if ok:
            assert close(fisher_radius_refined(k, x, nu, R0, z, d["eps"]),
                         ref.ref_rk_refined(k, nu, R0, z, d["eps"]))
        grid = [0.5 * R0, R0, 2.0 * R0, 10.0 * R0]
        assert check_B1(x, p_star, cc, r_grid=grid) == ref.ref_check_b1(
            x, p_star, d["nu0"], d["b"], d["nu_r"], lambda r: cc.g_r, grid
        )
        if 0.0 < nu < 1.0:
            assert stopping_steps(z, R0, nu) == ref.ref_stop_k(z, R0, nu)
        assert close(
            kappa(R0, cc, nu, d["norm_dinv"], d["z6"], d["zh"]),
            ref.ref_kappa(R0, cc.delta(R0), d["omega2"], d["nu2"], nu,
                          d["norm_dinv"], d["z6"], d["zh"]),
        )
        if d["kap"] < 1.0 - nu:
            kk = max(k, 2)
            assert close(me_radius(kk, d["kap"], nu, d["Rt"]),
                         ref.ref_me_radius(kk, d["kap"], nu, d["Rt"]))
    # targeted draws covering the remaining branches of the piecewise quantile
    for x, eigs, g in (
        (0.2, np.ones(400), math.inf),   # branch 1: huge-trace regime
        (9.5, np.ones(2), 3.0),          # branch 3: bounded exponential moments
        (0.5, rng.uniform(0.5, 1.5, 600), math.inf),
        (8.0, np.array([1.0, 0.7, 0.4]), 3.5),
    ):
        B = np.diag(eigs)
        assert close(quad_form_quantile(x, B, g), ref.ref_quad_quantile(x, eigs, g))
        if not math.isinf(g):
            checked_branches.add(ref.ref_quad_branch(x, eigs, g))
        else:
            checked_branches.add(ref.ref_quad_branch(x, eigs, 1e9))
    assert checked_branches == {1, 2, 3}


# ------------------------------------------------------------- monotonicities

def test_quantiles_monotone_in_x():
    cc = ConditionConstants(omega=0.1, delta_slope=0.01)
    xs = np.linspace(0.5, 8.0, 12)
    for f in (
        lambda x: quad_form_quantile(x, np.eye(3)),
        lambda x: entropy_quantile_sq(x, 10.0, 3.0),
        lambda x: entropy_quantile(x, 10.0, 3.0),
        lambda x: concentration_radius_R0(x, 1.0, 3, cc, 0.3, 0.5),
        lambda x: spread_parametric(2.0, x, 3, cc),
        lambda x: kappa(5.0, cc, 0.3, 0.1, entropy_quantile(x, 18.0, 3.0), 0.0),
    ):
        vals = [f(x) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals[:-1], vals[1:]))


def test_validate_quad_tail():
    out = validate_quad_tail(np.eye(4), [2.0], 100_000, seed=7)
    assert out[0]["ok"]
    assert out[0]["fraction"] <= 2.0 * math.exp(-2.0) + 3.0 * out[0]["se"]
    again = validate_quad_tail(np.eye(4), [2.0], 100_000, seed=7)
    assert again[0]["count"] == out[0]["count"]  # fixed seed reproducibility
    zero = validate_quad_tail(np.zeros((2, 2)), [1.0], 1000, seed=1)
    assert zero[0]["fraction"] == 0.0


def test_compute_bound_report_smoke():
    cc = ConditionConstants(omega=0.05, delta_slope=0.005, z_hess=0.1)
    rep, radii = compute_bound_report(
        BoundInputs(2.0, 1, 2, 0.25, cc, eps=1e-4, norm_dinv=0.01, k_max=10))
    rk = np.array(radii["r_k"])
    assert np.all(np.diff(rk) <= 1e-12)
    assert rep["K_stop"] >= 0
    assert rep["z_x"] == max(rep["z_quad"], math.sqrt(rep["z0_sq"]))
    assert rep["prob_level"] <= 1.0
    r_star = radii["r_star_k"]
    if r_star:
        assert r_star[0] >= r_star[-1] or len(r_star) < 3
    assert "R0" in rep and "kappa" in rep
    assert list(rep)[-5:] == ["check_A3_c1", "check_A3_c2", "check_A3_ok", "check_B1_ok",
                              "check_kappa_lt_1mn"]


def test_combined_quantile_order():
    z = combined_quantile(2.0, 3, ConditionConstants())
    assert z >= math.sqrt(3.0)  # order sqrt(p* + x)
    assert z <= 10.0
