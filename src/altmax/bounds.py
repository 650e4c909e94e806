"""Closed-form finite-sample quantities for the alternating-maximization analysis.

Everything here is a deterministic formula: sub-Gaussian quadratic-form
quantiles, entropy-corrected deviation levels for suprema of smooth
processes, the initial-guess level K0 and concentration radius R0, the
parametric and semiparametric uniform spreads, the per-step radii r_k of the
Fisher/Wilks statements, the step-count rule, and the second-order roughness
coefficient kappa with the nearly-linear convergence radii.  The seeded
Monte Carlo check of the quadratic-form tail bound and the projected-condition
constants are the acceptance gate's, in `tests/instruments.py`.

Piecewise formulas use <= for the first branch throughout.  Monotonicity
in x and k holds as stated, but branch continuity is not asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

MU_C = 2.0 / 3.0


class UnsupportedRegimeError(ValueError):
    """Inputs fall outside the regime the formula is stated for."""


class FieldValueError(ValueError):
    """A configuration value out of its range.  `fields` (space-separated) are
    the fields it can blame, in order; `field` is the first."""

    def __init__(self, fields, message):
        super().__init__(message)
        self.fields = fields.split()
        self.field = self.fields[0]


def _require(obj, keys, ok, need):
    """Raise FieldValueError `"{key} {need}"` for the first of `keys`
    (space-separated) whose value on `obj` is set (not None) and fails `ok`.
    Private: perfbench's tracer counts each public function here as a bound formula."""
    for key in keys.split():
        value = getattr(obj, key)
        if value is not None and not ok(value):
            raise FieldValueError(key, f"{key} {need}")


@dataclass(frozen=True)
class ConditionConstants:
    """Scalar and parametric constants of the model-regularity conditions.

    The local non-quadraticity map delta(r) is parametrized as
    delta_const + delta_slope * r (non-negative, non-decreasing); the
    large-deviation exponential-moment map g(r) and the probability term
    beta_A(x) are the constants g_r and beta_a.  Infinite g / g0 select the
    first branch of every piecewise quantile, matching models with genuinely
    Gaussian errors; g, g0 and g_r are the only constants that may be inf.
    """

    nu0: float = 1.0
    nu1: float = 1.0
    nu2: float = 1.0
    omega: float = 0.0
    omega2: float = 0.0
    g: float = math.inf
    g0: float = math.inf
    b: float = 1.0
    nu_r: float = 1.0
    delta_slope: float = 0.0
    delta_const: float = 0.0
    g_r: float = math.inf
    beta_a: float = 0.0
    z_hess: float = 0.0

    def __post_init__(self):
        _require(self, "omega omega2", lambda v: 0.0 <= v <= 0.5, "must lie in [0, 1/2]")
        _require(self, "nu0 nu1 nu2 nu_r g g0 g_r b", lambda v: v > 0, "must be > 0")
        _require(self, "nu0 nu1 nu2 nu_r b delta_slope delta_const z_hess beta_a", math.isfinite,
                 "must be finite")
        # the delta map must be non-negative and non-decreasing
        _require(self, "delta_slope delta_const", lambda v: v >= 0, "must be >= 0")

    def delta(self, r):
        return self.delta_const + self.delta_slope * r


@dataclass(frozen=True)
class BoundInputs:
    """Inputs of `compute_bound_report`, checked when built; the `bounds` subcommand's keys."""

    x: float = 2.0
    p: int = 1
    m: int = 1
    nu: float = 0.25
    cc: ConditionConstants = field(default_factory=ConditionConstants)
    b_eigenvalues: tuple[float, ...] | None = None
    r_k_init: float | None = None
    k0: float | None = None
    eps: float = 0.0
    norm_dinv: float = 0.0
    k_max: int = 20

    def __post_init__(self):
        _require(self, "p m k_max", lambda v: isinstance(v, Integral), "must be an integer")
        _require(self, "x eps norm_dinv r_k_init k0", math.isfinite, "must be finite")
        _require(self, "b_eigenvalues", lambda v: all(map(math.isfinite, v)),
                 "entries must be finite")
        _require(self, "x", lambda v: v > 0, "> 0 required")
        _require(self, "p m", lambda v: v >= 1, ">= 1 required")
        _require(self, "nu", lambda v: 0 <= v < 1, "in [0, 1) required")
        _require(self, "k_max eps norm_dinv r_k_init k0", lambda v: v >= 0, ">= 0 required")
        eigs = self.b_eigenvalues
        if eigs is not None and len(eigs) != self.p + self.m:
            raise FieldValueError("b_eigenvalues",
                                  f"b_eigenvalues must have p + m = {self.p + self.m} entries")
        _require(self, "b_eigenvalues", lambda v: all(x >= 0 for x in v), "entries >= 0 required")


def quad_form_constants(B, g):
    """(p_B, v_B, lambda_star, x_c, y_c, g_c) for the quadratic-form quantile.

    B is a symmetric PSD matrix; the quadratic form is ||B xi||^2 = xi' B^2 xi,
    so the ingredients are p_B = tr(B^2), v_B^2 = 2 tr(B^4),
    lambda_star = ||B^2||, and the critical constants use mu_c = 2/3.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    w = np.linalg.eigvalsh(0.5 * (B + B.T))
    if w.min() < -1e-10 * max(1.0, abs(w).max()):
        raise ValueError("B must be symmetric PSD")
    lam = np.clip(w, 0.0, None) ** 2  # eigenvalues of B^2
    p_B = float(lam.sum())
    v_B = float(math.sqrt(2.0 * float((lam**2).sum())))
    lam_star = float(lam.max())
    if math.isinf(g):
        return p_B, v_B, lam_star, math.inf, math.inf, math.inf
    if g * g < 2.0 * p_B:
        raise UnsupportedRegimeError(
            f"g^2 = {g * g:.6g} < 2 tr(B^2) = {2 * p_B:.6g}: outside the stated regime"
        )
    g_c = math.sqrt(g * g - MU_C * p_B)
    if lam_star == 0.0:
        return p_B, v_B, lam_star, math.inf, math.inf, g_c
    logdet = float(np.log(1.0 - MU_C * lam / lam_star).sum())
    x_c = 0.5 * ((g * g / MU_C - p_B) / lam_star + logdet) - 2.0
    y_c = math.sqrt(p_B + 6.0 * lam_star * (x_c + 2.0))
    return p_B, v_B, lam_star, x_c, y_c, g_c


def quad_form_quantile(x, B, g=math.inf):
    """Sub-Gaussian deviation level z(x, B) with P(||B xi|| > z) <= 2 exp(-x)."""
    if x <= 0:
        raise ValueError("x must be > 0")
    p_B, v_B, lam_star, x_c, y_c, g_c = quad_form_constants(B, g)
    if lam_star == 0.0:
        return 0.0
    if x + 1.0 <= v_B / (18.0 * lam_star):
        z2 = p_B + 2.0 * v_B * math.sqrt(x + 1.0)
    elif x + 1.0 <= x_c + 2.0:
        z2 = p_B + 6.0 * lam_star * (x + 1.0)
    else:
        z2 = (y_c + 2.0 * lam_star * (x - x_c + 1.0) / g_c) ** 2
    return math.sqrt(z2)


def entropy_quantile_sq(x, Q, g0=math.inf):
    """Squared entropy-corrected deviation level z0(x, Q)^2 for suprema of
    smooth vector processes over a set of complexity Q."""
    if x < 0 or Q < 0 or g0 <= 0:
        raise ValueError("x, Q >= 0 and g0 > 0 required")
    t = 1.0 + math.sqrt(x + Q)
    if t <= g0:
        return t * t
    return 1.0 + (2.0 * (x + Q) / g0 + g0) ** 2


def entropy_quantile(x, Q, g0=math.inf):
    """Entropy deviation level z(x, Q) for suprema of spectral-norm processes."""
    if x < 0 or Q < 0 or g0 <= 0:
        raise ValueError("x, Q >= 0 and g0 > 0 required")
    s = math.sqrt(2.0 * (x + Q))
    if s <= g0:
        return s
    return (x + Q) / g0 + g0 / 2.0


def combined_quantile(x, p_star, cc: ConditionConstants):
    """z(x) = z(x, I) v z0(x, 4 p*): the single symbol covering all
    sqrt(p* + x)-order terms."""
    return max(
        quad_form_quantile(x, np.eye(p_star), cc.g),
        math.sqrt(entropy_quantile_sq(x, 4.0 * p_star, cc.g0)),
    )


def initial_level_K0(R_K, x, cc: ConditionConstants, z):
    """Initial-guess level K0 from a radius R_K containing the start."""
    if R_K < 0:
        raise ValueError("R_K must be >= 0")
    return (
        (0.5 + 12.0 * cc.nu0 * cc.omega) * R_K**2
        + (cc.delta(R_K) + z) * R_K
        + 6.0 * cc.nu0 * cc.omega * z**2
    )


def concentration_radius_R0(x, K0, p_star, cc: ConditionConstants, nu, z):
    """Radius confining the whole alternating sequence with high probability."""
    if cc.b <= 0:
        raise ValueError("b must be > 0")
    if not nu < 1.0:
        raise ValueError("nu < 1 required")
    inner = x + 2.4 * p_star + (cc.b**2 / (9.0 * cc.nu0**2)) * K0
    return max(z, 6.0 * cc.nu0 / (cc.b * (1.0 - nu)) * math.sqrt(inner))


def spread_parametric(r, x, p_star, cc: ConditionConstants):
    """Parametric uniform spread: delta(r) r + 6 nu1 omega (z0(x,4p*)^2 + 2 r^2)."""
    z0sq = entropy_quantile_sq(x, 4.0 * p_star, cc.g0)
    return cc.delta(r) * r + 6.0 * cc.nu1 * cc.omega * (z0sq + 2.0 * r**2)


def spread_semiparametric(r, x, p_star, p, cc: ConditionConstants, nu):
    """Semiparametric uniform spread with the entropy-squared correction."""
    z0sq = entropy_quantile_sq(x, 2.0 * p_star + 2.0 * p, cc.g0)
    lead = 8.0 / (1.0 - nu**2) ** 2
    return lead * cc.delta(r) * r + 6.0 * cc.nu1 * cc.omega * (z0sq + 2.0 * r**2)


def spread_semiparametric_plain(r, x, p_star, p, cc: ConditionConstants, nu):
    """Plain semiparametric spread, linear in r."""
    zq = entropy_quantile(x, 2.0 * p_star + 2.0 * p, cc.g0)
    lead = 8.0 / (1.0 - nu**2) ** 2
    return lead * cc.delta(r) * r + 6.0 * cc.nu1 * cc.omega * zq * r


def C_nu(nu):
    """C(nu) = 2 sqrt(2) (1 + sqrt(nu)) / (1 - sqrt(nu))."""
    if not 0.0 <= nu < 1.0:
        raise ValueError("0 <= nu < 1 required")
    rn = math.sqrt(nu)
    return 2.0 * math.sqrt(2.0) * (1.0 + rn) / (1.0 - rn)


def fisher_radius(k, x, nu, R0, z, spread_at_R0):
    """Basic per-step localization radius r_k."""
    rn = math.sqrt(nu)
    return 2.0 * math.sqrt(2.0) / (1.0 - rn) * (
        (z + spread_at_R0) + (1.0 + rn) * nu**k * R0
    )


def check_A3(eps, z, R0, nu):
    """Smallness coefficients c(eps, z) and c(eps, R0); pass iff both < 1."""
    C = C_nu(nu)
    c1 = eps * 7.0 * C * (1.0 / (1.0 - nu)) * (z + eps * z**2)
    c2 = eps * 7.0 * C * (1.0 / (1.0 - nu)) * R0
    return c1, c2, (c1 < 1.0 and c2 < 1.0)


def fisher_radius_refined(k, x, nu, R0, z, eps):
    """Refined r_k with the second-order corrections; requires the smallness check."""
    c1, c2, ok = check_A3(eps, z, R0, nu)
    if not ok:
        raise UnsupportedRegimeError(
            f"smallness check failed: c(eps,z)={c1:.4g}, c(eps,R0)={c2:.4g}"
        )
    C = C_nu(nu)
    zz = z + eps * z**2
    head = C * zz + eps * (49.0 * C**4 / (1.0 - c1)) * (1.0 / (1.0 - nu)) * zz**2
    tail = C * R0 + eps * (49.0 * C**4 / (1.0 - c2)) * (nu / (1.0 - nu)) * R0**2
    return head + nu**k * tail


def check_B1(x, p_star, cc: ConditionConstants, r_grid=None):
    """Technical large-deviation condition, evaluated on a grid of radii."""
    s = math.sqrt(x + 4.0 * p_star)
    r_min = 6.0 * cc.nu0 / cc.b * s
    if r_grid is None:
        r_grid = [r_min * (2.0**i) for i in range(4)]
    lhs = 1.0 + s
    for r in r_grid:
        if r < r_min:
            continue
        if not lhs <= 3.0 * cc.nu_r**2 * cc.g_r / cc.b:
            return False
    return True


def stopping_steps(z, R0, nu):
    """Number of alternation steps after which the nu^k R0 term is below z^2/2."""
    if not 0.0 < nu < 1.0:
        raise ValueError("stopping rule needs 0 < nu < 1")
    if z <= 0 or R0 <= 0:
        raise ValueError("z > 0 and R0 > 0 required")
    val = (2.0 * math.log(z) - math.log(2.0 * R0)) / math.log(nu)
    return max(0, math.ceil(val))


def kappa(R0, cc: ConditionConstants, nu, norm_Dinv, z_6pstar, z_hess):
    """Second-order roughness coefficient kappa(x, R0)."""
    pref = 2.0 * math.sqrt(2.0) * (1.0 + math.sqrt(nu)) / math.sqrt(1.0 - nu)
    return pref * (
        cc.delta(R0)
        + 9.0 * cc.omega2 * cc.nu2 * norm_Dinv * z_6pstar * R0
        + norm_Dinv * z_hess
    )


def me_tau_L(k, kappa_val, nu):
    """(tau, L) of the nearly-linear convergence branch; defined for kappa k > 1."""
    if k < 2:
        raise ValueError("second branch needs k >= 2")
    num = math.log(1.0 / nu) - (math.log(2.0 * math.sqrt(2.0)) - math.log(kappa_val * k - 1.0)) / k
    den = 1.0 + math.log(1.0 - nu) / math.log(k)
    L = max(math.floor(num / den), 0)
    tau = (kappa_val / (1.0 - nu)) ** L
    return tau, L


def me_radius(k, kappa_val, nu, R_tilde0):
    """Distance-to-maximizer radius r_k* of the nearly-linear convergence result."""
    if not kappa_val < 1.0 - nu:
        raise UnsupportedRegimeError(
            f"kappa = {kappa_val:.4g} must be < 1 - nu = {1 - nu:.4g}"
        )
    if k < 0:
        raise ValueError("k must be >= 0")
    if kappa_val * k <= 1.0:
        return nu**k * 2.0 * math.sqrt(2.0) * R_tilde0 / (1.0 - kappa_val * k)
    tau, _ = me_tau_L(k, kappa_val, nu)
    return 2.0 * (1.0 - nu) / kappa_val * tau ** (k / math.log(k)) * R_tilde0


def compute_bound_report(inputs: BoundInputs):
    """Evaluate the whole chain of bound formulas for one configuration.

    Returns (values, radii).  `values` maps each scalar, then each `check_*`
    flag, to its value, in the order of the report files.  `radii` maps
    `r_k`, `r_k_refined` and `r_star_k` to their lists over k = 0..k_max;
    `r_k_refined` is None unless eps > 0 passes the smallness check, and
    `r_star_k` is empty unless kappa < 1 - nu.
    """
    x, p, m, nu, cc, k_max = inputs.x, inputs.p, inputs.m, inputs.nu, inputs.cc, inputs.k_max
    eps, r_k_init = inputs.eps, inputs.r_k_init
    p_star = p + m
    B = np.diag(inputs.b_eigenvalues) if inputs.b_eigenvalues is not None else np.eye(p_star)
    v = {"x": x, "p": p, "m": m, "nu": nu}
    v["z_quad"] = quad_form_quantile(x, B, cc.g)
    v["z0_sq"] = entropy_quantile_sq(x, 4.0 * p_star, cc.g0)
    v["z_entropy"] = entropy_quantile(x, 2.0 * p_star + 2.0 * p, cc.g0)
    z_x = v["z_x"] = max(v["z_quad"], math.sqrt(v["z0_sq"]))
    K0 = v["K0"] = inputs.k0 if inputs.k0 is not None else initial_level_K0(
        z_x if r_k_init is None else r_k_init, x, cc, z_x)
    R0 = v["R0"] = concentration_radius_R0(x, K0, p_star, cc, nu, z_x)
    v["r_ups"] = concentration_radius_R0(x, 0.0, p_star, cc, nu, z_x)
    v["spread_Q"] = spread_parametric(R0, x, p_star, cc)
    v["spread_semi"] = spread_semiparametric(R0, x, p_star, p, cc, nu)
    v["spread_semi_plain"] = spread_semiparametric_plain(R0, x, p_star, p, cc, nu)
    steps = range(k_max + 1)
    radii = {"r_k": [fisher_radius(k, x, nu, R0, z_x, v["spread_Q"]) for k in steps],
             "r_k_refined": None, "r_star_k": []}
    c1, c2, a3_ok = check_A3(eps, z_x, R0, nu)
    if eps > 0.0 and a3_ok:
        radii["r_k_refined"] = [fisher_radius_refined(k, x, nu, R0, z_x, eps) for k in steps]
    v["K_stop"] = stopping_steps(z_x, R0, nu) if 0.0 < nu < 1.0 else 0
    z6 = entropy_quantile(x, 6.0 * p_star, cc.g0)
    kap = v["kappa"] = kappa(R0, cc, nu, inputs.norm_dinv, z6, cc.z_hess)
    v["tau_x"] = v["L_k"] = None
    if kap < 1.0 - nu:
        radii["r_star_k"] = [me_radius(k, kap, nu, R0 + v["r_ups"]) for k in steps]
        if kap * k_max > 1.0:  # the nearly-linear branch, at its last k
            v["tau_x"], v["L_k"] = me_tau_L(k_max, kap, nu)
    names = ("p_B", "v_B", "lambda_star", "x_c", "y_c", "g_c")
    v.update(zip(names, quad_form_constants(B, cc.g)))
    v["mu_c"] = MU_C
    v["C_nu"] = C_nu(nu)
    v["prob_level"] = 1.0 - 8.0 * math.exp(-x) - cc.beta_a
    v.update(check_A3_c1=c1, check_A3_c2=c2, check_A3_ok=a3_ok,
             check_B1_ok=check_B1(x, p_star, cc), check_kappa_lt_1mn=kap < 1.0 - nu)
    return v, radii
