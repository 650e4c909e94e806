"""Monte Carlo experiment runner: Wilks/Fisher verification, contraction-rate
estimation, convergence to the maximizer, condition probes, and dimension
sweeps.

Replication r of an experiment draws its generator from
SeedSequence(master_seed, spawn_key=(r,)), so results are independent of
execution order and worker count; aggregation sorts by replication index.
Each experiment is a module-level worker of (context, replication index),
which pickles, run by the one `_run_replications`: a failed replication,
whatever error it raises, is recorded and excluded from aggregates, up to a
5% budget, beyond which the run aborts.  The replications and the shell
points of `probe_delta` run through one runner, `_map`, on `threads` processes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import chain

import numpy as np

from ._files import write_csv, write_kv
from ._lapack import extension
from .alternation import (
    AlternatingTrace,
    AlternationConfig,
    eta_update,
    fisher_residual,
    profile_estimate,
    run,
)
from .bounds import (
    C_nu,
    ConditionConstants,
    FieldValueError,
    _require,
    combined_quantile,
    concentration_radius_R0,
    fisher_radius,
    initial_level_K0,
    spread_parametric,
    spread_semiparametric,
    stopping_steps,
)
from .singleindex import SingleIndexModel, generate, information_at_truth
from .statcore import BlockInformation, ParameterPoint, coupling_norm, efficient_score
from .toy import simulate
from .wavelet import WaveletBasis


class HarnessError(RuntimeError):
    pass


def derive_seed(master_seed, index):
    return np.random.SeedSequence(master_seed, spawn_key=(index,))


# ---------------------------------------------------------------------------
# chi-square diagnostics
# ---------------------------------------------------------------------------

def chi2_cdf(x, k):
    """Exact chi-square CDF via the regularized lower incomplete gamma.

    That is scipy's `gammainc`, the object `scipy.special.gammainc` is, from
    the extension module that defines it, loaded alone by `extension`.
    """
    try:
        gammainc = extension("scipy.special._special_ufuncs").gammainc
    except (AttributeError, ImportError):  # a scipy that predates that module
        from scipy.special import gammainc
    x = np.asarray(x, dtype=float)
    return gammainc(k / 2.0, np.clip(x, 0.0, None) / 2.0)


def ks_distance(samples, p):
    """Exact Kolmogorov-Smirnov distance between the empirical law and chi^2_p."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n == 0:
        raise ValueError("need at least one sample")
    F = chi2_cdf(s, p)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(F - (i - 1) / n, i / n - F)))


def fit_contraction(distances, floor=None):
    """Geometric rate by log-linear least squares on the tail of a distance sequence.

    Points with index < 2 or value <= 10*floor are excluded; fewer than
    two usable points returns NaN (flagged sentinel).
    """
    d = np.asarray(distances, dtype=float)
    if floor is None:
        positive = d[d > 0]
        tiny = positive.min() if positive.size else 0.0
        floor = max(float(d[-1]), 1e-300, 1e-15 * float(d.max() if d.size else 0.0))
        floor = min(floor, tiny) if positive.size else floor
    k = np.arange(d.size)
    keep = (k >= 2) & (d > 10.0 * floor) & np.isfinite(d)
    if keep.sum() < 2:
        return float("nan")
    kk = k[keep].astype(float)
    ld = np.log(d[keep])
    slope = np.polyfit(kk, ld, 1)[0]
    return float(np.exp(slope))


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    family: str = "toy"
    reps: int = 200
    x: float = 2.0
    steps: int | None = None  # None -> stopping rule
    z_target: float | None = None  # z used in the stopping rule; None -> z(x)
    master_seed: int = 0
    threads: int = 1
    solver_tolerance: float = 1e-9
    cc: ConditionConstants = field(default_factory=ConditionConstants)
    # toy family
    toy_p: int = 1
    toy_m: int = 1
    toy_d2: float = 2.0
    toy_h2: float = 2.0
    toy_a: float = 1.0
    toy_start_offset: float = 2.0
    # single-index family
    si_n: int = 1000
    si_p: int = 2
    si_m: int = 6
    si_sigma: float = 0.5
    si_s_x: float = 1.0
    si_theta_angle: float = 0.3
    si_eta_star: tuple[float, ...] = (1.0, -0.8, 0.9, -0.7, 0.6, 0.8)
    si_grid_n: int = 512  # grid spacing must undercut the link's oscillation scale
    si_r_cov: int = 200
    si_constrain: bool = False
    # dimension sweep
    sweep_n: tuple[int, ...] = (250, 1000)
    sweep_m: tuple[int, ...] = (3, 6)

    def __post_init__(self):
        _require(self, "x z_target toy_d2 toy_h2 toy_a toy_start_offset si_sigma si_s_x",
                 math.isfinite, "must be finite")
        _require(self, "reps threads steps toy_p toy_m si_n si_p si_m si_grid_n si_r_cov",
                 lambda v: v >= 1, ">= 1 required")
        _require(self, "x z_target solver_tolerance toy_d2 toy_h2 si_s_x", lambda v: v > 0,
                 "> 0 required")
        _require(self, "master_seed si_sigma", lambda v: v >= 0, ">= 0 required")
        # an empty pool or list runs nothing; a repeated entry reruns its cell
        _require(self, "sweep_n sweep_m si_eta_star", len, "must not be empty")
        _require(self, "sweep_n sweep_m", lambda v: min(v) >= 1, "entries >= 1 required")
        _require(self, "sweep_n sweep_m", lambda v: len(set(v)) == len(v),
                 "entries must be distinct")
        _require(self, "si_eta_star", lambda v: all(map(math.isfinite, v)),
                 "entries must be finite")
        angle = self.si_theta_angle
        if self.si_p >= 2 and not (math.isfinite(angle) and math.cos(angle) > 0):
            # theta_star must lie on the half-sphere (first coordinate positive)
            raise FieldValueError("si_theta_angle", "cos(si_theta_angle) > 0 required")
        if self.family not in ("toy", "single-index", "sweep"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "toy":
            self.toy_info  # builds and checks the blocks
        elif self.family == "single-index" and len(self.si_eta_star) != self.si_m:
            # one value per sieve function; the sweep reads eta_star as a pool of any length
            raise FieldValueError("si_eta_star si_m",
                                  f"si_eta_star length must equal si_m = {self.si_m}")

    @cached_property
    def toy_info(self) -> BlockInformation:
        """The toy's information blocks, built once per config by `toy_blocks`."""
        return toy_blocks(self)


def toy_blocks(cfg: ExperimentConfig) -> BlockInformation:
    """The toy's information blocks, checked.

    Raises FieldValueError (blaming `toy_a`, `toy_d2`, `toy_h2`) unless
    toy_a**2 < toy_d2 * toy_h2: the blocks are SPD exactly when the coupling
    nu is below one.  Raises it (blaming `toy_d2`, then `toy_h2`) where the SPD
    root of the full information, which `toy.simulate` solves with and
    `build_context` keeps as `D_full`, is singular: with block scales far apart
    (`toy_d2 = 1e-300`, `toy_h2 = 1e300`) the eigendecomposition rounds the
    small eigenvalues to 0.  Raises it (blaming the larger of `toy_d2` and
    `toy_h2`, then `toy_start_offset`) where the norm in that root of the start
    offset, which the engine and the toy's functional compute, overflows
    (`toy_h2 = 5e307` at the default offset, or `toy_start_offset = 1e200` at
    the default blocks).
    """
    if not cfg.toy_a**2 < cfg.toy_d2 * cfg.toy_h2:
        raise FieldValueError("toy_a toy_d2 toy_h2", "toy_a**2 < toy_d2 * toy_h2 required")
    p, m = cfg.toy_p, cfg.toy_m
    A = np.zeros((p, m))
    for i in range(min(p, m)):
        A[i, i] = cfg.toy_a
    info = BlockInformation(
        D2=cfg.toy_d2 * np.eye(p), A=A, H2=cfg.toy_h2 * np.eye(m)
    )
    try:
        np.linalg.solve(info.full_sqrt(), np.zeros(p + m))
    except np.linalg.LinAlgError:
        raise FieldValueError(
            "toy_d2 toy_h2",
            "toy_d2 and toy_h2 too far apart: the root of the toy information is singular",
        ) from None
    with np.errstate(over="ignore"):
        start_norm = np.linalg.norm(info.full_sqrt() @ np.full(p + m, cfg.toy_start_offset))
    if not np.isfinite(start_norm):
        key = "toy_h2" if cfg.toy_h2 >= cfg.toy_d2 else "toy_d2"
        raise FieldValueError(f"{key} toy_start_offset", "toy_d2, toy_h2 and toy_start_offset "
                              "too large: the norm of the start offset overflows")
    return info


def si_theta_star(cfg: ExperimentConfig):
    p = cfg.si_p
    if p == 1:
        return np.array([1.0])
    th = np.zeros(p)
    th[0] = math.cos(cfg.si_theta_angle)
    th[1] = math.sin(cfg.si_theta_angle)
    return th / np.linalg.norm(th)


@dataclass
class ExperimentContext:
    """Shared per-configuration state: truth, information blocks, step count.

    `build_context` fills in the bound inputs and K after a pilot replication
    drawn from this context's own truth, information and basis.
    """

    cfg: ExperimentConfig
    upsilon_star: ParameterPoint
    info: BlockInformation
    nu: float
    D_full: np.ndarray  # SPD root of the full information, used as the norm weight
    basis: WaveletBasis | None = None
    cc_eff: ConditionConstants | None = None
    z_x: float | None = None
    R0: float | None = None
    K: int | None = None


def build_context(cfg: ExperimentConfig) -> ExperimentContext:
    if cfg.family == "toy":
        info = cfg.toy_info
        star = ParameterPoint(np.zeros(cfg.toy_p), np.zeros(cfg.toy_m))
        basis = None
    elif cfg.family == "sweep":
        raise ValueError("a sweep has no one context: run_dimension_sweep builds one per cell")
    else:
        basis = WaveletBasis(m=cfg.si_m, s_X=cfg.si_s_x)
        star = ParameterPoint(si_theta_star(cfg), cfg.si_eta_star)
        info = information_at_truth(
            basis, star, cfg.si_n, cfg.si_s_x, cfg.si_sigma, cfg.si_r_cov,
            seed=derive_seed(cfg.master_seed, 999_979),
        )
    ctx = ExperimentContext(
        cfg=cfg, upsilon_star=star, info=info, nu=coupling_norm(info),
        D_full=info.full_sqrt(), basis=basis,
    )
    ctx.cc_eff, ctx.z_x, ctx.R0 = _bound_inputs(ctx)
    K = cfg.steps
    if K is None:
        if ctx.R0 is None:
            K = 30
        else:
            z = cfg.z_target if cfg.z_target is not None else ctx.z_x
            # the rule counts linear-contraction steps; keep a floor of 3 so
            # the nonlinear first phase after a grid start is crossed as well
            K = max(3, min(stopping_steps(z, ctx.R0, ctx.nu), 200))
    ctx.K = K
    return ctx


def _bound_inputs(ctx):
    """Effective condition constants, z(x), and the concentration radius R0,
    with a pilot replication supplying the initial-guess radius."""
    cfg, star = ctx.cfg, ctx.upsilon_star
    cc = cfg.cc
    if cfg.family == "single-index" and cc.omega == 0.0:
        # i.i.d. default when no gradient-roughness constant is supplied
        cc = replace(cc, omega=1.0 / math.sqrt(cfg.si_n))
    if not 0.0 < ctx.nu < 1.0:
        return cc, None, None
    p_star = star.p_star
    z_x = combined_quantile(cfg.x, p_star, cc=cc)
    _, start = _make_replication(ctx, 999_931)
    R_K = max(z_x, float(np.linalg.norm(ctx.D_full @ (start.as_vector() - star.as_vector()))))
    K0 = initial_level_K0(R_K, cfg.x, cc, z_x)
    R0 = concentration_radius_R0(cfg.x, K0, p_star, cc, ctx.nu, z_x)
    return cc, z_x, R0


def _make_replication(ctx, rep_index):
    """The model of one replication and its start: a fixed offset (toy) or the
    model's grid start on si_grid_n points."""
    cfg, star = ctx.cfg, ctx.upsilon_star
    model = _make_model(ctx, rep_index)
    if cfg.family == "toy":
        return model, ParameterPoint.from_vector(star.as_vector() + cfg.toy_start_offset, star.p)
    return model, model.default_start(cfg.si_grid_n)


def _make_model(ctx, rep_index):
    """The model of one replication: a toy draw or a single-index dataset."""
    cfg = ctx.cfg
    seed = derive_seed(cfg.master_seed, rep_index)
    if cfg.family == "toy":
        return simulate(ctx.info, ctx.upsilon_star, seed=seed)
    dataset = generate(
        cfg.si_n, cfg.si_p, ctx.upsilon_star.theta, np.asarray(cfg.si_eta_star, dtype=float),
        cfg.si_sigma, cfg.si_s_x, seed=seed, basis=ctx.basis,
    )
    return SingleIndexModel(dataset, ctx.basis, constrain_theta=cfg.si_constrain)


def _alternation_config(ctx):
    return AlternationConfig(
        max_steps=ctx.K, solver_tolerance=ctx.cfg.solver_tolerance, norm_matrix=ctx.D_full
    )


# ---------------------------------------------------------------------------
# experiment report
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    kind: str
    records: list
    aggregates: dict
    meta: dict

    def write(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        cols = sorted({k for r in self.records for k in r})
        rows = ([r.get(c, "") for c in cols] for r in sorted(self.records, key=lambda d: d["rep"]))
        write_csv(os.path.join(outdir, "records.csv"), cols, rows)
        write_kv(os.path.join(outdir, "summary.kv"), chain(
            ((f"meta_{k}", self.meta[k]) for k in sorted(self.meta)),
            ((k, self.aggregates[k]) for k in sorted(self.aggregates)),
        ))


def _attempt(replicate, ctx, rep_index):
    try:
        return replicate(ctx, rep_index)
    except Exception as exc:  # any error fails this replication only
        return {"rep": rep_index, "status": "failed", "error": f"{type(exc).__name__}: {exc}"}


def _map(fn, ctx, items, workers):
    """[fn(ctx, x) for x in items], in order: here at 1 worker; else in contiguous
    chunks of ceil(len(items) / (4 * workers)) items, each pickled with `fn` and `ctx`,
    on a pool of `workers` processes, forked where the platform has fork (else its
    default start method).  An error of `fn` reaches the caller; a dead worker fails
    the map with BrokenProcessPool."""
    if workers == 1 or len(items) < 2:
        return [fn(ctx, x) for x in items]
    import multiprocessing  # here: a 1-worker run loads no process-pool module
    from concurrent.futures import ProcessPoolExecutor
    size = math.ceil(len(items) / (4 * workers))
    chunks = [items[i:i + size] for i in range(0, len(items), size)]
    start = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    with ProcessPoolExecutor(min(workers, len(chunks)), multiprocessing.get_context(start)) as ex:
        return [y for part in ex.map(partial(_map, fn, ctx, workers=1), chunks) for y in part]


def _run_replications(ctx, replicate, kind, aggregate, **meta):
    """Run `replicate(ctx, i)` for every replication; report `aggregate(ok, ctx)` and `meta`."""
    cfg = ctx.cfg
    records = _map(partial(_attempt, replicate), ctx, range(cfg.reps), cfg.threads)
    ok = [r for r in records if r["status"] == "ok"]
    failures = [r for r in records if r["status"] != "ok"]
    if len(failures) > 0.05 * cfg.reps:
        listing = "; ".join(f"rep {r['rep']}: {r['error']}" for r in failures)
        raise HarnessError(
            f"{len(failures)} of {cfg.reps} replications failed (>5% budget): {listing}"
        )
    if not ok:
        raise HarnessError("no successful replications")
    nu_hats = np.array([r["nu_hat"] for r in ok])
    any_rate = bool(np.any(np.isfinite(nu_hats)))
    aggregates = {
        "n_ok": len(ok),
        "n_failed": len(failures),
        "nu": ctx.nu,
        "nu_hat_median": float(np.nanmedian(nu_hats)) if any_rate else float("nan"),
        "monotone_violations": int(sum(1 for r in ok if r["monotone_defect"] > 0.0)),
        **aggregate(ok, ctx),
    }
    meta = {"family": cfg.family, "K": ctx.K, "reps": cfg.reps,
            "seed": cfg.master_seed, "threads": cfg.threads, **meta}
    return ExperimentReport(kind, records, aggregates, meta)


# ---------------------------------------------------------------------------
# Wilks / Fisher experiment
# ---------------------------------------------------------------------------

def run_wilks_fisher(config: ExperimentConfig) -> ExperimentReport:
    ctx = build_context(config)
    return _run_replications(
        ctx, _wilks_replication, "wilks_fisher", aggregate_wilks_fisher,
        nu=ctx.nu, p=ctx.upsilon_star.p, m=ctx.upsilon_star.m, x=config.x,
    )


def _wilks_replication(ctx, i):
    """The efficient score, and the Wilks and Fisher residuals of every step."""
    K, star = ctx.K, ctx.upsilon_star
    acfg = _alternation_config(ctx)
    model, start = _make_replication(ctx, i)
    score = efficient_score(ctx.info, *model.gradient(star))
    L_star = model.evaluate(ParameterPoint(star.theta, eta_update(model, star.theta)))
    trace = run(model, start, acfg)
    rec = {"rep": i, "status": "ok", "xi_norm2": float(score.xi @ score.xi),
           "monotone_defect": trace.monotone_defect(),
           "stop_reason": trace.stop_reason}
    steps = [r.step_norm for r in trace.records[1:]]
    rec["nu_hat"] = fit_contraction(
        [float("nan")] + steps, floor=max(steps[-1], 1e-300) if steps else None
    )
    for k in range(K + 1):
        r_k = trace.records[min(k, len(trace.records) - 1)]
        rec[f"fisher_{k}"] = fisher_residual(ctx.info, score, r_k.point_kk.theta, star.theta)
        rec[f"wilks_{k}"] = 2.0 * (r_k.L_kk1 - L_star)
    rec["dist_final"] = float(
        np.linalg.norm(ctx.D_full @ (trace.final().as_vector() - star.as_vector()))
    )
    return rec


def _ddof1(spread, x):
    """spread(x, ddof=1) for np.std or np.var; NaN, without numpy's warning, for one value."""
    return float(spread(x, ddof=1)) if len(x) > 1 else math.nan


def _spread_or_inf(spread, r, *args):
    """spread(r, *args), or inf where a term overflows float64: `r**2` then
    raises OverflowError, or a zero constant times an infinite term gives NaN
    (the other inputs are finite).  A bound that overflows says nothing, and
    every residual meets it."""
    try:
        value = spread(r, *args)
    except OverflowError:
        return math.inf
    return math.inf if math.isnan(value) else value


def aggregate_wilks_fisher(ok, ctx):
    """The Wilks, Fisher-residual and bound summaries of the successful records `ok`.

    With one successful record the spreads (wilks_se, wilks_var and every
    fisher_se_k) are NaN.
    """
    K = ctx.K
    p = ctx.upsilon_star.p
    w_K = np.array([r[f"wilks_{K}"] for r in ok])
    xi2 = np.array([r["xi_norm2"] for r in ok])
    agg = {
        "wilks_mean": float(np.mean(w_K)),
        "wilks_se": _ddof1(np.std, w_K) / math.sqrt(len(ok)),
        "wilks_var": _ddof1(np.var, w_K),
        "wilks_ks": ks_distance(w_K, p),
        "xi_norm2_mean": float(np.mean(xi2)),
        "xi_norm_median": float(np.median(np.sqrt(xi2))),
    }
    bounds_on = ctx.R0 is not None
    if bounds_on:
        cc = ctx.cc_eff
        p_star = ctx.upsilon_star.p_star
        sp_R0 = _spread_or_inf(spread_parametric, ctx.R0, ctx.cfg.x, p_star, cc)
        tau_budget = C_nu(ctx.nu) * ctx.cfg.solver_tolerance
    for k in range(K + 1):
        fk = np.array([r[f"fisher_{k}"] for r in ok])
        wk = np.array([r[f"wilks_{k}"] for r in ok])
        agg[f"fisher_median_{k}"] = float(np.median(fk))
        # ~SE of a median under normality
        agg[f"fisher_se_{k}"] = 1.2533 * _ddof1(np.std, fk) / math.sqrt(len(ok))
        agg[f"wilks_err_median_{k}"] = float(np.median(np.abs(wk - xi2)))
        if bounds_on:
            r_k = fisher_radius(k, ctx.cfg.x, ctx.nu, ctx.R0, ctx.z_x, sp_R0)
            spread = _spread_or_inf(spread_semiparametric, r_k, ctx.cfg.x, p_star, p, cc, ctx.nu)
            bound = spread + tau_budget
            agg[f"fisher_bound_{k}"] = bound
            agg[f"fisher_coverage_{k}"] = float(np.mean(fk <= bound))
    return agg


# ---------------------------------------------------------------------------
# convergence to the maximizer
# ---------------------------------------------------------------------------

def run_me_convergence(config: ExperimentConfig) -> ExperimentReport:
    ctx = build_context(config)
    return _run_replications(
        ctx, _me_replication, "me_convergence", _aggregate_me,
        solver_tolerance=config.solver_tolerance,
    )


def _me_replication(ctx, i):
    """The distance of every step to the replication's maximizer."""
    acfg = _alternation_config(ctx)
    profile_cfg = replace(acfg, max_steps=4 * ctx.K)  # profile_estimate runs >= 200
    model, start = _make_replication(ctx, i)
    me, profile = profile_estimate(model, profile_cfg, start)
    me_v = me.as_vector()
    # the alternation is deterministic: the K-step run from `start` would
    # repeat the profile run's first K + 1 records
    records = profile.records[: acfg.max_steps + 1]
    dists = [
        float(np.linalg.norm(ctx.D_full @ (r.point_kk.as_vector() - me_v)))
        for r in records
    ]
    rec = {"rep": i, "status": "ok",
           "monotone_defect": AlternatingTrace(records).monotone_defect()}
    rec.update({f"dist_{k}": d for k, d in enumerate(dists)})
    rec["dist_final"] = dists[-1]
    rec["nu_hat"] = fit_contraction(dists)
    return rec


def _aggregate_me(ok, ctx):
    nu_hats = np.array([r["nu_hat"] for r in ok])
    return {
        "nu_hat_max": float(np.nanmax(nu_hats)) if np.any(np.isfinite(nu_hats)) else float("nan"),
        "dist_final_max": float(np.max([r["dist_final"] for r in ok])),
        "dist_final_median": float(np.median([r["dist_final"] for r in ok])),
    }


# ---------------------------------------------------------------------------
# condition probe: local non-quadraticity delta(r)
# ---------------------------------------------------------------------------

def probe_delta(config: ExperimentConfig, r_grid, R=20, n_points=50, seed=571):
    """Monte Carlo estimate of the non-quadraticity map r -> delta_hat(r).

    The expected Hessian at each sampled shell point is estimated by
    averaging analytic Hessians over R fresh datasets; delta_hat(r) is the
    largest deviation of the normalized Hessian from the identity over
    n_points points sampled on the shell of radius r.  The dataset seeds
    are distinct only for R <= 1000 and n_points <= 100, so larger values
    raise ValueError, as does a radius that is negative, not finite or
    repeated.
    """
    if not 1 <= R <= 1000:
        raise ValueError(f"R must be in 1..1000, got {R!r}")
    if not 1 <= n_points <= 100:
        raise ValueError(f"n_points must be in 1..100, got {n_points!r}")
    for r in r_grid:
        if not 0 <= r < math.inf:
            raise ValueError(f"r_grid entries must be finite and >= 0, got {r!r}")
    if len(set(r_grid)) != len(r_grid):
        # the result is keyed by radius: a repeated one would be built twice
        # and only its last shell kept
        raise ValueError(f"r_grid entries must be distinct, got {tuple(r_grid)!r}")
    ctx = build_context(config)
    star_v = ctx.upsilon_star.as_vector()
    points = []  # one task per shell point: its first dataset seed, R and the point
    for ri, r in enumerate(r_grid):
        rng = np.random.default_rng(derive_seed(seed, ri))
        for j in range(n_points):
            u = rng.standard_normal(star_v.size)
            v = star_v + r * np.linalg.solve(ctx.D_full, u / np.linalg.norm(u))
            points.append((10_000_000 + ri * 100_000 + j * 1000, R, v))
    devs = _map(_shell_deviation, ctx, points, config.threads)
    return {float(r): max([0.0, *devs[ri * n_points:(ri + 1) * n_points]])
            for ri, r in enumerate(r_grid)}


def _shell_deviation(ctx, task):
    """The deviation from the identity of the normalized mean Hessian at a shell point."""
    seed0, R, v = task
    point, D0 = ParameterPoint.from_vector(v, ctx.upsilon_star.p), ctx.D_full
    Hbar = sum(_make_model(ctx, seed0 + rep).hessian(point) for rep in range(R)) / R
    M = np.linalg.solve(D0, np.linalg.solve(D0, -Hbar).T)
    return float(np.linalg.norm(0.5 * (M + M.T) - np.eye(v.size), 2))


# ---------------------------------------------------------------------------
# dimension sweep
# ---------------------------------------------------------------------------

def run_dimension_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Median Wilks error and Fisher residual over a (p*, n) grid of a `sweep` config."""
    if config.family != "sweep":
        raise ValueError(f"a dimension sweep needs family 'sweep', got {config.family!r}")
    records = []
    eta_pool = np.asarray(config.si_eta_star, dtype=float)
    for mi, m in enumerate(config.sweep_m):
        eta = np.resize(eta_pool, m)  # the pool repeated or cut to length m
        for ni, n in enumerate(config.sweep_n):
            cell_cfg = replace(
                config, family="single-index", si_n=int(n), si_m=int(m), si_eta_star=tuple(eta)
            )
            rep = run_wilks_fisher(cell_cfg)
            K = rep.meta["K"]
            records.append({
                "rep": mi * len(config.sweep_n) + ni,
                "status": "ok",
                "m": int(m),
                "n": int(n),
                "p_star": int(config.si_p + m),
                "K": K,
                "wilks_err_median": rep.aggregates[f"wilks_err_median_{K}"],
                "fisher_median": rep.aggregates[f"fisher_median_{K}"],
                "nu": rep.aggregates["nu"],
            })
    agg = {}
    for m in config.sweep_m:
        cells = sorted((r for r in records if r["m"] == m), key=lambda r: r["n"])
        for a, b in zip(cells[:-1], cells[1:]):
            agg[f"err_decreases_m{m}_n{a['n']}_to_n{b['n']}"] = bool(
                b["wilks_err_median"] < a["wilks_err_median"]
            )
    meta = {"family": "single-index", "reps": config.reps,
            "seed": config.master_seed, "threads": config.threads,
            "sweep_n": list(config.sweep_n), "sweep_m": list(config.sweep_m)}
    return ExperimentReport("dimension_sweep", records, agg, meta)
