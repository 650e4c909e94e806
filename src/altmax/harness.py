"""Monte Carlo experiment runner: Wilks/Fisher verification, contraction-rate
estimation, convergence to the maximizer, condition probes, and dimension
sweeps.

A config is a frozen dataclass of one family (`ToyConfig`, `SingleIndexConfig`,
`SweepConfig`; `ExperimentConfig(family=...)` looks it up in `FAMILIES`) whose
fields are the CLI's keys; it checks only its own fields, keeps its truth and
information (built once, on first use) and condition constants, and draws each
replication's model and start from its fields alone.  `build_context` derives
from it, in one pass, what every replication shares: nu, the bound inputs and K,
in a frozen `ExperimentContext` that compares by identity.  A run returns an
`ExperimentReport`, a named tuple whose `write` writes its files.

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
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, partial
from itertools import chain
from numbers import Integral
from typing import ClassVar, NamedTuple

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

@dataclass(frozen=True, init=False, repr=False, eq=False)
class _Config:
    """The fields and checks every experiment family shares."""

    reps: int = 200
    x: float = 2.0
    steps: int | None = None  # None -> stopping rule
    z_target: float | None = None  # z used in the stopping rule; None -> z(x)
    master_seed: int = 0
    threads: int = 1
    solver_tolerance: float = 1e-9
    cc: ConditionConstants = field(default_factory=ConditionConstants)

    def __post_init__(self):
        _require(self, "reps threads steps master_seed", lambda v: isinstance(v, Integral),
                 "must be an integer")
        _require(self, "x z_target solver_tolerance", math.isfinite, "must be finite")
        _require(self, "reps threads steps", lambda v: v >= 1, ">= 1 required")
        _require(self, "x z_target solver_tolerance", lambda v: v > 0, "> 0 required")
        _require(self, "master_seed", lambda v: v >= 0, ">= 0 required")

    @property
    def cc_eff(self) -> ConditionConstants:
        """The condition constants the bounds read: cc, unless the family fills one in."""
        return self.cc


@dataclass(frozen=True)
class ToyConfig(_Config):
    """The toy Gaussian: truth 0, start toy_start_offset in every coordinate."""

    family: ClassVar[str] = "toy"
    toy_p: int = 1
    toy_m: int = 1
    toy_d2: float = 2.0
    toy_h2: float = 2.0
    toy_a: float = 1.0
    toy_start_offset: float = 2.0

    def __post_init__(self):
        super().__post_init__()
        _require(self, "toy_p toy_m", lambda v: isinstance(v, Integral), "must be an integer")
        _require(self, "toy_d2 toy_h2 toy_a toy_start_offset", math.isfinite, "must be finite")
        _require(self, "toy_p toy_m", lambda v: v >= 1, ">= 1 required")
        _require(self, "toy_d2 toy_h2", lambda v: v > 0, "> 0 required")
        self.blocks  # builds and checks the blocks

    @cached_property
    def blocks(self) -> BlockInformation:
        """D2 = toy_d2 I, H2 = toy_h2 I and A, toy_a on its diagonal, built once;
        FieldValueError where they are not SPD, where the root of the full
        information is singular, or where the start offset's norm in it overflows."""
        if not self.toy_a**2 < self.toy_d2 * self.toy_h2:
            raise FieldValueError("toy_a toy_d2 toy_h2", "toy_a**2 < toy_d2 * toy_h2 required")
        p, m = self.toy_p, self.toy_m
        A = np.zeros((p, m))
        np.fill_diagonal(A, self.toy_a)
        info = BlockInformation(D2=self.toy_d2 * np.eye(p), A=A, H2=self.toy_h2 * np.eye(m))
        try:
            np.linalg.solve(info.full_sqrt, np.zeros(p + m))
        except np.linalg.LinAlgError:
            raise FieldValueError("toy_d2 toy_h2", "toy_d2 and toy_h2 too far apart: the root "
                                  "of the toy information is singular") from None
        with np.errstate(over="ignore"):
            start_norm = np.linalg.norm(info.full_sqrt @ np.full(p + m, self.toy_start_offset))
        if not np.isfinite(start_norm):
            key = "toy_h2" if self.toy_h2 >= self.toy_d2 else "toy_d2"
            raise FieldValueError(f"{key} toy_start_offset", "toy_d2, toy_h2 and toy_start_offset"
                                  " too large: the norm of the start offset overflows")
        return info

    @cached_property
    def truth(self):
        """The truth and its information."""
        return ParameterPoint(np.zeros(self.toy_p), np.zeros(self.toy_m)), self.blocks

    def model(self, index):
        return simulate(self.blocks, self.truth[0], seed=derive_seed(self.master_seed, index))

    def start(self, model):
        star = self.truth[0]
        return ParameterPoint.from_vector(star.as_vector() + self.toy_start_offset, star.p)


@dataclass(frozen=True, init=False, repr=False, eq=False)
class _SieveConfig(_Config):
    """The single-index fields and checks a dimension sweep shares with its cells."""

    si_p: int = 2
    si_sigma: float = 0.5
    si_s_x: float = 1.0
    si_theta_angle: float | None = None  # None -> 0.3 where si_p >= 2; unset at si_p = 1
    si_eta_star: tuple[float, ...] = (1.0, -0.8, 0.9, -0.7, 0.6, 0.8)
    si_grid_n: int = 512  # grid spacing must undercut the link's oscillation scale
    si_r_cov: int = 200
    si_constrain: bool = False

    def __post_init__(self):
        super().__post_init__()
        _require(self, "si_p si_grid_n si_r_cov", lambda v: isinstance(v, Integral),
                 "must be an integer")
        _require(self, "si_sigma si_s_x", math.isfinite, "must be finite")
        _require(self, "si_p si_grid_n si_r_cov", lambda v: v >= 1, ">= 1 required")
        _require(self, "si_s_x", lambda v: v > 0, "> 0 required")
        _require(self, "si_sigma", lambda v: v >= 0, ">= 0 required")
        _require(self, "si_eta_star", len, "must not be empty")
        _require(self, "si_eta_star", lambda v: all(map(math.isfinite, v)),
                 "entries must be finite")
        # theta_star = (1,) has no angle at si_p = 1, so a set one would be ignored
        _require(self, "si_theta_angle", lambda a: self.si_p >= 2, "must be auto at si_p = 1")
        a = self.si_theta_angle  # theta_star must lie on the half-sphere (first coordinate > 0)
        if a is not None and not (math.isfinite(a) and math.cos(a) > 0):
            raise FieldValueError("si_theta_angle", "cos(si_theta_angle) > 0 required")


@dataclass(frozen=True)
class SingleIndexConfig(_SieveConfig):
    """The single-index model: si_n points, an si_m-function sieve with one
    si_eta_star value per function, and the grid start on si_grid_n points."""

    family: ClassVar[str] = "single-index"
    si_n: int = 1000
    si_m: int = 6

    def __post_init__(self):
        super().__post_init__()
        _require(self, "si_n si_m", lambda v: isinstance(v, Integral), "must be an integer")
        _require(self, "si_n si_m", lambda v: v >= 1, ">= 1 required")
        if len(self.si_eta_star) != self.si_m:
            raise FieldValueError("si_eta_star si_m",
                                  f"si_eta_star length must equal si_m = {self.si_m}")

    @property
    def theta_star(self):
        """(1,) at si_p = 1, else (cos a, sin a, 0, ...), a = si_theta_angle (auto: 0.3)."""
        a = 0.3 if self.si_theta_angle is None else self.si_theta_angle
        th = np.zeros(self.si_p)
        th[:2] = (1.0,) if self.si_p == 1 else (math.cos(a), math.sin(a))
        return th / np.linalg.norm(th)

    @cached_property
    def cc_eff(self) -> ConditionConstants:
        """cc, with the i.i.d. omega = 1/sqrt(si_n) where it supplies none (omega = 0)."""
        cc = self.cc
        return replace(cc, omega=1.0 / math.sqrt(self.si_n)) if cc.omega == 0.0 else cc

    @cached_property
    def basis(self) -> WaveletBasis:
        return WaveletBasis(m=self.si_m, s_X=self.si_s_x)

    @cached_property
    def truth(self):
        """The truth and its information, estimated from si_r_cov datasets."""
        basis, star = self.basis, ParameterPoint(self.theta_star, self.si_eta_star)
        seed = derive_seed(self.master_seed, 999_979)
        return star, information_at_truth(basis, star, self.si_n, self.si_sigma, self.si_r_cov,
                                          seed=seed)

    def model(self, index):
        dataset = generate(self.si_n, self.theta_star, self.si_eta_star, self.si_sigma,
                           seed=derive_seed(self.master_seed, index), basis=self.basis)
        return SingleIndexModel(dataset, self.basis, constrain_theta=self.si_constrain)

    def start(self, model):
        return model.default_start(self.si_grid_n)


@dataclass(frozen=True)
class SweepConfig(_SieveConfig):
    """Single-index cells at each m of sweep_m and n of sweep_n; `run_dimension_sweep`."""

    family: ClassVar[str] = "sweep"
    sweep_n: tuple[int, ...] = (250, 1000)
    sweep_m: tuple[int, ...] = (3, 6)

    def __post_init__(self):
        super().__post_init__()
        # an empty list runs nothing; a repeated entry reruns its cell
        _require(self, "sweep_n sweep_m", len, "must not be empty")
        _require(self, "sweep_n sweep_m", lambda v: all(isinstance(x, Integral) for x in v),
                 "entries must be integers")
        _require(self, "sweep_n sweep_m", lambda v: min(v) >= 1, "entries >= 1 required")
        _require(self, "sweep_n sweep_m", lambda v: len(set(v)) == len(v),
                 "entries must be distinct")

    @property
    def truth(self):
        raise ValueError("a sweep has no one context: run_dimension_sweep builds one per cell")


FAMILIES = {cls.family: cls for cls in (ToyConfig, SingleIndexConfig, SweepConfig)}


def ExperimentConfig(family=ToyConfig.family, **values):
    """`FAMILIES[family](**values)`: ValueError for an unknown family, TypeError
    for a field of another family."""
    cls = FAMILIES.get(family)
    if cls is None:
        raise ValueError(f"unknown family {family!r}")
    return cls(**values)


@dataclass(frozen=True, eq=False)
class ExperimentContext:
    """What `build_context` derives from a config: the coupling nu of its
    information, the bound inputs z_x and R0 (None unless 0 < nu < 1) and the
    engine config.  The truth, its information and `cc_eff` stay on the config."""

    cfg: ToyConfig | SingleIndexConfig
    nu: float
    z_x: float | None
    R0: float | None
    # K steps at the solver tolerance; its norm weight, the SPD root of the
    # full information, gives every information-norm distance
    acfg: AlternationConfig

    @property
    def K(self):
        return self.acfg.max_steps


def build_context(cfg: ToyConfig | SingleIndexConfig) -> ExperimentContext:
    """The context of `cfg`.  Where 0 < nu < 1, a pilot replication's start
    gives the initial-guess radius that sizes R0, and R0 sizes K unless
    cfg.steps is set; else K is cfg.steps or the engine's default."""
    star, info = cfg.truth
    nu, cc = coupling_norm(info), cfg.cc_eff
    z_x = combined_quantile(cfg.x, star.p_star, cc=cc) if 0.0 < nu < 1.0 else None
    acfg = AlternationConfig(solver_tolerance=cfg.solver_tolerance, norm_matrix=info.full_sqrt)
    R0, K = None, cfg.steps
    if z_x is not None:
        _, start = _make_replication(cfg, 999_931)
        R_K = max(z_x, acfg.weighted_norm(start.as_vector() - star.as_vector()))
        K0 = initial_level_K0(R_K, cfg.x, cc, z_x)
        R0 = concentration_radius_R0(cfg.x, K0, star.p_star, cc, nu, z_x)
        if K is None:
            z = cfg.z_target if cfg.z_target is not None else z_x
            # the rule counts linear-contraction steps; keep a floor of 3 so
            # the nonlinear first phase after a grid start is crossed as well
            K = max(3, min(stopping_steps(z, R0, nu), 200))
    return ExperimentContext(cfg, nu, z_x, R0, acfg if K is None else replace(acfg, max_steps=K))


def _make_replication(cfg, rep_index):
    """The model of one replication and its start, as `cfg` draws them."""
    model = cfg.model(rep_index)
    return model, cfg.start(model)


# ---------------------------------------------------------------------------
# experiment report
# ---------------------------------------------------------------------------

class ExperimentReport(NamedTuple):
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
        "nu_hat_median": _median(nu_hats[~np.isnan(nu_hats)]) if any_rate else float("nan"),
        "monotone_violations": int(sum(1 for r in ok if r["monotone_defect"] > 0.0)),
        **aggregate(ok, ctx),
    }
    meta = {"family": cfg.family, "K": ctx.K, "reps": cfg.reps,
            "seed": cfg.master_seed, "threads": cfg.threads, **meta}
    return ExperimentReport(kind, records, aggregates, meta)


# ---------------------------------------------------------------------------
# Wilks / Fisher experiment
# ---------------------------------------------------------------------------

def run_wilks_fisher(config: ToyConfig | SingleIndexConfig) -> ExperimentReport:
    ctx = build_context(config)
    return _run_replications(
        ctx, _wilks_replication, "wilks_fisher", aggregate_wilks_fisher,
        nu=ctx.nu, p=config.truth[0].p, m=config.truth[0].m, x=config.x,
    )


def _wilks_replication(ctx, i):
    """The efficient score, and the Wilks and Fisher residuals of every step."""
    K, (star, info) = ctx.K, ctx.cfg.truth
    model, start = _make_replication(ctx.cfg, i)
    score = efficient_score(info, *model.gradient(star))
    L_star = model.evaluate(ParameterPoint(star.theta, eta_update(model, star.theta)))
    trace = run(model, start, ctx.acfg)
    rec = {"rep": i, "status": "ok", "xi_norm2": float(score.xi @ score.xi),
           "monotone_defect": trace.monotone_defect(),
           "stop_reason": trace.stop_reason}
    steps = [r.step_norm for r in trace.records[1:]]
    rec["nu_hat"] = fit_contraction([float("nan")] + steps, floor=max(steps[-1], 1e-300))
    for k in range(K + 1):
        r_k = trace.records[min(k, len(trace.records) - 1)]
        rec[f"fisher_{k}"] = fisher_residual(info, score, r_k.point_kk.theta, star.theta)
        rec[f"wilks_{k}"] = 2.0 * (r_k.L_kk1 - L_star)
    rec["dist_final"] = ctx.acfg.weighted_norm(trace.final().as_vector() - star.as_vector())
    return rec


def _ddof1(spread, x):
    """spread(x, ddof=1) for np.std or np.var; NaN, without numpy's warning, for one value."""
    return float(spread(x, ddof=1)) if len(x) > 1 else math.nan


def _median(x):
    """np.median(x) of a non-empty sample, without the `numpy.ma` import that
    np.median makes: NaN if x holds one, else the middle value of the
    sorted sample, or (a + b) / 2.0 of its two middle values."""
    x = np.sort(np.asarray(x, dtype=float), axis=None)  # NaN sorts last
    if np.isnan(x[-1]):
        return math.nan
    h = x.size // 2
    # np.median takes the mean of the middle values, a sum that starts at
    # 0.0, so a middle -0.0 gives 0.0 there and here alike
    return float(0.0 + x[h] if x.size % 2 else (0.0 + x[h - 1] + x[h]) / 2.0)


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
    p = ctx.cfg.truth[0].p
    w_K = np.array([r[f"wilks_{K}"] for r in ok])
    xi2 = np.array([r["xi_norm2"] for r in ok])
    agg = {
        "wilks_mean": float(np.mean(w_K)),
        "wilks_se": _ddof1(np.std, w_K) / math.sqrt(len(ok)),
        "wilks_var": _ddof1(np.var, w_K),
        "wilks_ks": ks_distance(w_K, p),
        "xi_norm2_mean": float(np.mean(xi2)),
        "xi_norm_median": _median(np.sqrt(xi2)),
    }
    bounds_on = ctx.R0 is not None
    if bounds_on:
        cc = ctx.cfg.cc_eff
        p_star = ctx.cfg.truth[0].p_star
        sp_R0 = _spread_or_inf(spread_parametric, ctx.R0, ctx.cfg.x, p_star, cc)
        tau_budget = C_nu(ctx.nu) * ctx.cfg.solver_tolerance
    for k in range(K + 1):
        fk = np.array([r[f"fisher_{k}"] for r in ok])
        wk = np.array([r[f"wilks_{k}"] for r in ok])
        agg[f"fisher_median_{k}"] = _median(fk)
        # ~SE of a median under normality
        agg[f"fisher_se_{k}"] = 1.2533 * _ddof1(np.std, fk) / math.sqrt(len(ok))
        agg[f"wilks_err_median_{k}"] = _median(np.abs(wk - xi2))
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

def run_me_convergence(config: ToyConfig | SingleIndexConfig) -> ExperimentReport:
    ctx = build_context(config)
    return _run_replications(
        ctx, _me_replication, "me_convergence", _aggregate_me,
        solver_tolerance=config.solver_tolerance,
    )


def _me_replication(ctx, i):
    """The distance of every step to the replication's maximizer."""
    profile_cfg = replace(ctx.acfg, max_steps=4 * ctx.K)  # profile_estimate runs >= 200
    model, start = _make_replication(ctx.cfg, i)
    me, profile = profile_estimate(model, profile_cfg, start)
    me_v = me.as_vector()
    # the alternation is deterministic: the K-step run from `start` would
    # repeat the profile run's first K + 1 records
    records = profile.records[: ctx.K + 1]
    dists = [ctx.acfg.weighted_norm(r.point_kk.as_vector() - me_v) for r in records]
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
        "dist_final_median": _median([r["dist_final"] for r in ok]),
    }


# ---------------------------------------------------------------------------
# condition probe: local non-quadraticity delta(r)
# ---------------------------------------------------------------------------

def probe_delta(config: ToyConfig | SingleIndexConfig, r_grid, R=20, n_points=50, seed=571):
    """Monte Carlo estimate of the non-quadraticity map r -> delta_hat(r).

    The expected Hessian at each sampled shell point is estimated by
    averaging analytic Hessians over R fresh datasets; delta_hat(r) is the
    largest deviation of the normalized Hessian from the identity over
    n_points points sampled on the shell of radius r.  The dataset seeds
    are distinct only for R <= 1000 and n_points <= 100, so larger values
    raise ValueError, as do a count or a seed that is not an integer, a
    negative seed, and a radius that is negative, not finite or repeated.
    Each is checked before the context is built.
    """
    if not (isinstance(R, Integral) and 1 <= R <= 1000):
        raise ValueError(f"R must be an integer in 1..1000, got {R!r}")
    if not (isinstance(n_points, Integral) and 1 <= n_points <= 100):
        raise ValueError(f"n_points must be an integer in 1..100, got {n_points!r}")
    if not (isinstance(seed, Integral) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    for r in r_grid:
        if not 0 <= r < math.inf:
            raise ValueError(f"r_grid entries must be finite and >= 0, got {r!r}")
    if len(set(r_grid)) != len(r_grid):
        # the result is keyed by radius: a repeated one would be built twice
        # and only its last shell kept
        raise ValueError(f"r_grid entries must be distinct, got {tuple(r_grid)!r}")
    ctx = build_context(config)
    star_v = config.truth[0].as_vector()
    points = []  # one task per shell point: its first dataset seed, R and the point
    for ri, r in enumerate(r_grid):
        rng = np.random.default_rng(derive_seed(seed, ri))
        for j in range(n_points):
            u = rng.standard_normal(star_v.size)
            v = star_v + r * np.linalg.solve(ctx.acfg.norm_matrix, u / np.linalg.norm(u))
            points.append((10_000_000 + ri * 100_000 + j * 1000, R, v))
    devs = _map(_shell_deviation, ctx, points, config.threads)
    return {float(r): max([0.0, *devs[ri * n_points:(ri + 1) * n_points]])
            for ri, r in enumerate(r_grid)}


def _shell_deviation(ctx, task):
    """The deviation from the identity of the normalized mean Hessian at a shell point."""
    seed0, R, v = task
    point, D0 = ParameterPoint.from_vector(v, ctx.cfg.truth[0].p), ctx.acfg.norm_matrix
    Hbar = sum(ctx.cfg.model(seed0 + rep).hessian(point) for rep in range(R)) / R
    M = np.linalg.solve(D0, np.linalg.solve(D0, -Hbar).T)
    return float(np.linalg.norm(0.5 * (M + M.T) - np.eye(v.size), 2))


# ---------------------------------------------------------------------------
# dimension sweep
# ---------------------------------------------------------------------------

def run_dimension_sweep(config: SweepConfig) -> ExperimentReport:
    """Median Wilks error and Fisher residual over a (p*, n) grid of a sweep config.
    Each cell's eta_star is the pool padded with zeros or cut to its m: one link f."""
    if not isinstance(config, SweepConfig):
        raise ValueError(f"a dimension sweep needs family {SweepConfig.family!r}, "
                         f"got {config.family!r}")
    shared = {f.name: getattr(config, f.name) for f in fields(_SieveConfig)}
    records = []
    for mi, m in enumerate(config.sweep_m):
        eta = (tuple(config.si_eta_star) + (0.0,) * m)[:m]
        for ni, n in enumerate(config.sweep_n):
            cell = SingleIndexConfig(**dict(shared, si_n=int(n), si_m=int(m), si_eta_star=eta))
            rep = run_wilks_fisher(cell)
            K = rep.meta["K"]
            records.append({
                "rep": mi * len(config.sweep_n) + ni, "status": "ok", "m": int(m), "n": int(n),
                "p_star": int(config.si_p + m), "K": K,
                "wilks_err_median": rep.aggregates[f"wilks_err_median_{K}"],
                "fisher_median": rep.aggregates[f"fisher_median_{K}"], "nu": rep.aggregates["nu"],
            })
    agg = {}
    for m in config.sweep_m:
        cells = sorted((r for r in records if r["m"] == m), key=lambda r: r["n"])
        for a, b in zip(cells[:-1], cells[1:]):
            agg[f"err_decreases_m{m}_n{a['n']}_to_n{b['n']}"] = bool(
                b["wilks_err_median"] < a["wilks_err_median"]
            )
    meta = {"family": SingleIndexConfig.family, "reps": config.reps,
            "seed": config.master_seed, "threads": config.threads,
            "sweep_n": list(config.sweep_n), "sweep_m": list(config.sweep_m)}
    return ExperimentReport("dimension_sweep", records, agg, meta)
