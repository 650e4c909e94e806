"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Expensive Monte Carlo runs are shared via module-scoped
fixtures; all runs are seeded and deterministic."""

import math
import time

import numpy as np
import pytest

import test_bounds as bounds_oracle_suite
from altmax.alternation import (
    AlternationConfig,
    eta_update,
    profile_estimate,
    run,
    theta_update,
)
from altmax.harness import (
    ExperimentConfig,
    run_dimension_sweep,
    run_me_convergence,
    run_wilks_fisher,
)
from altmax.singleindex import SingleIndexModel, generate
from altmax.statcore import BlockInformation, ParameterPoint
from altmax.toy import ToyGaussianModel
from altmax.wavelet import WaveletBasis
from instruments import exact_alternation, gradient_check, validate_quad_tail

F2 = BlockInformation(D2=[[2.0]], A=[[1.0]], H2=[[2.0]])
STAR = ParameterPoint([0.0], [0.0])


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def toy_wilks():
    cfg = ExperimentConfig(family="toy", reps=2000, master_seed=101, z_target=1e-4)
    t0 = time.monotonic()
    rep = run_wilks_fisher(cfg)
    rep.meta["runtime"] = time.monotonic() - t0
    return rep


@pytest.fixture(scope="module")
def si_wilks():
    cfg = ExperimentConfig(family="single-index", reps=200, master_seed=11)
    t0 = time.monotonic()
    rep = run_wilks_fisher(cfg)
    rep.meta["runtime"] = time.monotonic() - t0
    return rep


@pytest.fixture(scope="module")
def toy_me():
    cfg = ExperimentConfig(family="toy", reps=50, master_seed=7, steps=14,
                           solver_tolerance=1e-12)
    return run_me_convergence(cfg)


@pytest.fixture(scope="module")
def si_me_noiseless():
    cfg = ExperimentConfig(family="single-index", reps=20, master_seed=33,
                           steps=12, si_sigma=0.0, solver_tolerance=1e-9)
    return run_me_convergence(cfg)


@pytest.fixture(scope="module")
def sweep():
    cfg = ExperimentConfig(family="sweep", reps=40, master_seed=5,
                           sweep_n=(250, 1000), sweep_m=(3, 6))
    return run_dimension_sweep(cfg)


def median_decay_rate(medians):
    """Geometric rate of the median sequence after subtracting its tail value."""
    d = np.asarray(medians, dtype=float) - float(medians[-1])
    keep = d > max(1e-12, 1e-3 * max(d[0], 0.0))
    if keep.sum() < 2:
        return 0.0
    k = np.arange(d.size)[keep].astype(float)
    return float(np.exp(np.polyfit(k, np.log(d[keep]), 1)[0]))


def test_criterion_01_toy_exactness():
    t0 = time.monotonic()
    model = ToyGaussianModel(F2, Y=[1.0, 0.0])
    start = ParameterPoint([0.0], [0.0])
    trace = run(model, start, AlternationConfig(max_steps=20, solver_tolerance=1e-15))
    worst = 0.0
    for rec in trace.records:
        ex = exact_alternation(model, start, rec.k)
        worst = max(worst, float(np.abs(rec.point_kk.as_vector() - ex.as_vector()).max()))
    ratios_ok = True
    errs = [abs(r.point_kk.theta[0] - 1.0) for r in trace.records]
    for k in range(1, min(len(errs), 15)):
        if errs[k - 1] > 1e-12 and abs(errs[k] / errs[k - 1] - 0.25) > 1e-10:
            ratios_ok = False
    elapsed = time.monotonic() - t0
    report(1, "toy exactness", worst < 1e-12 and ratios_ok and elapsed < 1.0,
           f"max dev {worst:.2e}, ratio exact per step, {elapsed:.2f}s")


def test_criterion_02_fixed_point():
    model = ToyGaussianModel(F2, Y=[1.0, 0.0])
    cfg = AlternationConfig(max_steps=80, solver_tolerance=1e-13)
    pt, _ = profile_estimate(model, cfg)
    eta2 = eta_update(model, pt.theta)
    th2 = theta_update(model, eta2)
    move = float(np.abs(np.concatenate([th2 - pt.theta, eta2 - pt.eta])).max())
    report(2, "fixed point", move < 1e-12, f"one-step move {move:.2e}")


def test_criterion_03_quad_form_tail():
    t0 = time.monotonic()
    all_ok = True
    worst = ""
    for dim in (1, 4, 16):
        out = validate_quad_tail(np.eye(dim), [1.0, 2.0, 3.0], 100_000, seed=2024 + dim)
        for row in out:
            if not row["ok"]:
                all_ok = False
                worst = f"I{dim} x={row['x']}: frac {row['fraction']:.4f} > bound"
    elapsed = time.monotonic() - t0
    report(3, "quadratic-form tail", all_ok and elapsed < 10.0,
           worst or f"all 9 cells within 2exp(-x)+3SE, {elapsed:.1f}s")


def test_criterion_04_bounds_vs_oracle():
    bounds_oracle_suite.test_all_operations_agree_with_reference_script()
    report(4, "bound formulas vs independent oracle", True,
           "50 random draws, all operations agree to 1e-12")


def test_criterion_05_toy_wilks(toy_wilks):
    a = toy_wilks.aggregates
    mean_ok = abs(a["wilks_mean"] - 1.0) <= 3.0 * a["wilks_se"]
    ks_ok = a["wilks_ks"] <= 0.06
    t_ok = toy_wilks.meta["runtime"] < 30.0
    report(5, "toy Wilks phenomenon", mean_ok and ks_ok and t_ok,
           f"mean {a['wilks_mean']:.4f} (se {a['wilks_se']:.4f}), "
           f"KS {a['wilks_ks']:.4f}, {toy_wilks.meta['runtime']:.1f}s")


def test_criterion_06_single_index_wilks(si_wilks):
    a = si_wilks.aggregates
    K = si_wilks.meta["K"]
    p = si_wilks.meta["p"]
    mean_ok = 0.7 * p <= a["wilks_mean"] <= 1.3 * p
    ks_ok = a["wilks_ks"] <= 0.15
    fisher_ok = a[f"fisher_median_{K}"] <= 0.5 * a["xi_norm_median"]
    t_ok = si_wilks.meta["runtime"] <= 300.0
    report(6, "single-index Wilks/Fisher", mean_ok and ks_ok and fisher_ok and t_ok,
           f"mean {a['wilks_mean']:.3f} in [{0.7*p},{1.3*p}], KS {a['wilks_ks']:.3f}, "
           f"fisher@K {a[f'fisher_median_{K}']:.3f} <= {0.5*a['xi_norm_median']:.3f}, "
           f"{si_wilks.meta['runtime']:.0f}s")


def test_criterion_07_fisher_decay(toy_wilks, si_wilks):
    ok = True
    details = []
    for label, rep in (("toy", toy_wilks), ("single-index", si_wilks)):
        a = rep.aggregates
        K = rep.meta["K"]
        med = [a[f"fisher_median_{k}"] for k in range(K + 1)]
        se = [a[f"fisher_se_{k}"] for k in range(K + 1)]
        for k in range(K):
            if med[k + 1] > med[k] + 2.0 * max(se[k], se[k + 1]):
                ok = False
                details.append(f"{label}: median rose at k={k}")
        nu_hat = a["nu_hat_median"]
        if not np.isfinite(nu_hat):
            nu_hat = a["nu"]
        rate = median_decay_rate(med)
        if rate > nu_hat + 0.1:
            ok = False
            details.append(f"{label}: decay {rate:.3f} > nu_hat+0.1 {nu_hat + 0.1:.3f}")
        else:
            details.append(f"{label}: decay {rate:.3f} <= {nu_hat + 0.1:.3f}")
    report(7, "geometric Fisher-residual decay", ok, "; ".join(details))


def test_criterion_08_me_convergence(toy_me, si_me_noiseless):
    a_toy = toy_me.aggregates
    toy_ok = (
        a_toy["nu_hat_median"] <= a_toy["nu"] + 0.1
        and a_toy["dist_final_max"] <= 1e-6
    )
    a_si = si_me_noiseless.aggregates
    floor = 1e-9  # solver stationarity tolerance of the profile run
    si_ok = (
        a_si["nu_hat_median"] <= a_si["nu"] + 0.1
        and a_si["dist_final_max"] <= 10.0 * floor
    )
    report(8, "convergence to the maximizer", toy_ok and si_ok,
           f"toy rate {a_toy['nu_hat_median']:.6f} (nu {a_toy['nu']:.2f}), "
           f"final {a_toy['dist_final_max']:.1e}; si rate {a_si['nu_hat_median']:.4f} "
           f"(nu {a_si['nu']:.2e}), final {a_si['dist_final_max']:.1e}")


def test_criterion_09_monotone_ascent(toy_wilks, si_wilks, toy_me, si_me_noiseless):
    total = sum(
        rep.aggregates["monotone_violations"]
        for rep in (toy_wilks, si_wilks, toy_me, si_me_noiseless)
    )
    report(9, "monotone ascent", total == 0,
           f"{total} violations beyond 10x solver tolerance across all runs")


def test_criterion_10_gradient_correctness():
    rng = np.random.default_rng(0)
    toy = ToyGaussianModel(F2, Y=[1.0, 0.0])
    pts = [ParameterPoint(rng.standard_normal(1), rng.standard_normal(1))
           for _ in range(100)]
    toy_err = gradient_check(toy, pts, h=1e-6)
    basis = WaveletBasis(m=6, s_X=1.0)
    theta_star = np.array([math.cos(0.3), math.sin(0.3)])
    eta = np.array([1.0, -0.8, 0.9, -0.7, 0.6, 0.8])
    ds = generate(1000, theta_star, eta, 0.5, seed=77, basis=basis)
    si = SingleIndexModel(ds, basis, constrain_theta=False)
    pts = []
    for _ in range(100):
        th = rng.standard_normal(2)
        th /= np.linalg.norm(th)
        th[0] = abs(th[0])
        pts.append(ParameterPoint(th, eta + 0.3 * rng.standard_normal(6)))
    si_err = gradient_check(si, pts, h=1e-7)
    report(10, "gradient correctness", toy_err <= 1e-6 and si_err <= 1e-6,
           f"toy rel err {toy_err:.2e}, single-index rel err {si_err:.2e}")


def test_criterion_11_dimension_sweep(sweep):
    ok = all(bool(v) for v in sweep.aggregates.values()) and sweep.aggregates
    cells = {(r["m"], r["n"]): r["wilks_err_median"] for r in sweep.records}
    report(11, "dimension sweep trend", bool(ok),
           "; ".join(f"p*={m + 2}: n=250 err {cells[(m, 250)]:.3f} -> n=1000 err "
                     f"{cells[(m, 1000)]:.3f}" for m in (3, 6)))


def test_criterion_12_determinism(tmp_path):
    outs = {}
    for fam, extra in (("toy", {"reps": 40, "steps": 6}),
                       ("single-index", {"reps": 8, "steps": 2, "si_n": 400,
                                         "si_m": 3, "si_eta_star": (1.0, -0.8, 0.9)})):
        for threads in (1, 8):
            cfg = ExperimentConfig(family=fam, master_seed=5, threads=threads, **extra)
            rep = run_wilks_fisher(cfg)
            d = tmp_path / f"{fam}-{threads}"
            rep.write(d)
            outs[(fam, threads)] = (d / "records.csv").read_bytes()
    ok = (outs[("toy", 1)] == outs[("toy", 8)]
          and outs[("single-index", 1)] == outs[("single-index", 8)])
    report(12, "determinism across thread counts", ok,
           "records byte-identical for 1 and 8 threads (toy and single-index)")
