import functools
import math
import os
import pickle
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from altmax.harness import (
    ExperimentConfig,
    HarnessError,
    _wilks_replication,
    build_context,
    chi2_cdf,
    derive_seed,
    fit_contraction,
    ks_distance,
    probe_delta,
    run_dimension_sweep,
    run_me_convergence,
    run_wilks_fisher,
)
from altmax.modelapi import ModelDomainError


def test_chi2_cdf_closed_forms():
    # p = 2: 1 - exp(-x/2); p = 4: 1 - exp(-x/2)(1 + x/2)
    for x in (0.1, 1.0, 3.7, 10.0):
        assert abs(chi2_cdf(x, 2) - (1.0 - math.exp(-x / 2))) < 1e-12
        assert abs(chi2_cdf(x, 4) - (1.0 - math.exp(-x / 2) * (1 + x / 2))) < 1e-12


def test_ks_distance_sampling_oracle():
    rng = np.random.default_rng(0)
    s = rng.chisquare(2, size=2000)
    assert ks_distance(s, 2) <= 0.06
    assert ks_distance(np.full(100, 2.0), 2) > 0.5
    mean = np.mean(s)
    se = math.sqrt(2.0 * 2.0 * 2.0 / 2000)  # var chi2_p = 2p
    assert abs(mean - 2.0) < 3.0 * se


UFUNCS = "scipy.special._special_ufuncs"


def _ufunc_module_found():
    """Whether scipy ships `gammainc`'s extension module where `extension` looks."""
    import importlib.machinery
    import importlib.util

    where = importlib.util.find_spec("scipy").submodule_search_locations
    return where is not None and importlib.machinery.PathFinder.find_spec(
        UFUNCS, [os.path.join(where[0], "special")]) is not None


@pytest.fixture
def no_ufunc_module(monkeypatch):
    """scipy's directory is not found, so `extension` imports the module."""
    import importlib.util

    from altmax._lapack import extension
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: None)
    monkeypatch.delitem(sys.modules, UFUNCS, raising=False)
    extension.cache_clear()
    yield
    extension.cache_clear()


def _chi2_cases():
    """(x, k): chi-square draws for k = 1..60, and the edges of the domain."""
    rng = np.random.default_rng(3)
    edges = np.array([0.0, -1.0, 1e-300, 1e300, np.inf, np.nan])
    for k in range(1, 61):
        yield np.concatenate([rng.chisquare(k, size=200), edges]), k


@pytest.mark.parametrize("path", ["extension", "fallback"])
def test_chi2_cdf_is_scipy_gammainc_bit_for_bit(path, request):
    import scipy.special
    if path == "fallback":
        request.getfixturevalue("no_ufunc_module")
    for x, k in _chi2_cases():
        want = scipy.special.gammainc(k / 2.0, np.clip(x, 0.0, None) / 2.0)
        assert chi2_cdf(x, k).tobytes() == want.tobytes(), k


def test_chi2_cdf_ufunc_is_scipy_specials_own(monkeypatch):
    import scipy.special

    from altmax._lapack import extension
    if not _ufunc_module_found():
        pytest.skip("this scipy has no scipy/special/_special_ufuncs extension")
    monkeypatch.delitem(sys.modules, UFUNCS)  # loaded by path, not looked up
    extension.cache_clear()
    try:
        assert extension(UFUNCS).gammainc is scipy.special.gammainc
    finally:
        extension.cache_clear()


def test_chi2_cdf_falls_back_where_the_extension_is_missing(monkeypatch):
    # a scipy that predates the extension module: chi2_cdf imports scipy.special
    import scipy.special

    import altmax.harness as hz

    def missing(name):
        raise ModuleNotFoundError(name)
    monkeypatch.setattr(hz, "extension", missing)
    x = np.array([0.5, 2.0, 7.0])
    assert chi2_cdf(x, 3).tobytes() == scipy.special.gammainc(1.5, x / 2).tobytes()


def test_chi2_cdf_ufunc_loaded_first_is_the_one_scipy_imports_later():
    # loading the extension alone, before scipy, must leave scipy.special,
    # its submodule import and scipy.linalg working, with no warning
    code = "\n".join([
        "import sys",
        "from altmax import _lapack, harness",
        "harness.chi2_cdf(1.0, 2)",
        "ufunc = _lapack.extension('scipy.special._special_ufuncs').gammainc",
        "print('scipy' in sys.modules, 'scipy.special' in sys.modules)",
        "import scipy.special",
        "from scipy.special import _special_ufuncs",
        "import scipy.linalg",
        "print(scipy.special.gammainc is ufunc, _special_ufuncs.gammainc is ufunc)",
        "print(float(scipy.linalg.solve([[2.0]], [1.0])[0]))",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    if _ufunc_module_found():
        assert out.split() == ["False", "False", "True", "True", "0.5"]
    else:
        assert out.split()[2:] == ["True", "True", "0.5"]


def test_fit_contraction():
    d = 3.0 * 0.25 ** np.arange(20)
    assert abs(fit_contraction(d, floor=1e-30) - 0.25) < 1e-10
    assert math.isnan(fit_contraction(np.ones(10)))
    rng = np.random.default_rng(1)
    noisy = d[:14] * np.exp(0.01 * rng.standard_normal(14))
    assert abs(fit_contraction(noisy, floor=1e-30) - 0.25) < 0.01


def test_seed_derivation_order_independent():
    a = np.random.default_rng(derive_seed(42, 7)).standard_normal(3)
    b = np.random.default_rng(derive_seed(42, 3)).standard_normal(3)
    a2 = np.random.default_rng(derive_seed(42, 7)).standard_normal(3)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_wilks_fisher_toy_aggregate_consistency():
    cfg = ExperimentConfig(family="toy", reps=100, master_seed=17, steps=8)
    rep = run_wilks_fisher(cfg)
    ok = [r for r in rep.records if r["status"] == "ok"]
    assert len(ok) == 100
    K = rep.meta["K"]
    w = np.array([r[f"wilks_{K}"] for r in ok])
    assert abs(rep.aggregates["wilks_mean"] - float(np.mean(w))) < 1e-12
    assert abs(rep.aggregates["wilks_ks"] - ks_distance(w, 1)) < 1e-12
    assert rep.aggregates["monotone_violations"] == 0


def test_one_replication_gives_nan_spreads_without_warnings():
    cfg = ExperimentConfig(family="toy", reps=1, master_seed=17, steps=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        agg = run_wilks_fisher(cfg).aggregates
    spreads = ["wilks_se", "wilks_var"] + [f"fisher_se_{k}" for k in range(5)]
    assert all(math.isnan(agg[key]) for key in spreads)
    assert math.isfinite(agg["wilks_mean"])


@pytest.mark.parametrize("h2", [1e307, 4e307])
def test_a_fisher_bound_that_overflows_is_inf(h2, tmp_path):
    # at 1e307 r_0**2 overflows in the spread at r_0; at 4e307 R0**2 already
    # overflows in the spread at R0, so every r_k is infinite
    cfg = ExperimentConfig(family="toy", reps=5, master_seed=101, z_target=1e-4, toy_h2=h2)
    rep = run_wilks_fisher(cfg)
    agg = rep.aggregates
    overflowed = [k for k in range(rep.meta["K"] + 1) if agg[f"fisher_bound_{k}"] == math.inf]
    assert overflowed == ([0] if h2 == 1e307 else list(range(rep.meta["K"] + 1)))
    assert all(agg[f"fisher_coverage_{k}"] == 1.0 for k in overflowed)
    rep.write(tmp_path)
    assert "fisher_bound_0 = inf\n" in (tmp_path / "summary.kv").read_text()


def test_wilks_fisher_thread_determinism(tmp_path):
    base = dict(family="toy", reps=40, master_seed=5, steps=6)
    rep1 = run_wilks_fisher(ExperimentConfig(**base, threads=1))
    rep8 = run_wilks_fisher(ExperimentConfig(**base, threads=8))
    p1 = tmp_path / "t1"
    p8 = tmp_path / "t8"
    rep1.write(p1)
    rep8.write(p8)
    assert (p1 / "records.csv").read_bytes() == (p8 / "records.csv").read_bytes()
    s1 = (p1 / "summary.kv").read_text()
    s8 = (p8 / "summary.kv").read_text()
    # identical except the recorded thread count
    f1 = [l for l in s1.splitlines() if not l.startswith("meta_threads")]
    f8 = [l for l in s8.splitlines() if not l.startswith("meta_threads")]
    assert f1 == f8


def _wilks_replication_with_pid(ctx, i):
    return {**_wilks_replication(ctx, i), "pid": os.getpid()}


def test_replications_run_in_worker_processes(monkeypatch):
    import altmax.harness as hz

    monkeypatch.setattr(hz, "_wilks_replication", _wilks_replication_with_pid)
    base = dict(family="toy", reps=16, master_seed=5, steps=4)
    one = run_wilks_fisher(ExperimentConfig(**base, threads=1)).records
    two = run_wilks_fisher(ExperimentConfig(**base, threads=2)).records
    assert {r["pid"] for r in one} == {os.getpid()}
    assert os.getpid() not in {r["pid"] for r in two}
    strip = [{k: v for k, v in r.items() if k != "pid"} for r in one + two]
    assert repr(strip[:16]) == repr(strip[16:])


def _fail_on(bad, ctx, i):
    if i in bad:
        raise ModelDomainError(f"rigged domain error {i}")
    return _wilks_replication(ctx, i)


def test_failures_cross_the_process_boundary(monkeypatch):
    import altmax.harness as hz

    base = dict(family="toy", reps=20, master_seed=1, steps=4)
    monkeypatch.setattr(hz, "_wilks_replication", functools.partial(_fail_on, {3}))
    failed = [
        [r for r in run_wilks_fisher(ExperimentConfig(**base, threads=w)).records
         if r["status"] != "ok"]
        for w in (1, 2)
    ]
    assert failed[0] == failed[1] == [
        {"rep": 3, "status": "failed", "error": "ModelDomainError: rigged domain error 3"}
    ]
    monkeypatch.setattr(hz, "_wilks_replication", functools.partial(_fail_on, {3, 7, 11}))
    messages = []
    for w in (1, 2):
        with pytest.raises(HarnessError) as info:
            run_wilks_fisher(ExperimentConfig(**base, threads=w))
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("3 of 20 replications failed (>5% budget): rep 3: ")


def test_wilks_fisher_toy_residual_hits_target():
    # K from the stopping rule with the accuracy level z = sqrt(1e-8)
    cfg = ExperimentConfig(family="toy", reps=50, master_seed=23, z_target=1e-4)
    rep = run_wilks_fisher(cfg)
    K = rep.meta["K"]
    worst = max(r[f"fisher_{K}"] for r in rep.records if r["status"] == "ok")
    assert worst <= 1e-8


def test_me_convergence_toy_rate():
    cfg = ExperimentConfig(family="toy", reps=10, master_seed=3, steps=12,
                           solver_tolerance=1e-12)
    rep = run_me_convergence(cfg)
    assert abs(rep.aggregates["nu_hat_median"] - 0.25) < 1e-6
    assert rep.aggregates["dist_final_max"] < 1e-6
    assert rep.aggregates["monotone_violations"] == 0


def test_probe_delta_toy_is_zero():
    cfg = ExperimentConfig(family="toy", reps=1, master_seed=0)
    out = probe_delta(cfg, r_grid=[0.5, 1.0, 2.0], R=3, n_points=5)
    assert all(v < 1e-10 for v in out.values())


def test_probe_delta_single_index_monotone_and_scaling():
    small = ExperimentConfig(family="single-index", reps=1, master_seed=0,
                             si_n=500, si_m=3, si_eta_star=(1.0, -0.8, 0.9),
                             si_sigma=0.5)
    big = ExperimentConfig(family="single-index", reps=1, master_seed=0,
                           si_n=2000, si_m=3, si_eta_star=(1.0, -0.8, 0.9),
                           si_sigma=0.5)
    grid = [0.4, 1.2]
    d_small = probe_delta(small, r_grid=grid, R=8, n_points=12, seed=5)
    d_big = probe_delta(big, r_grid=grid, R=8, n_points=12, seed=5)
    # non-decreasing in r (allow small Monte Carlo slack)
    assert d_small[1.2] >= d_small[0.4] * 0.8
    # sqrt(n) scaling: delta_hat * sqrt(n) stable across n within a factor 2
    for r in grid:
        ratio = (d_small[r] * math.sqrt(500)) / (d_big[r] * math.sqrt(2000))
        assert 0.5 <= ratio <= 2.0


def test_probe_delta_at_two_workers():
    cfg = dict(family="single-index", reps=1, master_seed=0, si_n=300, si_m=3,
               si_eta_star=(1.0, -0.8, 0.9))
    outs = [probe_delta(ExperimentConfig(**cfg, threads=w), r_grid=(0.4, 1.2), R=2, n_points=3)
            for w in (1, 2)]
    assert repr(outs[0]) == repr(outs[1])


def test_probe_delta_propagates_the_model_domain_error_from_a_worker():
    cfg = ExperimentConfig(family="single-index", reps=1, master_seed=0, threads=2,
                           si_n=500, si_m=3, si_eta_star=(1.0, -0.8, 0.9))
    with pytest.raises(ModelDomainError, match="outside"):
        probe_delta(cfg, r_grid=(1e4,), R=2, n_points=4)


def test_probe_delta_propagates_the_model_domain_error():
    # at r = 1e4 the shell points leave the model's domain; the Hessian's
    # error reaches the caller instead of becoming a NaN average
    cfg = ExperimentConfig(family="single-index", reps=1, master_seed=0,
                           si_n=500, si_m=3, si_eta_star=(1.0, -0.8, 0.9))
    with pytest.raises(ModelDomainError, match="outside"):
        probe_delta(cfg, r_grid=(1e4,), R=2, n_points=1)


@pytest.mark.parametrize("bad", [{"R": 1001}, {"n_points": 101}, {"R": 0}])
def test_probe_delta_rejects_counts_that_would_reuse_dataset_seeds(bad):
    # seed 10_000_000 + ri*100_000 + j*1000 + rep repeats past these counts
    cfg = ExperimentConfig(family="toy", reps=1, master_seed=0)
    with pytest.raises(ValueError, match=next(iter(bad))):
        probe_delta(cfg, r_grid=[0.5], **bad)


@pytest.mark.parametrize("r", [math.nan, math.inf, -0.4])
def test_probe_delta_rejects_a_radius_that_is_negative_or_not_finite(r):
    # the result is keyed by radius: a NaN or infinite key, or a negative one
    # (its shell has radius |r|), would read as delta_hat at that radius
    cfg = ExperimentConfig(family="toy", reps=1, master_seed=0)
    with pytest.raises(ValueError, match=f"r_grid entries must be finite and >= 0, got {r!r}"):
        probe_delta(cfg, r_grid=(0.5, r), R=2, n_points=3)


def test_import_and_probe_delta_leave_scipy_special_unloaded():
    # chi2_cdf loads only gammainc's extension module, on first use, which the
    # probe never makes; a toy Wilks run then loads no scipy package at all
    code = "\n".join([
        "import sys",
        "import altmax",
        "from altmax.harness import ExperimentConfig, ks_distance, probe_delta, run_wilks_fisher",
        "print('scipy.special' in sys.modules)",
        "cfg = ExperimentConfig(family='single-index', reps=1, si_n=300, si_m=3,",
        "                       si_eta_star=(1.0, -0.8, 0.9))",
        "probe_delta(cfg, r_grid=[0.4], R=1, n_points=1)",
        "print('scipy.special' in sys.modules)",
        "ks_distance([0.5, 2.0], 1)",
        "print('scipy.special' in sys.modules)",
        "run_wilks_fisher(ExperimentConfig(reps=5))",
        "print(*(name in sys.modules for name in ('scipy', 'scipy.special', 'scipy.linalg')))",
    ])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    if _ufunc_module_found():
        assert out.split() == ["False", "False", "False", "False", "False", "False"]
    else:  # chi2_cdf imports scipy.special
        assert out.split()[:3] == ["False", "False", "True"]


def test_dimension_sweep_cells_deterministic():
    cfg = ExperimentConfig(family="sweep", reps=6, master_seed=2,
                           sweep_n=(250, 500), sweep_m=(3,),
                           si_eta_star=(1.0, -0.8, 0.9))
    rep1 = run_dimension_sweep(cfg)
    rep2 = run_dimension_sweep(cfg)
    assert rep1.records == rep2.records


def test_dimension_sweep_rejects_a_config_of_another_family():
    # a toy config (the default family) would run single-index cells from its defaults
    cfg = ExperimentConfig(family="toy", reps=2, sweep_n=(250,), sweep_m=(3,))
    with pytest.raises(ValueError, match="a dimension sweep needs family 'sweep', got 'toy'"):
        run_dimension_sweep(cfg)


def test_build_context_toy():
    cfg = ExperimentConfig(family="toy", reps=1, steps=4)
    ctx = build_context(cfg)
    assert abs(ctx.nu - 0.25) < 1e-12
    assert ctx.K == 4


def test_build_context_rejects_a_toy_whose_root_is_singular():
    # toy.simulate solves with this root: unchecked, every replication fails
    # with LinAlgError and the run aborts naming no key
    # (the config's construction raises, so no such config reaches build_context)
    from altmax.bounds import FieldValueError
    with pytest.raises(FieldValueError, match="root of the toy information is singular") as info:
        build_context(ExperimentConfig(family="toy", reps=5, toy_p=2, toy_d2=1e-300,
                                       toy_h2=1e300, toy_a=0.0))
    assert info.value.field == "toy_d2"


def test_build_context_rejects_a_sweep():
    # a sweep config holds an eta_star pool and lists of n and m, not one experiment
    with pytest.raises(ValueError, match="run_dimension_sweep builds one per cell"):
        build_context(ExperimentConfig(family="sweep"))


def test_build_context_reuses_the_blocks_the_config_built(monkeypatch):
    # the toy blocks are built and checked once, when the config is built
    import altmax.harness as hz

    calls, real = [], hz.toy_blocks
    monkeypatch.setattr(hz, "toy_blocks", lambda cfg: calls.append(cfg) or real(cfg))
    cfg = ExperimentConfig(family="toy", reps=1, steps=4)
    assert build_context(cfg).info is cfg.toy_info and len(calls) == 1
    # a pickled config carries its blocks; `replace` builds a new config and new blocks
    assert pickle.loads(pickle.dumps(cfg)).__dict__["toy_info"].H2[0, 0] == 2.0
    assert replace(cfg, toy_h2=3.0).toy_info.H2[0, 0] == 3.0 and len(calls) == 2


def test_build_context_single_index_draws_only_the_pilot_dataset(monkeypatch):
    # the information blocks come from the truth alone; the one dataset
    # set-up draws is the pilot replication that sizes R0
    import altmax.harness as hz

    seeds, real = [], hz.generate

    def counting(*args, **kwargs):
        seeds.append(kwargs["seed"].spawn_key)
        return real(*args, **kwargs)

    monkeypatch.setattr(hz, "generate", counting)
    cfg = ExperimentConfig(family="single-index", reps=1, master_seed=0,
                           si_n=300, si_r_cov=5, si_grid_n=64)
    ctx = build_context(cfg)
    assert 0.0 < ctx.nu < 1.0 and ctx.R0 is not None
    assert seeds == [(999_931,)]


def test_failure_budget(monkeypatch):
    import altmax.harness as hz
    from altmax.harness import HarnessError

    real = hz._make_replication

    def flaky(ctx, i):
        if isinstance(i, int) and 0 <= i < 10:
            from altmax.alternation import SolverError

            raise SolverError(f"rigged failure {i}")
        return real(ctx, i)

    monkeypatch.setattr(hz, "_make_replication", flaky)
    cfg = ExperimentConfig(family="toy", reps=40, master_seed=1, steps=4)
    with pytest.raises(HarnessError, match="budget"):
        run_wilks_fisher(cfg)
    # within budget: failures recorded, excluded from aggregates

    def flaky_one(ctx, i):
        if i == 0:
            from altmax.alternation import SolverError

            raise SolverError("rigged failure")
        return real(ctx, i)

    monkeypatch.setattr(hz, "_make_replication", flaky_one)
    rep = run_wilks_fisher(cfg)
    assert rep.aggregates["n_failed"] == 1
    assert rep.aggregates["n_ok"] == 39


def test_any_replication_error_is_counted(monkeypatch):
    import altmax.harness as hz
    from altmax.harness import HarnessError
    from altmax.modelapi import ModelDomainError

    real = hz._make_replication
    bad = set()

    def raising(ctx, i):
        if i in bad:
            raise ModelDomainError(f"rigged domain error {i}")
        return real(ctx, i)

    monkeypatch.setattr(hz, "_make_replication", raising)
    bad.add(3)
    cfg = ExperimentConfig(family="toy", reps=20, master_seed=1, steps=4)
    for runner in (run_wilks_fisher, run_me_convergence):
        rep = runner(cfg)
        failed = [r for r in rep.records if r["status"] != "ok"]
        assert failed == [{"rep": 3, "status": "failed",
                           "error": "ModelDomainError: rigged domain error 3"}]
        assert rep.aggregates["n_failed"] == 1
        assert rep.aggregates["n_ok"] == 19
    # over budget: the message lists every failure, not only the first
    bad.update({7, 11})
    with pytest.raises(HarnessError) as info:
        run_wilks_fisher(cfg)
    assert str(info.value) == (
        "3 of 20 replications failed (>5% budget): "
        "rep 3: ModelDomainError: rigged domain error 3; "
        "rep 7: ModelDomainError: rigged domain error 7; "
        "rep 11: ModelDomainError: rigged domain error 11"
    )


def test_efficient_information_calls_do_not_grow_with_reps(monkeypatch):
    import altmax.statcore as sc

    real = sc.efficient_information
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sc, "efficient_information", counted)
    counts = []
    for reps in (20, 60):
        calls.clear()
        run_wilks_fisher(ExperimentConfig(family="toy", reps=reps, master_seed=3, steps=5))
        counts.append(len(calls))
    assert counts[0] == counts[1] >= 1


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(reps=0)
    with pytest.raises(ValueError):
        ExperimentConfig(family="nope")
    for threads in (0, -2):  # constructs the config only; starts no process
        with pytest.raises(ValueError, match="threads"):
            ExperimentConfig(threads=threads)
    # theta_angle must put theta* on the half-sphere only when p >= 2
    assert ExperimentConfig(si_p=1, si_theta_angle=2.0).si_theta_angle == 2.0


@pytest.mark.parametrize("key, value", [
    ("steps", 0), ("solver_tolerance", 0.0), ("solver_tolerance", -1e-9),
    ("si_r_cov", 0), ("si_n", 0), ("si_p", 0),
])
def test_config_rejects_malformed_values(key, value):
    # constructs the config only; the error names the key
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(**{key: value})


def test_replication_workers_pickle():
    # a process pool pickles each task: the worker, its context and the index
    from altmax.harness import _attempt, _me_replication, _wilks_replication

    contexts = [
        build_context(ExperimentConfig(family="toy", reps=1, steps=5)),
        build_context(ExperimentConfig(
            family="single-index", reps=1, si_n=250, si_m=3,
            si_eta_star=(1.0, -0.8, 0.9), si_r_cov=20, si_grid_n=64,
        )),
    ]
    for ctx in contexts:
        for worker in (_wilks_replication, _me_replication):
            task = functools.partial(_attempt, worker, ctx)
            record = pickle.loads(pickle.dumps(task))(0)
            assert record["status"] == "ok"
            assert repr(record) == repr(task(0))


def test_grid_start_outside_the_eta_ball_runs():
    # at this size the grid's closed-form eta of replications 0 and 19 lies
    # outside the model's eta ball (norms 150 and 26.6 against a radius of
    # 15.65); the start keeps the grid theta with the model's eta step, so
    # both replications run instead of failing at their first evaluation
    from altmax.harness import _attempt, _make_replication, _wilks_replication
    from altmax.singleindex import grid_init

    ctx = build_context(ExperimentConfig(
        family="single-index", reps=1, si_n=250, si_m=3, si_eta_star=(1.0, -0.8, 0.9),
        si_r_cov=20, si_grid_n=64, master_seed=3,
    ))
    for i in (0, 19):
        model, start = _make_replication(ctx, i)
        grid_start, _ = grid_init(model.dataset, model.basis, 64, noise_scale=model.noise_scale)
        assert np.linalg.norm(grid_start.eta) > model.eta_radius
        assert np.array_equal(start.theta, grid_start.theta)
        assert np.linalg.norm(start.eta) <= model.eta_radius
        assert _attempt(_wilks_replication, ctx, i)["status"] == "ok"


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(family="toy", reps=3, master_seed=7, steps=14, solver_tolerance=1e-12),
    ExperimentConfig(family="single-index", reps=3, master_seed=33, steps=12, si_sigma=0.0,
                     solver_tolerance=1e-9),
], ids=["toy", "single-index"])
def test_me_replication_reads_the_k_step_run_from_the_profile_trace(cfg):
    # the record as built by a separate K-step run after the profile run
    from altmax.alternation import profile_estimate, run
    from altmax.harness import _alternation_config, _make_replication, _me_replication

    ctx = build_context(cfg)
    for i in range(3):
        acfg = _alternation_config(ctx)
        model, start = _make_replication(ctx, i)
        me_v = profile_estimate(model, replace(acfg, max_steps=4 * ctx.K), start)[0].as_vector()
        trace = run(model, start, acfg)
        dists = [float(np.linalg.norm(ctx.D_full @ (r.point_kk.as_vector() - me_v)))
                 for r in trace.records]
        old = {"rep": i, "status": "ok", "monotone_defect": trace.monotone_defect()}
        old.update({f"dist_{k}": d for k, d in enumerate(dists)})
        old["dist_final"] = dists[-1]
        old["nu_hat"] = fit_contraction(dists)

        new = _me_replication(ctx, i)
        assert list(new) == list(old)
        for key, value in old.items():
            assert new[key] == value or (math.isnan(new[key]) and math.isnan(value)), key


def test_probe_delta_rejects_a_repeated_radius():
    # the result is keyed by radius: a repeated one would build and average
    # both shells and keep only the last
    cfg = ExperimentConfig(family="toy", reps=1, master_seed=0)
    with pytest.raises(ValueError, match=r"r_grid entries must be distinct, got \(0.5, 0.5\)"):
        probe_delta(cfg, r_grid=(0.5, 0.5), R=2, n_points=3)
