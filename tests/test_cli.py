import argparse
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from altmax.bounds import BoundInputs, ConditionConstants, FieldValueError, compute_bound_report
from altmax.cli import KEYS, bounds_inputs, console, experiment_config, main, parse_config
from altmax.harness import ExperimentConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = str(CONFIGS.parent / "src")


def write(path, text):
    path.write_text(text)
    return str(path)


def namespace(config, reps=None, seed=None, threads=None):
    return argparse.Namespace(config=config, reps=reps, seed=seed, threads=threads)


def test_parse_config(tmp_path):
    p = write(tmp_path / "c.kv", "a = 1\n# comment\nb = two  # trailing\n\nc=3.5\n")
    d = parse_config(p)
    assert d == {"a": "1", "b": "two", "c": "3.5"}
    # a line with no `=` is named by its file and line number
    bad = write(tmp_path / "bad.kv", "reps = 3\noops\n")
    with pytest.raises(ValueError) as info:
        parse_config(bad)
    assert str(info.value) == f"{bad}: line 2: bad config line (expected key = value): 'oops'"
    # a key set twice is an error, not the last of its values
    twice = write(tmp_path / "twice.kv", "reps = 3\n# more\nseed = 1\nreps = 4\n")
    with pytest.raises(ValueError) as info:
        parse_config(twice)
    assert str(info.value) == f"{twice}: config key 'reps' is set twice, on lines 1 and 4"


def test_cli_toy_runs_and_asserts(tmp_path, capsys):
    # assertion thresholds are pinned at the acceptance scale (R = 2000)
    cfg = write(tmp_path / "toy.kv", "reps = 2000\nz_target = 1e-4\nseed = 11\n")
    out = tmp_path / "out"
    rc = main(["toy", "--config", cfg, "--out", str(out), "--assert"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "check wilks_mean_3se: PASS" in captured
    assert "check wilks_ks: PASS" in captured
    assert (out / "records.csv").exists()
    assert (out / "summary.kv").exists()


def test_cli_toy_me_experiment(tmp_path, capsys):
    cfg = write(tmp_path / "toy.kv", "reps = 10\nsteps = 10\n")
    out = tmp_path / "out"
    rc = main(["toy", "--config", cfg, "--out", str(out), "--experiment", "me",
               "--assert"])
    assert rc == 0
    assert "nu_hat_median" in (out / "summary.kv").read_text()


def test_cli_flag_overrides(tmp_path):
    cfg = write(tmp_path / "toy.kv", "reps = 5\nsteps = 4\nseed = 1\n")
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["toy", "--config", cfg, "--out", str(out1), "--seed", "9"]) == 0
    assert main(["toy", "--config", cfg, "--out", str(out2), "--seed", "9"]) == 0
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()


def test_cli_bounds(tmp_path, capsys):
    cfg = write(
        tmp_path / "b.kv",
        "x = 2.0\np = 1\nm = 2\nnu = 0.25\nomega = 0.05\ndelta_slope = 0.005\n"
        "z_hess = 0.1\nnorm_dinv = 0.01\neps = 1e-4\nk_max = 12\n",
    )
    out = tmp_path / "out"
    rc = main(["bounds", "--config", cfg, "--out", str(out), "--assert"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "check r_k_nonincreasing: PASS" in captured
    kv, radii = check_bounds_files(out, k_max=12)
    # stdout prints the kv file's lines, then the --assert checks
    lines = captured.splitlines()
    assert lines[: len(kv)] == kv
    assert all(line.startswith("check ") for line in lines[len(kv):])
    assert "''" not in radii["r_k_refined"]  # eps > 0 passes the smallness check
    assert set(radii["r_star_k"]) == {"''"}  # kappa >= 1 - nu


def check_bounds_files(out, k_max):
    """Check the three `altmax bounds` files in `out` against each other;
    return the kv file's lines and the radii file's columns by name."""
    kv = (out / "bounds_report.kv").read_text().splitlines()
    csv = (out / "bounds_report.csv").read_text().splitlines()
    assert csv[0] == "key,value"
    assert [line.split(" = ", 1) for line in kv] == [row.split(",", 1) for row in csv[1:]]
    rows = [row.split(",") for row in (out / "bounds_radii.csv").read_text().splitlines()]
    assert rows[0] == ["k", "r_k", "r_k_refined", "r_star_k"]
    assert len(rows) == k_max + 2
    radii = dict(zip(rows[0], zip(*rows[1:])))
    assert radii["k"] == tuple(map(str, range(k_max + 1)))
    assert all(float(r) > 0 for r in radii["r_k"])
    # a missing radius is the empty string's repr, in every row of its column
    for name in ("r_k_refined", "r_star_k"):
        assert set(radii[name]) == {"''"} or all(float(r) > 0 for r in radii[name])
    kappa_ok = dict(line.split(" = ", 1) for line in kv)["check_kappa_lt_1mn"]
    assert (set(radii["r_star_k"]) == {"''"}) == (kappa_ok == "False")
    return kv, radii


def test_cli_sweep(tmp_path, capsys):
    cfg = write(
        tmp_path / "s.kv",
        "reps = 6\nsweep_n = 250, 500\nsweep_m = 3\neta_star = 1.0, -0.8, 0.9\n",
    )
    out = tmp_path / "out"
    rc = main(["sweep", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert (out / "records.csv").exists()


def test_cli_single_index_small(tmp_path):
    cfg = write(
        tmp_path / "si.kv",
        "reps = 8\nn = 400\nsteps = 3\nm = 3\neta_star = 1.0, -0.8, 0.9\ngrid_n = 256\n",
    )
    out = tmp_path / "out"
    rc = main(["single-index", "--config", cfg, "--out", str(out)])
    assert rc == 0
    text = (out / "summary.kv").read_text()
    assert "wilks_mean" in text
    assert "fisher_coverage_3" in text


def test_cli_single_index_me(tmp_path):
    cfg = write(
        tmp_path / "si.kv",
        "reps = 4\nn = 400\nsteps = 10\nm = 3\nsigma = 0.0\n"
        "eta_star = 1.0, -0.8, 0.9\ngrid_n = 512\n",
    )
    out = tmp_path / "out"
    # no --assert: the contraction check is calibrated at the desk scale
    # (n = 1000); at n = 400 the realized per-dataset coupling fluctuation
    # exceeds the nu + 0.1 allowance
    rc = main(["single-index", "--config", cfg, "--out", str(out),
               "--experiment", "me"])
    assert rc == 0
    assert "dist_final_max" in (out / "summary.kv").read_text()


def test_cli_bounds_extended_schema(tmp_path):
    cfg = write(
        tmp_path / "b.kv",
        "x = 1.5\np = 2\nm = 3\nnu = 0.4\nb_eigenvalues = 1.0, 0.8, 0.5, 1.2, 0.9\n"
        "r_k_init = 4.0\nomega = 0.02\ng0 = 6.0\ng = 25.0\n",
    )
    out = tmp_path / "out"
    rc = main(["bounds", "--config", cfg, "--out", str(out)])
    assert rc == 0
    kv, radii = check_bounds_files(out, k_max=20)
    assert "z_quad" in "".join(kv) and "K_stop" in "".join(kv)
    assert set(radii["r_k_refined"]) == {"''"}  # eps = 0
    assert "''" not in radii["r_star_k"]


def test_cli_rejects_unknown_keys(tmp_path):
    cfg = write(tmp_path / "typo.kv", "rep = 3\nstepz = 2\nseed = 1\n")
    msg = r"unknown config key\(s\): 'rep' \(did you mean 'reps'\?\), 'stepz'"
    with pytest.raises(ValueError, match=msg):
        main(["toy", "--config", cfg, "--out", str(tmp_path / "o")])
    # a key of another subcommand is unknown too
    cfg = write(tmp_path / "mixed.kv", "x = 2.0\nnu = 0.25\nreps = 3\n")
    with pytest.raises(ValueError, match="'reps'"):
        main(["bounds", "--config", cfg, "--out", str(tmp_path / "b")])
    assert not (tmp_path / "o").exists() and not (tmp_path / "b").exists()


def test_cli_rejects_keys_of_another_family(tmp_path):
    rejected = {
        "toy": ("grid_n = 7", "constrain_theta = 1", "sweep_m = 3"),
        "single-index": ("toy_a = 0.9", "sweep_n = 250"),
        # each sweep cell sets its own n and m
        "sweep": ("toy_p = 2", "n = 5", "m = 3"),
    }
    for command, lines in rejected.items():
        for line in lines:
            cfg = write(tmp_path / "c.kv", f"reps = 3\n{line}\n")
            key = line.split(" ")[0]
            with pytest.raises(ValueError, match=f"unknown config key\\(s\\): '{key}'"):
                main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()
    cfg = write(tmp_path / "s.kv", "sweep_n = 250\ngrid_n = 64\nconstrain_theta = 1\n")
    c = experiment_config(namespace(cfg), "sweep")
    assert (c.sweep_n, c.si_grid_n, c.si_constrain) == ((250,), 64, True)


def test_cli_bool_spellings(tmp_path):
    spellings = {"1": True, "TRUE": True, "Yes": True, "on": True,
                 "0": False, "false": False, "NO": False, "Off": False}
    for raw, value in spellings.items():
        cfg = write(tmp_path / "b.kv", f"constrain_theta = {raw}\n")
        assert experiment_config(namespace(cfg), "single-index").si_constrain is value
    # a typo or another number is an error, not the unconstrained analysis
    for raw in ("ture", "2", "y"):
        cfg = write(tmp_path / "b.kv", f"constrain_theta = {raw}\n")
        with pytest.raises(ValueError) as info:
            experiment_config(namespace(cfg), "single-index")
        assert str(info.value) == (
            f"{cfg}: bad value {raw!r} for config key 'constrain_theta': "
            "expected 1/true/yes/on or 0/false/no/off"
        )


def test_cli_bad_value_names_file_and_key(tmp_path):
    cfg = write(tmp_path / "toy.kv", "reps = 2x\n")
    with pytest.raises(ValueError) as info:
        main(["toy", "--config", cfg, "--out", str(tmp_path / "o")])
    assert str(info.value) == (
        f"{cfg}: bad value '2x' for config key 'reps': "
        "invalid literal for int() with base 10: '2x'"
    )
    cfg = write(tmp_path / "sweep.kv", "sweep_n = 250, 1e3\n")
    with pytest.raises(ValueError, match=f"{cfg}: bad value '250, 1e3' for config key 'sweep_n'"):
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


def test_cli_out_of_range_value_names_file_and_key_or_flag(tmp_path):
    # values that parse but that the config classes reject
    cases = [
        ("single-index", "n = 0\n", "bad value '0' for config key 'n': si_n >= 1 required"),
        ("toy", "b = -1\n", "bad value '-1' for config key 'b': b must be > 0"),
        ("single-index", "sigma = -0.5\n",
         "bad value '-0.5' for config key 'sigma': si_sigma >= 0 required"),
        ("single-index", "theta_angle = 2.0\n",
         "bad value '2.0' for config key 'theta_angle': cos(si_theta_angle) > 0 required"),
        # theta* = (1,) at p = 1 has no angle to set
        ("single-index", "p = 1\ntheta_angle = 0.3\n",
         "bad value '0.3' for config key 'theta_angle': si_theta_angle must be auto at si_p = 1"),
        ("sweep", "p = 1\ntheta_angle = 0.3\n",
         "bad value '0.3' for config key 'theta_angle': si_theta_angle must be auto at si_p = 1"),
        ("bounds", "x = 0\n", "bad value '0' for config key 'x': x > 0 required"),
        ("bounds", "p = 0\n", "bad value '0' for config key 'p': p >= 1 required"),
        ("bounds", "m = 0\n", "bad value '0' for config key 'm': m >= 1 required"),
        ("bounds", "nu = 2\n", "bad value '2' for config key 'nu': nu in [0, 1) required"),
        ("bounds", "k_max = -1\n",
         "bad value '-1' for config key 'k_max': k_max >= 0 required"),
        ("bounds", "eps = -1e-4\n",
         "bad value '-1e-4' for config key 'eps': eps >= 0 required"),
        ("bounds", "norm_dinv = -0.01\n",
         "bad value '-0.01' for config key 'norm_dinv': norm_dinv >= 0 required"),
        ("bounds", "r_k_init = -1\n",
         "bad value '-1' for config key 'r_k_init': r_k_init >= 0 required"),
        ("bounds", "k0 = -1\n", "bad value '-1' for config key 'k0': k0 >= 0 required"),
        ("single-index", "s_x = 0\n", "bad value '0' for config key 's_x': si_s_x > 0 required"),
        ("single-index", "m = 0\n", "bad value '0' for config key 'm': si_m >= 1 required"),
        ("single-index", "grid_n = 0\n",
         "bad value '0' for config key 'grid_n': si_grid_n >= 1 required"),
        ("single-index", "m = 3\neta_star = 1.0, -0.8\n",
         "bad value '1.0, -0.8' for config key 'eta_star': si_eta_star length must equal si_m = 3"),
        ("single-index", "eta_star = 1.0, -0.8, 0.9\n",
         "bad value '1.0, -0.8, 0.9' for config key 'eta_star': "
         "si_eta_star length must equal si_m = 6"),
        # with eta_star left at its default (6 values), the mismatch is m's
        ("single-index", "m = 4\n",
         "bad value '4' for config key 'm': si_eta_star length must equal si_m = 4"),
        ("sweep", "sweep_n = 0, 250\n",
         "bad value '0, 250' for config key 'sweep_n': sweep_n entries >= 1 required"),
        ("sweep", "sweep_m = 3, -1\n",
         "bad value '3, -1' for config key 'sweep_m': sweep_m entries >= 1 required"),
        ("toy", "x = 0\n", "bad value '0' for config key 'x': x > 0 required"),
        ("toy", "z_target = 0\n",
         "bad value '0' for config key 'z_target': z_target > 0 required"),
        ("toy", "seed = -1\n",
         "bad value '-1' for config key 'seed': master_seed >= 0 required"),
        ("toy", "toy_p = 0\n", "bad value '0' for config key 'toy_p': toy_p >= 1 required"),
        ("toy", "toy_m = 0\n", "bad value '0' for config key 'toy_m': toy_m >= 1 required"),
        ("toy", "toy_d2 = 0\n", "bad value '0' for config key 'toy_d2': toy_d2 > 0 required"),
        ("toy", "toy_h2 = -1\n", "bad value '-1' for config key 'toy_h2': toy_h2 > 0 required"),
        ("toy", "toy_a = 5\n",
         "bad value '5' for config key 'toy_a': toy_a**2 < toy_d2 * toy_h2 required"),
        # with toy_a left at its default (1), the coupling bound is named by the block
        ("toy", "toy_d2 = 0.4\n",
         "bad value '0.4' for config key 'toy_d2': toy_a**2 < toy_d2 * toy_h2 required"),
        # blocks whose scales are too far apart for float64: the root of the
        # information, which every replication solves with, is singular
        ("toy", "toy_p = 2\ntoy_d2 = 1e-300\ntoy_h2 = 1e300\ntoy_a = 0\n",
         "bad value '1e-300' for config key 'toy_d2': "
         "toy_d2 and toy_h2 too far apart: the root of the toy information is singular"),
        # with toy_d2 left at its default, the singular root is named by toy_h2
        ("toy", "toy_p = 2\ntoy_h2 = 1e-308\ntoy_a = 1e-200\n",
         "bad value '1e-308' for config key 'toy_h2': "
         "toy_d2 and toy_h2 too far apart: the root of the toy information is singular"),
        # a non-finite value, which the range checks above let through or misname
        ("toy", "x = inf\n", "bad value 'inf' for config key 'x': x must be finite"),
        ("toy", "z_target = inf\n",
         "bad value 'inf' for config key 'z_target': z_target must be finite"),
        ("toy", "toy_d2 = inf\n", "bad value 'inf' for config key 'toy_d2': toy_d2 must be finite"),
        ("toy", "toy_h2 = nan\n", "bad value 'nan' for config key 'toy_h2': toy_h2 must be finite"),
        ("toy", "toy_a = -inf\n", "bad value '-inf' for config key 'toy_a': toy_a must be finite"),
        ("toy", "toy_start_offset = nan\n",
         "bad value 'nan' for config key 'toy_start_offset': toy_start_offset must be finite"),
        ("single-index", "sigma = inf\n",
         "bad value 'inf' for config key 'sigma': si_sigma must be finite"),
        ("single-index", "s_x = nan\n", "bad value 'nan' for config key 's_x': si_s_x must be finite"),
        ("single-index", "x = nan\n", "bad value 'nan' for config key 'x': x must be finite"),
        # an infinite tolerance would stop every run after one step and switch
        # off the monotone check
        ("toy", "solver_tolerance = inf\n",
         "bad value 'inf' for config key 'solver_tolerance': solver_tolerance must be finite"),
        ("single-index", "solver_tolerance = nan\n",
         "bad value 'nan' for config key 'solver_tolerance': solver_tolerance must be finite"),
        ("toy", "nu0 = 0\n", "bad value '0' for config key 'nu0': nu0 must be > 0"),
        ("single-index", "nu0 = 0\n", "bad value '0' for config key 'nu0': nu0 must be > 0"),
        ("bounds", "nu0 = 0\n", "bad value '0' for config key 'nu0': nu0 must be > 0"),
        ("bounds", "g = 0\n", "bad value '0' for config key 'g': g must be > 0"),
        ("bounds", "g0 = 0\n", "bad value '0' for config key 'g0': g0 must be > 0"),
        # the other condition constants the bound formulas divide by or scale with
        ("toy", "nu1 = -1\n", "bad value '-1' for config key 'nu1': nu1 must be > 0"),
        ("single-index", "nu1 = -1\n", "bad value '-1' for config key 'nu1': nu1 must be > 0"),
        ("bounds", "nu2 = 0\n", "bad value '0' for config key 'nu2': nu2 must be > 0"),
        ("bounds", "nu_r = nan\n", "bad value 'nan' for config key 'nu_r': nu_r must be > 0"),
        ("bounds", "g_r = 0\n", "bad value '0' for config key 'g_r': g_r must be > 0"),
        # the bound formulas are not defined at an infinite scale: nu0 = inf
        # gave K0 = nan and an R0 of z_x, as max drops the NaN
        ("bounds", "nu0 = inf\n", "bad value 'inf' for config key 'nu0': nu0 must be finite"),
        ("toy", "nu1 = inf\n", "bad value 'inf' for config key 'nu1': nu1 must be finite"),
        ("bounds", "nu2 = inf\n", "bad value 'inf' for config key 'nu2': nu2 must be finite"),
        ("bounds", "nu_r = inf\n", "bad value 'inf' for config key 'nu_r': nu_r must be finite"),
        ("single-index", "b = inf\n", "bad value 'inf' for config key 'b': b must be finite"),
        ("toy", "delta_slope = nan\n",
         "bad value 'nan' for config key 'delta_slope': delta_slope must be finite"),
        ("bounds", "delta_const = inf\n",
         "bad value 'inf' for config key 'delta_const': delta_const must be finite"),
        ("bounds", "z_hess = nan\n", "bad value 'nan' for config key 'z_hess': z_hess must be finite"),
        ("bounds", "beta_a = -inf\n",
         "bad value '-inf' for config key 'beta_a': beta_a must be finite"),
        # a non-finite eta_star entry, which ended in a bare NotSPDError
        ("single-index", "eta_star = 1.0, nan, 0.9, -0.7, 0.6, 0.8\n",
         "bad value '1.0, nan, 0.9, -0.7, 0.6, 0.8' for config key 'eta_star': "
         "si_eta_star entries must be finite"),
        ("sweep", "eta_star = 1.0, inf\n",
         "bad value '1.0, inf' for config key 'eta_star': si_eta_star entries must be finite"),
        # blocks whose start offset has an information norm beyond float64
        ("toy", "toy_h2 = 5e307\ntoy_a = 0\n",
         "bad value '5e307' for config key 'toy_h2': toy_d2, toy_h2 and toy_start_offset "
         "too large: the norm of the start offset overflows"),
        ("toy", "toy_d2 = 1e308\ntoy_a = 0\n",
         "bad value '1e308' for config key 'toy_d2': toy_d2, toy_h2 and toy_start_offset "
         "too large: the norm of the start offset overflows"),
        # with the blocks left at their defaults, the overflow is named by the offset
        ("toy", "toy_start_offset = 1e200\n",
         "bad value '1e200' for config key 'toy_start_offset': toy_d2, toy_h2 and "
         "toy_start_offset too large: the norm of the start offset overflows"),
        # at p = m = 1 the form has p* = 2 eigenvalues
        ("bounds", "b_eigenvalues = 1\n",
         "bad value '1' for config key 'b_eigenvalues': b_eigenvalues must have p + m = 2 "
         "entries"),
        ("bounds", "b_eigenvalues = 1, -1\n",
         "bad value '1, -1' for config key 'b_eigenvalues': b_eigenvalues entries >= 0 "
         "required"),
        # a non-finite bounds value, which ended in a bare ValueError or
        # OverflowError, or ran to a report with K0 or kappa NaN
        ("bounds", "x = inf\n", "bad value 'inf' for config key 'x': x must be finite"),
        ("bounds", "b_eigenvalues = 1, inf\n",
         "bad value '1, inf' for config key 'b_eigenvalues': b_eigenvalues entries must be "
         "finite"),
        ("bounds", "k0 = inf\n", "bad value 'inf' for config key 'k0': k0 must be finite"),
        ("bounds", "r_k_init = inf\n",
         "bad value 'inf' for config key 'r_k_init': r_k_init must be finite"),
        ("bounds", "norm_dinv = inf\n",
         "bad value 'inf' for config key 'norm_dinv': norm_dinv must be finite"),
        ("bounds", "eps = inf\n", "bad value 'inf' for config key 'eps': eps must be finite"),
        # a repeated sweep entry reruns its cell; an empty list or pool runs nothing
        ("sweep", "sweep_m = 3, 3\n",
         "bad value '3, 3' for config key 'sweep_m': sweep_m entries must be distinct"),
        ("sweep", "sweep_n = 250, 250\n",
         "bad value '250, 250' for config key 'sweep_n': sweep_n entries must be distinct"),
        ("sweep", "sweep_n =\n",
         "bad value '' for config key 'sweep_n': sweep_n must not be empty"),
        ("sweep", "eta_star =\n",
         "bad value '' for config key 'eta_star': si_eta_star must not be empty"),
        # an error names the first of its keys that the file sets
        ("toy", "toy_d2 = 0.4\ntoy_h2 = 0.4\n",
         "bad value '0.4' for config key 'toy_d2': toy_a**2 < toy_d2 * toy_h2 required"),
        ("toy", "toy_h2 = 0.4\n",
         "bad value '0.4' for config key 'toy_h2': toy_a**2 < toy_d2 * toy_h2 required"),
        ("toy", "toy_h2 = 5e307\ntoy_a = 0\ntoy_start_offset = 3\n",
         "bad value '5e307' for config key 'toy_h2': toy_d2, toy_h2 and toy_start_offset "
         "too large: the norm of the start offset overflows"),
    ]
    for command, text, message in cases:
        cfg = write(tmp_path / "bad.kv", text)
        with pytest.raises(ValueError) as info:
            main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert str(info.value) == f"{cfg}: {message}"
    cfg = write(tmp_path / "ok.kv", "reps = 5\n")
    with pytest.raises(ValueError) as info:
        main(["toy", "--config", cfg, "--reps", "0", "--out", str(tmp_path / "o")])
    assert str(info.value) == "bad value 0 for flag '--reps': reps >= 1 required"
    with pytest.raises(ValueError) as info:
        main(["toy", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "o")])
    assert str(info.value) == "bad value -1 for flag '--seed': master_seed >= 0 required"
    assert not (tmp_path / "o").exists()
    # the sweep pads an eta_star pool of any length with zeros, or cuts it, to each m
    cfg = write(tmp_path / "pool.kv", "eta_star = 1.0, -0.8, 0.9\nsweep_m = 2, 6\n")
    assert experiment_config(namespace(cfg), "sweep").si_eta_star == (1.0, -0.8, 0.9)


def test_console_reports_a_rejected_config_in_one_line(tmp_path, capsys):
    # the `altmax` command exits 2, argparse's status for a bad flag, with one
    # stderr line, where main raises the error (a ValueError, as the tests above read it)
    cases = [
        ("toy", "rep = 3\n", "unknown config key(s): 'rep' (did you mean 'reps'?)"),
        ("bounds", "nu0 = inf\n", "bad value 'inf' for config key 'nu0': nu0 must be finite"),
    ]
    for command, text, message in cases:
        cfg = write(tmp_path / "bad.kv", text)
        assert console([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"altmax {command}: error: {cfg}: {message}\n"
    # a config file that does not exist is named, as is a directory
    for path, reason in [(tmp_path / "missing.kv", "No such file or directory"),
                         (tmp_path, "Is a directory")]:
        assert console(["toy", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"altmax toy: error: {path}: cannot read the config file: {reason}\n")
    assert not (tmp_path / "o").exists()
    # the same through the module's entry point, in a process of its own
    out = subprocess.run([sys.executable, "-m", "altmax.cli", "bounds", "--config", cfg],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == f"altmax bounds: error: {cfg}: {cases[1][2]}\n"


def test_console_keeps_the_traceback_of_an_error_in_a_run(tmp_path, monkeypatch):
    def fail(cfg):
        raise RuntimeError("raised inside the run")

    monkeypatch.setattr("altmax.cli.run_wilks_fisher", fail)
    with pytest.raises(RuntimeError, match="raised inside the run"):
        console(["toy", "--reps", "2", "--out", str(tmp_path / "o")])


def test_every_key_is_its_field_name():
    # a config key names its field, or its single-index field without `si_`;
    # seed and constrain_theta are the two keys named otherwise
    renamed = {key: name for table in KEYS.values() for key, (_, name, _) in table.items()
               if key not in (name, name.removeprefix("si_"))}
    assert renamed == {"seed": "master_seed", "constrain_theta": "si_constrain"}


def test_config_construction_raises_what_the_cli_names():
    # the toy-block and eta_star-length cases above, from ExperimentConfig alone:
    # the same message, and the keys it can blame in the same order
    coupling = "toy_a**2 < toy_d2 * toy_h2 required"
    singular = "toy_d2 and toy_h2 too far apart: the root of the toy information is singular"
    overflow = ("toy_d2, toy_h2 and toy_start_offset too large: the norm of the start "
                "offset overflows")
    cases = [
        (dict(toy_a=5.0), ["toy_a", "toy_d2", "toy_h2"], coupling),
        (dict(toy_d2=0.4), ["toy_a", "toy_d2", "toy_h2"], coupling),
        (dict(toy_d2=0.4, toy_h2=0.4), ["toy_a", "toy_d2", "toy_h2"], coupling),
        (dict(toy_h2=0.4), ["toy_a", "toy_d2", "toy_h2"], coupling),
        (dict(toy_p=2, toy_d2=1e-300, toy_h2=1e300, toy_a=0.0), ["toy_d2", "toy_h2"], singular),
        (dict(toy_p=2, toy_h2=1e-308, toy_a=1e-200), ["toy_d2", "toy_h2"], singular),
        (dict(toy_h2=5e307, toy_a=0.0), ["toy_h2", "toy_start_offset"], overflow),
        (dict(toy_h2=1e308, toy_a=0), ["toy_h2", "toy_start_offset"], overflow),
        (dict(toy_d2=1e308, toy_a=0.0), ["toy_d2", "toy_start_offset"], overflow),
        (dict(toy_start_offset=1e200), ["toy_h2", "toy_start_offset"], overflow),
        (dict(toy_h2=5e307, toy_a=0.0, toy_start_offset=3.0), ["toy_h2", "toy_start_offset"],
         overflow),
        (dict(family="single-index", si_m=3, si_eta_star=(1.0, -0.8)),
         ["si_eta_star", "si_m"], "si_eta_star length must equal si_m = 3"),
        (dict(family="single-index", si_eta_star=(1.0, -0.8, 0.9)),
         ["si_eta_star", "si_m"], "si_eta_star length must equal si_m = 6"),
        (dict(family="single-index", si_m=4),
         ["si_eta_star", "si_m"], "si_eta_star length must equal si_m = 4"),
    ]
    for kwargs, fields, message in cases:
        with pytest.raises(FieldValueError) as info:
            ExperimentConfig(**kwargs)
        assert (str(info.value), info.value.fields) == (message, fields), kwargs
    # the sweep reads eta_star as a pool of any length, and has no m of its own
    sweep = ExperimentConfig(family="sweep", si_eta_star=(1.0, -0.8, 0.9))
    assert sweep.si_eta_star == (1.0, -0.8, 0.9) and not hasattr(sweep, "si_m")


def test_bound_inputs_raise_what_the_cli_names():
    # the bounds cases above that set a BoundInputs field, from BoundInputs alone
    cases = [
        (dict(x=0.0), "x > 0 required"),
        (dict(p=0), "p >= 1 required"),
        (dict(m=0), "m >= 1 required"),
        (dict(nu=2.0), "nu in [0, 1) required"),
        (dict(k_max=-1), "k_max >= 0 required"),
        (dict(eps=-1e-4), "eps >= 0 required"),
        (dict(norm_dinv=-0.01), "norm_dinv >= 0 required"),
        (dict(r_k_init=-1.0), "r_k_init >= 0 required"),
        (dict(k0=-1.0), "k0 >= 0 required"),
        (dict(b_eigenvalues=(1.0,)), "b_eigenvalues must have p + m = 2 entries"),
        (dict(b_eigenvalues=(1.0, -1.0)), "b_eigenvalues entries >= 0 required"),
        (dict(x=math.inf), "x must be finite"),
        (dict(b_eigenvalues=(1.0, math.inf)), "b_eigenvalues entries must be finite"),
        (dict(k0=math.inf), "k0 must be finite"),
        (dict(r_k_init=math.inf), "r_k_init must be finite"),
        (dict(norm_dinv=math.inf), "norm_dinv must be finite"),
        (dict(eps=math.inf), "eps must be finite"),
        (dict(p=2.5), "p must be an integer"),
        (dict(m=2.5), "m must be an integer"),
        (dict(k_max=2.5), "k_max must be an integer"),
    ]
    for kwargs, message in cases:
        with pytest.raises(FieldValueError) as info:
            BoundInputs(**kwargs)
        assert (str(info.value), info.value.fields) == (message, list(kwargs)), kwargs


def test_shipped_bounds_config_reports_as_its_values():
    # configs/bounds.kv, read by the CLI, and its values given to the library
    cc = ConditionConstants(nu0=1.0, nu1=1.0, omega=0.05, omega2=0.002, delta_slope=0.001,
                            z_hess=0.1)
    inputs = BoundInputs(x=2.0, p=1, m=2, nu=0.25, cc=cc, norm_dinv=0.01, eps=1e-4, k_max=20)
    read = bounds_inputs(str(CONFIGS / "bounds.kv"))
    assert read == inputs
    assert compute_bound_report(read) == compute_bound_report(inputs)


def test_cli_flag_overridden_key_is_known(tmp_path):
    cfg = write(tmp_path / "toy.kv", "reps = 500\nthreads = 3\nsteps = 4\nseed = 2\n")
    c = experiment_config(namespace(cfg, reps=5, threads=1), "toy")
    assert (c.reps, c.threads, c.master_seed, c.steps) == (5, 1, 2, 4)


CONDITION_KEYS = """nu0 = 0.9
nu1 = 1.1
nu2 = 1.2
omega = 0.1
omega2 = 0.2
g = 30
g0 = +inf
b = 2.0
nu_r = 0.7
g_r = 12.5
delta_slope = 0.01
delta_const = 0.02
beta_a = 0.3
z_hess = 0.4
"""
CONDITIONS = ConditionConstants(
    nu0=0.9, nu1=1.1, nu2=1.2, omega=0.1, omega2=0.2, g=30.0, g0=math.inf, b=2.0,
    nu_r=0.7, g_r=12.5, delta_slope=0.01, delta_const=0.02, beta_a=0.3,
    z_hess=0.4,
)
COMMON_KEYS = """reps = 7
x = 1.5
steps = 5
z_target = 1e-3
seed = 42
threads = 2
solver_tolerance = 1e-8
"""
SINGLE_INDEX_KEYS = """n = 500
p = 3
m = 3
sigma = 0.25
s_x = 2.0
theta_angle = 0.2
eta_star = 1.0, -0.5, 0.25
grid_n = 128
r_cov = 50
constrain_theta = yes
"""
SINGLE_INDEX = dict(
    family="single-index", reps=7, x=1.5, steps=5, z_target=1e-3, master_seed=42,
    threads=2, solver_tolerance=1e-8, cc=CONDITIONS, si_n=500, si_p=3, si_m=3,
    si_sigma=0.25, si_s_x=2.0, si_theta_angle=0.2, si_eta_star=(1.0, -0.5, 0.25),
    si_grid_n=128, si_r_cov=50, si_constrain=True,
)


def test_every_documented_key_parses(tmp_path):
    files = {
        "toy": COMMON_KEYS + CONDITION_KEYS + (
            "toy_p = 2\ntoy_m = 3\ntoy_d2 = 3.0\ntoy_h2 = 4.0\ntoy_a = 0.9\n"
            "toy_start_offset = 1.5\n"
        ),
        "single-index": COMMON_KEYS + CONDITION_KEYS + SINGLE_INDEX_KEYS,
        # each sweep cell sets its own n and m
        "sweep": COMMON_KEYS + CONDITION_KEYS
        + SINGLE_INDEX_KEYS.replace("n = 500\n", "").replace("m = 3\n", "")
        + "sweep_n = 200, 400, 800\nsweep_m = 3,\n",
        "bounds": CONDITION_KEYS + (
            "x = 1.5\np = 2\nm = 3\nnu = 0.4\nb_eigenvalues = 1.0, 0.8, 0.5, 1.2, 0.9\n"
            "r_k_init = 4.0\nk0 = 3.5\neps = 1e-4\nnorm_dinv = 0.01\nk_max = 12\n"
        ),
    }
    paths = {}
    for command, text in files.items():
        paths[command] = write(tmp_path / f"{command}.kv", text)
        assert set(parse_config(paths[command])) == set(KEYS[command])
    assert experiment_config(namespace(paths["toy"]), "toy") == ExperimentConfig(
        family="toy", reps=7, x=1.5, steps=5, z_target=1e-3, master_seed=42, threads=2,
        solver_tolerance=1e-8, cc=CONDITIONS, toy_p=2, toy_m=3, toy_d2=3.0, toy_h2=4.0,
        toy_a=0.9, toy_start_offset=1.5,
    )
    assert experiment_config(namespace(paths["single-index"]), "single-index") == (
        ExperimentConfig(**SINGLE_INDEX)
    )
    sweep = {key: value for key, value in SINGLE_INDEX.items() if key not in ("si_n", "si_m")}
    assert experiment_config(namespace(paths["sweep"]), "sweep") == ExperimentConfig(
        **dict(sweep, family="sweep"), sweep_n=(200, 400, 800), sweep_m=(3,),
    )
    assert bounds_inputs(paths["bounds"]) == BoundInputs(
        x=1.5, p=2, m=3, nu=0.4, cc=CONDITIONS, b_eigenvalues=(1.0, 0.8, 0.5, 1.2, 0.9),
        r_k_init=4.0, k0=3.5, eps=1e-4, norm_dinv=0.01, k_max=12,
    )
    # flags override the file; `auto`, inf spellings and 0 read as documented
    cfg = write(tmp_path / "o.kv", "steps = auto\ng = inf\ng_r = infinity\n"
                "constrain_theta = 0\nreps = 0\ntheta_angle = auto\n")
    c = experiment_config(namespace(cfg, reps=9, seed=4, threads=3), "single-index")
    assert (c.reps, c.master_seed, c.threads, c.steps) == (9, 4, 3, None)
    assert c.si_theta_angle is None
    assert c.cc.g == math.inf and c.cc.g_r == math.inf and c.si_constrain is False


def test_shipped_configs_load():
    readers = {
        "toy.kv": lambda path: experiment_config(namespace(path), "toy"),
        "single_index.kv": lambda path: experiment_config(namespace(path), "single-index"),
        "sweep.kv": lambda path: experiment_config(namespace(path), "sweep"),
        "bounds.kv": bounds_inputs,
    }
    assert sorted(p.name for p in CONFIGS.glob("*.kv")) == sorted(readers)
    loaded = {name: r(str(CONFIGS / name)) for name, r in readers.items()}
    assert loaded["single_index.kv"].si_n == 1000
    assert loaded["bounds.kv"].k_max == 20
