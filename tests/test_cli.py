import argparse
from pathlib import Path

import pytest

from altmax.cli import bounds_inputs, experiment_config, main, parse_config, read_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write(path, text):
    path.write_text(text)
    return str(path)


def test_parse_config(tmp_path):
    p = write(tmp_path / "c.kv", "a = 1\n# comment\nb = two  # trailing\n\nc=3.5\n")
    d = parse_config(p)
    assert d == {"a": "1", "b": "two", "c": "3.5"}
    bad = write(tmp_path / "bad.kv", "oops\n")
    with pytest.raises(ValueError):
        parse_config(bad)


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
    assert (out / "bounds_report.kv").exists()
    assert (out / "bounds_report.csv").exists()
    radii = (out / "bounds_radii.csv").read_text().strip().split("\n")
    assert radii[0] == "k,r_k,r_k_refined,r_star_k"
    assert len(radii) == 14


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
    kv = (out / "bounds_report.kv").read_text()
    assert "z_quad" in kv and "K_stop" in kv


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


def test_cli_flag_overridden_key_is_known(tmp_path):
    cfg = write(tmp_path / "toy.kv", "reps = 500\nthreads = 3\nsteps = 4\nseed = 2\n")
    args = argparse.Namespace(reps=5, seed=None, threads=1)
    c = read_config(cfg, lambda d: experiment_config(args, d, "toy"))
    assert (c.reps, c.threads, c.master_seed, c.steps) == (5, 1, 2, 4)


def test_shipped_configs_load():
    args = argparse.Namespace(reps=None, seed=None, threads=None)
    readers = {
        "toy.kv": lambda d: experiment_config(args, d, "toy"),
        "single_index.kv": lambda d: experiment_config(args, d, "single-index"),
        "sweep.kv": lambda d: experiment_config(args, d, "single-index"),
        "bounds.kv": bounds_inputs,
    }
    assert sorted(p.name for p in CONFIGS.glob("*.kv")) == sorted(readers)
    loaded = {name: read_config(str(CONFIGS / name), r) for name, r in readers.items()}
    assert loaded["single_index.kv"].si_n == 1000
    assert loaded["bounds.kv"]["k_max"] == 20
