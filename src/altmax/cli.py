"""Command-line interface.

Subcommands:
  toy           toy-Gaussian Monte Carlo experiments (Wilks/Fisher or ME runs)
  single-index  single-index generation + estimation experiments
  bounds        evaluate the finite-sample bound formulas for one configuration
  sweep         dimension sweep over (p*, n) cells

Configuration files are flat key-value text: one `key = value` per line,
`#` starts a comment.  Keys are documented in the README; a key the
subcommand does not read is rejected.  Command-line flags
--seed/--reps/--threads override the file.  The exit status is 0; 1 with
--assert when any of the subcommand's acceptance-keyed checks fails; 2 when
the config file or a flag value is rejected, or the file cannot be read
(one line on stderr, as argparse reports a bad flag).
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import math
import os
import sys
import typing

import numpy as np

from ._files import write_csv, write_kv, write_kv_csv
from .bounds import BoundInputs, ConditionConstants, FieldValueError, compute_bound_report
from .harness import (
    FAMILIES,
    ToyConfig,
    run_dimension_sweep,
    run_me_convergence,
    run_wilks_fisher,
)


# Config keys whose names differ from their fields'; every other `si_` field
# drops the prefix, and every other field is its own key.
_RENAMED = {"master_seed": "seed", "si_constrain": "constrain_theta"}


def _parse_bool(raw):
    """`1`, `true`, `yes`, `on` or `0`, `false`, `no`, `off`, in any case."""
    word = raw.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected 1/true/yes/on or 0/false/no/off")


def _parser(tp):
    """The function that parses a config value into a field of type `tp`."""
    if tp is bool:
        return _parse_bool
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        return lambda raw: tuple(item(v.strip()) for v in raw.split(",") if v.strip())
    args = typing.get_args(tp)
    if type(None) in args:  # `auto` (or no value) selects None
        inner = _parser(next(a for a in args if a is not type(None)))
        return lambda raw: None if raw in ("auto", "") else inner(raw)
    return tp  # int, or float, which also reads inf, +inf and infinity


def _keys(cls):
    """{config key: (cls, field name, parser)} for the settable fields of `cls`
    (all but its condition constants `cc`, whose fields are keys of their own)."""
    hints = typing.get_type_hints(cls)
    return {
        _RENAMED.get(f.name, f.name.removeprefix("si_")): (cls, f.name, _parser(hints[f.name]))
        for f in dataclasses.fields(cls) if f.name != "cc"
    }


_CLASSES = {**FAMILIES, "bounds": BoundInputs}  # the class each subcommand's file builds
KEYS = {command: {**_keys(ConditionConstants), **_keys(cls)} for command, cls in _CLASSES.items()}


def _build(cls, where, **kwargs):
    """`cls(**kwargs)`; a value out of range is named by the first of the
    error's fields that `where` places (the file or a flag set it)."""
    try:
        return cls(**kwargs)
    except FieldValueError as exc:
        named = [where[cls, key] for key in exc.fields if (cls, key) in where]
        if not named:
            raise
        raise ValueError(f"{named[0]}: {exc}") from None


def parse_config(path):
    """{key: raw value} of a config file; a key set on two lines raises ValueError."""
    out, lines = {}, {}
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {number}: bad config line "
                                 f"(expected key = value): {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ValueError(f"{path}: config key {key!r} is set twice, "
                                 f"on lines {lines[key]} and {number}")
            out[key], lines[key] = val, number
    return out


class ConfigError(ValueError):
    """A config file or flag value that the subcommand `command` rejects."""

    def __init__(self, command, message):
        super().__init__(message)
        self.command = command


def _inputs(path, command, flags=()):
    """The `_CLASSES[command]` of a config file (no file: its defaults); each
    (flag, field, value) of `flags` whose value is set overrides the file.

    Every key of the file must be one of `KEYS[command]`; any other key is a
    typo or belongs to another subcommand, and raises ConfigError, as do a
    file that cannot be read, a line that is not `key = value`, a key set
    twice and a value that does not parse or is out of range, named by its
    file and key or by its flag.
    """
    try:
        try:
            entries = parse_config(path) if path else {}
        except OSError as exc:
            raise ValueError(f"{path}: cannot read the config file: {exc.strerror}") from None
        table, cls = KEYS[command], _CLASSES[command]
        unknown = sorted(set(entries) - set(table))
        if unknown:
            hints = []
            for key in unknown:
                close = difflib.get_close_matches(key, table, n=1)
                hints.append(repr(key) + (f" (did you mean {close[0]!r}?)" if close else ""))
            raise ValueError(f"{path}: unknown config key(s): {', '.join(hints)}")
        values, where = {ConditionConstants: {}, cls: {}}, {}  # where: (class, field) -> origin
        for key, raw in entries.items():
            owner, name, parse = table[key]
            where[owner, name] = f"{path}: bad value {raw!r} for config key {key!r}"
            try:
                values[owner][name] = parse(raw)
            except ValueError as exc:
                raise ValueError(f"{where[owner, name]}: {exc}") from None
        for flag, name, value in flags:
            if value is not None:
                values[cls][name] = value
                where[cls, name] = f"bad value {value!r} for flag '--{flag}'"
        cc = _build(ConditionConstants, where, **values[ConditionConstants])
        return _build(cls, where, cc=cc, **values[cls])
    except ValueError as exc:
        raise ConfigError(command, str(exc)) from None


def experiment_config(args, command):
    """The experiment of `args.config`; --seed/--reps/--threads override the file."""
    return _inputs(args.config, command, [
        ("seed", "master_seed", args.seed), ("reps", "reps", args.reps),
        ("threads", "threads", args.threads)])


def bounds_inputs(path) -> BoundInputs:
    """The inputs of `compute_bound_report` from a config file."""
    return _inputs(path, "bounds")


def _experiment_checks(kind, cfg, rep):
    agg = rep.aggregates
    checks = [("monotone_violations_zero", agg["monotone_violations"] == 0)]
    if kind == "wilks":
        p = rep.meta["p"]
        K = rep.meta["K"]
        if isinstance(cfg, ToyConfig):  # its Wilks statistic is exactly chi^2_p
            lo = p - 3.0 * agg["wilks_se"]
            hi = p + 3.0 * agg["wilks_se"]
            checks.append(("wilks_mean_3se", lo <= agg["wilks_mean"] <= hi))
            checks.append(("wilks_ks", agg["wilks_ks"] <= 0.06))
        else:
            checks.append(("wilks_mean_band", 0.7 * p <= agg["wilks_mean"] <= 1.3 * p))
            checks.append(("wilks_ks", agg["wilks_ks"] <= 0.15))
            checks.append((
                "fisher_residual_final",
                agg[f"fisher_median_{K}"] <= 0.5 * agg["xi_norm_median"],
            ))
    else:
        rate = agg["nu_hat_median"]
        converged = agg["dist_final_median"] <= 100.0 * rep.meta["solver_tolerance"]
        # a NaN rate is the fit sentinel for decay too fast to fit; accept it
        # only when the runs actually reached the solver floor
        rate_ok = (math.isfinite(rate) and rate <= agg["nu"] + 0.1) or (
            not math.isfinite(rate) and converged
        )
        checks.append(("contraction_rate", rate_ok))
    return checks


def cmd_experiment(args):
    cfg = experiment_config(args, args.command)
    kind = args.experiment
    rep = run_wilks_fisher(cfg) if kind == "wilks" else run_me_convergence(cfg)
    outdir = args.out or "."
    rep.write(outdir)
    for key in sorted(rep.meta):
        print(f"meta {key} = {rep.meta[key]!r}")
    for key in ("wilks_mean", "wilks_ks", "nu", "nu_hat_median", "monotone_violations",
                "dist_final_max", "n_ok", "n_failed"):
        if key in rep.aggregates:
            print(f"{key} = {rep.aggregates[key]!r}")
    print(f"wrote {os.path.join(outdir, 'records.csv')} and summary.kv")
    return _experiment_checks(kind, cfg, rep)


def cmd_bounds(args):
    values, radii = compute_bound_report(bounds_inputs(args.config))
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    write_kv(os.path.join(outdir, "bounds_report.kv"), values.items())
    write_kv_csv(os.path.join(outdir, "bounds_report.csv"), values.items())
    refined, star = radii["r_k_refined"], radii["r_star_k"]
    write_csv(os.path.join(outdir, "bounds_radii.csv"), ("k", *radii), (
        (k, r, "" if refined is None else refined[k], star[k] if k < len(star) else "")
        for k, r in enumerate(radii["r_k"])
    ))
    for key, val in values.items():
        print(f"{key} = {val!r}")
    nonneg = all(values[key] >= 0.0 for key in (
        "z_quad", "z0_sq", "z_x", "K0", "R0", "spread_Q", "spread_semi",
        "spread_semi_plain", "kappa"))
    checks = [
        ("r_k_nonincreasing", bool(np.all(np.diff(np.array(radii["r_k"])) <= 1e-12))),
        ("quantiles_nonnegative", nonneg),
    ]
    if star:
        checks.append(("r_star_tail_small", star[-1] <= star[0] + 1e-12))
    return checks


def cmd_sweep(args):
    rep = run_dimension_sweep(experiment_config(args, args.command))
    rep.write(args.out or ".")
    for row in rep.records:
        print(
            f"cell m={row['m']} n={row['n']}: wilks_err_median={row['wilks_err_median']!r} "
            f"fisher_median={row['fisher_median']!r}"
        )
    for key in sorted(rep.aggregates):
        print(f"{key} = {rep.aggregates[key]!r}")
    return [(key, bool(val)) for key, val in rep.aggregates.items()]


COMMANDS = {
    "toy": ("toy experiments", cmd_experiment),
    "single-index": ("single-index experiments", cmd_experiment),
    "bounds": ("finite-sample bound report", cmd_bounds),
    "sweep": ("dimension sweep", cmd_sweep),
}


THREADS_HELP = ("worker processes for the replications (default 1; forked where the "
                "platform can); records are byte-identical at any count")


def build_parser():
    ap = argparse.ArgumentParser(prog="altmax", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, command) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kind in (("--config", str), ("--seed", int), ("--out", str),
                           ("--reps", int), ("--threads", int)):
            if name != "bounds" or flag in ("--config", "--out"):
                sp.add_argument(flag, type=kind, default=None,
                                help=THREADS_HELP if flag == "--threads" else None)
        if command is cmd_experiment:
            sp.add_argument("--experiment", choices=("wilks", "me"), default="wilks")
        sp.add_argument("--assert", dest="do_assert", action="store_true")
    return ap


def main(argv=None):
    """Run one subcommand; with --assert, print its checks and exit 1 if one fails.
    A config that the subcommand rejects raises ConfigError."""
    args = build_parser().parse_args(argv)
    checks = COMMANDS[args.command][1](args)
    if not args.do_assert:
        return 0
    print("\n".join(f"check {name}: {'PASS' if ok else 'FAIL'}" for name, ok in checks))
    return 0 if all(ok for _, ok in checks) else 1


def console(argv=None):
    """The `altmax` command: `main`, with a rejected config reported as one
    stderr line and exit status 2, argparse's status for a bad flag.  An
    error raised during a run keeps its traceback."""
    try:
        return main(argv)
    except ConfigError as exc:
        print(f"altmax {exc.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console())
