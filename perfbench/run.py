"""The altmax benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each trial is a fresh process
(perfbench/trial.py) that imports altmax from ./src and runs one workload
through the public harness API; workloads run one at a time, closed loop.

Every trial of a run uses the run's seed, so a run times one fixed piece of
work however many trials fit.  --trace 0 repeats 1-worker trials for
--seconds.  On si_wilks every other trial also runs the workload at 2
workers; the two records.csv files must be byte-identical.  It reports the
end-to-end metrics as medians over the trials, at reference machine speed:
each trial's times are scaled by CAL_REF_S over the time that trial's
process took for a fixed calibration loop (trial.py: calibrate).  The
measured times are printed beside them.

--trace 1 repeats pairs of an untraced and a traced 1-worker trial on one
seed.  It reports the per-layer metrics, and the tracing overhead as traced
minus untraced wall time.  Traced records must equal untraced ones.  The
per-layer counts must repeat exactly across traced trials, and every count
that perfbench/workloads.py predicts on the workload must be nonzero.

At a workload's default seed the first 1-worker records are also compared
with perfbench/reference/<workload>/records.csv: every number must agree to
REFERENCE_RTOL relative to its size (plus REFERENCE_ATOL).  The records of
every later trial must be byte-identical to the first trial's.  Without
--workload every workload runs at its default seed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; BENCHMARK.json names the metrics.  The exit
code is 0 when every check passes, 1 when a check fails, and 2 when the
benchmark cannot run (no ./src/altmax, bad arguments).
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # the script's own directory is on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

# |x - y| <= REFERENCE_RTOL * max(|x|, |y|) + REFERENCE_ATOL for every number
# against the reference; outputs are deterministic with one BLAS thread.
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-20    # the smallest reference number is about 4e-11
RUN_LIMIT_S = 170.0       # no child may outlive this, counted from the start of a run
MAX_SECONDS = 120         # longest --seconds whose trials RUN_LIMIT_S still covers
MIN_TRACED_TRIALS = 2     # count repeatability needs two traced trials
# One calibration sample (trial.py: calibrate): the median over 332 trial
# processes on a 2-core Xeon VM at 2.1 GHz.  The host's speed moves by a
# quarter within minutes, and a process that runs the calibration loop slowly
# runs the workload slowly too; end-to-end times are reported as measured
# time x CAL_REF_S / the process's cal_s.
CAL_REF_S = 0.0095
# BLAS runs single-threaded so that a 2-worker trial uses 2 threads, not
# 2 x nproc; results are then also independent of the machine's core count.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result printed)."""


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    env.update(BLAS_ENV)
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "altmax").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment():
    try:
        out = subprocess.run(
            [sys.executable, str(HERE / "trial.py"), "--src", str(SRC), "--env"],
            capture_output=True, text=True, env=child_env(), timeout=120,
        )
        env = json.loads(out.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        raise BenchError(f"cannot import altmax from {SRC}: {exc}") from exc
    env.update({
        "nproc": nproc(),
        "git_commit": git_commit(),
        "source_sha256_16": source_digest(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas_threads_env_children": BLAS_ENV,
    })
    return env


class Run:
    """Trials of one workload at one seed; collects results and check outcomes."""

    def __init__(self, name, seed, trace, env):
        self.name, self.seed, self.trace, self.env = name, seed, trace, env
        self.out = OUT / name / f"seed{seed}-trace{trace}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.t_start = time.monotonic()
        self.results = []   # every child's result dict, with its trial key added
        self.checks = []    # (ok, message)
        self.attempted = 0
        self.failed = 0

    def check(self, ok, message):
        self.checks.append((bool(ok), message))
        print(("ok    " if ok else "FAIL  ") + message, file=sys.stderr)
        return ok

    @property
    def correct(self):
        return all(ok for ok, _ in self.checks)

    def child(self, key, seed, workers, trace):
        outdir = self.out / key
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.t_start))
        cmd = [sys.executable, str(HERE / "trial.py"), "--src", str(SRC),
               "--workload", self.name, "--seed", str(seed), "--workers", str(workers),
               "--trace", str(trace), "--out", str(outdir)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=child_env(), timeout=timeout)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 and "error" not in res:
                res["error"] = f"exit code {proc.returncode}"
        except subprocess.TimeoutExpired:
            res = {"error": f"timed out after {timeout:.0f} s"}
        except (ValueError, IndexError):
            res = {"error": "no result: " + proc.stderr.strip()[-2000:]}
        reps = workloads.replications(self.name)
        res.setdefault("attempted", reps)
        res.setdefault("failed", reps)
        res.update(key=key, seed=seed, workers=workers, trace=trace, dir=str(outdir))
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.results.append(res)
        if not self.check("error" not in res, f"{key}: trial ran"
                          + (f" ({res.get('error')})" if "error" in res else "")):
            raise RunAborted()
        return res

    def room_for(self, seconds, durations):
        """True while another trial as long as the longest so far ends in time."""
        return time.monotonic() - self.t_start + max(durations) <= seconds


class RunAborted(Exception):
    pass


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def read_records(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def reference_diff(path, ref_path):
    """Largest (absolute, relative, tolerance-scaled) difference between two
    records.csv files.

    Cells that parse as numbers are compared numerically (NaN equals NaN);
    the scaled difference is |x - y| / (REFERENCE_RTOL * max(|x|, |y|) +
    REFERENCE_ATOL), so more than 1 fails.  Other cells, the header and the
    row count must match exactly, else every difference is infinite.
    """
    head, rows = read_records(path)
    ref_head, ref_rows = read_records(ref_path)
    mismatch = (math.inf,) * 3
    if head != ref_head or len(rows) != len(ref_rows):
        return mismatch
    worst_abs = worst_rel = worst_scaled = 0.0
    for row, ref in zip(rows, ref_rows):
        if len(row) != len(ref):
            return mismatch
        for a, b in zip(row, ref):
            try:
                x, y = float(a), float(b)
            except ValueError:
                if a != b:
                    return mismatch
                continue
            if math.isnan(x) and math.isnan(y) or x == y:
                continue
            d, size = abs(x - y), max(abs(x), abs(y))
            worst_abs = max(worst_abs, d)
            worst_rel = max(worst_rel, d / size)
            worst_scaled = max(worst_scaled, d / (REFERENCE_RTOL * size + REFERENCE_ATOL))
    return worst_abs, worst_rel, worst_scaled


def check_records(run, res):
    """Every replication has a row and every number in it is finite, except
    the NaN that fit_contraction returns when too few steps remain to fit."""
    head, rows = read_records(Path(res["dir"]) / "records.csv")
    w = workloads.WORKLOADS[run.name]
    expected = (len(w["probe"]["r_grid"]) if w["kind"] == "probe_delta"
                else w["config"]["reps"])
    bad = sorted({col for row in rows for col, c in zip(head, row)
                  if c and c[0] not in "'\""
                  and not (math.isfinite(float(c)) or col == "nu_hat" and c == "nan")})
    run.check(len(rows) == expected and not bad,
              f"{res['key']}: {len(rows)} records of {expected}, numbers finite"
              + (f" (not in: {', '.join(bad)})" if bad else ""))


def check_identical(run, a, b, what):
    same = (Path(a["dir"]) / "records.csv").read_bytes() == \
        (Path(b["dir"]) / "records.csv").read_bytes()
    run.check(same, f"{b['key']}: records.csv byte-identical to {a['key']} ({what})")


def check_reference(run, res):
    ref = REFERENCE / run.name / "records.csv"
    if not ref.is_file():
        run.check(False, f"reference {ref.relative_to(ROOT)} exists")
        return
    d_abs, d_rel, scaled = reference_diff(Path(res["dir"]) / "records.csv", ref)
    run.check(scaled <= 1.0,
              f"{res['key']}: against the reference, largest absolute difference "
              f"{d_abs:.3g}, largest relative difference {d_rel:.3g} (tolerance "
              f"{REFERENCE_RTOL:g} relative + {REFERENCE_ATOL:g} absolute)")


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def run_trials(run, seconds, at_default):
    """Repeat trials on the run's seed until another would end after `seconds`.

    Untraced, a trial runs 1 worker, and on a workload marked `two_workers`
    every other trial (the first included) then runs 2 workers; traced, a
    trial runs an untraced and a traced 1-worker process.
    The second process of a trial must reproduce the first one's records, and
    every trial the first trial's.
    """
    workers2 = min(2, nproc())
    two_workers = workloads.WORKLOADS[run.name].get("two_workers", False)
    durations = []
    i = 0
    while True:
        t = time.monotonic()
        first = run.child(f"trial{i}-plain" if run.trace else f"trial{i}-w1",
                          run.seed, 1, 0)
        check_records(run, first)
        if i == 0:
            trial0 = first
            if at_default:
                check_reference(run, first)
        else:
            check_identical(run, trial0, first, "same seed in another process")
        if run.trace:
            second = run.child(f"trial{i}-traced", run.seed, 1, 1)
            check_identical(run, first, second, "traced against untraced")
        elif two_workers and i % 2 == 0:
            second = run.child(f"trial{i}-w{workers2}", run.seed, workers2, 0)
            check_identical(run, first, second, f"{workers2} workers against 1")
        durations.append(time.monotonic() - t)
        i += 1
        if i >= (MIN_TRACED_TRIALS if run.trace else 1) and \
                not run.room_for(seconds, durations):
            return


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else math.nan


def at_ref_speed(r, key):
    return r[key] * CAL_REF_S / r["cal_s"]


def end_to_end(run):
    """Per-trial samples of each end-to-end metric; the metric is their median.

    Times are at reference speed; `measured.*` are the same times as measured.
    """
    ok = [r for r in run.results if "wall_s" in r]
    one = [r for r in ok if r["workers"] == 1]
    two = [r for r in ok if r["workers"] != 1]
    return {
        "wall_s": [at_ref_speed(r, "wall_s") for r in one],
        "setup_s": [at_ref_speed(r, "setup_s") for r in ok],
        "reps_per_s": [r["attempted"] / (at_ref_speed(r, "wall_s") - at_ref_speed(r, "setup_s"))
                       for r in one],
        "peak_rss_mb": [r["peak_rss_mb"] for r in one],
        "wall_s_2w": [at_ref_speed(r, "wall_s") for r in two],
        "measured.wall_s": [r["wall_s"] for r in one],
        "measured.setup_s": [r["setup_s"] for r in ok],
        "measured.wall_s_2w": [r["wall_s"] for r in two],
        "cal_s": [r["cal_s"] for r in ok],
    }


def per_layer(run):
    traced = [r for r in run.results if r["trace"] == 1 and "layers" in r]
    plain = [r for r in run.results if r["trace"] == 0 and "wall_s" in r]
    first = traced[0]["layers"]
    counts = {k: v for k, v in first.items()
              if not (k.endswith(".s") or k.endswith("_s") or k.endswith("_ratio"))}
    for r in traced[1:]:
        diff = sorted(k for k in counts if r["layers"].get(k) != counts[k])
        run.check(not diff, f"{r['key']}: per-layer counts equal to {traced[0]['key']}"
                  + (f" (differ: {', '.join(diff[:8])})" if diff else ""))
    zero = [m[:-len(".calls")] for m in workloads.expected_calls(run.name)
            if not first.get(m)]
    run.check(not zero, "every count the predictions expect on this workload is nonzero"
              + (f" (zero: {', '.join(zero)})" if zero else ""))
    out = dict(counts)
    for k in first:
        if k not in counts:
            out[k] = median([r["layers"][k] for r in traced])
    hot = workloads.WORKLOADS[run.name]["hot_fn"] + ".after_setup_s"
    traced_wall = median([at_ref_speed(r, "wall_s") for r in traced])
    out["hot_fn.s"] = out[hot]
    out["hot_fn.share"] = median([r["layers"][hot] / (r["wall_s"] - r["setup_s"])
                                  for r in traced])
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - median([at_ref_speed(r, "wall_s") for r in plain])
    return out


def spread(values):
    if len(values) < 2:
        return ""
    q = statistics.quantiles(values, n=4)
    return f" (q1 {q[0]:.4g}, q3 {q[2]:.4g}, n={len(values)})"


def report(run, spec, values, samples):
    """Human-readable lines on stdout; returns the result for the JSON line."""
    env = run.env
    print(f"workload {run.name}  seed {run.seed}  trace {run.trace}  "
          f"trial processes {len(run.results)}")
    print("environment: " + json.dumps(env, sort_keys=True))
    metrics = {}
    for m in spec:
        v = values.get(m["name"], math.nan)
        metrics[m["name"]] = {"value": v if math.isfinite(v) else None, "unit": m["unit"]}
        if not run.trace:
            print(f"  {m['name']:<18} {v:.6g} {m['unit']}"
                  f"{spread(samples.get(m['name'], []))}")
    if not run.trace:
        # printed, not gated: see perfbench/README.md
        for name, unit in (("reps_per_s", "1/s"), ("wall_s_2w", "s"),
                           ("measured.wall_s", "s"), ("measured.setup_s", "s"),
                           ("measured.wall_s_2w", "s"), ("cal_s", "s")):
            v = samples.get(name, [])
            if v:
                print(f"  {name:<18} {median(v):.6g} {unit}{spread(v)}")
        frac = run.failed / run.attempted if run.attempted else 1.0
        print(f"  {'failed_frac':<18} {frac:.6g} ratio  "
              f"({run.failed} of {run.attempted} replications)")
    elif values:
        hot = workloads.WORKLOADS[run.name]["hot_fn"]
        print(f"  hot function {hot}: {values['hot_fn.share']:.1%} of the traced "
              f"time after set-up; tracing overhead {values['trace.overhead_s']:.3f} s")
        for k in sorted(values):
            if k.endswith(".calls") and values[k]:
                base = k[:-len(".calls")]
                print(f"  {base:<42} calls {values[k]:>9}  "
                      f"s {values.get(base + '.s', math.nan):9.4f}  "
                      f"self_s {values.get(base + '.self_s', math.nan):9.4f}")
    result = {"correct": run.correct, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    with open(run.out / "result.json", "w") as f:
        json.dump({"workload": run.name, "seed": run.seed, "trace": run.trace,
                   "environment": env, "checks": run.checks,
                   "trials": [{k: v for k, v in r.items() if k != "layers"}
                              for r in run.results],
                   "all_layer_metrics": values if run.trace else None,
                   **result}, f, indent=1, default=str)
    return result


def run_workload(name, seed, seconds, trace, env, spec):
    run = Run(name, seed, trace, env)
    at_default = seed == workloads.WORKLOADS[name]["default_seed"]
    try:
        run_trials(run, seconds, at_default)
    except RunAborted:
        pass
    samples = {}
    if trace:
        traced = any(r["trace"] == 1 and "error" not in r for r in run.results)
        values = per_layer(run) if traced else {}
    else:
        samples = end_to_end(run)
        values = {k: median(v) for k, v in samples.items()}
    missing = [m["name"] for m in spec
               if not math.isfinite(values.get(m["name"], math.nan))]
    run.check(not missing, "every metric was measured"
              + (f" (missing: {', '.join(missing)})" if missing else ""))
    return report(run, spec, values, samples)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.ALL,
                    help="one workload (default: every workload at its default seed)")
    ap.add_argument("--seed", type=int, help="workload seed (default: the acceptance seed)")
    ap.add_argument("--seconds", type=int, help="measuring time per run "
                    "(default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (SRC / "altmax" / "__init__.py").is_file():
            raise BenchError(f"no altmax sources under {SRC}")
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.seed is not None and args.seed < 0:
            raise BenchError("--seed must be >= 0")
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        if not 1 <= seconds <= MAX_SECONDS:
            raise BenchError(f"--seconds must be from 1 to {MAX_SECONDS}")
        env = environment()
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = [args.workload] if args.workload else list(workloads.ALL)
    results = {}
    for name in names:
        seed = args.seed if args.seed is not None else workloads.WORKLOADS[name]["default_seed"]
        results[name] = run_workload(name, seed, seconds, args.trace, env, spec)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
