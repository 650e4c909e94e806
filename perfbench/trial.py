"""One trial of one workload, in a fresh process.

    python3 perfbench/trial.py --src SRC --workload NAME --seed N --workers K
                               --trace 0|1 --out DIR
    python3 perfbench/trial.py --src SRC --env

Runs the workload through the public harness API (`run_wilks_fisher` or
`probe_delta`, then `ExperimentReport.write` into DIR) and prints one JSON
line: wall time from before `import altmax` to the report written, set-up time
(the import plus the `harness.build_context` call, timed at its boundary),
peak resident memory, and replications attempted and failed.  With --trace 1
it also installs the outside-in tracer, writes DIR/spans.csv and adds the
per-layer metrics.  --env prints the interpreter, numpy, scipy and BLAS
versions instead.

The line also carries `cal_s`, the median time of a fixed pure-Python loop
timed CAL_SAMPLES times before the clock starts and CAL_SAMPLES times after
it stops.  A shared host changes speed within minutes, and a process that
runs the loop slowly runs the workload slowly too; run.py divides by `cal_s`
to take that out of the end-to-end metrics.
"""

import time

CAL_LOOP = 100_000   # iterations of one calibration sample, about 10 ms
CAL_SAMPLES = 20     # samples before and again after the timed work


def calibrate():
    """Times of CAL_SAMPLES runs of a fixed loop that touches no memory."""
    times = []
    for _ in range(CAL_SAMPLES):
        t = time.perf_counter()
        s = 0
        for i in range(CAL_LOOP):
            s += i * i
        times.append(time.perf_counter() - t)
    return times


CAL_BEFORE = calibrate()
T0 = time.perf_counter()  # before `import altmax`, which also imports numpy

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402  (the script's own directory is on sys.path)


def environment(altmax):
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "altmax_file": altmax.__file__,
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run(args):
    import altmax
    from altmax import harness

    if not os.path.abspath(altmax.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise RuntimeError(f"altmax imported from {altmax.__file__}, not from {args.src}")
    import_s = time.perf_counter() - T0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    build_s = []
    build_context = harness.build_context

    def timed_build_context(cfg):
        t = time.perf_counter()
        try:
            return build_context(cfg)
        finally:
            build_s.append(time.perf_counter() - t)

    harness.build_context = timed_build_context

    w = workloads.WORKLOADS[args.workload]
    cfg = harness.ExperimentConfig(
        **workloads.config_kwargs(args.workload, args.seed, args.workers)
    )
    attempted = workloads.replications(args.workload)
    if w["kind"] == "wilks_fisher":
        report = harness.run_wilks_fisher(cfg)
        failed = sum(1 for r in report.records if r.get("status") != "ok")
    else:
        p = w["probe"]
        out = harness.probe_delta(cfg, p["r_grid"], R=p["R"], n_points=p["n_points"],
                                  seed=args.seed)
        records = [{"rep": i, "status": "ok" if math.isfinite(d) else "failed",
                    "radius": r, "delta_hat": d} for i, (r, d) in enumerate(out.items())]
        bad = sum(1 for r in records if r["status"] != "ok")
        failed = bad * p["R"] * p["n_points"]
        report = harness.ExperimentReport(
            "probe_delta", records, {},
            {"seed": args.seed, "threads": args.workers, "R": p["R"],
             "n_points": p["n_points"]},
        )
    report.write(args.out)
    wall_s = time.perf_counter() - T0
    result = {
        "wall_s": wall_s,
        "import_s": import_s,
        "build_context_s": build_s[0],
        "setup_s": import_s + build_s[0],
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        tracer.write_spans(os.path.join(args.out, "spans.csv"))
        result["layers"] = tracer.metrics()
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--env", action="store_true")
    ap.add_argument("--workload", choices=workloads.ALL)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    if args.env:
        import altmax

        print(json.dumps(environment(altmax)))
        return 0
    try:
        result = run(args)
        cal = sorted(CAL_BEFORE + calibrate())
        result["cal_s"] = (cal[len(cal) // 2 - 1] + cal[len(cal) // 2]) / 2
    except Exception as exc:  # a raising run counts every replication as failed
        traceback.print_exc()
        result = {"error": f"{type(exc).__name__}: {exc}",
                  "attempted": workloads.replications(args.workload),
                  "failed": workloads.replications(args.workload)}
        print(json.dumps(result))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
