"""Workload definitions and the layer-to-metric predictions of the benchmark.

This module imports nothing from numpy or altmax, so a trial process can
start its clock before `import altmax`.  Each workload maps a seed to the
keyword arguments of `altmax.harness.ExperimentConfig` (plus the
`probe_delta` arguments for `si_probe`); the program receives nothing else.
"""

# Replication counts are sized so that one 1-worker trial takes 2-4 s on a
# 2-core machine: a run repeats trials for --seconds and reports medians, and
# several trials per run let the median set aside a trial that hit a short
# fast or slow phase of the machine.
WORKLOADS = {
    "toy_wilks": {
        "default_seed": 101,
        "kind": "wilks_fisher",
        "config": {"family": "toy", "reps": 150, "z_target": 1e-4},
        "hot_fn": "alternation.fisher_residual",
    },
    "si_wilks": {
        "default_seed": 11,
        "kind": "wilks_fisher",
        "config": {"family": "single-index", "reps": 6},
        "hot_fn": "singleindex.grid_init",
        # every other trial also runs at threads=2 (wall_s_2w); the other
        # workloads skip it, so that their runs hold twice the 1-worker trials
        "two_workers": True,
    },
    "si_probe": {
        "default_seed": 5,
        "kind": "probe_delta",
        "config": {"family": "single-index", "reps": 1, "si_n": 1000, "si_m": 3,
                   "si_eta_star": (1.0, -0.8, 0.9), "si_sigma": 0.5},
        "probe": {"r_grid": (0.4, 1.2), "R": 1, "n_points": 4},
        "hot_fn": "singleindex.grid_init",
    },
    "si_sphere": {
        "default_seed": 11,
        "kind": "wilks_fisher",
        # one replication (about 2 s) keeps several trials in a run; eta_star
        # cycles the acceptance link coefficients, as the dimension sweep does
        # for m larger than the coefficient list
        "config": {"family": "single-index", "reps": 1, "si_m": 20,
                   "si_constrain": True,
                   "si_eta_star": tuple(
                       (1.0, -0.8, 0.9, -0.7, 0.6, 0.8)[k % 6] for k in range(20)
                   )},
        "hot_fn": "singleindex.theta_step",
    },
}

ALL = tuple(WORKLOADS)
SI = ("si_wilks", "si_probe", "si_sphere")

def replications(name):
    """Replications one trial attempts (datasets for si_probe)."""
    w = WORKLOADS[name]
    if w["kind"] == "probe_delta":
        p = w["probe"]
        return len(p["r_grid"]) * p["n_points"] * p["R"]
    return w["config"]["reps"]


def config_kwargs(name, seed, workers):
    kw = dict(WORKLOADS[name]["config"])
    kw["master_seed"] = seed
    kw["threads"] = workers
    return kw


# Layer-to-metric predictions: which end-to-end metric a change behind each
# per-layer metric should move, on which workload, and where it should not.
# `on` also drives the exact-count self-check: every `.calls` count listed in
# a row must be nonzero on every workload of its `on` list.
PREDICTIONS = [
    {"metrics": ["statcore.efficient_information.calls", "statcore.sqrt_spd.calls",
                 "statcore.coupling_norm.calls", "statcore.efficient_score.s",
                 "alternation.fisher_residual.calls", "alternation.fisher_residual.s"],
     "moves": ["reps_per_s", "wall_s"], "on": ["toy_wilks"], "not_on": list(SI)},
    {"metrics": ["alternation.run.calls", "alternation.run.s", "alternation.run.self_s",
                 "alternation.steps", "alternation.stop.max_steps",
                 "alternation.stop.stationary", "alternation.eta_update.calls",
                 "alternation.theta_update.calls"],
     "moves": ["reps_per_s"], "on": ["toy_wilks"], "not_on": ["si_wilks", "si_probe"]},
    {"metrics": ["modelapi.evaluate.calls", "modelapi.evaluate.s",
                 "modelapi.gradient.calls", "modelapi.eta_argmax.calls",
                 "modelapi.theta_argmax.calls", "modelapi.theta_argmax.s"],
     "moves": ["reps_per_s"], "on": ["si_sphere"], "not_on": ["toy_wilks"]},
    {"metrics": ["modelapi.hessian.calls", "modelapi.hessian.s"],
     "moves": ["reps_per_s"], "on": ["si_probe"], "not_on": ["toy_wilks"]},
    {"metrics": ["singleindex.grid_init.calls", "singleindex.grid_init.s",
                 "singleindex.grid_init.points",
                 "singleindex.eta_step_closed_form.calls",
                 "singleindex.eta_step_closed_form.s"],
     "moves": ["reps_per_s", "setup_s"], "on": ["si_wilks", "si_probe"],
     "not_on": ["toy_wilks"]},
    {"metrics": ["singleindex.grid_init.useful_ratio"],
     "moves": ["wall_s"], "on": ["si_probe"], "not_on": ["si_wilks"]},
    {"metrics": ["singleindex.theta_step.calls", "singleindex.theta_step.s"],
     "moves": ["reps_per_s"], "on": ["si_sphere"], "not_on": ["si_wilks"]},
    {"metrics": ["singleindex.generate.calls", "singleindex.generate.s"],
     "moves": ["reps_per_s"], "on": ["si_probe"], "not_on": []},
    {"metrics": ["toy.simulate.calls", "toy.simulate.s"],
     "moves": ["reps_per_s"], "on": ["toy_wilks"], "not_on": []},
    {"metrics": ["singleindex.information_at_truth.s", "wavelet.wavelet_tables.s",
                 "bounds.calls", "bounds.s", "harness.build_context.s"],
     "moves": ["setup_s"], "on": list(SI), "not_on": ["toy_wilks"]},
    {"metrics": ["wavelet.design.calls", "wavelet.design.rows", "wavelet.design.s",
                 "wavelet.ddesign.calls", "wavelet.ddesign.rows", "wavelet.ddesign.s",
                 "wavelet.d2design.calls", "wavelet.d2design.rows",
                 "wavelet.d2design.s"],
     "moves": ["reps_per_s"], "on": list(SI), "not_on": ["toy_wilks"]},
    {"metrics": ["harness.aggregate_wilks_fisher.s", "harness.report_write.s"],
     "moves": ["wall_s"], "on": ["toy_wilks"], "not_on": []},
]


def expected_calls(name):
    """`.calls` counts the predictions require to be nonzero on a workload."""
    return sorted({m for row in PREDICTIONS if name in row["on"]
                   for m in row["metrics"] if m.endswith(".calls")})
