"""Block-coordinate (alternating) maximization engine.

From a start (theta_0, eta_0) the engine repeats: maximize over eta at the
current theta, then over theta at the new eta.  Both steps are the model's
own partial maximizers, `eta_argmax` and `theta_argmax`, which every model
provides.  Iterates are indexed so that point_kk = (theta_k, eta_k) with
theta_k the fresh theta-maximizer, and point_kk1 = (theta_k, eta_{k+1}); the
functional is non-decreasing along the interleaved sequence up to the
inner-solver tolerance, which is enforced.  A run stops as "stationary" at
the first step that moves by less than the solver tolerance, or as
"max_steps" after max_steps steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._files import write_csv
from .modelapi import Model
from .statcore import BlockInformation, EfficientScore, ParameterPoint


class SolverError(RuntimeError):
    """An inner partial maximizer failed."""


class MonotoneViolationError(RuntimeError):
    """A partial-maximization step decreased L beyond 10x the solver tolerance."""


class ProfileEstimateError(RuntimeError):
    """The profile run did not become stationary."""


@dataclass(frozen=True, eq=False)
class AlternationConfig:
    max_steps: int = 30
    solver_tolerance: float = 1e-9
    norm_matrix: np.ndarray | None = None  # multiplied before the Euclidean norm

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps K >= 1 required")
        if not 0 < self.solver_tolerance < math.inf:  # NaN fails both comparisons
            raise ValueError("solver_tolerance must be finite and > 0")

    def weighted_norm(self, v):
        """||norm_matrix @ v||, or ||v|| without a norm matrix, for a vector v."""
        if self.norm_matrix is not None:
            v = self.norm_matrix @ v
        return _norm(v)


class TraceRecord(NamedTuple):
    k: int
    point_kk: ParameterPoint
    point_kk1: ParameterPoint
    L_kk: float
    L_kk1: float
    step_norm: float  # ||D (u_kk - u_{k-1,k-1})||; nan at k = 0


class AlternatingTrace:
    """The records of a run, one per step, and why it stopped."""

    def __init__(self, records=None, stop_reason="max_steps"):
        self.records = [] if records is None else records
        self.stop_reason = stop_reason  # max_steps | stationary

    def final(self) -> ParameterPoint:
        return self.records[-1].point_kk

    def interleaved_values(self):
        """L(u_{0,1}), L(u_{1,1}), L(u_{1,2}), ... (monotone up to tolerance)."""
        out = []
        for rec in self.records:
            if rec.k > 0:
                out.append(rec.L_kk)
            out.append(rec.L_kk1)
        return out

    def monotone_defect(self):
        vals = self.interleaved_values()
        worst = 0.0
        for a, b in zip(vals[:-1], vals[1:]):
            worst = max(worst, a - b)
        return worst

    def to_csv(self, path):
        point = self.records[0].point_kk
        header = ("k", *(f"theta_{i}" for i in range(point.p)),
                  *(f"eta_{i}" for i in range(point.m)), "L_kk", "L_kk1", "step_norm")
        write_csv(path, header, (
            (rec.k, *rec.point_kk.theta.tolist(), *rec.point_kk.eta.tolist(),
             rec.L_kk, rec.L_kk1, rec.step_norm)
            for rec in self.records
        ))


def _norm(v):
    """np.linalg.norm(v) of a contiguous float vector, bit for bit: the root of
    its dot with itself, inf where that overflows."""
    return math.sqrt(float(v.dot(v)))


def eta_update(model: Model, theta):
    """argmax over eta of L(theta, .): the model's eta step."""
    return np.asarray(model.eta_argmax(theta), dtype=float)


def theta_update(model: Model, eta, theta_init=None):
    """argmax over theta of L(., eta): the model's theta step from theta_init."""
    return np.asarray(model.theta_argmax(eta, theta_init=theta_init), dtype=float)


def _check_rise(update, before, after, slack, k):
    """Raise MonotoneViolationError where `update` lowered L by more than slack."""
    if after < before - slack:
        raise MonotoneViolationError(
            f"{update}-update decreased L by {before - after:.3e} (> {slack:.1e}) at k={k}"
        )


def run(model: Model, start: ParameterPoint, cfg: AlternationConfig) -> AlternatingTrace:
    """Run the alternation from `start` and capture the trace."""
    trace = AlternatingTrace()
    L0 = model.evaluate(start)  # a point is immutable, so the trace keeps start itself
    point01 = ParameterPoint(start.theta, eta_update(model, start.theta))
    L01 = model.evaluate(point01)
    slack = 10.0 * cfg.solver_tolerance
    _check_rise("eta", L0, L01, slack, 0)
    trace.records.append(TraceRecord(0, start, point01, L0, L01, float("nan")))
    prev_point = start
    prev_L = L01
    for k in range(1, cfg.max_steps + 1):
        eta_k = trace.records[-1].point_kk1.eta
        theta_k = theta_update(model, eta_k, theta_init=prev_point.theta)
        point_kk = ParameterPoint(theta_k, eta_k)
        L_kk = model.evaluate(point_kk)
        _check_rise("theta", prev_L, L_kk, slack, k)
        point_kk1 = ParameterPoint(theta_k, eta_update(model, theta_k))
        L_kk1 = model.evaluate(point_kk1)
        _check_rise("eta", L_kk, L_kk1, slack, k)
        step = cfg.weighted_norm(point_kk.as_vector() - prev_point.as_vector())
        trace.records.append(TraceRecord(k, point_kk, point_kk1, L_kk, L_kk1, step))
        prev_point = point_kk
        prev_L = L_kk1
        if step < cfg.solver_tolerance:
            trace.stop_reason = "stationary"
            return trace
    return trace


def profile_estimate(model: Model, cfg: AlternationConfig, start=None):
    """Joint maximizer: the alternation from `start` (None: the model's default
    start) run to stationarity, for at least 200 steps.

    Returns (point, trace).  Raises ProfileEstimateError when the run raises
    or stops at max_steps without becoming stationary.
    """
    if start is None:
        start = model.default_start()
    # a failed ME replication records this text in records.csv, "start 0" and all
    failed = "no start became stationary: start 0 failed"
    try:
        trace = run(model, start, replace(cfg, max_steps=max(cfg.max_steps, 200)))
    except (SolverError, MonotoneViolationError) as exc:
        raise ProfileEstimateError(f"{failed}: {exc}") from exc
    if trace.stop_reason != "stationary":
        steps = len(trace.records) - 1
        raise ProfileEstimateError(f"{failed}: not stationary after {steps} steps")
    return trace.final(), trace


def wilks_statistic(model: Model, theta_k, theta_star):
    """2 (max_eta L(theta_k, .) - max_eta L(theta_star, .))."""
    th_k = np.atleast_1d(np.asarray(theta_k, dtype=float))
    th_s = np.atleast_1d(np.asarray(theta_star, dtype=float))
    Lk = model.evaluate(ParameterPoint(th_k, eta_update(model, th_k)))
    Ls = model.evaluate(ParameterPoint(th_s, eta_update(model, th_s)))
    return 2.0 * (Lk - Ls)


def fisher_residual(info: BlockInformation, score: EfficientScore, theta_k, theta_star):
    """|| Deff (theta_k - theta_star) - xi || with Deff the SPD root of the
    efficient information."""
    th_k = np.atleast_1d(np.asarray(theta_k, dtype=float))
    th_s = np.atleast_1d(np.asarray(theta_star, dtype=float))
    if th_k.size != info.p or th_s.size != info.p:
        raise ValueError("theta dimensions do not match the information blocks")
    return _norm(info.efficient_root @ (th_k - th_s) - score.xi)
