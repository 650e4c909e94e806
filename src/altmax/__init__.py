"""Alternating maximization for semiparametric profile M-estimation."""

from .statcore import (
    BlockInformation,
    CouplingError,
    EfficientScore,
    NotSPDError,
    ParameterPoint,
    coupling_norm,
    efficient_information,
    efficient_score,
    sqrt_spd,
)
from .modelapi import Model, ModelDomainError
from .alternation import (
    AlternatingTrace,
    AlternationConfig,
    MonotoneViolationError,
    ProfileEstimateError,
    SolverError,
    TraceRecord,
    eta_update,
    fisher_residual,
    profile_estimate,
    run,
    theta_update,
    wilks_statistic,
)
from . import bounds, harness, singleindex, toy, wavelet
