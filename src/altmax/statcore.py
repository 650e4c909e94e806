"""Split-parameter data model and efficient-information algebra.

A semiparametric point is a pair (theta, eta) with dimensions (p, m).  The
local geometry around a reference point is carried by a symmetric block
matrix

    [[D2, A], [A.T, H2]]

whose theta-block Schur complement D2 - A H2^{-1} A.T is the efficient
information.  The squared spectral norm of D^{-1} A H^{-1} (D, H the SPD
square roots of the diagonal blocks) is the coupling coefficient `nu`; the
whole semiparametric calculus below is only defined when nu < 1.

All types are immutable after construction and all operations are pure, so
everything here is safe for concurrent use without coordination.  A point
and a BlockInformation are plain classes that set each field once, in
`__init__`: assigning or deleting one raises FrozenInstanceError, and `==`
and `hash` are identity, since the fields are arrays.  EfficientScore is a
named tuple.  A point holds one read-only vector (theta, eta), and theta and
eta are views of it.  The derived geometry of a BlockInformation (its SPD
check, the assembled matrix, the H2 Cholesky factor, the SPD root of the
efficient information and of the full matrix) is computed once per instance,
on first use, and kept read-only: the blocks cannot change, so it never goes
stale.  A failed computation raises and is not kept, so it raises again on
the next use.  A pickled or copied point or BlockInformation is rebuilt from
its fields, so its arrays are read-only too and its geometry is computed
afresh.  The H2 Cholesky factor and its solves are scipy.linalg's
`cho_factor` and `cho_solve`, called through `_lapack` on scipy's own
`_flapack` routines, with the same bits.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _lapack


class NotSPDError(ValueError):
    """A matrix that must be symmetric positive definite is not."""


class CouplingError(ValueError):
    """The coupling coefficient nu is >= 1; efficient quantities undefined."""


def _as_matrix(M, name):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {M.shape}")
    return M


def _symmetric(M, name):
    """M as a float matrix, checked square and symmetric to 1e-8 of its scale."""
    M = _as_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise NotSPDError(f"{name} must be square, got shape {M.shape}")
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-8 * (1.0 + np.abs(M).max())):
        raise NotSPDError(f"{name} is not symmetric")
    return M


def sqrt_spd(M):
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-tol, 0) are clipped to 0; an eigenvalue below -tol
    raises NotSPDError.  tol is 1e-10 times the largest eigenvalue magnitude
    (with an absolute floor of 1e-10 for near-zero matrices).
    """
    M = _symmetric(M, "matrix")
    if M.tobytes() != M.T.tobytes():
        # the average of an M that is symmetric bit for bit is M, but it can overflow
        M = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(M)
    scale = max(1.0, float(np.abs(w).max()))
    if w.min() < -1e-10 * scale:
        raise NotSPDError(
            f"matrix has eigenvalue {w.min():.6e} below -1e-10*scale; not PSD"
        )
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def _read_only(M):
    M.setflags(write=False)
    return M


def _check_spd(M, name):
    """Validate symmetry and strict positive definiteness; return min eigenvalue."""
    M = _symmetric(M, name)
    wmin = float(np.linalg.eigvalsh(M).min())
    if wmin <= 0.0:
        raise NotSPDError(f"{name} is not SPD: smallest eigenvalue {wmin:.6e}")
    return wmin


def _frozen(self, name, *value):
    """`__setattr__` and `__delattr__` of an immutable class, as a frozen dataclass's."""
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class ParameterPoint:
    """A split parameter upsilon = (theta, eta) of dimensions (p, m)."""

    __setattr__ = __delattr__ = _frozen

    def __init__(self, theta, eta):
        th = np.asarray(theta, dtype=float)
        et = np.asarray(eta, dtype=float)
        if th.ndim > 1 or et.ndim > 1:
            raise ValueError("theta and eta must be vectors")
        if th.size < 1 or et.size < 1:
            raise ValueError("p >= 1 and m >= 1 required")
        # one read-only copy of (theta, eta), a scalar as one entry; theta and
        # eta are views of it
        v = np.concatenate((th, et), axis=None)
        v.setflags(write=False)
        self.__dict__.update(_vector=v, theta=v[: th.size], eta=v[th.size :])

    def __reduce__(self):
        # rebuilt through __init__, so copies are read-only as well
        return type(self), (self.theta, self.eta)

    @property
    def p(self):
        return self.theta.size

    @property
    def m(self):
        return self.eta.size

    @property
    def p_star(self):
        return self._vector.size

    def as_vector(self):
        """The read-only vector (theta, eta) that theta and eta are views of."""
        return self._vector

    @staticmethod
    def from_vector(v, p):
        v = np.asarray(v, dtype=float).ravel()
        return ParameterPoint(v[:p], v[p:])


class BlockInformation:
    """Block matrix [[D2, A], [A.T, H2]] with SPD diagonal blocks."""

    __setattr__ = __delattr__ = _frozen

    def __init__(self, D2, A, H2):
        D2 = _as_matrix(D2, "D2").copy()
        A = _as_matrix(A, "A").copy()
        H2 = _as_matrix(H2, "H2").copy()
        if A.shape != (D2.shape[0], H2.shape[0]):
            raise ValueError(
                f"A must be p x m = {D2.shape[0]} x {H2.shape[0]}, got {A.shape}"
            )
        for M in (D2, A, H2):
            M.setflags(write=False)
        self.__dict__.update(D2=D2, A=A, H2=H2)

    def __reduce__(self):
        # rebuilt from the blocks: read-only again, with no cached geometry
        return type(self), (self.D2, self.A, self.H2)

    @property
    def p(self):
        return self.D2.shape[0]

    @property
    def m(self):
        return self.H2.shape[0]

    @cached_property
    def _min_eigenvalues(self):
        return _check_spd(self.D2, "D2"), _check_spd(self.H2, "H2")

    def validate(self):
        self._min_eigenvalues  # raises NotSPDError until the check passes
        return self

    @cached_property
    def full(self):
        """Assembled (p+m) x (p+m) block matrix, read-only."""
        top = np.hstack([self.D2, self.A])
        bot = np.hstack([self.A.T, self.H2])
        return _read_only(np.vstack([top, bot]))

    @cached_property
    def full_sqrt(self):
        """SPD root of the assembled matrix, read-only."""
        return _read_only(sqrt_spd(self.full))

    @cached_property
    def h2_cho_factor(self):
        """`cho_factor(H2)`, for `cho_solve` against H2."""
        c, low = _lapack.cho_factor(self.H2)
        return _read_only(c), low

    @cached_property
    def efficient_root(self):
        """SPD root of the efficient information; raises CouplingError if nu >= 1."""
        return _read_only(sqrt_spd(efficient_information(self)))


class EfficientScore(NamedTuple):
    """Projected gradient and its standardization xi = inv(sqrt(D2_eff)) @ breve_grad."""

    breve_grad: np.ndarray
    xi: np.ndarray


def coupling_norm(blocks: BlockInformation) -> float:
    """Coupling coefficient nu = ||D^{-1} A H^{-1}||^2 (squared spectral norm).

    D, H are the SPD square roots of the diagonal blocks.  nu >= 1 is allowed
    here (diagnostic output); downstream efficient-* operations reject it.
    """
    blocks.validate()
    D = sqrt_spd(blocks.D2)
    H = sqrt_spd(blocks.H2)
    K = np.linalg.solve(D, np.linalg.solve(H, blocks.A.T).T)
    s = np.linalg.svd(K, compute_uv=False)
    smax = float(s.max()) if s.size else 0.0
    return smax**2


def efficient_information(blocks: BlockInformation) -> np.ndarray:
    """Efficient information D2 - A H2^{-1} A.T (theta-block Schur complement).

    Equals the inverse of the theta-block of the inverse of the full block
    matrix.  With SPD D2 and H2 it is SPD exactly when nu < 1, so a result that
    is not SPD raises CouplingError, which names nu.
    """
    blocks.validate()
    X = _lapack.cho_solve(blocks.h2_cho_factor, blocks.A.T)
    Deff2 = blocks.D2 - blocks.A @ X
    Deff2 = 0.5 * (Deff2 + Deff2.T)
    wmin = float(np.linalg.eigvalsh(Deff2).min())
    if wmin <= 0.0:
        raise CouplingError(f"coupling nu = {coupling_norm(blocks):.6g}: efficient information "
                            f"not SPD (smallest eigenvalue {wmin:.6e}), so undefined")
    return Deff2


def efficient_score(blocks: BlockInformation, grad_theta, grad_eta) -> EfficientScore:
    """Projected score grad_theta - A H2^{-1} grad_eta, standardized by sqrt of the
    efficient information."""
    gt = np.atleast_1d(np.asarray(grad_theta, dtype=float))
    ge = np.atleast_1d(np.asarray(grad_eta, dtype=float))
    if gt.size != blocks.p or ge.size != blocks.m:
        raise ValueError(
            f"gradient dims ({gt.size},{ge.size}) do not match blocks ({blocks.p},{blocks.m})"
        )
    breve = gt - blocks.A @ _lapack.cho_solve(blocks.h2_cho_factor, ge)
    xi = np.linalg.solve(blocks.efficient_root, breve)
    return EfficientScore(breve_grad=breve, xi=xi)
