"""SPD solves on scipy's own LAPACK wrappers, without importing `scipy.linalg`.

`solve`, `cho_factor` and `cho_solve` return the bits of scipy.linalg's
`solve(a, b, assume_a="pos")`, `cho_factor(a)` and `cho_solve(c_and_lower, b)`:
they call the routines scipy calls, `dpotrf` and `dpotrs` on the upper factor,
from `scipy.linalg._flapack`, which `extension` loads alone (importing
`scipy.linalg` costs most of `import altmax`).  scipy's checks are kept: a
non-finite input raises `ValueError`, a matrix that is not positive definite
`np.linalg.LinAlgError`, and a 1x1 solve is scipy's scalar branch, `b / a`.
`solve` also keeps scipy's `LinAlgWarning` for a reciprocal condition number
below eps, from `dpocon`: the eta step's condition guard raises long before
it, but a toy block of subnormal scale (`toy_d2 = 1e-310` at `toy_p = 2`)
reaches it.  scipy's own estimate can differ from `dpocon`'s in the last bit.
`solve` runs its two halves, `_factor` of a and `_apply` to b, which a caller
with many right-hand sides for one a (the toy's maximizers) runs apart.
"""

from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import os
import sys
import warnings

import numpy as np


@functools.cache
def extension(name):
    """The scipy extension module `name`, e.g. "scipy.linalg._flapack".

    Loaded on first use from its file in scipy's directory, which runs neither
    `scipy/__init__.py` nor the subpackage's.  It stays in sys.modules under
    `name`, so a later import of it, or of its package, gives the same object.
    Where it is already imported, or its file is not found, it is imported the
    usual way.
    """
    if name not in sys.modules:
        try:
            root = importlib.util.find_spec("scipy").submodule_search_locations[0]
            spec = importlib.machinery.PathFinder.find_spec(
                name, [os.path.join(root, *name.split(".")[1:-1])])
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return sys.modules.setdefault(name, module)
        except (AttributeError, ImportError, TypeError):
            pass
    return importlib.import_module(name)


def _flapack():
    return extension("scipy.linalg._flapack")


def _check_finite(*arrays):
    # counting the finite entries skips the Python layer of ndarray.all, the
    # larger part of this check on the toy's one-entry vectors
    for x in arrays:
        if np.count_nonzero(np.isfinite(x)) < x.size:
            raise ValueError("array must not contain infs or NaNs")


def _square(a):
    """a as a finite, square float array."""
    a = np.asarray(a, dtype=float)
    _check_finite(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix required, got shape {a.shape}")
    return a


def _potrs(c, b):
    """dpotrs for the upper factor c against b, in a Fortran-ordered copy of
    b; both already checked finite."""
    if b.shape[0] != c.shape[0]:
        raise ValueError(f"incompatible shapes: {c.shape} and {b.shape}")
    return _flapack().dpotrs(c, b)[0]


def solve(a, b):
    """`scipy.linalg.solve(a, b, assume_a="pos")`."""
    return _apply(_factor(a), b, stacklevel=3)


def _factor(a):
    """The half of `solve` that reads a alone, for a that many solves share.

    Returns (c, rcond, singular): c is scipy's scalar-branch pivot a[0, 0] with
    rcond None, or the upper factor from dpotrf with dpocon's rcond.  A
    singular a is not raised here but named in `singular`, which `_apply`
    raises after its check of b, in scipy's order.
    """
    a = _square(a)
    if a.shape == (1, 1):  # scipy's scalar branch
        pivot = a[0, 0]
        return pivot, None, "A singular matrix detected." if pivot == 0 else None
    # dlansy("1", "U")'s norm: the column sums of the mirrored upper triangle,
    # in the same order
    anorm = _flapack().dlange("1", np.triu(a) + np.triu(a, 1).T)
    c, info = _flapack().dpotrf(a, clean=0)
    if info > 0:
        return c, None, "A singular matrix detected: slice(s) [0] are singular."
    return c, _flapack().dpocon(c, anorm)[0], None


def _apply(factor, b, stacklevel=2):
    """The half of `solve` that reads b: x with a x = b, for the `_factor` of a.
    The LinAlgWarning names the caller `stacklevel` frames up."""
    c, rcond, singular = factor
    b = np.atleast_1d(np.asarray(b, dtype=float))
    _check_finite(b)
    if singular is not None:
        raise np.linalg.LinAlgError(singular)
    if rcond is None:
        return b / c
    # c is dpotrf's factor of an a that `_factor` checked
    x = np.ascontiguousarray(_potrs(c, b))
    if rcond < np.finfo(float).eps:
        from scipy.linalg import LinAlgWarning
        warnings.warn(f"An ill-conditioned matrix detected: slice 0 has rcond = {rcond}.",
                      LinAlgWarning, stacklevel=stacklevel)
    return x


def cho_factor(a):
    """`scipy.linalg.cho_factor(a)`: (c, False), the upper factor in c's upper triangle."""
    c, info = _flapack().dpotrf(_square(a), clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c, False


def cho_solve(c_and_lower, b):
    """`scipy.linalg.cho_solve(c_and_lower, b)` for the (c, False) of `cho_factor`."""
    c, b = np.asarray(c_and_lower[0], dtype=float), np.asarray(b, dtype=float)
    _check_finite(c, b)
    return _potrs(c, b)
