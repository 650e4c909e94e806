"""SPD solves on the LAPACK that scipy ships, without importing `scipy.linalg`.

`solve`, `cho_factor` and `cho_solve` return the bits of scipy.linalg's
`solve(a, b, assume_a="pos")`, `cho_factor(a)` and `cho_solve(c_and_lower, b)`:
they call the same routines, `dpotrf("U")` and `dpotrs`, on a Fortran-ordered
copy, in the OpenBLAS that a scipy wheel bundles (`scipy.libs`).  Importing
`scipy.linalg` costs most of `import altmax`; finding that library does not
run scipy at all.  Where it is not found (conda, a system BLAS, other
platforms) each function calls scipy.linalg's own, imported on first use.

scipy's checks are kept: a non-finite input raises `ValueError`, a matrix that
is not positive definite `np.linalg.LinAlgError`, and a 1x1 solve is scipy's
scalar branch, the quotient `b / a`.  `solve` also keeps scipy's
`LinAlgWarning` for a reciprocal condition number below eps, from `dpocon`:
the eta step's condition guard raises long before it, but a toy block of
subnormal scale (`toy_d2 = 1e-310` at `toy_p = 2`) reaches it.  scipy's own
estimate can differ from `dpocon`'s in the last bit.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import warnings
from pathlib import Path

import numpy as np

_by = ctypes.byref
_INT, _DOUBLE = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
_CHAR, _ARRAY, _LEN = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
# LAPACK's arguments, then the hidden length of each character argument
_SIGNATURES = {
    "dpotrf": (_CHAR, _INT, _ARRAY, _INT, _INT, _LEN),
    "dpotrs": (_CHAR, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT, _INT, _LEN),
    "dpocon": (_CHAR, _INT, _ARRAY, _INT, _DOUBLE, _DOUBLE, _ARRAY, _ARRAY, _INT, _LEN),
    "dlansy": (_CHAR, _CHAR, _INT, _ARRAY, _INT, _ARRAY, _LEN, _LEN),
}


def scipy_dir():
    """scipy's package directory, found without running scipy's `__init__`.

    Raises AttributeError or TypeError where scipy is not a package directory.
    """
    return Path(importlib.util.find_spec("scipy").submodule_search_locations[0])


@functools.cache
def _routines():
    """{name: routine} of scipy's bundled OpenBLAS for `_SIGNATURES`, or None."""
    try:
        libs = scipy_dir().parent
        lib = ctypes.CDLL(str(next((libs / "scipy.libs").glob("libscipy_openblas*.so"))))
        routines = {name: getattr(lib, f"scipy_{name}_") for name in _SIGNATURES}
    except (AttributeError, OSError, StopIteration, TypeError):
        return None
    for name, argtypes in _SIGNATURES.items():
        routines[name].argtypes = argtypes
    routines["dlansy"].restype = ctypes.c_double
    return routines


def _check_finite(*arrays):
    if not all(np.isfinite(x).all() for x in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _square(a):
    """A finite, square, Fortran-ordered copy c of a: (c, its address, its order)."""
    c = np.array(a, dtype=float, order="F")
    _check_finite(c)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"square matrix required, got shape {c.shape}")
    return c, c.ctypes.data, ctypes.c_int(c.shape[0])


def _potrf(pc, n):
    """dpotrf("U") in place on the matrix at address pc; returns LAPACK's info."""
    info = ctypes.c_int()
    _routines()["dpotrf"](b"U", _by(n), pc, _by(n), _by(info), 1)
    return info.value


def _potrs(pc, n, b):
    """dpotrs("U") for the factor at address pc against a Fortran-ordered copy of b."""
    x = np.array(b, dtype=float, order="F")
    _check_finite(x)
    if x.shape[0] != n.value:
        raise ValueError(f"incompatible shapes: ({n.value}, {n.value}) and {x.shape}")
    k, info = ctypes.c_int(1 if x.ndim == 1 else x.shape[1]), ctypes.c_int()
    _routines()["dpotrs"](b"U", _by(n), _by(k), pc, _by(n), x.ctypes.data, _by(n),
                          _by(info), 1)
    return x


def solve(a, b):
    """`scipy.linalg.solve(a, b, assume_a="pos")`."""
    a, b = np.asarray(a, dtype=float), np.atleast_1d(np.asarray(b, dtype=float))
    _check_finite(a, b)
    if a.shape == (1, 1):  # scipy's scalar branch
        if a[0, 0] == 0:
            raise np.linalg.LinAlgError("A singular matrix detected.")
        return b / a[0, 0]
    lapack = _routines()
    if lapack is None:
        import scipy.linalg
        return scipy.linalg.solve(a, b, assume_a="pos")
    c, pc, n = _square(a)
    work = (ctypes.c_double * (3 * n.value))()
    anorm = ctypes.c_double(lapack["dlansy"](b"1", b"U", _by(n), pc, _by(n), work, 1, 1))
    if _potrf(pc, n) > 0:
        raise np.linalg.LinAlgError("A singular matrix detected: slice(s) [0] are singular.")
    x = np.ascontiguousarray(_potrs(pc, n, b))
    rcond = ctypes.c_double()
    lapack["dpocon"](b"U", _by(n), pc, _by(n), _by(anorm), _by(rcond), work,
                     (ctypes.c_int * n.value)(), _by(ctypes.c_int()), 1)
    if rcond.value < np.finfo(float).eps:
        from scipy.linalg import LinAlgWarning
        warnings.warn(f"An ill-conditioned matrix detected: slice 0 has rcond = {rcond.value}.",
                      LinAlgWarning, stacklevel=2)
    return x


def cho_factor(a):
    """`scipy.linalg.cho_factor(a)`: (c, False), the upper factor in c's upper triangle."""
    if _routines() is None:
        import scipy.linalg
        return scipy.linalg.cho_factor(a)
    c, pc, n = _square(a)
    info = _potrf(pc, n)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c, False


def cho_solve(c_and_lower, b):
    """`scipy.linalg.cho_solve(c_and_lower, b)` for the (c, False) of `cho_factor`."""
    if _routines() is None:
        import scipy.linalg
        return scipy.linalg.cho_solve(c_and_lower, b)
    c = np.asfortranarray(c_and_lower[0])
    _check_finite(c)
    return _potrs(c.ctypes.data, ctypes.c_int(c.shape[0]), b)
