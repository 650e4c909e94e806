import importlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from altmax import _lapack


def _outcome(solve, M, b):
    try:
        return solve(M, b)
    except Exception as exc:  # noqa: BLE001 - the exception type is compared
        return type(exc)


def _assert_same(want, got, where):
    if isinstance(want, type):
        assert got is want, where
    else:
        assert isinstance(got, np.ndarray), where
        assert got.dtype == want.dtype and got.shape == want.shape, where
        assert np.array_equal(got, want, equal_nan=True), where


def scipy_solve(M, b):
    return scipy.linalg.solve(M, b, assume_a="pos")


def spd_systems(seed, count):
    """Random SPD G = X'X/n with m from 1 to 40, and 1-D or 2-D right-hand sides."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        m = int(rng.integers(1, 41))
        X = rng.standard_normal((200, m)) * rng.random(m)
        b = rng.standard_normal(m) if t % 3 == 0 else rng.standard_normal((m, int(rng.integers(1, 4))))
        yield X.T @ X / 200, b


FLAPACK = "scipy.linalg._flapack"


@pytest.fixture(params=[False, True])
def fallback(request, monkeypatch):
    """`_flapack` loaded afresh: by path, or (fallback) the usual way, as where
    scipy's directory is not found."""
    monkeypatch.delitem(sys.modules, FLAPACK)
    if request.param:
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: None)
    elif not _loads_by_path():
        pytest.skip("_flapack's file is not where the loader looks for it")
    else:
        def no_import(name, *args):
            raise AssertionError(f"{name} imported, not loaded by path")
        monkeypatch.setattr(importlib, "import_module", no_import)
    _lapack.extension.cache_clear()
    yield request.param
    _lapack.extension.cache_clear()


def test_routines_are_scipys_own(fallback):
    # the very functions scipy.linalg.lapack re-exports, so no bit can move
    flapack = _lapack.extension(FLAPACK)
    assert flapack is sys.modules[FLAPACK]
    for name in ("dpotrf", "dpotrs", "dpocon", "dlange"):
        assert getattr(flapack, name) is getattr(scipy.linalg.lapack, name)


def test_bits_equal_scipy_on_random_spd_systems(fallback):
    for G, b in spd_systems(5, 300):
        want = scipy_solve(G, b)
        got = _lapack.solve(G, b)
        _assert_same(want, got, G.shape)
        assert got.flags.c_contiguous == want.flags.c_contiguous
        c, lower = scipy.linalg.cho_factor(G)
        factor = _lapack.cho_factor(G)
        assert factor[1] is lower is False
        assert np.array_equal(factor[0], c)
        assert factor[0].flags.f_contiguous == c.flags.f_contiguous
        _assert_same(scipy.linalg.cho_solve((c, lower), b), _lapack.cho_solve(factor, b), G.shape)


def test_solve_1x1_is_scipys_scalar_branch():
    # a 1x1 solve is scipy's quotient b / a: its dtype and shape, and the
    # exception of a bad input, must stay scipy's own, so a scipy that changes
    # its scalar path fails here rather than moving records
    rng = np.random.default_rng(11)
    cases = []
    for scale in (1.0, 1e-300, 1e300, 1e-150, 1e150, 5e-324):
        for _ in range(40):
            M = np.array([[rng.choice([-1.0, 1.0]) * rng.random() * scale]])
            bscale = rng.choice([1.0, 1e-300, 1e300])
            cases.append((M, rng.standard_normal(1) * bscale))
            cases.append((M, rng.standard_normal((1, int(rng.integers(1, 5)))) * bscale))
    for bad in (0.0, -0.0, np.nan, np.inf, -np.inf):
        cases.append((np.array([[bad]]), np.array([1.0])))
        cases.append((np.array([[2.0]]), np.array([[1.0, bad]])))
        cases.append((np.array([[bad]]), np.array([np.nan])))
    cases.append((np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0])))
    with np.errstate(all="ignore"):
        for M, b in cases:
            _assert_same(_outcome(scipy_solve, M, b), _outcome(_lapack.solve, M, b), (M, b))


def test_errors_are_scipys(fallback):
    G = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    b = np.array([1.0, -2.0, 0.5])
    cases = [
        (np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2)),  # indefinite
        (np.diag([1.0, 0.0, 2.0]), b),  # singular
        (np.array([[0.0]]), np.ones(1)),  # 1x1 zero pivot
        (G, np.ones(4)),  # shapes that do not match
    ]
    for bad in (np.inf, -np.inf, np.nan):
        Gb = G.copy()
        Gb[1, 2] = bad
        bb = b.copy()
        bb[0] = bad
        cases += [(Gb, b), (G, bb), (np.array([[bad]]), np.ones(1))]
    for M, rhs in cases:
        _assert_same(_outcome(scipy_solve, M, rhs), _outcome(_lapack.solve, M, rhs), (M, rhs))
        want = _outcome(lambda A, _: scipy.linalg.cho_factor(A)[0], M, rhs)
        got = _outcome(lambda A, _: _lapack.cho_factor(A)[0], M, rhs)
        _assert_same(want, got, M)
    assert _outcome(_lapack.solve, np.diag([1.0, -1.0]), np.ones(2)) is np.linalg.LinAlgError
    assert _outcome(_lapack.solve, G, [1.0, np.nan, 0.0]) is ValueError
    c = _lapack.cho_factor(G)
    assert _outcome(_lapack.cho_solve, c, [1.0, np.inf, 0.0]) is ValueError
    assert _outcome(scipy.linalg.cho_solve, c, [1.0, np.inf, 0.0]) is ValueError


def test_ill_conditioning_warns_as_scipy_does(fallback):
    # a block of subnormal scale: scipy's solve warns (rcond = 0) and returns
    # non-finite entries; a well-scaled block does not warn
    for scale in (1e-310, 5e-324):
        M, b = scale * np.eye(2), np.ones(2)
        with warnings.catch_warnings(record=True) as want_w:
            warnings.simplefilter("always")
            want = scipy_solve(M, b)
        with warnings.catch_warnings(record=True) as got_w:
            warnings.simplefilter("always")
            got = _lapack.solve(M, b)
        assert np.array_equal(got, want, equal_nan=True)
        assert [w.category for w in got_w] == [w.category for w in want_w] \
            == [scipy.linalg.LinAlgWarning]
        assert str(got_w[0].message) == str(want_w[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _lapack.solve(1e-300 * np.eye(3), np.ones(3))


def _loads_by_path():
    """Whether `_flapack`'s file is where `extension` looks for it."""
    where = importlib.util.find_spec("scipy").submodule_search_locations
    return where is not None and importlib.machinery.PathFinder.find_spec(
        FLAPACK, [os.path.join(where[0], "linalg")]) is not None


def _run(*lines, flags=()):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *flags, "-c", "\n".join(lines)], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout.splitlines()


def test_import_and_probe_delta_leave_scipy_linalg_unloaded():
    out = _run(
        "import sys",
        "import altmax",
        "from altmax.harness import ExperimentConfig, probe_delta",
        "print('scipy.linalg' in sys.modules)",
        "cfg = ExperimentConfig(family='single-index', reps=1, si_n=300, si_m=3,",
        "                       si_eta_star=(1.0, -0.8, 0.9))",
        "probe_delta(cfg, r_grid=[0.4], R=1, n_points=1)",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert out[0] == "False"
    if _loads_by_path():  # the run loads _flapack alone and no scipy package
        assert out[1] == "['scipy.linalg._flapack']"


def test_flapack_loaded_first_is_the_one_scipy_imports_later():
    # loading _flapack alone, before scipy, must leave scipy.linalg, its
    # submodule import and cho_factor working, with no warning
    out = _run(
        "import sys",
        "from altmax import _lapack",
        "x = _lapack.solve([[4.0, 1.0], [1.0, 3.0]], [1.0, 2.0])",
        "flapack = sys.modules['scipy.linalg._flapack']",
        "print('scipy' in sys.modules, 'scipy.linalg' in sys.modules)",
        "import scipy.linalg",
        "from scipy.linalg import _flapack",
        "print(_flapack is flapack, scipy.linalg.lapack.dpotrf is flapack.dpotrf)",
        "print(scipy.linalg.cho_factor([[4.0, 0.0], [0.0, 9.0]])[0].tolist())",
        "print((scipy.linalg.solve([[4.0, 1.0], [1.0, 3.0]], [1.0, 2.0]) == x).all())",
        flags=("-W", "error"),
    )
    if _loads_by_path():
        assert out[0] == "False False"
    assert out[1:] == ["True True", "[[2.0, 0.0], [0.0, 3.0]]", "True"]
