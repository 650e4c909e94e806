import copy
import math
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from altmax.statcore import (
    BlockInformation,
    CouplingError,
    NotSPDError,
    ParameterPoint,
    coupling_norm,
    efficient_information,
    efficient_score,
    sqrt_spd,
)


def rand_spd(rng, n, cond=10.0):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return (Q * eigs) @ Q.T


def test_parameter_point_basics():
    pt = ParameterPoint([1.0, 2.0], [3.0])
    assert pt.p == 2 and pt.m == 1 and pt.p_star == 3
    assert np.array_equal(pt.as_vector(), [1.0, 2.0, 3.0])
    back = ParameterPoint.from_vector(pt.as_vector(), 2)
    assert np.array_equal(back.eta, [3.0])
    with pytest.raises(ValueError):
        ParameterPoint([], [1.0])


def test_coupling_norm_zero_and_scalars():
    blocks = BlockInformation(D2=np.eye(2), A=np.zeros((2, 2)), H2=np.eye(2))
    assert coupling_norm(blocks) == 0.0
    scalars = BlockInformation(D2=[[4.0]], A=[[1.0]], H2=[[1.0]])
    assert abs(coupling_norm(scalars) - 0.25) < 1e-14


def test_coupling_norm_diagonal_case():
    blocks = BlockInformation(
        D2=np.diag([4.0, 1.0]), A=[[1.0, 0.0], [0.0, 0.5]], H2=np.diag([1.0, 4.0])
    )
    # D^{-1} A H^{-1} = diag(0.5, 0.25)
    assert abs(coupling_norm(blocks) - 0.25) < 1e-14


def test_coupling_norm_rejects_non_spd_with_diagnostic():
    bad = BlockInformation(D2=[[-1.0]], A=[[0.0]], H2=[[1.0]])
    with pytest.raises(NotSPDError, match="D2.*eigenvalue"):
        coupling_norm(bad)
    bad2 = BlockInformation(D2=[[1.0]], A=[[0.0]], H2=[[0.0]])
    with pytest.raises(NotSPDError, match="H2"):
        coupling_norm(bad2)


def test_coupling_invariant_under_block_orthogonal_congruence():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p, m = rng.integers(1, 5), rng.integers(1, 5)
        D2, H2 = rand_spd(rng, p), rand_spd(rng, m)
        A = 0.3 * rng.standard_normal((p, m))
        blocks = BlockInformation(D2=D2, A=A, H2=H2)
        Qt, _ = np.linalg.qr(rng.standard_normal((p, p)))
        Qe, _ = np.linalg.qr(rng.standard_normal((m, m)))
        rotated = BlockInformation(D2=Qt @ D2 @ Qt.T, A=Qt @ A @ Qe.T, H2=Qe @ H2 @ Qe.T)
        assert abs(coupling_norm(blocks) - coupling_norm(rotated)) < 1e-10


def test_efficient_information_no_coupling_and_scalars():
    blocks = BlockInformation(D2=np.diag([3.0, 5.0]), A=np.zeros((2, 1)), H2=[[2.0]])
    assert np.allclose(efficient_information(blocks), np.diag([3.0, 5.0]))
    scalars = BlockInformation(D2=[[2.0]], A=[[1.0]], H2=[[2.0]])
    assert abs(efficient_information(scalars)[0, 0] - 1.5) < 1e-14


def test_efficient_information_matches_inverse_theta_block():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p, m = rng.integers(1, 4), rng.integers(1, 5)
        full = rand_spd(rng, p + m, cond=50.0)
        blocks = BlockInformation(D2=full[:p, :p], A=full[:p, p:], H2=full[p:, p:])
        if coupling_norm(blocks) >= 1.0:
            continue
        eff = efficient_information(blocks)
        oracle = np.linalg.inv(np.linalg.inv(full)[:p, :p])
        assert np.allclose(eff, oracle, rtol=1e-10, atol=1e-10)


def test_efficient_information_rejects_high_coupling():
    blocks = BlockInformation(D2=[[1.0]], A=[[2.0]], H2=[[1.0]])
    with pytest.raises(CouplingError, match="coupling nu"):
        efficient_information(blocks)


def test_efficient_score_examples():
    blocks = BlockInformation(D2=[[2.0]], A=[[1.0]], H2=[[2.0]])
    zero = efficient_score(blocks, [0.0], [0.0])
    assert np.allclose(zero.xi, 0.0) and np.allclose(zero.breve_grad, 0.0)
    s = efficient_score(blocks, [1.0], [2.0])
    assert abs(s.breve_grad[0]) < 1e-14 and abs(s.xi[0]) < 1e-14
    s2 = efficient_score(blocks, [2.0], [0.0])
    assert abs(s2.breve_grad[0] - 2.0) < 1e-14
    assert abs(s2.xi[0] - 2.0 / np.sqrt(1.5)) < 1e-12
    with pytest.raises(ValueError, match="dims"):
        efficient_score(blocks, [1.0, 2.0], [0.0])


def test_efficient_score_linear_and_reconstructs():
    rng = np.random.default_rng(3)
    blocks = BlockInformation(D2=rand_spd(rng, 3), A=0.2 * rng.standard_normal((3, 2)),
                              H2=rand_spd(rng, 2))
    g1 = (rng.standard_normal(3), rng.standard_normal(2))
    g2 = (rng.standard_normal(3), rng.standard_normal(2))
    a, b = 0.7, -1.3
    lin = efficient_score(blocks, a * g1[0] + b * g2[0], a * g1[1] + b * g2[1])
    s1 = efficient_score(blocks, *g1)
    s2 = efficient_score(blocks, *g2)
    assert np.allclose(lin.xi, a * s1.xi + b * s2.xi, atol=1e-12)
    Deff = sqrt_spd(efficient_information(blocks))
    assert np.allclose(Deff @ s1.xi, s1.breve_grad, atol=1e-12)


def test_sqrt_spd_clips_tiny_negative_eigenvalues():
    M = np.diag([1.0, -1e-12])
    S = sqrt_spd(M)
    assert np.allclose(S, np.diag([1.0, 0.0]), atol=1e-6)


def test_sqrt_spd_of_a_symmetric_matrix_skips_the_average():
    # 0.5 * (M + M.T) is M bit for bit where M is symmetric, but overflows
    # for entries near the float64 maximum
    with np.errstate(all="raise"):
        S = sqrt_spd(np.diag([2.0, 1e308]))
    assert np.array_equal(S, np.diag(np.sqrt([2.0, 1e308])))
    rng = np.random.default_rng(7)
    for _ in range(50):
        M = rand_spd(rng, 5)  # the rounding of (Q * eigs) @ Q.T leaves it asymmetric
        w, V = np.linalg.eigh(0.5 * (M + M.T))
        assert np.array_equal(sqrt_spd(M), (V * np.sqrt(w)) @ V.T)
        sym = 0.5 * (M + M.T)
        w, V = np.linalg.eigh(sym)
        assert np.array_equal(sqrt_spd(sym), (V * np.sqrt(w)) @ V.T)


def test_block_information_shape_validation():
    with pytest.raises(ValueError, match="A must be"):
        BlockInformation(D2=np.eye(2), A=np.zeros((3, 1)), H2=np.eye(1))


def test_sqrt_spd_examples_and_reconstruction():
    assert np.allclose(sqrt_spd(np.eye(3)), np.eye(3))
    assert np.allclose(sqrt_spd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    rng = np.random.default_rng(5)
    for cond in (10.0, 1e4, 1e8):
        M = rand_spd(rng, 6, cond=cond)
        S = sqrt_spd(M)
        rel = np.linalg.norm(S @ S - M) / np.linalg.norm(M)
        assert rel < 1e-10
    with pytest.raises(NotSPDError):
        sqrt_spd(np.diag([1.0, -1.0]))
    with pytest.raises(NotSPDError, match=r"^matrix must be square, got shape \(2, 3\)$"):
        sqrt_spd(np.ones((2, 3)))
    with pytest.raises(NotSPDError, match="^matrix is not symmetric$"):
        sqrt_spd([[1.0, 2.0], [0.0, 1.0]])


def _coupled_blocks(rng, p, m, coupling):
    D2, H2 = rand_spd(rng, p), rand_spd(rng, m)
    A = coupling * rng.standard_normal((p, m))
    return BlockInformation(D2=D2, A=A, H2=H2)


def test_cached_geometry_is_bit_equal_to_fresh_computation():
    from altmax.alternation import fisher_residual

    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(30):
        p, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        blocks = _coupled_blocks(rng, p, m, 0.3)
        if coupling_norm(blocks) >= 1.0:
            continue
        checked += 1
        fresh_root = sqrt_spd(efficient_information(blocks))
        assert np.array_equal(blocks.efficient_root, fresh_root)
        assert np.array_equal(blocks.full_sqrt, sqrt_spd(blocks.full))
        gt, ge = rng.standard_normal(p), rng.standard_normal(m)
        for _ in range(2):  # first use fills the cache, the second reads it
            score = efficient_score(blocks, gt, ge)
            assert np.array_equal(score.xi, np.linalg.solve(fresh_root, score.breve_grad))
            th_k, th_s = rng.standard_normal(p), rng.standard_normal(p)
            expect = float(np.linalg.norm(fresh_root @ (th_k - th_s) - score.xi))
            assert fisher_residual(blocks, score, th_k, th_s) == expect
    assert checked >= 20


def test_cached_geometry_is_read_only_and_computed_once():
    rng = np.random.default_rng(29)
    blocks = _coupled_blocks(rng, 3, 2, 0.2)
    c, _low = blocks.h2_cho_factor
    for M in (blocks.efficient_root, blocks.full_sqrt, c):
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
    assert blocks.efficient_root is blocks.efficient_root
    assert blocks.full_sqrt is blocks.full_sqrt
    assert blocks.h2_cho_factor is blocks.h2_cho_factor


def test_high_coupling_raises_on_every_call():
    blocks = BlockInformation(D2=[[1.0]], A=[[2.0]], H2=[[1.0]])
    for _ in range(3):
        with pytest.raises(CouplingError, match="coupling nu"):
            blocks.efficient_root
        with pytest.raises(CouplingError, match="coupling nu"):
            efficient_score(blocks, [1.0], [0.0])
    assert "efficient_root" not in vars(blocks)


def test_validate_raises_on_every_call_for_non_spd_blocks():
    for bad, name in (
        (BlockInformation(D2=[[-1.0]], A=[[0.0]], H2=[[1.0]]), "D2"),
        (BlockInformation(D2=[[1.0]], A=[[0.0]], H2=[[0.0]]), "H2"),
        (BlockInformation(D2=[[1.0, 2.0], [0.0, 1.0]], A=[[0.0], [0.0]], H2=[[1.0]]), "D2"),
        (BlockInformation(D2=np.ones((2, 3)), A=[[0.0], [0.0]], H2=[[1.0]]), "D2 must be square"),
    ):
        for _ in range(3):
            with pytest.raises(NotSPDError, match=name):
                bad.validate()
    good = BlockInformation(D2=np.eye(2), A=np.zeros((2, 1)), H2=[[1.0]])
    assert good.validate() is good and good.validate() is good


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy])
def test_round_trip_is_read_only_with_the_same_geometry(clone):
    rng = np.random.default_rng(31)
    pt = ParameterPoint(rng.standard_normal(3), rng.standard_normal(2))
    back = clone(pt)
    for a, b in ((back.theta, pt.theta), (back.eta, pt.eta)):
        assert not a.flags.writeable and np.array_equal(a, b)
    blocks = _coupled_blocks(rng, 3, 2, 0.2)
    cached = (blocks.efficient_root, blocks.full_sqrt, blocks.h2_cho_factor[0])
    back = clone(blocks)
    assert not {"efficient_root", "full_sqrt", "h2_cho_factor"} & set(vars(back))
    again = (back.efficient_root, back.full_sqrt, back.h2_cho_factor[0])
    for a, b in zip((back.D2, back.A, back.H2) + again,
                    (blocks.D2, blocks.A, blocks.H2) + cached):
        assert not a.flags.writeable
        assert a.tobytes() == b.tobytes()


def _points(rng):
    """Points of random sizes, with inputs a caller keeps and may mutate."""
    for _ in range(20):
        p, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        th, et = rng.standard_normal(p), rng.standard_normal(m)
        yield th, et, ParameterPoint(th, et)


def _assert_point_holds(pt, th, et):
    v = pt.as_vector()
    assert v.tobytes() == np.concatenate([th, et]).tobytes()
    assert pt.as_vector() is v and v.dtype == float
    assert pt.theta.tobytes() == th.tobytes() and pt.eta.tobytes() == et.tobytes()
    for a in (v, pt.theta, pt.eta):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_point_vector_is_built_once_and_read_only():
    rng = np.random.default_rng(37)
    for th, et, pt in _points(rng):
        want_th, want_et = th.copy(), et.copy()
        _assert_point_holds(pt, want_th, want_et)
        # theta and eta are views of the one vector, not of the caller's arrays
        assert pt.theta.base is pt.as_vector() and pt.eta.base is pt.as_vector()
        th[:] = 7.0
        et[:] = -7.0
        _assert_point_holds(pt, want_th, want_et)


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy,
                                   copy.copy])
def test_cloned_point_keeps_its_one_read_only_vector(clone):
    rng = np.random.default_rng(41)
    for th, et, pt in _points(rng):
        back = clone(pt)
        _assert_point_holds(back, th, et)
        assert back.theta.base is back.as_vector() and back.eta.base is back.as_vector()


def test_scalar_and_list_coordinates_make_float_vectors():
    pt = ParameterPoint(2, [1, 3])
    assert pt.p == 1 and pt.m == 2 and pt.p_star == 3
    _assert_point_holds(pt, np.array([2.0]), np.array([1.0, 3.0]))
    with pytest.raises(ValueError, match="vectors"):
        ParameterPoint(np.ones((1, 2)), [1.0])


def test_assembled_matrix_is_cached_and_read_only():
    rng = np.random.default_rng(43)
    blocks = _coupled_blocks(rng, 3, 2, 0.2)
    full = blocks.full
    want = np.vstack([np.hstack([blocks.D2, blocks.A]), np.hstack([blocks.A.T, blocks.H2])])
    assert full.tobytes() == want.tobytes() and full.shape == (5, 5)
    assert blocks.full is full and not full.flags.writeable
    with pytest.raises(ValueError):
        full[0, 0] = 1.0
    back = pickle.loads(pickle.dumps(blocks))
    assert "full" not in vars(back)
    assert back.full.tobytes() == want.tobytes() and not back.full.flags.writeable


def test_value_types_are_immutable_and_pickle():
    from altmax.alternation import TraceRecord
    from altmax.harness import ExperimentReport
    from altmax.singleindex import SingleIndexDataset
    from altmax.statcore import EfficientScore
    from altmax.wavelet import wavelet_tables

    rng = np.random.default_rng(47)
    pt = ParameterPoint(rng.standard_normal(2), rng.standard_normal(1))  # p + m = 3
    blocks = _coupled_blocks(rng, 2, 1, 0.2)
    for obj, names in ((pt, ("theta", "eta", "_vector")), (blocks, ("D2", "A", "H2"))):
        for name in names:
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, 0.0)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(obj, name)
    # the records are named tuples: no field can be set, deleted or added
    for rec in (EfficientScore(np.zeros(1), np.zeros(1)),
                TraceRecord(0, pt, pt, 0.0, 0.0, math.nan), wavelet_tables(),
                SingleIndexDataset(X=np.zeros((2, 1)), y=np.zeros(2)),
                ExperimentReport("wilks_fisher", [], {}, {})):
        for name in (*rec._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        for name in rec._fields:
            with pytest.raises(AttributeError):
                delattr(rec, name)
    blocks.validate()
    blocks.full_sqrt
    blocks.efficient_root
    back_pt, back_blocks = pickle.loads(pickle.dumps((pt, blocks)))
    for M in (back_pt.theta, back_pt.eta, back_blocks.D2, back_blocks.A, back_blocks.H2):
        assert not M.flags.writeable
    assert set(vars(back_blocks)) == {"D2", "A", "H2"}  # no cached geometry
    # equality is identity, since the fields are arrays: an equal copy is
    # another point, and points and block matrices can be set members
    assert pt == pt and pt != back_pt and len({pt, back_pt, pt}) == 2
    assert blocks == blocks and blocks != back_blocks and len({blocks, back_blocks}) == 2
