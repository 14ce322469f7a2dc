import numpy as np
import pytest

import semidw as sd
from semidw.errors import NotInBA
from semidw.semiop import ba_residual, normal_residual, selfadjoint_residual
from semidw.sampling import random_bounded_operator, random_metric

from conftest import X_MAT, Y_MAT


def _adjoint_residual(m, t, s):
    """Max residual of <t x, y>_A = <x, s y>_A over the standard basis."""
    n = m.dim
    worst = 0.0
    for i in range(n):
        for j in range(n):
            x = np.eye(n)[i]
            y = np.eye(n)[j]
            worst = max(worst, abs(sd.semi_inner(m, t @ x, y) - sd.semi_inner(m, x, s @ y)))
    return worst


def test_sharp_identity_metric(id2):
    t = np.array([[1.0, 2.0j], [3.0, 4.0]])
    np.testing.assert_allclose(sd.sharp(id2, t), t.conj().T, atol=1e-14)


def test_sharp_diag12_examples(diag12):
    s = sd.sharp(diag12, X_MAT)
    np.testing.assert_allclose(s, [[0.0, 0.0], [0.5, 0.0]], atol=1e-14)
    assert _adjoint_residual(diag12, X_MAT, s) <= 1e-12
    s2 = sd.sharp(diag12, Y_MAT)
    np.testing.assert_allclose(s2, Y_MAT, atol=1e-14)
    assert _adjoint_residual(diag12, Y_MAT, s2) <= 1e-12


def test_in_ba(diag12, diag10):
    assert sd.in_ba(diag12, np.random.default_rng(0).standard_normal((2, 2)))
    # nilpotent X moves range(A)-perp data into range(A): T*A leaks out of range(A)
    assert not sd.in_ba(diag10, X_MAT)
    assert sd.in_ba(diag10, np.eye(2))
    residual = np.linalg.norm((np.eye(2) - diag10.proj) @ X_MAT.conj().T @ diag10.a)
    assert residual > 0.1


def test_is_a_bounded(diag12, diag10):
    assert sd.is_a_bounded(diag12, X_MAT)
    assert not sd.is_a_bounded(diag10, X_MAT)
    assert sd.is_a_bounded(diag10, np.diag([1.0, 7.0]))


def test_re_im_examples(id2, diag12):
    t = X_MAT
    np.testing.assert_allclose(sd.re_a(id2, t), [[0.0, 0.5], [0.5, 0.0]], atol=1e-14)
    np.testing.assert_allclose(sd.im_a(id2, t), [[0.0, -0.5j], [0.5j, 0.0]], atol=1e-14)
    re12 = sd.re_a(diag12, t)
    np.testing.assert_allclose(re12, [[0.0, 0.5], [0.25, 0.0]], atol=1e-14)
    # A re_a is Hermitian
    prod = diag12.a @ re12
    np.testing.assert_allclose(prod, prod.conj().T, atol=1e-13)


def test_im_vanishes_for_selfadjoint(diag12):
    t = sd.re_a(diag12, X_MAT + 0.3j * Y_MAT)
    np.testing.assert_allclose(sd.im_a(diag12, t), 0.0, atol=1e-13)


def test_abs_sq(id2, diag12):
    np.testing.assert_allclose(sd.abs_sq(id2, X_MAT), np.diag([0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(sd.abs_sq(diag12, X_MAT), [[0.0, 0.0], [0.0, 0.5]], atol=1e-14)
    np.testing.assert_allclose(sd.abs_sq(diag12, np.zeros((2, 2))), 0.0, atol=1e-14)
    # A |T|^2 is PSD
    prod = diag12.a @ sd.abs_sq(diag12, X_MAT)
    assert np.linalg.eigvalsh(0.5 * (prod + prod.conj().T)).min() >= -1e-13


def test_predicates(id2, diag12):
    t = np.diag([1.0, -1.0])
    assert sd.is_a_selfadjoint(id2, t)
    assert sd.is_a_normal(id2, t)
    assert sd.is_a_unitary(id2, t)
    assert not sd.is_a_selfadjoint(diag12, X_MAT)
    u = np.diag([np.exp(0.7j), np.exp(-1.2j)])
    assert sd.is_a_unitary(diag12, u)
    assert sd.is_a_normal(diag12, u)


def test_sharp_requires_ba(diag10):
    with pytest.raises(NotInBA):
        sd.sharp(diag10, X_MAT)


def test_nonfinite_residual_rejected(diag10):
    # T* A is far above the range where its Frobenius norm can be squared; taken over
    # powers of two, the residual is its value, 1 (the whole of T* A leaves range(A)),
    # and the operator is rejected
    huge = np.array([[0.0, 1e160], [0.0, 0.0]])
    zero = np.zeros((2, 2))
    assert ba_residual(diag10, huge) == 1.0
    with pytest.raises(NotInBA):
        sd.sharp(diag10, huge)
    with pytest.raises(NotInBA):
        sd.block2(diag10, zero, huge, zero, zero)

@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-12, 1e-300, 1e300])
def test_residuals_are_scale_free(diag10, diag12, scale):
    # X admits no A-adjoint under diag(1, 0) at any scale: each residual is relative to
    # the norms of its inputs, so it is the same at every scale, down to 1e-300
    x = scale * X_MAT
    assert ba_residual(diag10, x) == 1.0
    assert not sd.in_ba(diag10, x)
    with pytest.raises(NotInBA):
        sd.sharp(diag10, x)
    with pytest.raises(NotInBA):
        sd.block2(diag10, np.eye(2), x, np.zeros((2, 2)), np.zeros((2, 2)))
    # under diag(1, 2): A X - X* A = [[0, 1], [-1, 0]] over ||A|| ||X|| = sqrt(5), and
    # X X^# - X^# X = diag(1, -1) / 2 over 1/2 + 1/2; S is A-selfadjoint and A-normal
    s = scale * np.array([[1.0, 2.0], [1.0, 3.0]])
    assert abs(selfadjoint_residual(diag12, x) - np.sqrt(0.4)) <= 1e-15
    assert abs(normal_residual(diag12, x) - np.sqrt(0.5)) <= 1e-15
    assert not sd.is_a_selfadjoint(diag12, x) and not sd.is_a_normal(diag12, x)
    assert selfadjoint_residual(diag12, s) <= 1e-15 and normal_residual(diag12, s) <= 1e-15
    assert sd.is_a_selfadjoint(diag12, s) and sd.is_a_normal(diag12, s)
    for residual in (ba_residual, selfadjoint_residual, normal_residual):
        assert residual(diag12, 0.0 * x) == 0.0


def test_block2_examples(diag12):
    eye, zero = np.eye(2), np.zeros((2, 2))
    blk = sd.block2(diag12, eye, X_MAT, zero, zero)
    assert blk.assembled.shape == (4, 4)
    np.testing.assert_allclose(blk.assembled[:2, 2:], X_MAT, atol=1e-14)
    np.testing.assert_allclose(blk.metric2.a, np.diag([1.0, 2.0, 1.0, 2.0]), atol=1e-13)
    zero_blk = sd.block2(diag12, zero, zero, zero, zero)
    np.testing.assert_allclose(zero_blk.assembled, 0.0, atol=1e-14)


def test_double_metric_from_eigenpairs(diag12):
    rng = np.random.default_rng(31)
    metrics = [diag12, sd.build_metric(np.zeros((2, 2)))]
    metrics += [random_metric(rng, n, rank) for n, rank in ((3, 3), (3, 1), (4, 2))]
    for m in metrics:
        m2 = sd.double_metric(m)
        n, r = m.dim, m.rank
        assert (m2.dim, m2.rank, m2.rank_tol) == (2 * n, 2 * r, m.rank_tol)
        basis2 = np.zeros((2 * n, 2 * r), dtype=complex)
        basis2[:n, :r] = m.basis
        basis2[n:, r:] = m.basis
        assert np.array_equal(m2.basis, basis2)
        assert np.array_equal(m2.eigvecs[:, : 2 * r], basis2)
        np.testing.assert_array_equal(m2.a, np.kron(np.eye(2), m.a))
        np.testing.assert_array_equal(m2.proj, np.kron(np.eye(2), m.proj))
        np.testing.assert_array_equal(m2.pinv_a, np.kron(np.eye(2), m.pinv_a))
        # support first, and the eigenpairs reassemble diag(A, A)
        assert (m2.eigvals[: 2 * r] > 0.0).all() and (m2.eigvals[2 * r:] == 0.0).all()
        np.testing.assert_allclose(m2.eigvecs.conj().T @ m2.eigvecs, np.eye(2 * n), atol=1e-13)
        np.testing.assert_allclose((m2.eigvecs * m2.eigvals) @ m2.eigvecs.conj().T, m2.a,
                                   atol=1e-12 * (1.0 + np.linalg.norm(m.a)))
        for name in ("a", "eigvals", "eigvecs", "pinv_a", "proj", "basis"):
            assert not getattr(m2, name).flags.writeable, name


def test_block_sharp_against_assembled(diag12):
    eye, zero = np.eye(2), np.zeros((2, 2))
    blk = sd.block2(diag12, zero, X_MAT, zero, zero)
    bs = sd.block_sharp(blk)
    np.testing.assert_allclose(bs.t21, [[0.0, 0.0], [0.5, 0.0]], atol=1e-14)
    np.testing.assert_allclose(bs.t12, 0.0, atol=1e-14)
    direct = sd.sharp(blk.metric2, blk.assembled)
    np.testing.assert_allclose(bs.assembled, direct, atol=1e-10)
    # the (P, Q; O, O) shape used by the product bound
    blk2 = sd.block2(diag12, X_MAT, Y_MAT, zero, zero)
    bs2 = sd.block_sharp(blk2)
    np.testing.assert_allclose(bs2.t11, sd.sharp(diag12, X_MAT), atol=1e-14)
    np.testing.assert_allclose(bs2.t21, sd.sharp(diag12, Y_MAT), atol=1e-14)
    np.testing.assert_allclose(bs2.t12, 0.0, atol=1e-14)
    np.testing.assert_allclose(
        bs2.assembled, sd.sharp(blk2.metric2, blk2.assembled), atol=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_sharp_algebra_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = random_metric(rng, n, int(rng.integers(1, n + 1)))
    t = random_bounded_operator(rng, m)
    s = random_bounded_operator(rng, m)
    sh_t = sd.sharp(m, t)
    norm_scale = 1.0 + np.linalg.norm(m.a) * np.linalg.norm(t)
    # defining identity A T^# = T* A
    assert np.linalg.norm(m.a @ sh_t - t.conj().T @ m.a) <= 1e-10 * norm_scale
    # double sharp collapses to the range-compression of T
    dbl = sd.sharp(m, sh_t)
    assert np.linalg.norm(dbl - m.proj @ t @ m.proj) <= 1e-9 * (1 + np.linalg.norm(t))
    # product reversal
    lhs = sd.sharp(m, t @ s)
    rhs = sd.sharp(m, s) @ sh_t
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1 + np.linalg.norm(lhs))


def test_bounded_part(diag10):
    fixed = sd.bounded_part(diag10, X_MAT)
    assert sd.is_a_bounded(diag10, fixed)
    # already-bounded operators pass through unchanged
    t = np.diag([1.0, 7.0])
    np.testing.assert_allclose(sd.bounded_part(diag10, t), t, atol=1e-14)
