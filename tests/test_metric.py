import numpy as np
import pytest

import semidw as sd
from semidw.errors import (
    DimensionMismatch,
    EmptyMatrix,
    NotABounded,
    NotHermitian,
    NotPositiveSemidefinite,
)
from semidw.metric import a_bounded_residual

from conftest import X_MAT


def test_identity_metric(id2):
    assert id2.rank == 2
    np.testing.assert_allclose(id2.sqrt_a, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(id2.proj, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(id2.pinv_a, np.eye(2), atol=1e-14)


def test_diag12_metric(diag12):
    np.testing.assert_allclose(np.sort(diag12.eigvals), [1.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(diag12.sqrt_a, np.diag([1.0, np.sqrt(2.0)]), atol=1e-14)
    np.testing.assert_allclose(diag12.pinv_a, np.diag([1.0, 0.5]), atol=1e-14)
    assert diag12.rank == 2
    assert diag12.eigvals[0] == pytest.approx(2.0)  # descending


def test_rank_deficient_metric(diag10):
    assert diag10.rank == 1
    np.testing.assert_allclose(diag10.proj, np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(diag10.pinv_sqrt_a, np.diag([1.0, 0.0]), atol=1e-14)
    a = diag10.a
    np.testing.assert_allclose(a @ diag10.pinv_a @ a, a, atol=1e-12)


def test_build_errors():
    with pytest.raises(EmptyMatrix):
        sd.build_metric(np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch):
        sd.build_metric(np.zeros((2, 3)))
    with pytest.raises(NotHermitian):
        sd.build_metric(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NotPositiveSemidefinite):
        sd.build_metric(np.diag([1.0, -1.0]))


def test_semi_inner_examples(id2, diag12, diag10):
    assert sd.semi_inner(id2, [1, 0], [0, 1]) == pytest.approx(0.0)
    assert sd.semi_inner(diag12, [0, 1], [0, 1]) == pytest.approx(2.0)
    assert sd.semi_inner(diag10, [0, 1], [0, 1]) == pytest.approx(0.0)
    with pytest.raises(DimensionMismatch):
        sd.semi_inner(id2, [1, 0, 0], [0, 1])


def test_semi_inner_first_slot_linear(diag12):
    # <x, y>_A = <Ax, y> with conjugation on the second slot
    x = np.array([1.0 + 1.0j, 0.5])
    y = np.array([0.25, 2.0 - 1.0j])
    direct = np.vdot(y, np.diag([1.0, 2.0]) @ x)
    assert sd.semi_inner(diag12, x, y) == pytest.approx(direct)
    assert sd.semi_inner(diag12, 2j * x, y) == pytest.approx(2j * direct)
    assert sd.semi_inner(diag12, x, 2j * y) == pytest.approx(np.conj(2j) * direct)


def test_semi_norm_examples(id2, diag12, diag10):
    assert sd.semi_norm_vec(diag12, [1, 1]) == pytest.approx(np.sqrt(3.0))
    assert sd.semi_norm_vec(id2, [3, 4]) == pytest.approx(5.0)
    assert sd.semi_norm_vec(diag10, [0, 5]) == pytest.approx(0.0)


def test_compress_identity(id2):
    t = np.array([[1.0, 2.0], [3.0, 4.0j]])
    n_mat = sd.compress(id2, t)
    np.testing.assert_allclose(n_mat, t, atol=1e-14)
    np.testing.assert_allclose(id2.basis @ n_mat, t, atol=1e-14)


def test_compress_diag12(diag12):
    n_mat = sd.compress(diag12, X_MAT)
    # hand-computed conjugation A^{1/2} X (A^{1/2})^+ in natural coordinates;
    # N is its restriction to the (descending-eigenvalue) range basis
    full = np.diag([1.0, np.sqrt(2.0)]) @ X_MAT @ np.diag([1.0, 2 ** -0.5])
    np.testing.assert_allclose(n_mat, diag12.basis.conj().T @ full @ diag12.basis,
                               atol=1e-14)
    # B N is the range-basis restriction A^{1/2} X (A^{1/2})^+ B
    np.testing.assert_allclose(diag12.basis @ n_mat, full @ diag12.basis, atol=1e-14)
    assert np.abs(n_mat).max() == pytest.approx(2 ** -0.5)
    assert np.count_nonzero(np.abs(n_mat) > 1e-14) == 1
    np.testing.assert_allclose(np.linalg.svd(n_mat, compute_uv=False),
                               np.linalg.svd(full, compute_uv=False), atol=1e-14)


def test_compress_kernel_image(diag10):
    # T maps range(A) into the null space: compressed data is zero
    n_mat = sd.compress(diag10, np.diag([0.0, 1.0]))
    assert n_mat.shape == (1, 1)
    assert (diag10.basis @ n_mat).shape == (2, 1)
    np.testing.assert_allclose(n_mat, 0.0, atol=1e-14)


def test_compress_rejects_unbounded(diag10):
    with pytest.raises(NotABounded):
        sd.compress(diag10, X_MAT)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_compress_rejects_nonfinite_residual(diag10):
    # A^{1/2} T overflows the Frobenius norm: the residual is nan, not a pass
    huge = np.array([[0.0, 1e160], [0.0, 0.0]])
    assert np.isnan(a_bounded_residual(diag10, huge))
    with pytest.raises(NotABounded):
        sd.compress(diag10, huge)

def _random_psd(rng, n, rank):
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return g @ g.conj().T


@pytest.mark.parametrize("seed", range(8))
def test_reconstruction_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    rank = int(rng.integers(1, n + 1))
    a = _random_psd(rng, n, rank)
    m = sd.build_metric(a)
    scale = 1e-10 * (1.0 + np.linalg.norm(m.a))
    assert np.linalg.norm(m.sqrt_a @ m.sqrt_a - m.a) <= scale
    assert np.linalg.norm(m.a @ m.pinv_a @ m.a - m.a) <= scale
    assert np.linalg.norm(m.proj - m.a @ m.pinv_a) <= 1e-9 * (1 + np.linalg.norm(m.a))
    assert np.linalg.norm(m.proj @ m.proj - m.proj) <= 1e-10
    assert np.linalg.norm(m.proj - m.proj.conj().T) <= 1e-12
    assert m.rank == rank
    eye_r = np.eye(m.rank)
    assert np.linalg.norm(m.basis.conj().T @ m.basis - eye_r) <= 1e-12
    assert np.linalg.norm(m.proj @ m.basis - m.basis) <= 1e-12


def test_compression_fidelity(diag12):
    rng = np.random.default_rng(3)
    t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    n_mat = sd.compress(diag12, t)
    cs = rng.standard_normal((1000, 2)) + 1j * rng.standard_normal((1000, 2))
    cs /= np.linalg.norm(cs, axis=1, keepdims=True)
    for c in cs[:50]:
        x = sd.to_ambient(diag12, c)
        assert sd.semi_norm_vec(diag12, x) == pytest.approx(1.0, abs=1e-12)
        form = sd.semi_inner(diag12, t @ x, x)
        assert abs(np.vdot(c, n_mat @ c) - form) <= 1e-9
        assert abs(np.linalg.norm(n_mat @ c) - sd.semi_norm_vec(diag12, t @ x)) <= 1e-9
    # vectorized check over the full 1000
    forms = np.einsum("ki,ij,kj->k", cs.conj(), n_mat, cs)
    xs = (diag12.pinv_sqrt_a @ (diag12.basis @ cs.T)).T
    tx = xs @ t.T
    direct = np.einsum("ki,ij,kj->k", xs.conj(), diag12.a, tx)
    assert np.abs(forms - direct).max() <= 1e-9


def test_rank_monotonicity():
    rng = np.random.default_rng(9)
    a = _random_psd(rng, 4, 4)
    # squeeze two eigenvalues toward zero
    vals, vecs = np.linalg.eigh(a)
    vals[0] *= 1e-13
    vals[1] *= 1e-7
    a = (vecs * vals) @ vecs.conj().T
    ranks = [sd.build_metric(a, rank_tol=tol).rank for tol in (1e-15, 1e-10, 1e-5, 1e-1)]
    assert ranks == sorted(ranks, reverse=True)


def test_to_ambient_null_component(diag10):
    x = sd.to_ambient(diag10, np.array([1.0]))
    # canonical witness has zero null-space component
    assert abs(x[1]) <= 1e-14
    assert sd.semi_norm_vec(diag10, x) == pytest.approx(1.0)
