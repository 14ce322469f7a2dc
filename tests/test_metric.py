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
from semidw.sampling import random_metric

from conftest import X_MAT


def _half_powers(m):
    """``A^{1/2}`` and ``(A^{1/2})^+`` through the coordinate maps.

    ``B to_coords(x) = A^{1/2} x`` and ``to_ambient(B* x) = (A^{1/2})^+ x``.
    """
    eye = np.eye(m.dim)
    root = np.column_stack([m.basis @ sd.to_coords(m, e) for e in eye])
    pinv_root = np.column_stack([sd.to_ambient(m, m.basis.conj().T @ e) for e in eye])
    return root, pinv_root


def test_identity_metric(id2):
    assert id2.rank == 2
    np.testing.assert_allclose(_half_powers(id2)[0], np.eye(2), atol=1e-14)
    np.testing.assert_allclose(id2.proj, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(id2.pinv_a, np.eye(2), atol=1e-14)


def test_diag12_metric(diag12):
    np.testing.assert_allclose(np.sort(diag12.eigvals), [1.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(_half_powers(diag12)[0], np.diag([1.0, np.sqrt(2.0)]), atol=1e-14)
    np.testing.assert_allclose(diag12.pinv_a, np.diag([1.0, 0.5]), atol=1e-14)
    assert diag12.rank == 2
    assert diag12.eigvals[0] == pytest.approx(2.0)  # descending


def test_rank_deficient_metric(diag10):
    assert diag10.rank == 1
    np.testing.assert_allclose(diag10.proj, np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(_half_powers(diag10)[1], np.diag([1.0, 0.0]), atol=1e-14)
    a = diag10.a
    np.testing.assert_allclose(a @ diag10.pinv_a @ a, a, atol=1e-12)
    for name in ("a", "eigvals", "eigvecs", "pinv_a", "proj", "basis"):
        assert not getattr(diag10, name).flags.writeable, name


def test_build_errors():
    with pytest.raises(EmptyMatrix):
        sd.build_metric(np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch):
        sd.build_metric(np.zeros((2, 3)))
    with pytest.raises(NotHermitian):
        sd.build_metric(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NotPositiveSemidefinite):
        sd.build_metric(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("scale", [1e-300, 1e-13, 1e-12, 1.0, 1e155, 1e300])
def test_hermiticity_check_is_scale_free(scale):
    # the Hermiticity test is relative to ||A||, taken over a power of two: a tiny
    # non-Hermitian A is rejected, not symmetrized, and a huge Hermitian A, whose ||A||_F
    # would overflow, is accepted with the functionals of the unscaled metric
    with pytest.raises(NotHermitian, match="relative residual 8.165e-01"):
        sd.build_metric(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))
    m = sd.build_metric(scale * np.diag([4.0, 1.0]))
    assert m.rank == 2
    t = np.array([[1.0, 2.0], [0.5, -1.0]])
    assert sd.numerical_radius(m, t).value == sd.numerical_radius(
        sd.build_metric(np.diag([4.0, 1.0])), t).value
    # with no positive eigenvalue the PSD slack is eps ||A||_F: -A is rejected at every scale
    with pytest.raises(NotPositiveSemidefinite):
        sd.build_metric(-scale * np.eye(2))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.nan)])
def test_build_metric_rejects_nonfinite_entries(bad):
    # rejected before any arithmetic, with the error as_operator gives an operator:
    # before, unit - unit* warned (an error under the test settings, error::RuntimeWarning)
    # and a nan entry gave NotHermitian, "relative residual nan"
    with pytest.raises(DimensionMismatch, match="metric has non-finite entries"):
        sd.build_metric(np.array([[1.0, bad], [bad, 1.0]]))


def test_operator_layout_and_finiteness(diag12):
    # a transposed complex view (column-major) is an ordinary operator
    t = np.array([[1.0 + 2.0j, 0.5], [0.0, 3.0j]])
    assert sd.op_seminorm(diag12, t.T).value == sd.op_seminorm(diag12, t.T.copy()).value
    for bad in (complex(np.inf, 0.0), complex(0.0, np.nan)):
        with pytest.raises(DimensionMismatch):
            sd.op_seminorm(diag12, np.array([[1.0, bad], [0.0, 1.0]]).T)


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
def test_compress_rejects_nonfinite_residual():
    # A^{1/2} T itself overflows: the residual is nan, not a pass
    m = sd.build_metric(np.diag([4.0, 0.0]))
    huge = np.array([[0.0, 1e308], [0.0, 0.0]])
    assert np.isnan(a_bounded_residual(m, huge))
    with pytest.raises(NotABounded):
        sd.compress(m, huge)


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
def test_residual_of_huge_operators_is_scale_free(diag10, scale):
    # the norms of A^{1/2} T overflowed above ~1.3e154 (a nan residual, after an overflow
    # warning): scaled by its largest entry, the residual is its value, here 1 (the whole
    # of X leaves range(A) through A^{1/2}, at every scale), and no warning is raised
    assert a_bounded_residual(diag10, X_MAT) == 1.0
    assert a_bounded_residual(diag10, scale * X_MAT) == 1.0
    with pytest.raises(NotABounded):
        sd.compress(diag10, scale * X_MAT)
    bounded = scale * np.array([[1.0, 0.0], [2.0, 0.0]])
    assert a_bounded_residual(diag10, bounded) == 0.0
    assert sd.compress(diag10, bounded)[0, 0] == scale

@pytest.mark.parametrize("scale", [1e-6, 1e-9, 1e-12, 1e-300, 1e-320])
def test_residual_of_tiny_operators_is_scale_free(diag10, scale):
    # relative to 1 + ||A^{1/2} T||, every operator with ||A^{1/2} T|| below BOUNDED_TOL
    # passed as A-bounded: X maps the null space of A onto its range, at every scale
    assert a_bounded_residual(diag10, scale * X_MAT) == 1.0
    with pytest.raises(NotABounded):
        sd.compress(diag10, scale * X_MAT)
    bounded = scale * np.array([[1.0, 0.0], [2.0, 0.0]])
    assert a_bounded_residual(diag10, bounded) == 0.0
    assert sd.compress(diag10, bounded)[0, 0] == scale


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
    root, _ = _half_powers(m)
    assert np.linalg.norm(root @ root - m.a) <= scale
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
    # the lift by hand: (A^{1/2})^+ B c with (A^{1/2})^+ = diag(1, 2^{-1/2})
    xs = (np.diag([1.0, 2 ** -0.5]) @ (diag12.basis @ cs.T)).T
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


@pytest.mark.parametrize("rank_tol", [np.nan, np.inf, 1.0, 2.5, -1.0, -1e-300])
def test_build_metric_rejects_rank_tol_outside_unit_interval(rank_tol):
    # before: nan accepted diag(1, -5) at rank 1, 1 or more clamped diag(1, 0.5) to
    # rank 0, and a negative cutoff printed "below --1.000e+00"
    for a in (np.diag([1.0, -5.0]), np.diag([1.0, 0.5])):
        with pytest.raises(ValueError, match="rank_tol"):
            sd.build_metric(a, rank_tol=rank_tol)


def test_build_metric_rank_tol_edges():
    assert sd.build_metric(np.diag([1.0, 0.5]), rank_tol=0.0).rank == 2
    assert sd.build_metric(np.diag([1.0, 0.5]), rank_tol=0.75).rank == 1


def test_random_metric_rejects_rank_above_dim():
    # before: rank 5 at dimension 2 built a full-rank (rank-2) metric
    with pytest.raises(ValueError, match="rank"):
        random_metric(np.random.default_rng(0), 2, 5)
    assert random_metric(np.random.default_rng(0), 2, 2).rank == 2


def test_to_ambient_null_component(diag10):
    x = sd.to_ambient(diag10, np.array([1.0]))
    # canonical witness has zero null-space component
    assert abs(x[1]) <= 1e-14
    assert sd.semi_norm_vec(diag10, x) == pytest.approx(1.0)


def test_coordinate_maps_round_trip():
    rng = np.random.default_rng(17)
    for n, rank in ((2, 1), (3, 1), (4, 2), (5, 3), (5, 5)):
        m = sd.build_metric(_random_psd(rng, n, rank))
        assert m.rank == rank
        c = rng.standard_normal(rank) + 1j * rng.standard_normal(rank)
        x = sd.to_ambient(m, c)
        np.testing.assert_allclose(sd.to_coords(m, x), c, rtol=0.0,
                                   atol=1e-12 * np.linalg.norm(c))
        assert np.linalg.norm(x - m.proj @ x) <= 1e-12 * (1.0 + np.linalg.norm(x))
        assert sd.semi_norm_vec(m, x) == pytest.approx(np.linalg.norm(c), rel=1e-12)
        # coordinates forget the null-space component of an ambient vector
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c_y = sd.to_coords(m, y)
        assert np.linalg.norm(c_y) == pytest.approx(sd.semi_norm_vec(m, y), rel=1e-12)
        np.testing.assert_allclose(sd.to_ambient(m, c_y), m.proj @ y, rtol=0.0,
                                   atol=1e-9 * np.linalg.norm(y))
    with pytest.raises(DimensionMismatch):
        sd.to_coords(m, np.ones(n + 1))


def test_subnormal_eigenvalues_clamp_to_zero():
    # 1 / 6e-322 overflows: pinv_a once held inf entries (a RuntimeWarning)
    tiny = sd.build_metric(np.full((4, 4), 1.6e-322))
    assert tiny.rank == 0 and np.isfinite(tiny.pinv_a).all()
    small = sd.build_metric(np.diag([1e-300, 0.0]))
    assert small.rank == 1 and np.isfinite(small.pinv_a).all()
