"""Hypothesis property checks of the A-adjoint algebra and radius inequalities.

Identities involving the pseudoinverse amplify rounding by the effective
condition number of the metric (largest over smallest retained eigenvalue),
once per application of A^dagger; tolerances scale accordingly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import semidw as sd
from semidw.semiop import bounded_part

FINITE = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
EPS = np.finfo(float).eps


def _kappa(m):
    support = m.eigvals[m.eigvals > 0.0]
    return float(support.max() / support.min()) if support.size else 1.0


def _tol(m, base, power=1):
    return max(base, 100.0 * EPS * _kappa(m) ** power)


def complex_matrix(n):
    return st.tuples(
        arrays(np.float64, (n, n), elements=FINITE),
        arrays(np.float64, (n, n), elements=FINITE),
    ).map(lambda parts: parts[0] + 1j * parts[1])


@st.composite
def metric_and_operators(draw, max_dim=4, count=1):
    n = draw(st.integers(min_value=2, max_value=max_dim))
    g = draw(complex_matrix(n))
    rank = draw(st.integers(min_value=1, max_value=n))
    a = g[:, :rank] @ g[:, :rank].conj().T + 1e-3 * np.eye(n) * draw(
        st.sampled_from([0.0, 1.0]))
    m = sd.build_metric(a)
    ops = [bounded_part(m, draw(complex_matrix(n))) for _ in range(count)]
    return m, ops


@settings(max_examples=30, deadline=None, derandomize=True)
@given(metric_and_operators())
def test_sharp_defining_identity(data):
    m, (t,) = data
    sh = sd.sharp(m, t)
    scale = 1.0 + np.linalg.norm(m.a) * np.linalg.norm(t)
    assert np.linalg.norm(m.a @ sh - t.conj().T @ m.a) <= _tol(m, 1e-10) * scale
    # range condition
    assert np.linalg.norm(sh - m.proj @ sh) <= _tol(m, 1e-9) * (1 + np.linalg.norm(sh))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(metric_and_operators())
def test_double_sharp_is_range_compression(data):
    m, (t,) = data
    dbl = sd.sharp(m, sd.sharp(m, t))
    tol = _tol(m, 1e-9, power=2) * (1 + np.linalg.norm(t))
    assert np.linalg.norm(dbl - m.proj @ t @ m.proj) <= tol


@settings(max_examples=30, deadline=None, derandomize=True)
@given(metric_and_operators(count=2))
def test_sharp_product_reversal(data):
    m, (t, s) = data
    lhs = sd.sharp(m, t @ s)
    rhs = sd.sharp(m, s) @ sd.sharp(m, t)
    scale = 1.0 + np.linalg.norm(lhs) + np.linalg.norm(rhs)
    assert np.linalg.norm(lhs - rhs) <= _tol(m, 1e-9, power=2) * scale


@settings(max_examples=20, deadline=None, derandomize=True)
@given(metric_and_operators())
def test_cartesian_parts_are_selfadjoint(data):
    m, (t,) = data
    tol = _tol(m, 1e-8)
    assert sd.is_a_selfadjoint(m, sd.re_a(m, t), tol=tol)
    assert sd.is_a_selfadjoint(m, sd.im_a(m, t), tol=tol)
    recomposed = sd.re_a(m, t) + 1j * sd.im_a(m, t)
    # recomposition reproduces T on range(A) (up to the null-space coset)
    scale = (1 + np.linalg.norm(m.a) * np.linalg.norm(t))
    assert np.linalg.norm(m.a @ (recomposed - t)) <= _tol(m, 1e-9) * scale


@settings(max_examples=15, deadline=None, derandomize=True)
@given(metric_and_operators())
def test_radius_sandwich(data):
    m, (t,) = data
    if m.rank == 0:
        return
    w = sd.numerical_radius(m, t).value
    norm = sd.op_seminorm(m, t).value
    dw = sd.dw_radius(m, t).value
    tol = max(1e-7, _tol(m, 1e-7)) * (1.0 + dw)
    assert max(w, norm ** 2) <= dw + tol
    assert dw <= np.sqrt(w ** 2 + norm ** 4) + tol


@settings(max_examples=15, deadline=None, derandomize=True)
@given(metric_and_operators())
def test_abs_sq_is_a_positive(data):
    m, (t,) = data
    prod = m.a @ sd.abs_sq(m, t)
    herm = 0.5 * (prod + prod.conj().T)
    scale = 1.0 + np.linalg.norm(prod)
    assert np.linalg.norm(prod - herm) <= _tol(m, 1e-9) * scale
    assert np.linalg.eigvalsh(herm).min() >= -_tol(m, 1e-9) * scale


# ---------------------------------------------------------------------------
# compression is a *-homomorphism onto C^{r x r}


def _spectral(mat):
    return float(np.linalg.norm(mat, 2)) if mat.size else 0.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(metric_and_operators(count=2))
def test_compress_homomorphism(data):
    m, (t, s) = data
    n_t, n_s = sd.compress(m, t), sd.compress(m, s)
    scale = 1.0 + _spectral(n_t) * (1.0 + _spectral(n_s) + _spectral(n_t))
    tol = _tol(m, 1e-9, power=2) * scale
    assert _spectral(sd.compress(m, sd.sharp(m, t)) - n_t.conj().T) <= tol
    assert _spectral(sd.compress(m, s @ t) - n_s @ n_t) <= tol
    assert _spectral(sd.compress(m, sd.abs_sq(m, t)) - n_t.conj().T @ n_t) <= tol
    norm = sd.op_seminorm(m, t).value
    assert norm == pytest.approx(_spectral(n_t), rel=1e-12, abs=1e-14)
    # the ambient form of the seminorm: ||A^{1/2} T (A^{1/2})^+||_2
    ambient = _spectral(m.sqrt_a @ t @ m.pinv_sqrt_a)
    assert abs(norm - ambient) <= _tol(m, 1e-10) * (1.0 + ambient)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(metric_and_operators(count=2))
def test_compress_offdiag_block(data):
    m, (x, y) = data
    if m.rank == 0:
        return
    zero = np.zeros((m.dim, m.dim))
    blk = sd.block2(m, zero, x, y, zero)
    n_x, n_y = sd.compress(m, x), sd.compress(m, y)
    z_r = np.zeros_like(n_x)
    k_mat = np.block([[z_r, n_x], [n_y, z_r]])
    n_blk = sd.compress(blk.metric2, blk.assembled)
    scale = 1.0 + _spectral(k_mat)
    tol = _tol(m, 1e-9) * scale
    np.testing.assert_allclose(np.linalg.svd(n_blk, compute_uv=False),
                               np.linalg.svd(k_mat, compute_uv=False), rtol=0.0, atol=tol)
    w_blk = sd.numerical_radius(blk.metric2, blk.assembled).value
    w_k = sd.numerical_radius(sd.build_metric(np.eye(k_mat.shape[0])), k_mat).value
    assert abs(w_blk - w_k) <= tol
