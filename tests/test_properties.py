"""Seeded property checks of the A-adjoint algebra and radius inequalities.

Identities involving the pseudoinverse amplify rounding by the effective
condition number of the metric (largest over smallest retained eigenvalue),
once per application of A^dagger; tolerances scale accordingly.

The cases are seeded numpy draws, so the checked examples depend on nothing
but the seed: the zero metric, a zero operator and a repeated operator
first, then random metrics of every rank with condition numbers up to
about 1e4.
"""

import numpy as np
import pytest

import semidw as sd
from semidw.sampling import random_bounded_operator, random_metric
from semidw.semiop import bounded_part

EPS = np.finfo(float).eps


def _kappa(m):
    support = m.eigvals[m.eigvals > 0.0]
    return float(support.max() / support.min()) if support.size else 1.0


def _tol(m, base, power=1):
    return max(base, 100.0 * EPS * _kappa(m) ** power)


def _complex_matrix(rng, n):
    return rng.uniform(-2.0, 2.0, (n, n)) + 1j * rng.uniform(-2.0, 2.0, (n, n))


def metric_and_operators(cases, count=1, seed=0, max_dim=4):
    """``cases`` draws of ``(label, metric, operators)``: ``A = G_r G_r*`` from the
    first ``rank`` columns of a random ``G``, plus ``1e-3 I`` on half of them,
    and ``count`` A-bounded operators."""
    rng = np.random.default_rng(seed)
    for k in range(cases):
        n = int(rng.integers(2, max_dim + 1))
        g = np.zeros((n, n)) if k == 0 else _complex_matrix(rng, n)
        rank = int(rng.integers(1, n + 1))
        ridge = 0.0 if k == 0 else 1e-3 * int(rng.integers(0, 2))
        m = sd.build_metric(g[:, :rank] @ g[:, :rank].conj().T + ridge * np.eye(n))
        ops = [bounded_part(m, _complex_matrix(rng, n)) for _ in range(count)]
        if k == 1:
            ops[0] = np.zeros((n, n), dtype=complex)
        if k == 2:
            ops = ops[:1] * count
        yield (seed, k), m, ops


def test_sharp_defining_identity():
    for case, m, (t,) in metric_and_operators(30, seed=1):
        sh = sd.sharp(m, t)
        scale = 1.0 + np.linalg.norm(m.a) * np.linalg.norm(t)
        assert np.linalg.norm(m.a @ sh - t.conj().T @ m.a) <= _tol(m, 1e-10) * scale, case
        # range condition
        assert np.linalg.norm(sh - m.proj @ sh) <= _tol(m, 1e-9) * (1 + np.linalg.norm(sh)), case


def test_double_sharp_is_range_compression():
    for case, m, (t,) in metric_and_operators(30, seed=2):
        dbl = sd.sharp(m, sd.sharp(m, t))
        tol = _tol(m, 1e-9, power=2) * (1 + np.linalg.norm(t))
        assert np.linalg.norm(dbl - m.proj @ t @ m.proj) <= tol, case


def test_sharp_product_reversal():
    for case, m, (t, s) in metric_and_operators(30, count=2, seed=3):
        lhs = sd.sharp(m, t @ s)
        rhs = sd.sharp(m, s) @ sd.sharp(m, t)
        scale = 1.0 + np.linalg.norm(lhs) + np.linalg.norm(rhs)
        assert np.linalg.norm(lhs - rhs) <= _tol(m, 1e-9, power=2) * scale, case


def test_cartesian_parts_are_selfadjoint():
    for case, m, (t,) in metric_and_operators(20, seed=4):
        tol = _tol(m, 1e-8)
        assert sd.is_a_selfadjoint(m, sd.re_a(m, t), tol=tol), case
        assert sd.is_a_selfadjoint(m, sd.im_a(m, t), tol=tol), case
        recomposed = sd.re_a(m, t) + 1j * sd.im_a(m, t)
        # recomposition reproduces T on range(A) (up to the null-space coset)
        scale = (1 + np.linalg.norm(m.a) * np.linalg.norm(t))
        assert np.linalg.norm(m.a @ (recomposed - t)) <= _tol(m, 1e-9) * scale, case


def test_radius_sandwich():
    for case, m, (t,) in metric_and_operators(15, seed=5):
        if m.rank == 0:
            continue
        w = sd.numerical_radius(m, t).value
        norm = sd.op_seminorm(m, t).value
        dw = sd.dw_radius(m, t).value
        tol = max(1e-7, _tol(m, 1e-7)) * (1.0 + dw)
        assert max(w, norm ** 2) <= dw + tol, case
        assert dw <= np.sqrt(w ** 2 + norm ** 4) + tol, case


def test_abs_sq_is_a_positive():
    for case, m, (t,) in metric_and_operators(15, seed=6):
        prod = m.a @ sd.abs_sq(m, t)
        herm = 0.5 * (prod + prod.conj().T)
        scale = 1.0 + np.linalg.norm(prod)
        assert np.linalg.norm(prod - herm) <= _tol(m, 1e-9) * scale, case
        assert np.linalg.eigvalsh(herm).min() >= -_tol(m, 1e-9) * scale, case


# ---------------------------------------------------------------------------
# compression is a *-homomorphism onto C^{r x r}


def _spectral(mat):
    return float(np.linalg.norm(mat, 2)) if mat.size else 0.0


def _half_powers(m):
    """``A^{1/2}`` and ``(A^{1/2})^+`` assembled from the eigenpairs, without ``compress``."""
    support = m.eigvals > 0.0
    vecs, vals = m.eigvecs[:, support], m.eigvals[support]
    return (vecs * np.sqrt(vals)) @ vecs.conj().T, (vecs / np.sqrt(vals)) @ vecs.conj().T


def test_compress_homomorphism():
    for case, m, (t, s) in metric_and_operators(30, count=2, seed=7):
        n_t, n_s = sd.compress(m, t), sd.compress(m, s)
        scale = 1.0 + _spectral(n_t) * (1.0 + _spectral(n_s) + _spectral(n_t))
        tol = _tol(m, 1e-9, power=2) * scale
        assert _spectral(sd.compress(m, sd.sharp(m, t)) - n_t.conj().T) <= tol, case
        assert _spectral(sd.compress(m, s @ t) - n_s @ n_t) <= tol, case
        assert _spectral(sd.compress(m, sd.abs_sq(m, t)) - n_t.conj().T @ n_t) <= tol, case
        norm = sd.op_seminorm(m, t).value
        assert norm == pytest.approx(_spectral(n_t), rel=1e-12, abs=1e-14), case
        # the ambient form of the seminorm: ||A^{1/2} T (A^{1/2})^+||_2
        root, pinv_root = _half_powers(m)
        ambient = _spectral(root @ t @ pinv_root)
        assert abs(norm - ambient) <= _tol(m, 1e-10) * (1.0 + ambient), case


def test_compress_offdiag_block():
    for case, m, (x, y) in metric_and_operators(20, count=2, seed=8):
        if m.rank == 0:
            continue
        zero = np.zeros((m.dim, m.dim))
        blk = sd.block2(m, zero, x, y, zero)
        n_x, n_y = sd.compress(m, x), sd.compress(m, y)
        z_r = np.zeros_like(n_x)
        k_mat = np.block([[z_r, n_x], [n_y, z_r]])
        n_blk = sd.compress(blk.metric2, blk.assembled)
        scale = 1.0 + _spectral(k_mat)
        tol = _tol(m, 1e-9) * scale
        # diag(A, A) has the range basis diag(B, B): the block compresses blockwise
        np.testing.assert_allclose(n_blk, k_mat, rtol=0.0, atol=tol, err_msg=str(case))
        w_blk = sd.numerical_radius(blk.metric2, blk.assembled).value
        w_k = sd.numerical_radius(sd.build_metric(np.eye(k_mat.shape[0])), k_mat).value
        assert abs(w_blk - w_k) <= tol, case


# ---------------------------------------------------------------------------
# metric scaling: every A-quantity is the same under cA


def _graded_metrics(seed):
    """Full-rank and rank-deficient metrics, support spectra from 1 down to 1e-6."""
    rng = np.random.default_rng(seed)
    for n, rank in ((2, 1), (3, 3), (4, 2), (4, 4), (5, 3)):
        q, _ = np.linalg.qr(_complex_matrix(rng, n))
        spectrum = np.zeros(n)
        spectrum[:rank] = np.logspace(0.0, -6.0, rank)
        yield (q * spectrum) @ q.conj().T, _complex_matrix(rng, n)


def test_metric_scaling_invariance():
    functionals = (sd.dw_radius, sd.numerical_radius, sd.crawford, sd.op_seminorm,
                   sd.min_modulus)
    for k, (a, g) in enumerate(_graded_metrics(seed=9)):
        m = sd.build_metric(a)
        t = bounded_part(m, g)
        base = [f(m, t).value for f in functionals]
        tol = 1e-9 + 8.0 * EPS * _kappa(m)
        for c in (1e-200, 1e-12, 1e-6, 3.0, 1e6, 1e12, 1e200):
            mc = sd.build_metric(c * a)
            assert mc.rank == m.rank, (k, c)
            for f, ref in zip(functionals, base):
                got = f(mc, t).value
                assert abs(got - ref) <= tol * (1.0 + ref), (k, c, f.__name__, got, ref)
            report = sd.verify_all(mc, t)
            assert report.overall_pass, (k, c)


@pytest.mark.parametrize("k", [-1000, -600, -520, -1, 1, 520, 900])
def test_power_of_two_scaling_is_bit_exact(k):
    # the kernel and the Crawford witness scale N by powers of two alone, so w_A and c_A
    # of 2^k T are those of T times 2^k bit for bit, with the same witness and the same
    # iteration count, wherever the values stay normal. ||T||_A and m_A are left out:
    # LAPACK's SVD scales its own input, which moves them by an ulp at |k| >= 520
    rng = np.random.default_rng(2)
    for n in (2, 3, 5):
        for j in range(5):
            m = random_metric(rng, n + 1, n) if j % 2 else sd.build_metric(np.eye(n))
            t = random_bounded_operator(rng, m)
            for f in (sd.numerical_radius, sd.crawford):
                base, got = f(m, t), f(m, 2.0 ** k * t)
                assert got.value == np.ldexp(base.value, k), (n, j, f.__name__)
                assert got.iterations == base.iterations, (n, j, f.__name__)
                assert np.array_equal(got.maximizer, base.maximizer), (n, j, f.__name__)
