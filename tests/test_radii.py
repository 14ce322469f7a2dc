import warnings

import numpy as np
import pytest

import semidw as sd
from semidw.errors import RankTooLarge
from semidw.metric import compress
from semidw.radii import _dw_core, _w_core
from semidw.sampling import (
    random_bounded_operator,
    random_kernel_operator,
    random_metric,
    random_phase_unitary,
    random_selfadjoint_operator,
)

from conftest import X_MAT, Y_MAT
from helpers import brute_crawford, brute_dw, brute_numrad, brute_seminorm

SQ2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# seminorm and minimum modulus


def test_seminorm_examples(id2, diag12):
    t = np.array([[1.0, 1.0], [0.0, 2.0]])
    assert sd.op_seminorm(id2, t).value == pytest.approx(np.linalg.norm(t, 2), abs=1e-12)
    # oracle: top singular value of the hand-compressed matrix
    comp = np.diag([1.0, SQ2]) @ X_MAT @ np.diag([1.0, 1 / SQ2])
    expect = np.linalg.svd(comp, compute_uv=False)[0]
    assert sd.op_seminorm(diag12, X_MAT).value == pytest.approx(expect, abs=1e-12)
    assert sd.op_seminorm(diag12, X_MAT).value == pytest.approx(2 ** -0.5, abs=1e-12)
    assert sd.op_seminorm(diag12, Y_MAT).value == pytest.approx(1.0, abs=1e-12)
    assert brute_seminorm(diag12.a, X_MAT) <= sd.op_seminorm(diag12, X_MAT).value + 1e-9


def test_min_modulus_examples(id2, diag12):
    assert sd.min_modulus(id2, np.eye(2)).value == pytest.approx(1.0)
    assert sd.min_modulus(diag12, X_MAT).value == pytest.approx(0.0, abs=1e-12)
    assert sd.min_modulus(diag12, np.diag([2.0, 3.0])).value == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# numerical radius


def test_numerical_radius_examples(id2, diag12):
    assert sd.numerical_radius(id2, np.diag([1.0, 1.0j])).value == pytest.approx(1.0, abs=1e-10)
    est = sd.numerical_radius(diag12, X_MAT)
    assert est.value == pytest.approx(1 / (2 * SQ2), abs=1e-10)
    assert est.value == pytest.approx(brute_numrad(diag12.a, X_MAT), abs=1e-4)
    # cross term of the worked instance compresses to a real symmetric matrix
    s = np.array([[0.0, 1.0], [0.5, 0.0]])
    assert sd.numerical_radius(diag12, s).value == pytest.approx(2 ** -0.5, abs=1e-10)


def test_numerical_radius_witness(diag12):
    est = sd.numerical_radius(diag12, X_MAT)
    assert np.linalg.norm(est.maximizer) == pytest.approx(1.0, abs=1e-12)
    n_mat = compress(diag12, X_MAT)
    val = abs(np.vdot(est.maximizer, n_mat @ est.maximizer))
    assert val == pytest.approx(est.value, abs=1e-8)


# ---------------------------------------------------------------------------
# Crawford number


def test_crawford_examples(id2, diag12):
    assert sd.crawford(id2, np.eye(2)).value == pytest.approx(1.0, abs=1e-10)
    assert sd.crawford(diag12, X_MAT).value == pytest.approx(0.0, abs=1e-10)
    assert sd.crawford(id2, np.diag([1.0, 3.0])).value == pytest.approx(1.0, abs=1e-10)


def test_crawford_matches_convexity_sweep_and_oracle():
    # 100 seeded random 3x3 instances: optimizer vs certified sweep vs oracle
    rng = np.random.default_rng(17)
    for k in range(100):
        m = random_metric(rng, 3, 3 if k % 4 else 2)
        t = random_bounded_operator(rng, m)
        est = sd.crawford(m, t)
        n_mat = compress(m, t)
        dist, _, _ = sd.numrange_distance(n_mat)
        assert est.value == pytest.approx(dist, abs=1e-8 * (1 + np.linalg.norm(n_mat) ** 2))
        ora = sd.oracle_extremum(m, t, "crawford", samples=2048, seed=k)
        assert abs(est.value - ora.value) <= 1e-6 * (1 + est.value)


def _form_gap(est, n_mat):
    c = est.maximizer
    return abs(abs(np.vdot(c, n_mat @ c)) - est.value)


def test_crawford_certified_zero_where_descent_stalled():
    # 0 lies in W(N) of T - |T|^2_A here; the former multistart projected
    # gradient descent stalled at |c*Nc| = 5.1e-4 on this instance
    rng = np.random.default_rng(135)
    n = int(rng.integers(2, 7))
    m = random_metric(rng, n, int(rng.integers(1, n + 1)))
    t = random_bounded_operator(rng, m)
    op = t - sd.abs_sq(m, t)
    est = sd.crawford(m, op)
    n_mat = compress(m, op)
    assert est.value == 0.0
    assert est.value == sd.numrange_distance(n_mat)[0]
    assert est.method == "convexity_sweep"
    c = est.maximizer
    assert abs(np.vdot(c, n_mat @ c)) <= 1e-12 * (1 + np.linalg.norm(n_mat))


def _witness_cases(rng):
    """Compressed matrices of ranks 1-24 covering every witness branch."""
    for k in range(48):
        r = 1 + (7 * k) % 24
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        q, _ = np.linalg.qr(g)
        kind = k % 6
        if kind == 0:  # 0 inside W(N)
            yield g
        elif kind == 1:  # 0 outside W(N)
            yield g + (3.0 + 2.0 * r) * np.exp(2j * np.pi * rng.random()) * np.eye(r)
        elif kind == 2:  # PSD, singular every other time (0 on the boundary)
            h = g[:, : r - (k // 6) % 2] if r > 1 else g
            yield h @ h.conj().T
        elif kind == 3:  # normal with the flat face [1 - i, 1 + i] nearest 0
            ev = 2.0 + np.abs(g[0]) + 1j * g[0].imag
            ev[:2] = [1 + 1j, 1 - 1j][: r]
            yield np.exp(2j * np.pi * rng.random()) * (q * ev) @ q.conj().T
        elif kind == 4:  # normal with random spectrum, 0 inside or outside
            ev = g[0] + (3.0 if k % 4 else 0.0)
            yield (q * ev) @ q.conj().T
        else:  # rank one (0 in W(N) once r >= 2), or a scalar matrix
            yield np.outer(g[0], g[1].conj()) if (k // 6) % 2 else (1 - 2j) * np.eye(r)


def test_crawford_witness_attains_value():
    rng = np.random.default_rng(2024)
    for n_mat in _witness_cases(rng):
        r = n_mat.shape[0]
        m = sd.build_metric(np.eye(r))
        est = sd.crawford(m, n_mat)
        assert est.value == sd.numrange_distance(n_mat)[0]
        assert np.linalg.norm(est.maximizer) == pytest.approx(1.0, abs=1e-12)
        gap = _form_gap(est, n_mat)
        assert gap <= 1e-12 * (1 + np.linalg.norm(n_mat)), (r, gap)
        assert est.residual == pytest.approx(gap, abs=1e-14 * (1 + np.linalg.norm(n_mat)))


# ---------------------------------------------------------------------------
# Davis-Wielandt radius


def test_dw_examples(id2, diag12):
    assert sd.dw_radius(id2, np.eye(2)).value == pytest.approx(SQ2, abs=1e-10)
    assert sd.dw_radius(diag12, Y_MAT).value == pytest.approx(SQ2, abs=1e-10)
    assert sd.dw_radius(diag12, X_MAT).value == pytest.approx(0.5, abs=1e-10)
    assert sd.dw_radius(diag12, X_MAT).value == pytest.approx(
        brute_dw(diag12.a, X_MAT), abs=1e-4)


def test_dw_witness_reproduces_value(diag12):
    est = sd.dw_radius(diag12, Y_MAT)
    assert np.linalg.norm(est.maximizer) == pytest.approx(1.0, abs=1e-12)
    n_mat = compress(diag12, Y_MAT)
    c = est.maximizer
    val = np.sqrt(abs(np.vdot(c, n_mat @ c)) ** 2 + np.linalg.norm(n_mat @ c) ** 4)
    assert val == pytest.approx(est.value, abs=1e-8)
    # ambient witness is A-unit and reproduces the value from the definition
    x = est.witness
    assert sd.semi_norm_vec(diag12, x) == pytest.approx(1.0, abs=1e-10)
    form = sd.semi_inner(diag12, Y_MAT @ x, x)
    norm = sd.semi_norm_vec(diag12, Y_MAT @ x)
    assert np.sqrt(abs(form) ** 2 + norm ** 4) == pytest.approx(est.value, abs=1e-8)


def test_dw_determinism(diag12):
    rng = np.random.default_rng(1)
    t = random_bounded_operator(rng, diag12)
    a = sd.dw_radius(diag12, t, seed=123)
    b = sd.dw_radius(diag12, t, seed=123)
    assert a.value == b.value
    np.testing.assert_array_equal(a.maximizer, b.maximizer)
    ora1 = sd.oracle_extremum(diag12, t, "dw", samples=2048, seed=9)
    ora2 = sd.oracle_extremum(diag12, t, "dw", samples=2048, seed=9)
    assert ora1.value == ora2.value


def test_dw_ascent_residual_is_scale_free():
    # the stopping residual once grew like ||N||^2: from ||N|| = 1e3 every start ran
    # all 300 iterations, and from 1e60 its norm overflowed
    rng = np.random.default_rng(1)
    n_mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    n_mat /= np.linalg.norm(n_mat, 2)
    iterations = _dw_core(n_mat, 1)[2]
    w_val = _w_core(n_mat)[0]
    for s in (1e3, 1e5, 1e20, 1e60):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, _, its, resid = _dw_core(s * n_mat, 1)
        assert its <= iterations, s
        assert np.isfinite(resid), s
        # the sandwich max(w, ||N||^2) <= dw <= sqrt(w^2 + ||N||^4) at ||s N|| = s
        lower, upper = s ** 2, np.hypot(s * w_val, s ** 2)
        assert lower * (1 - 1e-14) <= value <= upper * (1 + 1e-14), s


# ---------------------------------------------------------------------------
# oracle


def test_oracle_identity(id2):
    est = sd.oracle_extremum(id2, np.eye(2), "dw", samples=2048, seed=5)
    assert est.value == pytest.approx(SQ2, abs=1e-6)


def test_oracle_matches_exact_closed_form(diag12):
    # dw of [[1, 1], [0, 0]] under diag(1,2) equals the scalar-block closed
    # form at b = 1/sqrt(2): two independent computations of one supremum
    m1 = sd.build_metric(np.eye(1))
    closed = sd.dw_exact_ix(m1, np.array([[2 ** -0.5]]))
    ora = sd.oracle_extremum(diag12, X_MAT + Y_MAT, "dw", samples=8192, seed=3)
    assert abs(closed.value - ora.value) <= 1e-6


def test_oracle_guards(diag12):
    with pytest.raises(ValueError):
        sd.oracle_extremum(diag12, X_MAT, "nope", samples=128, seed=0)
    big = sd.build_metric(np.eye(7))
    with pytest.raises(RankTooLarge):
        sd.oracle_extremum(big, np.eye(7), "dw", samples=128, seed=0)


# ---------------------------------------------------------------------------
# spec invariants


@pytest.mark.parametrize("seed", range(10))
def test_radius_inequalities_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = random_metric(rng, n, int(rng.integers(1, n + 1)))
    t = random_bounded_operator(rng, m)
    norm = sd.op_seminorm(m, t).value
    w = sd.numerical_radius(m, t).value
    dw = sd.dw_radius(m, t, seed=seed).value
    # seminorm equivalence
    assert 0.5 * norm <= w + 1e-10 * (1 + norm)
    assert w <= norm + 1e-10 * (1 + norm)
    # sandwich
    assert max(w, norm ** 2) <= dw + 1e-8 * (1 + dw)
    assert dw <= np.sqrt(w ** 2 + norm ** 4) + 1e-8 * (1 + dw)
    # product norm ||T^# T|| = ||T||^2
    prod = sd.op_seminorm(m, sd.sharp(m, t) @ t).value
    assert abs(prod - norm ** 2) <= 1e-8 * (1 + norm ** 2)
    # oracle agreement
    if m.rank <= 6:
        ora = sd.oracle_extremum(m, t, "dw", samples=4096, seed=seed)
        assert dw >= ora.value - 1e-6 * (1 + dw)
        assert dw <= ora.value + 1e-4 * (1 + dw)


@pytest.mark.parametrize("seed", range(6))
def test_selfadjoint_radius_equals_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = random_metric(rng, n, int(rng.integers(1, n + 1)))
    t = random_selfadjoint_operator(rng, m)
    assert sd.is_a_selfadjoint(m, t)
    w = sd.numerical_radius(m, t).value
    norm = sd.op_seminorm(m, t).value
    assert abs(w - norm) <= 1e-8 * (1 + norm)


@pytest.mark.parametrize("seed", range(6))
def test_unitary_invariance(seed):
    rng = np.random.default_rng(seed + 40)
    n = int(rng.integers(2, 5))
    m = random_metric(rng, n, int(rng.integers(1, n + 1)))
    t = random_bounded_operator(rng, m)
    u = random_phase_unitary(rng, m)
    assert sd.is_a_unitary(m, u)
    dw_t = sd.dw_radius(m, t, seed=seed).value
    dw_c = sd.dw_radius(m, sd.sharp(m, u) @ t @ u, seed=seed + 1).value
    assert abs(dw_t - dw_c) <= 1e-6 * (1 + dw_t)


def test_block_phase_swap_invariance(diag12):
    rng = np.random.default_rng(77)
    x = random_bounded_operator(rng, diag12)
    y = random_bounded_operator(rng, diag12)
    zero = np.zeros((2, 2))
    base = sd.block2(diag12, zero, x, y, zero)
    phased = sd.block2(diag12, zero, x, np.exp(1.3j) * y, zero)
    swapped = sd.block2(diag12, zero, y, x, zero)
    d0 = sd.dw_radius(base.metric2, base.assembled, seed=0).value
    d1 = sd.dw_radius(phased.metric2, phased.assembled, seed=1).value
    d2 = sd.dw_radius(swapped.metric2, swapped.assembled, seed=2).value
    assert d1 == pytest.approx(d0, abs=1e-6 * (1 + d0))
    assert d2 == pytest.approx(d0, abs=1e-6 * (1 + d0))


@pytest.mark.parametrize("seed", range(4))
def test_zero_characterization(seed):
    rng = np.random.default_rng(seed + 7)
    n = int(rng.integers(2, 5))
    m = random_metric(rng, n, int(rng.integers(1, n)))
    t = random_kernel_operator(rng, m)
    assert np.linalg.norm(m.a @ t) <= 1e-12 * (1 + np.linalg.norm(t))
    assert sd.dw_radius(m, t, seed=seed).value <= 1e-10
    assert sd.numerical_radius(m, t).value <= 1e-10


def test_crawford_brute_force(diag12):
    rng = np.random.default_rng(123)
    t = random_bounded_operator(rng, diag12)
    est = sd.crawford(diag12, t)
    # every sampled |<Tx,x>_A| is feasible, so the brute minimum can only
    # overshoot the true infimum
    assert est.value <= brute_crawford(diag12.a, t) + 1e-9


def test_rank_zero_metric():
    m = sd.build_metric(np.zeros((2, 2)))
    t = np.zeros((2, 2))
    for fn in (sd.op_seminorm, sd.min_modulus, sd.numerical_radius):
        est = fn(m, t)
        assert est.value == 0.0
    assert sd.dw_radius(m, t).value == 0.0
    assert sd.crawford(m, t).value == 0.0


def test_estimate_invariants_all_functionals(diag12):
    # unit maximizer and value-reproducing witness for every functional
    rng = np.random.default_rng(31)
    t = random_bounded_operator(rng, diag12)
    n_mat = compress(diag12, t)
    checks = {
        sd.op_seminorm: lambda c: np.linalg.norm(n_mat @ c),
        sd.min_modulus: lambda c: np.linalg.norm(n_mat @ c),
        sd.numerical_radius: lambda c: abs(np.vdot(c, n_mat @ c)),
        sd.crawford: lambda c: abs(np.vdot(c, n_mat @ c)),
        sd.dw_radius: lambda c: np.sqrt(abs(np.vdot(c, n_mat @ c)) ** 2
                                        + np.linalg.norm(n_mat @ c) ** 4),
    }
    for fn, objective in checks.items():
        est = fn(diag12, t)
        assert np.linalg.norm(est.maximizer) == pytest.approx(1.0, abs=1e-12), fn
        assert objective(est.maximizer) == pytest.approx(est.value, abs=1e-8), fn
        # gauge: first nonzero coordinate real nonnegative
        lead = est.maximizer[np.flatnonzero(np.abs(est.maximizer) > 1e-12)[0]]
        assert abs(lead.imag) <= 1e-10 and lead.real >= 0.0


def test_dim_one_metric():
    m = sd.build_metric(np.array([[2.0]]))
    t = np.array([[1.0 + 1.0j]])
    assert sd.op_seminorm(m, t).value == pytest.approx(np.sqrt(2.0))
    assert sd.numerical_radius(m, t).value == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert sd.crawford(m, t).value == pytest.approx(np.sqrt(2.0), abs=1e-8)
    dw = sd.dw_radius(m, t).value
    assert dw == pytest.approx(np.sqrt(2.0 + 4.0), abs=1e-9)
