from collections import Counter
from functools import partial

import numpy as np
import pytest

import semidw as sd
from semidw import jsonio
from semidw._optim import START_ANGLES, gram_herm, herm_parts
from semidw.bounds import CATALOG, LAMBDA_GRID_POINTS, THETA_GRID_BOUNDS
from semidw.errors import DegenerateNorm, NormOutOfRange, NotABounded, ZeroT
from semidw.metric import compress
from semidw.radii import NORM_MAX, _Memo, _w_core
from semidw.sampling import random_bounded_operator, random_metric

from conftest import X_MAT, Y_MAT
from helpers import (brute_dw, hook_kernel, lambda_complex_members, lambda_real_stacked,
                     opening_lines, refine_periodic_max, refuse_multiple_eigenvalues)

SQ2 = np.sqrt(2.0)

# published reference values for the built-in diag(1,2) instance
REMARK_FEKI = 4.2994
REMARK_SUM = 2.621320
REMARK_BALANCED = 3.240466
REMARK_ALIGNED = 3.26928
REMARK_TOL = 5e-4


# ---------------------------------------------------------------------------
# sandwich


def test_sandwich_identity(id2):
    lower, upper = sd.sandwich(id2, np.eye(2))
    assert lower.value == pytest.approx(1.0, abs=1e-10)
    assert upper.value == pytest.approx(SQ2, abs=1e-10)
    assert lower.satisfied and upper.satisfied
    # identity is A-normaloid: the upper bound is tight
    assert upper.gap == pytest.approx(0.0, abs=1e-9)


def test_sandwich_nilpotent(diag12):
    lower, upper = sd.sandwich(diag12, X_MAT)
    assert lower.value == pytest.approx(0.5, abs=1e-9)
    assert upper.value == pytest.approx(np.sqrt(0.125 + 0.25), abs=1e-9)
    assert lower.gap == pytest.approx(0.0, abs=1e-9)  # lower bound tight here


def test_sandwich_projection(diag12):
    lower, upper = sd.sandwich(diag12, Y_MAT)
    assert lower.value == pytest.approx(1.0, abs=1e-9)
    assert upper.value == pytest.approx(SQ2, abs=1e-9)
    assert upper.reference_dw == pytest.approx(SQ2, abs=1e-9)


# ---------------------------------------------------------------------------
# equality diagnostics


def test_normaloid_check(id2, diag12, diag10):
    diag = sd.normaloid_equality_check(diag12, sd.re_a(diag12, X_MAT))
    assert diag.is_normaloid and diag.upper_tight and diag.consistent
    assert diag.witness_norm_gap <= 1e-7
    assert diag.witness_radius_gap <= 1e-7
    diag2 = sd.normaloid_equality_check(diag12, X_MAT)
    assert not diag2.is_normaloid and not diag2.upper_tight and diag2.consistent
    zero = sd.normaloid_equality_check(id2, np.zeros((2, 2)))
    assert zero.is_normaloid and zero.upper_tight
    # nonzero operator with A T = 0: everything vanishes, equality degenerate
    kernel_op = (np.eye(2) - diag10.proj) @ np.array([[1.0, 2.0], [3.0, 4.0]])
    degen = sd.normaloid_equality_check(diag10, kernel_op)
    assert degen.is_normaloid and degen.upper_tight and degen.consistent


def test_zero_equality_check(id2, diag10):
    diag = sd.zero_equality_check(id2, np.zeros((2, 2)))
    assert diag.product_zero and diag.radii_equal and diag.consistent
    # columns inside N(A): A T = 0 for the rank-one metric
    kernel_op = (np.eye(2) - diag10.proj) @ np.array([[1.0, 2.0], [5.0, 3.0]])
    diag2 = sd.zero_equality_check(diag10, kernel_op)
    assert diag2.product_zero and diag2.radii_equal and diag2.consistent
    assert diag2.dw <= 1e-10 and diag2.w <= 1e-10
    diag3 = sd.zero_equality_check(id2, np.eye(2))
    assert not diag3.product_zero and not diag3.radii_equal and diag3.consistent


def test_norm_sq_check(id2, diag12):
    diag = sd.norm_sq_equality_check(diag12, X_MAT)
    assert diag.applicable and diag.ok
    assert diag.max_form_at_maximizers <= 1e-10
    skip = sd.norm_sq_equality_check(id2, np.eye(2))
    assert not skip.applicable
    diag2 = sd.norm_sq_equality_check(id2, np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert diag2.applicable and diag2.ok


# ---------------------------------------------------------------------------
# Crawford lower bounds


def test_lower_crawford_identity(id2):
    recs = sd.lower_crawford(id2, np.eye(2))
    for rec in recs:
        assert rec.value == pytest.approx(SQ2, abs=1e-9)
        assert rec.satisfied


def test_lower_crawford_nilpotent(diag12):
    recs = sd.lower_crawford(diag12, X_MAT)
    values = [rec.value for rec in recs]
    assert values[0] == pytest.approx(0.353553, abs=1e-6)
    assert values[1] == pytest.approx(0.5, abs=1e-9)
    assert values[2] == pytest.approx(0.0, abs=1e-9)
    assert values[3] == pytest.approx(0.0, abs=1e-9)


def test_lower_crawford_dominates_sandwich(diag12):
    rng = np.random.default_rng(21)
    for k in range(5):
        t = random_bounded_operator(rng, diag12)
        ref = sd.dw_radius(diag12, t, seed=k).value
        recs = sd.lower_crawford(diag12, t, reference=ref)
        w = sd.numerical_radius(diag12, t).value
        norm = sd.op_seminorm(diag12, t).value
        assert recs[0].value >= w - 1e-9 * (1 + w)
        assert recs[1].value >= norm ** 2 - 1e-9 * (1 + norm ** 2)


def test_lower_crawford_abs_sq_is_min_modulus_squared(diag12, diag10):
    # c_A(|T|^2_A) read as m_A(T)^2 agrees with the Crawford sweep of T^# T
    rng = np.random.default_rng(17)
    cases = [(diag12, X_MAT), (diag10, X_MAT.T), (diag12, np.zeros((2, 2)))]
    for m in (diag12, random_metric(rng, 3), random_metric(rng, 4, 2)):
        cases += [(m, random_bounded_operator(rng, m)) for _ in range(3)]
    for m, t in cases:
        got = sd.lower_crawford(m, t, reference=1.0)[0].params["crawford_abs_sq"]
        want = sd.crawford(m, sd.sharp(m, t) @ t).value
        norm = sd.op_seminorm(m, t).value
        assert abs(got - want) <= 1e-14 * (1 + norm ** 2), (got, want)
    # nilpotent and rank-deficient: |T|^2_A is singular, so the value is 0
    assert sd.lower_crawford(diag12, X_MAT, reference=1.0)[0].params["crawford_abs_sq"] == 0.0


def test_lower_crawford_runs_no_kernel_on_abs_sq(monkeypatch):
    # w(N) and, unless the inner-polygon short cut certifies c(N) = 0, c(N);
    # the sweep of G = N*N is gone
    from semidw import radii

    calls = []
    hook_kernel(monkeypatch, lambda problems: calls.extend(
        (index, n_mat.tobytes()) for n_mat, index, *_ in problems))
    rng = np.random.default_rng(2)
    m = random_metric(rng, 4, 3)
    t = random_bounded_operator(rng, m)
    n_mat = compress(m, t)
    short_cut = radii._inner_zero(n_mat, *_Memo().run(radii._start_support, n_mat)) is not None
    sd.lower_crawford(m, t, reference=1.0)
    want = [(-1, n_mat.tobytes())] + [(0, n_mat.tobytes())] * (not short_cut)
    assert sorted(calls) == sorted(want)
    calls.clear()
    sd.verify_all(m, t, seed=3)
    assert (0, gram_herm(n_mat).tobytes()) not in calls


# ---------------------------------------------------------------------------
# theta sweep upper bound


def test_theta_sweep_zero_product(diag10):
    t = (np.eye(2) - diag10.proj) @ np.array([[1.0, 2.0], [3.0, 4.0]])
    rec = sd.upper_theta_sweep(diag10, t)
    assert rec.value == pytest.approx(0.0, abs=1e-9)
    assert rec.reference_dw == pytest.approx(0.0, abs=1e-10)


def test_theta_sweep_identity_tight(id2):
    rec = sd.upper_theta_sweep(id2, np.eye(2))
    # sup_theta w(e^{i theta} I + I) = 2, crawford = min modulus = 1
    assert rec.params["sup_w"] == pytest.approx(2.0, abs=1e-9)
    assert rec.value == pytest.approx(SQ2, abs=1e-9)
    assert rec.gap == pytest.approx(0.0, abs=1e-9)


def test_theta_sweep_nilpotent(diag12):
    rec = sd.upper_theta_sweep(diag12, X_MAT)
    assert rec.satisfied
    assert rec.value >= 0.5 - 1e-9


# ---------------------------------------------------------------------------
# cartesian bound


def test_cartesian_identity(id2):
    lower, upper = sd.cartesian_half(id2, np.eye(2))
    assert lower.value == pytest.approx(SQ2, abs=1e-9)
    assert upper.value == pytest.approx(SQ2, abs=1e-9)


def test_cartesian_nilpotent(diag12):
    lower, upper = sd.cartesian_half(diag12, X_MAT)
    assert lower.value <= 0.5 + 1e-8
    assert upper.value >= 0.5 - 1e-8


def test_cartesian_zero(id2):
    lower, upper = sd.cartesian_half(id2, np.zeros((2, 2)))
    assert lower.value == 0.0
    assert upper.value == 0.0


# ---------------------------------------------------------------------------
# Buzano bounds


def test_buzano_identity(id2):
    rec_i, rec_ii = sd.upper_buzano(id2, np.eye(2))
    assert rec_i.value == pytest.approx(SQ2, abs=1e-9)
    assert rec_ii.value == pytest.approx(SQ2, abs=1e-9)
    assert rec_i.gap == pytest.approx(0.0, abs=1e-9)


def test_buzano_nilpotent(diag12):
    _, rec_ii = sd.upper_buzano(diag12, X_MAT)
    # w(X^2) = 0, ||X||^2 = 1/2, ||X||^4 = 1/4
    assert rec_ii.value == pytest.approx(np.sqrt(0.5), abs=1e-9)
    assert rec_ii.satisfied


# ---------------------------------------------------------------------------
# triple bound


def test_triple_identity(id2):
    rec = sd.upper_triple(id2, np.eye(2))
    # 3*2 - c(2I)m(2I) - c(0)m(0) = 2
    assert rec.value == pytest.approx(SQ2, abs=1e-8)
    assert rec.gap == pytest.approx(0.0, abs=1e-8)


def test_triple_zero_and_nilpotent(id2, diag12):
    assert sd.upper_triple(id2, np.zeros((2, 2))).value == 0.0
    rec = sd.upper_triple(diag12, X_MAT)
    assert rec.satisfied
    assert rec.value >= 0.5


# ---------------------------------------------------------------------------
# lambda bounds


def test_lambda_theta_zero(id2):
    rec = sd.upper_lambda_theta(id2, np.zeros((2, 2)))
    assert rec.value == pytest.approx(0.0, abs=1e-12)


def test_lambda_theta_identity(id2):
    rec = sd.upper_lambda_theta(id2, np.eye(2))
    # lambda = 0 member: sup_theta ((cos+1)^2 + (cos-1)^2)/2 = 2
    assert rec.params["lambda0_value"] == pytest.approx(SQ2, abs=1e-9)
    assert rec.value == pytest.approx(SQ2, abs=1e-9)
    # the members are constant (= 2) for small lambda > 0: the tie goes to 0
    assert rec.params["best_lambda"] == 0.0


# (dim, rank): ranks 1, 2, 4, 8, 12, rank-deficient metrics included
LAMBDA_THETA_CASES = [(2, 1), (3, 2), (2, 2), (5, 4), (4, 4), (8, 8), (10, 8), (13, 12), (3, 3)]


def _lambda_theta_instances():
    rng = np.random.default_rng(2024)
    for dim, rank in LAMBDA_THETA_CASES:
        m = random_metric(rng, dim, rank)
        yield m, random_bounded_operator(rng, m)


def test_lambda_theta_matches_stacked_reference():
    # the record is the minimum of every member of the default grid, each member
    # eigen-solved explicitly: the proof that the lambda = 0 member is that minimum,
    # checked on seeded instances
    for m, t in _lambda_theta_instances():
        rec = sd.upper_lambda_theta(m, t, reference=1.0)
        value_sq, lambda0_sq = lambda_real_stacked(compress(m, t), THETA_GRID_BOUNDS,
                                                   LAMBDA_GRID_POINTS)
        assert rec.value == pytest.approx(np.sqrt(value_sq), rel=1e-12, abs=0.0)
        assert rec.params["lambda0_value"] == pytest.approx(np.sqrt(lambda0_sq),
                                                            rel=1e-12, abs=0.0)
        assert rec.params["best_lambda"] == 0.0
        assert rec.params["lambda_points"] == LAMBDA_GRID_POINTS + 1


def _lambda0_dense(n_mat, size=8192):
    """Reference supremum of the lambda = 0 member ``(||C + G||^2 + ||C - G||^2) / 2``:
    a dense angle grid, golden-refined around its three best local maxima."""
    gram = gram_herm(n_mat)
    h_mat, j_mat = herm_parts(n_mat)

    def member(thetas):
        c = np.cos(thetas)[:, None, None] * h_mat + np.sin(thetas)[:, None, None] * j_mat
        vals = np.linalg.eigvalsh(np.stack([c + gram, c - gram]))
        rho = np.maximum(vals[..., -1], -vals[..., 0])
        return 0.5 * (rho[0] ** 2 + rho[1] ** 2)

    thetas = np.linspace(0.0, 2.0 * np.pi, size, endpoint=False)
    return refine_periodic_max(thetas, member(thetas), lambda th: float(member(np.array([th]))[0]),
                               2.0 * np.pi, tol=1e-14)[1]


def _scalar_off_grid(r=3):
    """``alpha I`` at 37 phases between the lambda-real grid angles: every eigenvalue of
    ``C_th +- G`` is r-fold, and the peak lies 0.1 to 0.9 of a grid step off the grid."""
    spacing = 2.0 * np.pi / THETA_GRID_BOUNDS
    for k in range(37):
        yield (1.3 * np.exp(1j * spacing * (9 * k + 0.1 + 0.8 * k / 36))) * np.eye(r)


def _lambda_real_families():
    rng = np.random.default_rng(61)
    yield "r = 1", rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
    for r in (3, 5):
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        q, _ = np.linalg.qr(g)
        ev = g[0] + 0.5
        ev[1] = ev[0]
        yield f"random {r}", g
        yield f"triangular {r}", np.triu(g)
        yield f"hermitian {r}", g + g.conj().T
        yield f"normal with a repeated eigenvalue {r}", (q * ev) @ q.conj().T
    scaled = np.random.default_rng(62)
    for r in (2, 4):
        for _ in range(3):
            g = scaled.standard_normal((r, r)) + 1j * scaled.standard_normal((r, r))
            yield f"random {r} x 1e-3", 1e-3 * g
            yield f"random {r} x 1e3", 1e3 * g
    for n_mat in _scalar_off_grid():
        yield "scalar", n_mat


def _lambda_real(n_mat):
    from semidw import bounds

    return bounds._upper_lambda_theta(bounds._Instance(1, 1.0), n_mat).value


def test_lambda_real_within_rounding_of_dense_reference():
    # relative: the polish stops relative to the value, so small N are resolved too
    for label, n_mat in _lambda_real_families():
        value = _lambda_real(n_mat)
        assert value >= np.sqrt(_lambda0_dense(n_mat)) * (1.0 - 4e-15), label


def test_lambda_real_polish_needs_the_cluster_mean(monkeypatch):
    # a polish that refuses a step at a multiple eigenvalue (the eig_jet mutant with a
    # nan curvature wherever the cluster has more than one member) never leaves the
    # sampled angles on alpha I: only the bisection then closes in on the peak between
    # two of them, to LAMBDA_REAL_RTOL. Measured on _scalar_off_grid: such a polish
    # misses by 1.3e-8 to 9.6e-6, the real one by at most 1.4e-16
    # (test_lambda_real_within_rounding_of_dense_reference allows 4e-15)
    refuse_multiple_eigenvalues(monkeypatch)
    misses = [(np.sqrt(_lambda0_dense(n_mat)) - value) / (1.0 + value)
              for n_mat in _scalar_off_grid() for value in [_lambda_real(n_mat)]]
    assert min(misses) > 1e-10


def _counted_solves(patch, solves: list) -> None:
    """Record ``(name, shape)`` of every ``eigh`` and ``eigvalsh`` call in ``solves``."""
    def counted(name, eig):
        def call(a, *args, **kw):
            solves.append((name, np.shape(a)))
            return eig(a, *args, **kw)

        return call

    for name in ("eigh", "eigvalsh"):
        patch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))


def _newton_run(steps: list, r: int, first_max: int) -> None:
    """``steps`` is one lockstep Newton run: one stacked ``eigh`` of ``C_th +- G`` per step,
    over the searches still running, at most ``first_max`` of them at its start."""
    from semidw._optim import NEWTON_STEPS

    assert len(steps) <= NEWTON_STEPS + 1
    assert all(name == "eigh" and len(shape) == 4 and shape[0] == 2 and shape[2:] == (r, r)
               for name, shape in steps)
    sizes = [shape[1] for _, shape in steps]
    assert not sizes or sizes[0] <= first_max
    assert sizes == sorted(sizes, reverse=True)


def test_lambda_theta_eigensolve_count(monkeypatch):
    # one eigvalsh of C_th +- G at the START_ANGLES angles of a half-turn, one stacked
    # eigh per Newton step from its three best local maxima, then at most 5 bisection
    # rounds, one eigvalsh of C_th +- G at the new midpoints each, each followed by
    # the Newton steps of the midpoints that beat the best value, if any
    from semidw import bounds

    for m, t in _lambda_theta_instances():
        n_mat = compress(m, t)
        solves = []
        with monkeypatch.context() as patch:
            _counted_solves(patch, solves)
            bounds._upper_lambda_theta(bounds._Instance(1, 1.0), n_mat)
        r = m.rank
        # the memo's ||N|| is an svd: no eigensolve precedes the first sample
        assert solves[0] == ("eigvalsh", (2, START_ANGLES, r, r))
        rounds = [k for k, (name, _) in enumerate(solves) if name == "eigvalsh"]
        assert len(rounds) <= 1 + 5
        start_steps = solves[1:rounds[1] if len(rounds) > 1 else None]
        assert start_steps
        _newton_run(start_steps, r, 3)
        for at, end in zip(rounds[1:], [*rounds[2:], len(solves)]):
            shape = solves[at][1]
            assert len(shape) == 4 and shape[0] == 2 and shape[2:] == (r, r)
            if end > at + 1:
                _newton_run(solves[at + 1:end], r, shape[1])


def _lambda0_grid(n_mat, size=20_001) -> float:
    """``sqrt(max g)`` of the lambda = 0 member ``g = (||C + G||^2 + ||C - G||^2) / 2`` over
    ``size`` equispaced angles of [0, pi]."""
    gram = gram_herm(n_mat)
    h_mat, j_mat = herm_parts(n_mat)
    thetas = np.linspace(0.0, np.pi, size)
    c = np.cos(thetas)[:, None, None] * h_mat + np.sin(thetas)[:, None, None] * j_mat
    vals = [np.linalg.eigvalsh(c + sign * gram) for sign in (1.0, -1.0)]
    rho_sq = [np.maximum(v[:, -1], -v[:, 0]) ** 2 for v in vals]
    return float(np.sqrt((0.5 * rho_sq[0] + 0.5 * rho_sq[1]).max()))


def _hidden_peak(a=0.01):
    """``diag(a e^{i phi_k})``: the global peak of g at pi / 32, halfway between two start
    angles, and three peaks 0.15% lower on start angles, which take the three Newton
    ascents. At small ``a`` the floor M is tight there (``g'' = -2a^2`` at the peaks,
    ``M = 2a^2 (1 + a)``), so half of it misses the peak."""
    phases = np.array([1.0 / 32, 4.0 / 16, 8.0 / 16, 12.0 / 16]) * np.pi
    amps = np.array([1.0, *[1.0 / np.sqrt(1.003)] * 3]) * a
    return np.diag(amps * np.exp(1j * phases))


def _certificate_instances():
    """Random, small random, normal and nilpotent N (r = 2, 3, 5, 8), N of rank-1
    metrics, ``_scalar_off_grid`` and ``_hidden_peak``."""
    rng = np.random.default_rng(71)
    for r in (2, 3, 5, 8):
        g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        q, _ = np.linalg.qr(g)
        yield f"random {r}", g
        yield f"random {r} x 0.05", 0.05 * g
        yield f"normal {r}", (q * g[0]) @ q.conj().T
        yield f"nilpotent {r}", np.triu(g, 1)
    for dim in (2, 4, 6):
        m = random_metric(rng, dim, 1)
        yield f"rank-1 metric {dim}", compress(m, random_bounded_operator(rng, m))
    for n_mat in _scalar_off_grid():
        yield "scalar", n_mat
    yield "hidden peak", _hidden_peak()


def _search(n_mat):
    from semidw import bounds

    return bounds._lambda_real_search(n_mat, float(np.linalg.norm(n_mat, 2)))


def test_lambda_real_certified_end_contains_a_dense_grid():
    from semidw.bounds import LAMBDA_REAL_RTOL

    for label, n_mat in _certificate_instances():
        value, upper, angles = _search(n_mat)
        assert upper >= _lambda0_grid(n_mat), label
        # within the stop rule of the best attained value, up to the padding
        assert value <= upper <= value * np.sqrt(1.0 + LAMBDA_REAL_RTOL), label
        assert angles[0] == 0.0 and angles[-1] < np.pi and np.all(np.diff(angles) > 0.0), label


def test_lambda_real_half_floor_loses_the_certificate(monkeypatch):
    # the floor is not loose by 2x: halved, the bisection closes the interval of the
    # hidden peak before sampling it, and the certified end falls below the peak
    from semidw import bounds

    floor = bounds._curvature_floor
    monkeypatch.setattr(bounds, "_curvature_floor", lambda *args: 0.5 * floor(*args))
    n_mat = _hidden_peak()
    value, upper, _ = _search(n_mat)
    assert upper < _lambda0_grid(n_mat) * (1.0 - 1e-4)


def test_lambda_real_bisection_finds_a_peak_the_start_misses(monkeypatch):
    from semidw import bounds

    n_mat = _hidden_peak()
    peak = _lambda0_grid(n_mat)
    value, _, angles = _search(n_mat)
    assert value == pytest.approx(peak, rel=1e-12, abs=0.0)
    assert angles.size > START_ANGLES
    # without the bisection, the start angles and their Newton ascents miss it
    monkeypatch.setattr(bounds, "LAMBDA_REAL_RTOL", np.inf)
    start_only, _, angles = _search(n_mat)
    assert angles.size == START_ANGLES
    assert start_only < peak * (1.0 - 1e-3)


@pytest.mark.parametrize("scale", [1e-150, 1e-60, 1e-8, 1.0, 1e8, 1e60, NORM_MAX / 10.0])
def test_lambda_real_search_rounds_at_any_scale(scale, monkeypatch):
    # M <= 16 sup g at every scale, so an interval closes once its width is at most
    # sqrt(LAMBDA_REAL_RTOL / 2), which pi / 16 reaches in 5 halvings; no
    # RuntimeWarning (an error under the test settings) from the extremes of ||N||
    rng = np.random.default_rng(83)
    shapes = [rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) for r in (2, 5, 12)]
    for n_mat in [*shapes, _hidden_peak(), *list(_scalar_off_grid())[:3]]:
        n_mat = n_mat * (scale / np.linalg.norm(n_mat, 2))
        solves = []
        with monkeypatch.context() as patch:
            _counted_solves(patch, solves)
            value, upper, angles = _search(n_mat)
        assert sum(name == "eigvalsh" for name, _ in solves) <= 1 + 5
        assert angles.size <= START_ANGLES * 4
        assert 0.0 < value <= upper < np.inf


def test_lambda_complex_default_grid_reads_the_memo(monkeypatch):
    from semidw import _optim, bounds
    from semidw.radii import _seminorm_core

    def eigensolve(*args, **kw):
        raise AssertionError("an eigensolve beyond the memo's w and ||N||")

    for m, t in _lambda_complex_instances():
        n_mat = compress(m, t)
        inst = bounds._Instance(1, 1.0)
        inst.memo.run(_w_core, n_mat)
        inst.memo.run(_seminorm_core, n_mat)
        with monkeypatch.context() as patch:
            for name in ("eigh", "eigvalsh", "svd"):
                patch.setattr(np.linalg, name, eigensolve)
            patch.setattr(_optim, "pencil_eigvals", eigensolve)
            rec = bounds._upper_lambda_complex(inst, n_mat)
        assert rec.value == bounds._sandwich(inst, n_mat)[1].value
        assert rec.params["best_lambda"] == [0.0, 0.0]
        assert rec.params["lambda0_value"] == rec.value


def test_lambda_theta_nilpotent(diag12):
    rec = sd.upper_lambda_theta(diag12, X_MAT)
    assert rec.satisfied
    assert rec.value >= 0.5 - 1e-9


@pytest.mark.parametrize("grid", [[], [np.nan], [np.inf], [[0.5, 1.0]], 0.5])
def test_lambda_grid_rejected_before_any_eigensolve(grid, id2, monkeypatch):
    # the records are their lambda = 0 members, so neither evaluator takes a grid:
    # a caller's grid is a TypeError, not a silently ignored keyword
    import inspect

    def eigensolve(*args, **kw):
        raise AssertionError("eigensolve before the keyword check")

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, eigensolve)
    for evaluator in (sd.upper_lambda_theta, sd.upper_lambda_complex):
        assert list(inspect.signature(evaluator).parameters) == ["m", "t", "reference", "tol"]
        with pytest.raises(TypeError, match="lambda_grid"):
            evaluator(id2, np.eye(2), lambda_grid=grid)


def test_lambda_complex_members(id2, diag12):
    rec = sd.upper_lambda_complex(id2, np.eye(2))
    assert rec.value == pytest.approx(SQ2, abs=1e-9)
    # the lambda = 1 member of the reference evaluates to sqrt(10) for the identity
    assert np.sqrt(lambda_complex_members(np.eye(2), [1.0])[0]) == pytest.approx(
        np.sqrt(10.0), abs=1e-9)
    # lambda = 0 member equals the sandwich upper bound exactly
    rec2 = sd.upper_lambda_complex(diag12, X_MAT)
    _, upper = sd.sandwich(diag12, X_MAT)
    assert rec2.params["lambda0_value"] == pytest.approx(upper.value, abs=1e-9)
    assert 0.5 - 1e-9 <= rec2.value <= upper.value + 1e-9


def _lambda_complex_grid(n_mat):
    """The default grid of ``upper_lambda_complex``, from the package's ``w(N)``."""
    w_val = _Memo().run(_w_core, n_mat)[0]
    lams = [0.0j]
    if w_val > 0.0:
        phases = np.exp(2j * np.pi * np.arange(8) / 8.0)
        lams.extend(r * p for r in np.linspace(0.4 * w_val, 2.0 * w_val, 5) for p in phases)
    return np.asarray(lams)


def _lambda_complex_instances():
    """The lambda-real instances, then r = 1, Hermitian, normal, nilpotent and scalar."""
    yield from _lambda_theta_instances()
    rng = np.random.default_rng(31)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    for t in (np.array([[0.7 - 1.2j]]), g + g.conj().T,
              (q * (g[0] + 1.0)) @ q.conj().T, np.triu(g, 1), (0.3 - 1.7j) * np.eye(4)):
        yield sd.build_metric(np.eye(t.shape[0])), t


def test_lambda_complex_matches_unpruned_reference():
    # the record is the minimum of every member of the default grid, each w(N - l I)
    # from a dense angle grid: the proof that the lambda = 0 member is that minimum,
    # checked on seeded instances
    for m, t in _lambda_complex_instances():
        n_mat = compress(m, t)
        grid = _lambda_complex_grid(n_mat)
        rec = sd.upper_lambda_complex(m, t, reference=1.0)
        members = lambda_complex_members(n_mat, grid)
        best = members.min()
        v = rec.value
        assert abs(v - np.sqrt(best)) <= 1e-13 * (1.0 + v), m.rank
        # the lambda = 0 member ties the minimum
        assert members[0] - best <= 1e-12 * abs(best), m.rank
        assert rec.params["best_lambda"] == [0.0, 0.0]
        assert rec.params["grid_size"] == grid.size
        assert abs(rec.params["lambda0_value"] - np.sqrt(members[0])) <= 1e-13 * (1.0 + v)
        # both read one memoized w(N): the lambda = 0 member is the sandwich upper bound
        upper = sd.sandwich(m, t, reference=1.0)[1].value
        assert abs(rec.params["lambda0_value"] - upper) <= 1e-14 * (1.0 + upper), m.rank


# ---------------------------------------------------------------------------
# two-operator bounds


def test_sum_upper_trivial(diag12):
    x = random_bounded_operator(np.random.default_rng(3), diag12)
    primary, special = sd.sum_upper(diag12, x, np.zeros((2, 2)))
    dw_x = sd.dw_radius(diag12, x).value
    assert primary.value == pytest.approx(dw_x, abs=1e-8)
    assert special is not None  # cross term vanishes for y = 0
    assert special.value == pytest.approx(dw_x, abs=1e-8)


def test_sum_upper_remark_value(diag12):
    primary, special = sd.sum_upper(diag12, X_MAT, Y_MAT)
    assert primary.value == pytest.approx(REMARK_SUM, abs=REMARK_TOL)
    assert special is None
    assert primary.satisfied


def test_sum_upper_offdiagonal_special(diag12):
    zero = np.zeros((2, 2))
    bx = sd.block2(diag12, zero, X_MAT, zero, zero)
    by = sd.block2(diag12, zero, zero, Y_MAT, zero)
    m2 = bx.metric2
    primary, special = sd.sum_upper(m2, bx.assembled, by.assembled)
    assert special is not None  # the cross term is exactly zero blockwise
    assert special.satisfied


def test_feki_sum_upper(diag12):
    rec0 = sd.feki_sum_upper(diag12, np.zeros((2, 2)), np.zeros((2, 2)))
    assert rec0.value == 0.0
    rec = sd.feki_sum_upper(diag12, X_MAT, Y_MAT)
    assert rec.value == pytest.approx(REMARK_FEKI, abs=REMARK_TOL)
    assert rec.params["dw_sum"] == pytest.approx(0.5 + SQ2, abs=1e-8)
    # monotone in the dw sum
    rec2 = sd.feki_sum_upper(diag12, 2 * X_MAT, 2 * Y_MAT)
    assert rec2.value > rec.value


def test_offdiag_upper(diag12):
    zero = np.zeros((2, 2))
    rec0 = sd.offdiag_upper(diag12, zero, zero)
    assert rec0.value == 0.0
    rec = sd.offdiag_upper(diag12, X_MAT, Y_MAT)
    expected = np.sqrt(0.125 + 0.25) + np.sqrt(0.25 + 1.0)
    assert rec.value == pytest.approx(expected, abs=1e-9)
    assert rec.satisfied
    # x = y with unit seminorm
    x_unit = X_MAT * SQ2
    rec2 = sd.offdiag_upper(diag12, x_unit, x_unit)
    assert rec2.value == pytest.approx(2 * np.sqrt(1.25), abs=1e-9)


def test_product_sum_upper_shapes(id2):
    eye = np.eye(2)
    rec = sd.product_sum_upper(id2, eye, eye, eye, eye, t=1.0)
    alpha = rec.params["alpha"]
    assert alpha == pytest.approx(1.0, abs=1e-9)
    # bound^2 = 4(4 + alpha^2) = 20, and dw(2I) = sqrt(4 + 16) is tight
    assert rec.value == pytest.approx(np.sqrt(20.0), abs=1e-8)
    assert rec.reference_dw == pytest.approx(np.sqrt(20.0), abs=1e-8)


def test_product_sum_remark_values(diag12):
    eye = np.eye(2)
    rec_b = sd.product_sum_upper_b(diag12, eye, eye, X_MAT, Y_MAT)
    rec_c = sd.product_sum_upper_c(diag12, eye, eye, X_MAT, Y_MAT)
    assert rec_b.value == pytest.approx(REMARK_BALANCED, abs=REMARK_TOL)
    assert rec_c.value == pytest.approx(REMARK_ALIGNED, abs=REMARK_TOL)
    assert rec_b.satisfied and rec_c.satisfied
    # frozen exact values of the two corollaries (alpha^2 = 3/8)
    assert rec_b.value == pytest.approx(np.sqrt(10.5), abs=1e-9)
    assert rec_c.value == pytest.approx(np.sqrt(10.6875), abs=1e-9)


def test_product_sum_corollary_consistency(diag12):
    rng = np.random.default_rng(8)
    p = random_bounded_operator(rng, diag12)
    q = random_bounded_operator(rng, diag12)
    x = random_bounded_operator(rng, diag12)
    y = random_bounded_operator(rng, diag12)
    rec_b = sd.product_sum_upper_b(diag12, p, q, x, y)
    at_tb = sd.product_sum_upper(diag12, p, q, x, y, t=rec_b.params["t"])
    assert rec_b.value == pytest.approx(at_tb.value, abs=1e-9 * (1 + at_tb.value))
    rec_c = sd.product_sum_upper_c(diag12, p, q, x, y)
    at_tc = sd.product_sum_upper(diag12, p, q, x, y, t=rec_c.params["t"])
    assert rec_c.value == pytest.approx(at_tc.value, abs=1e-9 * (1 + at_tc.value))


def test_product_sum_sign_flip(diag12):
    eye = np.eye(2)
    plus = sd.product_sum_upper(diag12, eye, eye, X_MAT, -Y_MAT, t=1.0, sign=1)
    minus = sd.product_sum_upper(diag12, eye, eye, X_MAT, Y_MAT, t=1.0, sign=-1)
    assert plus.value == pytest.approx(minus.value, abs=1e-9)


@pytest.mark.parametrize("t", [1e-200, 1e-160, 1e200, np.inf, -np.inf, np.nan])
def test_product_sum_rejects_degenerate_t(diag12, t):
    # t^2 underflows to 0 (1e-200), 1/t^2 overflows (1e-160), t^2 overflows, or t is nan
    with pytest.raises(ZeroT):
        sd.product_sum_upper(diag12, np.eye(2), np.eye(2), X_MAT, Y_MAT, t=t)


def test_product_sum_overflow_is_vacuous_upper(id2):
    # before: a bare OverflowError from f2 ** 2 at both t
    eye = np.eye(2)
    for t in (1e-100, 1e100):
        rec = sd.product_sum_upper(id2, eye, eye, X_MAT, X_MAT, t=t)
        assert rec.value == np.inf and rec.satisfied
    # f1 overflows, but the bounded operator is zero: the value is 0, not nan
    zero = np.zeros((2, 2))
    assert sd.product_sum_upper(id2, 1e10 * eye, eye, zero, zero, t=1e150).value == 0.0


def test_product_sum_balanced_t_checked(id2):
    # the balanced t^2 = 1e-370 underflows to 0: before, a ZeroDivisionError
    eye = np.eye(2)
    with pytest.raises(ZeroT):
        sd.product_sum_upper_b(id2, 1e70 * eye, 1e-300 * eye, X_MAT, X_MAT)
    # in a report the same failure is a not-applicable record (before: nan, unsatisfied)
    from semidw.bounds import pair_report

    report = pair_report(id2, 1e-320 * eye, X_MAT, seed=1)
    aligned = report.records[-1]
    assert aligned.status == "not-applicable" and aligned.name == "product_sum_upper_c"
    assert report.overall_pass


def test_product_sum_is_even_in_t(diag12):
    eye = np.eye(2)
    assert (sd.product_sum_upper(diag12, eye, eye, X_MAT, Y_MAT, t=-0.5).value
            == sd.product_sum_upper(diag12, eye, eye, X_MAT, Y_MAT, t=0.5).value)


def test_product_sum_errors(diag12):
    eye = np.eye(2)
    with pytest.raises(ZeroT):
        sd.product_sum_upper(diag12, eye, eye, X_MAT, Y_MAT, t=0.0)
    with pytest.raises(DegenerateNorm):
        sd.product_sum_upper_b(diag12, np.zeros((2, 2)), eye, X_MAT, Y_MAT)
    with pytest.raises(DegenerateNorm):
        sd.product_sum_upper_c(diag12, eye, eye, np.zeros((2, 2)), Y_MAT)


# ---------------------------------------------------------------------------
# verify_all


def test_verify_all_identity(id2):
    report = sd.verify_all(id2, np.eye(2), seed=11)
    assert report.overall_pass
    assert report.reference_dw == pytest.approx(SQ2, abs=1e-9)
    anchors = [rec.anchor for rec in report.records]
    assert tuple(anchors) == CATALOG
    tight = {"sandwich-upper", "buzano-modulus-upper", "buzano-square-upper",
             "triple-modulus-upper", "lambda-real-upper", "lambda-complex-upper",
             "theta-sweep-upper"}
    for rec in report.records:
        if rec.anchor in tight:
            assert abs(rec.gap) <= 1e-7, rec.anchor


def test_verify_all_nilpotent(diag12):
    report = sd.verify_all(diag12, X_MAT, seed=11)
    assert report.overall_pass
    assert report.reference_dw == pytest.approx(0.5, abs=1e-8)
    # ||X||_A = 1/sqrt(2): the shell osculates the circle |p| = dw at its farthest
    # point, where the outer polygon closes slowly; the bracket stays far inside tol
    assert report.reference_dw <= 0.5 <= report.reference_dw_upper <= 0.5 + 1e-6
    oracle = sd.oracle_extremum(diag12, X_MAT, "dw", samples=8192, seed=11)
    assert oracle.value == pytest.approx(0.5, abs=1e-6)


def test_verify_all_ordering_random():
    rng = np.random.default_rng(42)
    for k in range(6):
        n = int(rng.integers(2, 5))
        m = random_metric(rng, n, int(rng.integers(1, n + 1)))
        t = random_bounded_operator(rng, m)
        report = sd.verify_all(m, t, seed=k)
        assert report.overall_pass
        dw = report.reference_dw
        for rec in report.records:
            if rec.status != "ok":
                continue
            if rec.kind == "lower":
                assert rec.value <= dw + report.tol, rec.anchor
            else:
                assert rec.value >= dw - 2 * report.tol, rec.anchor


def test_verify_all_brute_force_reference(diag12):
    t = random_bounded_operator(np.random.default_rng(2), diag12)
    report = sd.verify_all(diag12, t, seed=3)
    assert report.reference_dw == pytest.approx(brute_dw(diag12.a, t), rel=1e-3)


def test_pair_report_remark(diag12):
    from semidw.bounds import pair_report

    report = pair_report(diag12, X_MAT, Y_MAT, seed=5)
    assert report.overall_pass
    assert report.reference_dw == pytest.approx(1.8249907414, abs=1e-6)
    by_anchor = {rec.anchor: rec for rec in report.records}
    assert by_anchor["sum-split-upper"].value == pytest.approx(REMARK_SUM, abs=REMARK_TOL)
    assert by_anchor["feki-sum-upper"].value == pytest.approx(REMARK_FEKI, abs=REMARK_TOL)


def test_verify_all_degenerate_metrics():
    # rank-zero and rank-one metrics go through the whole catalog
    zero_m = sd.build_metric(np.zeros((3, 3)))
    report = sd.verify_all(zero_m, np.zeros((3, 3)), seed=1)
    assert report.overall_pass
    assert report.reference_dw == 0.0
    one_m = sd.build_metric(np.diag([1.0, 0.0, 0.0]))
    t = np.diag([2.0, 1.0, 1.0])
    report2 = sd.verify_all(one_m, t, seed=1)
    assert report2.overall_pass
    assert report2.reference_dw == pytest.approx(np.sqrt(4.0 + 16.0), abs=1e-9)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_verify_all_rejects_nonfinite_residual(diag10):
    # not A-bounded, and so large that the boundedness residual is nan
    with pytest.raises(NotABounded):
        sd.verify_all(diag10, np.array([[0.0, 1e160], [0.0, 0.0]]), seed=1)

def test_pair_report_degenerate_not_applicable(diag12):
    from semidw.bounds import pair_report

    zero = np.zeros((2, 2))
    report = pair_report(diag12, zero, zero, seed=5)
    # with P = Q = I only the aligned corollary's hypothesis (nonzero
    # ||PX||, ||QY||) fails: not-applicable, never a report failure
    statuses = {rec.anchor: rec.status for rec in report.records}
    assert statuses["product-sum-balanced-upper"] == "ok"
    assert statuses["product_sum_upper_c"] == "not-applicable"
    assert report.overall_pass


def test_pair_report_judges_offdiag_by_the_block_slack(diag12, monkeypatch):
    # the offdiag record is judged against the block's own dw bracket, so its slack
    # is 1e-6 (1 + the block's lower end), not the slack derived from dw(X + Y)
    from semidw import bounds

    x = 3.0 * X_MAT
    report = bounds.pair_report(diag12, x, Y_MAT)
    block = next(r for r in report.records if r.anchor == "offdiag-block-upper").reference_dw
    own = 1e-6 * (1.0 + block)
    assert own < report.tol
    miss = 0.5 * (own + report.tol)

    def short(inst, n_x, n_y):
        op = bounds._offdiag(n_x, n_y)
        return inst.record(op, "offdiag block upper", "offdiag-block-upper", "upper",
                           inst.memo.dw(op).value - miss)

    monkeypatch.setattr(bounds, "_offdiag_upper", short)
    for tol, satisfied in ((None, False), (2.0 * miss, True)):
        got = bounds.pair_report(diag12, x, Y_MAT, tol=tol)
        rec = next(r for r in got.records if r.anchor == "offdiag-block-upper")
        assert rec.satisfied is satisfied, tol
        assert got.overall_pass is satisfied, tol


def test_lambda_params_at_zero_operator_and_rank_zero_metric():
    # T = 0: the default grid's span is [0.0, 0.0], with no -0.0 in the report
    report = sd.verify_all(sd.build_metric(np.eye(3)), np.zeros((3, 3)))
    real = next(r for r in report.records if r.anchor == "lambda-real-upper")
    assert real.params["lambda_span"] == [0.0, 0.0]
    assert np.copysign(1.0, real.params["lambda_span"]).tolist() == [1.0, 1.0]
    assert "-0.0" not in jsonio.dump_json(jsonio.report_to_dict(report))
    # a rank-zero metric: both scalar-shift records carry no params
    report = sd.verify_all(sd.build_metric(np.zeros((3, 3))), np.ones((3, 3)))
    for anchor in ("lambda-real-upper", "lambda-complex-upper"):
        rec = next(r for r in report.records if r.anchor == anchor)
        assert (rec.value, rec.params) == (0.0, {}), anchor


# ---------------------------------------------------------------------------
# one instance per report


def _seeded_metrics():
    rng = np.random.default_rng(7)
    return [random_metric(rng, 3), random_metric(rng, 4, 2), random_metric(rng, 3, 0)]


def test_reports_run_each_core_once_per_matrix(monkeypatch):
    from semidw import bounds, radii

    calls = []
    for name in ("_w_core", "_crawford_core", "_seminorm_core", "_min_modulus_core",
                 "_dw_core", "_theta_sweep_core"):
        def counted(n_mat, *args, _name=name,
                    _core=getattr(radii if hasattr(radii, name) else bounds, name)):
            calls.append((_name, n_mat.shape, n_mat.tobytes()))
            return _core(n_mat, *args)

        for module in (radii, bounds):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    rng = np.random.default_rng(11)
    for m in _seeded_metrics()[:2]:
        x, y = random_bounded_operator(rng, m), random_bounded_operator(rng, m)
        for run in (lambda: bounds.verify_all(m, x, seed=3),
                    lambda: bounds.pair_report(m, x, y, seed=3)):
            calls.clear()
            run()
            assert calls
            repeated = {key[0] for key in calls if calls.count(key) > 1}
            assert not repeated, repeated


def test_reports_run_each_angle_kernel_once(monkeypatch):
    # no entry point solves a kernel problem twice, nor a scaled copy of one: the dw
    # bracket reads its pi/4 line from theta-sweep's (N, -1, N*N) problem, whose slice
    # (N, -1, N*N) / sqrt(2) it would otherwise solve again
    from semidw import bounds, radii

    calls = []
    hook_kernel(monkeypatch, calls.extend)
    rng = np.random.default_rng(11)
    for m in _seeded_metrics()[:2]:
        x, y = random_bounded_operator(rng, m), random_bounded_operator(rng, m)
        for run in (lambda: bounds.verify_all(m, x, seed=3),
                    lambda: bounds.pair_report(m, x, y, seed=3),
                    lambda: radii.dw_radius(m, x), lambda: radii.estimates(m, x),
                    lambda: bounds.exact_checks(m, x)):
            calls.clear()
            run()
            assert calls
            keys = [(index, None if shift is None else shift.tobytes(), n_mat.shape,
                     n_mat.tobytes()) for n_mat, index, shift, *_ in calls]
            assert len(set(keys)) == len(keys)
            units = [(index, np.concatenate([n_mat.ravel(), shift.ravel()]))
                     for n_mat, index, shift, *_ in calls if shift is not None]
            units = [(index, v / np.linalg.norm(v)) for index, v in units]
            for i, (index, v) in enumerate(units):
                assert not any(index == other and v.shape == u.shape
                               and np.linalg.norm(v - u) <= 1e-12 for other, u in units[:i])


def test_reports_make_one_kernel_call_before_their_dw_slices(monkeypatch):
    # every kernel-backed read of a report, with the w and pi/4 lines of each dw bracket it
    # reads, is solved in one stacked call per order: the catalog's (w of N, N +- G, N^2;
    # theta-sweep, N's pi/4 line; c of N, N +- G past the short cut) at order r, the pair
    # report's (w of the cross term; w and pi/4 of X + Y, X and Y) at order r and the
    # offdiag block's (w, the product records' alpha; pi/4) at order 2r. The brackets then
    # run in lockstep: every later call holds at most one slice per open bracket of its
    # order, all warm-started, and the pair's three brackets of order r share some call
    from semidw import bounds, radii

    log, built = [], []
    hook_kernel(monkeypatch, log.append)

    def counted(n_mat, memo, _core=radii._dw_core):
        built.append(n_mat.tobytes())
        return _core(n_mat, memo)

    for module in (radii, bounds):
        monkeypatch.setattr(module, "_dw_core", counted)
    rng = np.random.default_rng(23)
    m = random_metric(rng, 4, 3)
    x, y = random_bounded_operator(rng, m), random_bounded_operator(rng, m)
    n_mat = compress(m, x)
    assert np.linalg.norm(n_mat @ n_mat.conj().T - n_mat.conj().T @ n_mat) > 0.1  # not normal
    r = m.rank
    for run, brackets in ((lambda: bounds.verify_all(m, x, seed=3), {r: 1}),
                          (lambda: bounds.pair_report(m, x, y, seed=3), {r: 3, 2 * r: 1})):
        log.clear()
        built.clear()
        run()
        first, later = log[:len(brackets)], log[len(brackets):]
        assert [problems[0][0].shape[0] for problems in first] == list(brackets)
        assert 5 <= len(first[0]) <= 8
        assert all(len(problem) == 3 for problems in first for problem in problems)
        sweeps = [n for problems in first for n, index, shift in problems
                  if index == -1 and shift is not None and np.array_equal(shift, gram_herm(n))]
        assert len(sweeps) == len(built) == len(set(built)) == sum(brackets.values())
        assert later
        for problems in later:
            assert len(problems) <= brackets[problems[0][0].shape[0]]
            assert all(index == -1 and shift is not None and start is not None
                       for _, index, shift, start in problems)
        assert max(len(problems) for problems in later) == max(brackets.values())


def test_lockstep_brackets_match_bracket_by_bracket_and_raise_their_checks(monkeypatch):
    # the brackets of one fill in lockstep give the raw outputs, problems and pencils of
    # one fill per bracket; a NormOutOfRange of one bracket's check leaves the fill
    from semidw import _optim, radii

    counts = {"problems": 0, "pencils": 0}

    def stacked(problems, _kernel=radii.rotated_eig_max_stack):
        counts["problems"] += len(problems)
        return _kernel(problems)

    def counted_pencils(*args, _solve=_optim.pencil_eigvals):
        counts["pencils"] += 1
        return _solve(*args)

    monkeypatch.setattr(_optim, "pencil_eigvals", counted_pencils)
    monkeypatch.setattr(radii, "rotated_eig_max_stack", stacked)
    rng = np.random.default_rng(31)
    mats = [compress(m, random_bounded_operator(rng, m))
            for m in (random_metric(rng, 4, 3), random_metric(rng, 3), random_metric(rng, 5, 3))]
    mats.append(mats[0] @ mats[2])
    got = []
    for fills in ([mats], [[n] for n in mats]):
        memo = _Memo()
        counts.update(problems=0, pencils=0)
        for batch in fills:
            memo.fill([(radii._dw_core, n) for n in batch])
        dws = [memo.raw[(radii._dw_core, n.shape, n.tobytes())] for n in mats]
        got.append(([(value, c.tobytes(), calls, width) for value, c, calls, width in dws],
                    dict(counts)))
        assert sum(key[0] is radii._dw_core for key in memo.raw) == len(mats)
    assert got[0] == got[1]
    assert got[0][1]["problems"] == got[0][1]["pencils"] > 0
    with pytest.raises(NormOutOfRange):
        _Memo().fill([(radii._dw_core, mats[0]), (radii._dw_core, 1e100 * mats[1])])


def test_prefetch_solves_the_problems_and_pencils_of_core_by_core(monkeypatch):
    # the stacked fill solves the same problems, with the same pencils, as filling the
    # cores one by one, and every report is bit-identical
    from semidw import _optim, bounds, radii

    counts = {"problems": 0, "pencils": 0}

    def stacked(problems, _kernel=radii.rotated_eig_max_stack):
        counts["problems"] += len(problems)
        return _kernel(problems)

    def counted_pencils(*args, _solve=_optim.pencil_eigvals):
        counts["pencils"] += 1
        return _solve(*args)

    def one_by_one(memo, pairs, _fill=radii._Memo.fill):
        for pair in pairs:
            _fill(memo, [pair])

    monkeypatch.setattr(_optim, "pencil_eigvals", counted_pencils)
    monkeypatch.setattr(_optim, "rotated_eig_max_stack", stacked)
    monkeypatch.setattr(radii, "rotated_eig_max_stack", stacked)
    rng = np.random.default_rng(29)
    for m in _seeded_metrics():
        x, y = random_bounded_operator(rng, m), random_bounded_operator(rng, m)
        for run in (lambda: bounds.verify_all(m, x, seed=3),
                    lambda: bounds.pair_report(m, x, y, seed=3)):
            got = []
            for fill in (radii._Memo.fill, one_by_one):
                monkeypatch.setattr(radii._Memo, "fill", fill)
                counts.update(problems=0, pencils=0)
                got.append((jsonio.dump_json(jsonio.report_to_dict(run())), dict(counts)))
            assert got[0] == got[1]
            assert got[0][1]["problems"] == got[0][1]["pencils"] > 0 or m.rank == 0


def test_lambda_complex_stacks_stay_small(monkeypatch):
    # the support points and the w kernel stack at most START_ANGLES angles per eigensolve
    sizes = []

    def recorded(solve):
        def wrapped(a, *args, **kw):
            sizes.append(int(np.prod(np.shape(a)[:-2])))
            return solve(a, *args, **kw)
        return wrapped

    rng = np.random.default_rng(4)
    m = random_metric(rng, 4)
    t = random_bounded_operator(rng, m)
    want = sd.upper_lambda_complex(m, t, reference=1.0)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
    got = sd.upper_lambda_complex(m, t, reference=1.0)
    assert sizes and max(sizes) <= START_ANGLES
    assert (got.value, got.params) == (want.value, want.params)


def _same_records(got, want):
    assert [r.anchor for r in got] == [r.anchor for r in want]
    for g, w in zip(got, want):
        assert g.value == w.value or (np.isnan(g.value) and np.isnan(w.value)), g.anchor
        assert g.params == w.params, g.anchor
        assert (g.status, g.satisfied, g.reference_dw) == (w.status, w.satisfied,
                                                           w.reference_dw), g.anchor


def test_public_evaluators_match_reports():
    from semidw.bounds import pair_report

    rng = np.random.default_rng(5)
    for m in _seeded_metrics():
        t, y = random_bounded_operator(rng, m), random_bounded_operator(rng, m)
        report = sd.verify_all(m, t, seed=9)
        kw = {"reference": report.reference_dw, "tol": report.tol}
        got = []
        for fn in (sd.sandwich, sd.lower_crawford, sd.upper_theta_sweep, sd.cartesian_half,
                   sd.upper_buzano, sd.upper_triple, sd.upper_lambda_theta,
                   sd.upper_lambda_complex):
            out = fn(m, t, **kw)
            got.extend([out] if isinstance(out, sd.BoundRecord) else out)
        _same_records(got, report.records)

        report = pair_report(m, t, y, seed=9)
        kw = {"reference": report.reference_dw, "tol": report.tol}
        eye = np.eye(m.dim)
        got = [r for r in sd.sum_upper(m, t, y, **kw) if r is not None]
        got.append(sd.feki_sum_upper(m, t, y, **kw))
        got.append(sd.offdiag_upper(m, t, y, **{**kw, "reference": None}))
        want = [r for r in report.records if r.status != "not-applicable"]
        for fn in (sd.product_sum_upper_b, sd.product_sum_upper_c):
            try:
                got.append(fn(m, eye, eye, t, y, **kw))
            except DegenerateNorm:
                assert fn.__name__ in [r.anchor for r in report.records]
        _same_records(got, want)


def test_public_radii_match_report_paths(monkeypatch):
    # the public closed forms and dw_radius read the same memo path as the reports:
    # dw_radius takes one SVD and solves its w and pi/4 lines once, in its first kernel call
    from semidw import radii
    from semidw.bounds import exact_checks

    calls, problems = Counter(), []

    def counted(n_mat, memo, _core=radii._seminorm_core):
        calls["_seminorm_core"] += 1
        return _core(n_mat, memo)

    monkeypatch.setattr(radii, "_seminorm_core", counted)
    hook_kernel(monkeypatch, problems.append)
    rng = np.random.default_rng(13)
    for m in _seeded_metrics():
        t = random_bounded_operator(rng, m)
        checks = exact_checks(m, t)[1]
        for (_, closed, _, _), public in zip(checks, (sd.dw_exact_ix, sd.dw_exact_0x)):
            est = public(m, t)
            assert est.to_dict() == closed.to_dict()
            if m.rank:
                np.testing.assert_array_equal(est.witness, closed.witness)
            else:
                assert est.witness is None and closed.witness is None
        calls.clear()
        problems.clear()
        est = sd.dw_radius(m, t)
        assert calls == (Counter(_seminorm_core=1) if m.rank else Counter())
        if m.rank:
            assert [radii._problem_key(*problem) for problem in problems[0]] == opening_lines(
                compress(m, t))
            assert all(len(later) == 1 and len(later[0]) == 4 for later in problems[1:])
        else:
            assert problems == []
        report = sd.verify_all(m, t, seed=1)
        assert [est.value, est.value + est.residual] == [report.reference_dw,
                                                         report.reference_dw_upper]


# ---------------------------------------------------------------------------
# the finite range of ||T||_A


def _scaled(rng, m, norm):
    t = random_bounded_operator(rng, m)
    return t * (norm / sd.op_seminorm(m, t).value)


def test_reports_finite_just_below_norm_max():
    from semidw.bounds import pair_report

    rng = np.random.default_rng(3)
    for m in (sd.build_metric(np.eye(3)), random_metric(rng, 3, 2)):
        for _ in range(2):
            t = _scaled(rng, m, 0.999 * NORM_MAX)
            report = sd.verify_all(m, t, seed=1)
            x, y = _scaled(rng, m, 0.998 * NORM_MAX), _scaled(rng, m, 1e-3 * NORM_MAX)
            report2 = pair_report(m, x, y, seed=1)
            for rep in (report, report2):
                assert rep.overall_pass and np.isfinite(rep.reference_dw)
                for rec in rep.records:
                    assert rec.status == "ok", rec.anchor
                    assert np.isfinite(rec.value) and np.isfinite(rec.gap), rec.anchor


def _large_gaussian(norm):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return t * (norm / np.linalg.norm(t, 2))


def test_oracle_reference_finite_at_large_norm():
    # the oracle's refinement, unscaled, overflowed here and gave dw = inf, and
    # with it tol = inf and a vacuous pass
    m = sd.build_metric(np.eye(4))
    for norm, seed in ((1e31, 1), (1e35, 42), (1e20, 42)):
        t = _large_gaussian(norm)
        report = sd.verify_all(m, t, seed=seed)
        assert np.isfinite([report.reference_dw, report.reference_dw_upper, report.tol]).all()
        oracle = sd.oracle_extremum(m, t, "dw", samples=8192, seed=seed).value
        assert np.isfinite(oracle)
        assert oracle == pytest.approx(report.reference_dw, rel=1e-12)
        assert report.overall_pass


def _public_evaluators(m):
    """Public evaluators of both families, each waiting for ``reference`` and ``tol``."""
    eye = np.eye(m.dim)
    return [partial(sd.sandwich, m, X_MAT), partial(sd.lower_crawford, m, X_MAT),
            partial(sd.upper_lambda_theta, m, X_MAT), partial(sd.sum_upper, m, X_MAT, Y_MAT),
            partial(sd.offdiag_upper, m, X_MAT, Y_MAT),
            partial(sd.product_sum_upper, m, eye, eye, X_MAT, Y_MAT, 1.0)]


def test_reports_reject_nonfinite_reference(monkeypatch, diag12):
    from semidw import bounds, radii

    # sandwich(reference=inf) passed both records
    for reference in (np.inf, np.nan):
        for evaluator in _public_evaluators(diag12):
            with pytest.raises(sd.NonFiniteReference):
                evaluator(reference=reference)
    for module in (radii, bounds):
        monkeypatch.setattr(module, "_dw_core", lambda *args: (np.inf, None, 0, 0.0))
    with pytest.raises(sd.NonFiniteReference):
        sd.verify_all(diag12, np.array([[1.0, 2.0], [0.5, -1.0]]), seed=1)
    with pytest.raises(sd.NonFiniteReference):
        bounds.pair_report(diag12, np.eye(2), np.diag([1.0, 0.0]), seed=1)


@pytest.mark.parametrize("tol", [np.inf, np.nan, -1.0])
def test_reports_reject_tol_outside_range(diag12, tol):
    # an infinite tol passed every record, a nan or negative one failed them all;
    # sandwich(reference=100.0, tol=inf) reported its violated upper bound as satisfied
    from semidw.bounds import pair_report

    with pytest.raises(ValueError, match="tol"):
        sd.verify_all(diag12, X_MAT, seed=1, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        pair_report(diag12, X_MAT, Y_MAT, seed=1, tol=tol)
    for evaluator in _public_evaluators(diag12):
        for reference in (None, 100.0):
            with pytest.raises(ValueError, match="tol"):
                evaluator(reference=reference, tol=tol)


def test_records_judged_against_the_bracket():
    # a lower bound is judged against the upper end, an upper bound against the
    # lower end, a closed form against both; dw and gap read the lower end
    from semidw.bounds import _Instance

    inst = _Instance((0.5, 0.6), 0.0)

    def judged(kind, value):
        rec = inst.record(np.zeros((1, 1)), kind, kind, kind, value)
        assert rec.reference_dw == 0.5
        assert rec.gap == (0.5 - value if kind == "lower" else value - 0.5)
        return rec.satisfied

    assert judged("lower", 0.55) and not judged("lower", 0.61)
    assert not judged("upper", 0.49) and judged("upper", 0.5)
    assert judged("exact", 0.55)
    assert not judged("exact", 0.49) and not judged("exact", 0.61)


def test_reports_carry_the_dw_bracket(diag12):
    from semidw.bounds import pair_report

    t = random_bounded_operator(np.random.default_rng(8), diag12)
    for report in (sd.verify_all(diag12, t, seed=1), pair_report(diag12, t, X_MAT, seed=1)):
        assert report.dw_multistart is None and report.dw_oracle is None
        width = report.reference_dw_upper - report.reference_dw
        assert 0.0 <= width <= 1e-9 * (1.0 + report.reference_dw)
        payload = jsonio.report_to_dict(report)
        assert payload["reference_dw_upper"] == report.reference_dw_upper
        assert payload["dw_multistart"] is None and payload["dw_oracle"] is None


def test_reports_reject_norm_above_norm_max(id2):
    from semidw.bounds import pair_report

    big = np.array([[0.0, 1.001 * NORM_MAX], [0.0, 0.0]])
    small = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NormOutOfRange):
        sd.verify_all(id2, big, seed=1)
    with pytest.raises(NormOutOfRange):
        sd.verify_all(id2, np.array([[0.0, 1e100], [0.0, 0.0]]), seed=1)
    with pytest.raises(NormOutOfRange):
        pair_report(id2, small, big, seed=1)
    with pytest.raises(NormOutOfRange):
        # each operand in range, their sum above it
        pair_report(id2, 0.6 * big, 0.6 * big, seed=1)
    with pytest.raises(NormOutOfRange):
        sd.dw_radius(id2, np.array([[0.0, 1.2e77], [0.0, 0.0]]))


def test_reports_on_huge_operators_raise_before_any_product(id2, monkeypatch):
    # at 1e100 the Frobenius norms of G = N*N and N^2 overflow, at 1e200 those of A^{1/2} T
    # did (compress): NormOutOfRange comes first, with no RuntimeWarning (an error here);
    # the one eigensolve at that scale is the SVD of N that checks ||N||
    from semidw import bounds, radii

    scale = [0.0]

    def guarded(solve):
        def wrapped(a, *args, **kw):
            assert np.abs(a).max() <= scale[0], "an eigensolve of G or N^2"
            return solve(a, *args, **kw)
        return wrapped

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, guarded(getattr(np.linalg, name)))
    hook_kernel(monkeypatch, lambda _: pytest.fail("a kernel call"))
    for module in (bounds, radii):
        monkeypatch.setattr(module, "gram_herm", lambda *_: pytest.fail("G formed"))
    for scale[0] in (1e100, 1e200):
        with pytest.raises(NormOutOfRange):
            sd.verify_all(id2, scale[0] * X_MAT, seed=1)
        with pytest.raises(NormOutOfRange):
            bounds.pair_report(id2, scale[0] * X_MAT, Y_MAT, seed=1)
        with pytest.raises(NormOutOfRange):
            bounds.pair_report(id2, Y_MAT, scale[0] * X_MAT, seed=1)


_T_HUGE = 1e80 * np.array([[0.0, 1.0], [0.5, 0.0]])
_EYE = np.eye(2)


@pytest.mark.parametrize("evaluator, operands", [
    *((name, (_T_HUGE,)) for name in (
        "sandwich", "lower_crawford", "upper_theta_sweep", "cartesian_half", "upper_buzano",
        "upper_triple", "upper_lambda_theta", "upper_lambda_complex")),
    *((name, (_T_HUGE, _T_HUGE)) for name in ("sum_upper", "feki_sum_upper", "offdiag_upper")),
    ("product_sum_upper", (_EYE, _EYE, _T_HUGE, _T_HUGE, 1.0)),
    ("product_sum_upper_b", (_EYE, _EYE, _T_HUGE, _T_HUGE)),
    ("product_sum_upper_c", (_EYE, _EYE, _T_HUGE, _T_HUGE)),
])
def test_public_evaluators_reject_norm_above_norm_max(id2, evaluator, operands):
    # before: 5 raised a bare OverflowError, 4 a RuntimeWarning (an error under pytest)
    with pytest.raises(NormOutOfRange):
        getattr(sd, evaluator)(id2, *operands)
