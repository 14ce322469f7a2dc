from collections import Counter
from functools import partial

import numpy as np
import pytest

import semidw as sd
from semidw import jsonio
from semidw._optim import START_ANGLES, gram_herm, herm_parts, rotated_herm, rotated_herm_batch
from semidw.bounds import CATALOG, LAMBDA_GRID_POINTS, SWEEP_BRACKET_TOL, THETA_GRID_BOUNDS
from semidw.errors import DegenerateNorm, NormOutOfRange, NotABounded, ZeroT
from semidw.metric import compress
from semidw.radii import NORM_MAX, _Memo, _w_core
from semidw.sampling import random_bounded_operator, random_metric

from conftest import X_MAT, Y_MAT
from helpers import brute_dw, refine_periodic_max

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

    def counted(n_mat, index, *args, _kernel=radii.rotated_eig_max):
        calls.append((index, n_mat.tobytes()))
        return _kernel(n_mat, index, *args)

    monkeypatch.setattr(radii, "rotated_eig_max", counted)
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


def _lambda_theta_stacked(m, t, lambda_grid=None):
    """Reference: eigen-solve every shifted (lambda, theta) matrix explicitly.

    Returns the squared ``(value, lambda0_value)`` of ``upper_lambda_theta``
    (``lambda0`` is None when 0 is not on the grid).
    """
    n_mat = compress(m, t)
    gram = n_mat.conj().T @ n_mat
    gram = 0.5 * (gram + gram.conj().T)
    h_mat, j_mat = herm_parts(n_mat)
    eye = np.eye(m.rank)
    if lambda_grid is None:
        span = 2.0 * sd.op_seminorm(m, t).value ** 2
        lambda_grid = np.concatenate([[0.0], np.linspace(-span, span, LAMBDA_GRID_POINTS)])
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    thetas = np.linspace(0.0, 2.0 * np.pi, THETA_GRID_BOUNDS, endpoint=False)
    cth = np.cos(thetas)[:, None, None] * h_mat + np.sin(thetas)[:, None, None] * j_mat

    def rho(vals):
        return np.maximum(vals[..., -1], -vals[..., 0])

    rho_minus_sq = rho(np.linalg.eigvalsh(cth - gram)) ** 2
    lams = lambda_grid[:, None, None, None]
    e1 = np.linalg.eigvalsh(cth[None] + gram - lams * eye)
    e2 = np.linalg.eigvalsh(cth[None] + gram - 2.0 * lams * eye)
    grid = (2.0 * np.abs(lambda_grid)[:, None] * rho(e1) + 0.5 * rho(e2) ** 2
            + 0.5 * rho_minus_sq[None, :])

    def refined(i):
        lam = lambda_grid[i]

        def f(theta):
            c = np.cos(theta) * h_mat + np.sin(theta) * j_mat
            vals = np.linalg.eigvalsh(np.stack([c + gram - lam * eye,
                                                c + gram - 2.0 * lam * eye, c - gram]))
            r = rho(vals)
            return 2.0 * abs(lam) * r[0] + 0.5 * r[1] ** 2 + 0.5 * r[2] ** 2

        _, sup, _ = refine_periodic_max(thetas, grid[i], f, 2.0 * np.pi, top_k=3,
                                        tol=SWEEP_BRACKET_TOL)
        return max(sup, grid[i].max())

    sups = [refined(i) for i in range(lambda_grid.size)]
    zeros = np.flatnonzero(lambda_grid == 0.0)
    return min(sups), (sups[zeros[0]] if zeros.size else None)


# (dim, rank, lambda_grid): ranks 1, 2, 4, 8, 12, rank-deficient metrics included;
# the grid without 0 lies above the spectrum, where rho(M - lam I) = lam - bot; on
# the last one, small and positive, the members are constant (top^2 / 2), so
# every member is refined, in several batches
LAMBDA_THETA_CASES = [
    (2, 1, None), (3, 2, None), (2, 2, [-1.0, -0.25, 0.0, 0.5, 2.0]), (5, 4, None),
    (4, 4, [300.0, 500.0]), (8, 8, None), (10, 8, None), (13, 12, None),
    (3, 3, [1e-4 * k for k in range(1, 10)]),
]


def _lambda_theta_instances():
    rng = np.random.default_rng(2024)
    for dim, rank, grid in LAMBDA_THETA_CASES:
        m = random_metric(rng, dim, rank)
        yield m, random_bounded_operator(rng, m), grid


def test_lambda_theta_matches_stacked_reference():
    for m, t, grid in _lambda_theta_instances():
        rec = sd.upper_lambda_theta(m, t, lambda_grid=grid, reference=1.0)
        value_sq, lambda0_sq = _lambda_theta_stacked(m, t, lambda_grid=grid)
        assert rec.value == pytest.approx(np.sqrt(value_sq), rel=1e-12, abs=0.0)
        if lambda0_sq is None:
            assert rec.params["lambda0_value"] is None
        else:
            assert rec.params["lambda0_value"] == pytest.approx(np.sqrt(lambda0_sq),
                                                                rel=1e-12, abs=0.0)


def test_lambda_theta_best_lambda_member():
    for m, t, grid in _lambda_theta_instances():
        rec = sd.upper_lambda_theta(m, t, lambda_grid=grid, reference=1.0)
        member = sd.upper_lambda_theta(m, t, lambda_grid=[rec.params["best_lambda"]],
                                       reference=1.0)
        assert member.value ** 2 == pytest.approx(rec.value ** 2, rel=1e-12, abs=0.0)


def test_lambda_theta_one_eigensolve_per_refined_angle(monkeypatch):
    from semidw import bounds

    refined, steps = [], []

    def recorded(lo, hi, f, *args, _golden=bounds.golden_max_lockstep, **kw):
        def f_recorded(xs, k):
            refined.extend(xs.tolist())
            steps.append(xs.size)
            return f(xs, k)

        return _golden(lo, hi, f_recorded, *args, **kw)

    shared = 0
    for m, t, grid in _lambda_theta_instances():
        n_mat = compress(m, t)
        want = sd.upper_lambda_theta(m, t, lambda_grid=grid, reference=1.0)
        solves = []

        def counted(a, *args, _eig=np.linalg.eigvalsh, **kw):
            solves.append(np.array(a))
            return _eig(a, *args, **kw)

        refined.clear()
        steps.clear()
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "golden_max_lockstep", recorded)
            patch.setattr(np.linalg, "eigvalsh", counted)
            got = bounds._upper_lambda_theta(bounds._Instance(1, 1.0), n_mat, grid)
        r = m.rank
        # the first solve is the grid: one spectrum per angle
        assert solves[0].shape == (THETA_GRID_BOUNDS, r, r)
        # every later solve is one golden step's stack of C_th + G and C_th - G
        # over angles not solved before
        assert 0 < len(solves) - 1 <= len(steps)
        assert all(a.ndim == 4 and a.shape[0] == 2 and a.shape[2:] == (r, r) for a in solves[1:])
        # ... and each distinct refined angle is solved exactly once
        gram = gram_herm(n_mat)
        h_mat, j_mat = herm_parts(n_mat)

        def pair(th):
            c_th = np.cos(th) * h_mat + np.sin(th) * j_mat
            return (c_th + gram).tobytes() + (c_th - gram).tobytes()

        solved = Counter(plus.tobytes() + minus.tobytes()
                         for a in solves[1:] for plus, minus in zip(*a))
        assert sum(solved.values()) == len(set(refined))
        assert solved == Counter(pair(th) for th in set(refined))
        assert (got.value, got.params) == (want.value, want.params)
        shared += len(refined) - len(set(refined))
    assert shared > 0


def _pruned_grids():
    """``(lambda_grid, lower, members)`` with ``members >= lower``: random and quantized
    members (exact ties, of the lambda = 0 member too), with and without a 0 on the grid."""
    rng = np.random.default_rng(11)
    for trial in range(300):
        size = int(rng.integers(1, 14))
        grid = np.linspace(-1.0, 1.0, size)
        if trial % 3 == 0:
            grid = np.concatenate([[0.0], grid])
        elif trial % 3 == 1:
            grid = grid[grid != 0.0] + 0.5
        members = rng.uniform(1.0, 2.0, grid.size)
        if trial % 2:  # a few levels: exact ties everywhere
            members = np.round(members * 4.0) / 4.0
        if trial % 5 == 0:  # the lambda = 0 member (if any) at the minimum
            members[grid == 0.0] = members.min()
        if trial % 7 == 0:  # a tie within TIE_RTOL, not exact
            members[-1] = members.min() * (1.0 + 1e-13)
        slack = rng.uniform(0.0, 0.5, grid.size) * (rng.uniform(size=grid.size) < 0.7)
        yield grid, members - slack, members


def test_pruned_min_batch_does_not_change_the_result():
    from semidw.bounds import TIE_RTOL, _pruned_min

    speculated = 0
    for grid, lower, members in _pruned_grids():
        calls = {}

        def refine(chunk, batch):
            assert 0 < len(chunk) <= batch
            calls[batch] = calls.get(batch, 0) + len(chunk)
            return [float(members[i]) for i in chunk]

        one = _pruned_min(grid, lower, lambda c: refine(c, 1))
        for batch in (2, 4, 7):
            assert _pruned_min(grid, lower, lambda c, b=batch: refine(c, b), batch) == one
        speculated += calls[7] - calls[1]
        best, index, zero_member = one
        assert best == members.min()
        zeros = np.flatnonzero(grid == 0.0)
        assert zero_member == (members[zeros[0]] if zeros.size else None)
        ties = np.flatnonzero(members - best <= TIE_RTOL * abs(best))
        assert index == (zeros[0] if zeros.size and zeros[0] in ties else ties[0])
    # the batches refined members that the one-at-a-time rule does not
    assert speculated > 0


def test_lambda_theta_nilpotent(diag12):
    rec = sd.upper_lambda_theta(diag12, X_MAT)
    assert rec.satisfied
    assert rec.value >= 0.5 - 1e-9


@pytest.mark.parametrize("grid", [[], [np.nan], [np.inf], [[0.5, 1.0]], 0.5])
def test_lambda_grid_rejected_before_any_eigensolve(grid, id2, monkeypatch):
    # [] died in min() and [nan] in an IndexError (real) or a failed QZ (complex)
    def eigensolve(*args, **kw):
        raise AssertionError("eigensolve before the grid check")

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, eigensolve)
    for evaluator in (sd.upper_lambda_theta, sd.upper_lambda_complex):
        with pytest.raises(ValueError, match="lambda_grid"):
            evaluator(id2, np.eye(2), lambda_grid=grid)


def test_lambda_complex_members(id2, diag12):
    rec = sd.upper_lambda_complex(id2, np.eye(2))
    assert rec.value == pytest.approx(SQ2, abs=1e-9)
    # lambda = 1 member evaluates to sqrt(10) for the identity
    rec1 = sd.upper_lambda_complex(id2, np.eye(2), lambda_grid=[1.0 + 0.0j])
    assert rec1.value == pytest.approx(np.sqrt(10.0), abs=1e-9)
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


def _lambda_complex_unpruned(n_mat, lambda_grid):
    """Reference: every member of the grid, ``w(N - l I)`` from a dense angle grid.

    ``w(N - l I) = max_theta lambda_max(Re(e^{i theta}N)) - Re(l e^{i theta})``
    on 4096 angles, golden-refined around its three best local maxima.
    Returns the squared minimum, ``best_lambda`` by the record's tie rule and
    the squared lambda = 0 member (None without a 0 on the grid).
    """
    gram = gram_herm(n_mat)
    h_mat, j_mat = herm_parts(n_mat)
    lambda_grid = np.asarray(lambda_grid, dtype=complex)
    thetas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    base_top = np.linalg.eigvalsh(rotated_herm_batch(n_mat, thetas))[:, -1]

    def rho(mat):
        vals = np.linalg.eigvalsh(mat)
        return max(vals[-1], -vals[0])

    members = []
    for lam in lambda_grid:
        curve = base_top - (lam * np.exp(1j * thetas)).real

        def f(theta, lam=lam):
            return (np.linalg.eigvalsh(rotated_herm(n_mat, theta))[-1]
                    - (lam * np.exp(1j * theta)).real)

        w_shift = max(refine_periodic_max(thetas, curve, f, 2.0 * np.pi, tol=1e-14)[1],
                      curve.max())
        re_shift = lam.real * h_mat + lam.imag * j_mat
        fixed = (2.0 * rho(re_shift) + rho(gram - 2.0 * re_shift)) ** 2 + 2.0 * rho(re_shift)
        members.append(fixed - abs(lam) ** 2 + w_shift ** 2)
    members = np.asarray(members)
    best = members.min()
    ties = np.flatnonzero(members - best <= 1e-12 * abs(best))
    zero = np.flatnonzero(lambda_grid == 0.0)
    best_i = zero[0] if zero.size and zero[0] in ties else ties[0]
    return best, lambda_grid[best_i], (members[zero[0]] if zero.size else None)


def _lambda_complex_instances():
    """The lambda-real instances, then r = 1, Hermitian, normal, nilpotent and scalar."""
    for m, t, _ in _lambda_theta_instances():
        yield m, t
    rng = np.random.default_rng(31)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    for t in (np.array([[0.7 - 1.2j]]), g + g.conj().T,
              (q * (g[0] + 1.0)) @ q.conj().T, np.triu(g, 1), (0.3 - 1.7j) * np.eye(4)):
        yield sd.build_metric(np.eye(t.shape[0])), t


def test_lambda_complex_matches_unpruned_reference():
    nonzero_best = 0
    for m, t in _lambda_complex_instances():
        n_mat = compress(m, t)
        grid = _lambda_complex_grid(n_mat)
        # the default grid, then the same grid without 0: the minimum moves elsewhere
        for lambda_grid in (None, grid[1:]):
            rec = sd.upper_lambda_complex(m, t, lambda_grid=lambda_grid, reference=1.0)
            best, best_lambda, lambda0 = _lambda_complex_unpruned(
                n_mat, grid if lambda_grid is None else lambda_grid)
            v = rec.value
            assert abs(v - np.sqrt(best)) <= 1e-13 * (1.0 + v), m.rank
            assert rec.params["best_lambda"] == [best_lambda.real, best_lambda.imag], m.rank
            nonzero_best += best_lambda != 0.0
            if lambda0 is None:
                assert rec.params["lambda0_value"] is None
                continue
            assert abs(rec.params["lambda0_value"] - np.sqrt(lambda0)) <= 1e-13 * (1.0 + v)
            # both read one memoized w(N): the lambda = 0 member is the sandwich upper bound
            upper = sd.sandwich(m, t, reference=1.0)[1].value
            assert abs(rec.params["lambda0_value"] - upper) <= 1e-14 * (1.0 + upper), m.rank
    assert nonzero_best > 0


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


# ---------------------------------------------------------------------------
# one instance per report


def _seeded_metrics():
    rng = np.random.default_rng(7)
    return [random_metric(rng, 3), random_metric(rng, 4, 2), random_metric(rng, 3, 0)]


def test_reports_run_each_core_once_per_matrix(monkeypatch):
    from semidw import bounds, radii

    calls = []
    for name in ("_w_core", "_crawford_core", "_seminorm_core", "_min_modulus_core",
                 "_dw_core"):
        def counted(n_mat, *args, _name=name, _core=getattr(radii, name)):
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
    from semidw import bounds, radii

    calls = []

    def counted(n_mat, index, *args, _kernel=radii.rotated_eig_max):
        extra = tuple(a.tobytes() if isinstance(a, np.ndarray) else a for a in args)
        calls.append((index, extra, n_mat.shape, n_mat.tobytes()))
        return _kernel(n_mat, index, *args)

    monkeypatch.setattr(radii, "rotated_eig_max", counted)
    monkeypatch.setattr(bounds, "rotated_eig_max", counted)
    rng = np.random.default_rng(11)
    for m in _seeded_metrics()[:2]:
        x, y = random_bounded_operator(rng, m), random_bounded_operator(rng, m)
        for run in (lambda: bounds.verify_all(m, x, seed=3),
                    lambda: bounds.pair_report(m, x, y, seed=3)):
            calls.clear()
            run()
            assert calls
            assert len(set(calls)) == len(calls)


def test_lambda_complex_stacks_stay_small(monkeypatch):
    # the support points and the w kernel stack at most START_ANGLES angles
    from semidw import _optim, radii

    sizes = []

    def recorded(n_mat, thetas, _batch=_optim.rotated_herm_batch):
        sizes.append(len(thetas))
        return _batch(n_mat, thetas)

    rng = np.random.default_rng(4)
    m = random_metric(rng, 4)
    t = random_bounded_operator(rng, m)
    want = sd.upper_lambda_complex(m, t, reference=1.0)
    monkeypatch.setattr(radii, "rotated_herm_batch", recorded)
    monkeypatch.setattr(_optim, "rotated_herm_batch", recorded)
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
    # the public closed forms and dw_radius read the same memo path as the reports
    from semidw import radii
    from semidw.bounds import exact_checks

    calls = Counter()
    for name in ("_w_core", "_seminorm_core"):
        def counted(n_mat, memo, _name=name, _core=getattr(radii, name)):
            calls[_name] += 1
            return _core(n_mat, memo)

        monkeypatch.setattr(radii, name, counted)
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
        est = sd.dw_radius(m, t)
        assert calls == (Counter(_w_core=1, _seminorm_core=1) if m.rank else Counter())
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
    # the oracle's quasi-Newton steps overflowed here and gave dw = inf, and
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
    monkeypatch.setattr(radii, "_dw_core", lambda *args: (np.inf, None, 0, 0.0))
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
