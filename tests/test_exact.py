import numpy as np
import pytest

import semidw as sd
from semidw.errors import NonpositiveB
from semidw.exact import split_objective
from semidw.sampling import random_bounded_operator, random_metric

from conftest import X_MAT

SQ2 = np.sqrt(2.0)
INV_SQ2 = 2 ** -0.5


def _grid_argmax(b, grid=10_000):
    thetas = np.linspace(0.0, np.pi / 2, grid)
    vals = split_objective(thetas, b)
    idx = int(np.argmax(vals))
    return thetas[idx], vals[idx]


def _phi_derivative(theta, b, h=1e-6):
    return (split_objective(theta + h, b) - split_objective(theta - h, b)) / (2 * h)


def test_cardano_b1_constants():
    data = sd.cardano_theta0(1.0)
    assert data.p == pytest.approx(1.5, abs=1e-14)
    assert data.q == pytest.approx(0.0, abs=1e-14)
    assert data.r == pytest.approx(-1.5, abs=1e-14)
    assert data.s == pytest.approx(0.375, abs=1e-14)
    assert data.alpha == pytest.approx(-1.25, abs=1e-14)
    # real cube roots of -alpha/2 +- sqrt(s)
    assert data.beta == pytest.approx(np.cbrt(0.625 + np.sqrt(0.375)), abs=1e-14)
    assert data.gamma == pytest.approx(np.cbrt(0.625 - np.sqrt(0.375)), abs=1e-14)
    assert data.beta == pytest.approx(1.0735776930, abs=1e-9)
    assert data.gamma == pytest.approx(0.2328662393, abs=1e-9)
    assert data.theta0 == pytest.approx(0.6786578369, abs=1e-9)
    # grid argmax of phi agrees
    theta_g, _ = _grid_argmax(1.0)
    assert data.theta0 == pytest.approx(theta_g, abs=1e-4)


def test_cardano_discriminant_identity():
    # the printed polynomial for s is the Cardano discriminant of the cubic
    for b in (0.3, 1.0, 1 / SQ2, 2.0, 4.7):
        d = sd.cardano_theta0(b)
        p_big = d.q - d.p ** 2 / 3.0
        disc = d.alpha ** 2 / 4.0 + p_big ** 3 / 27.0
        assert d.s == pytest.approx(disc, rel=1e-12)
        assert d.s > 0.0


def test_cardano_discriminant_positive():
    # the numerator of s is a sum of positive terms, so Cardano always applies
    for b in np.logspace(-3.0, 3.0, 61):
        assert sd.cardano_theta0(b).s > 0.0


@pytest.mark.parametrize("b", [0.05, 0.2, 1 / SQ2, 1.0, 1.8, 3.1, 5.0])
def test_cardano_stationarity(b):
    data = sd.cardano_theta0(b)
    assert 0.0 <= data.theta0 <= np.pi / 2
    phi0 = split_objective(data.theta0, b)
    assert abs(_phi_derivative(data.theta0, b)) <= 1e-6 * (1.0 + phi0)
    _, phi_g = _grid_argmax(b)
    assert phi0 == pytest.approx(phi_g, rel=1e-6)


def test_cardano_small_b_continuity():
    data = sd.cardano_theta0(1e-3)
    assert data.theta0 == pytest.approx(0.0, abs=1e-2)
    assert split_objective(data.theta0, 1e-3) == pytest.approx(2.0, abs=1e-2)


def test_cardano_rejects_nonpositive():
    with pytest.raises(NonpositiveB):
        sd.cardano_theta0(0.0)
    with pytest.raises(NonpositiveB):
        sd.cardano_theta0(-1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_closed_forms_reject_b_outside_float_range(id2):
    # b^6 underflows to 0 at 1e-60; b^8 and b^2 overflow at 1e40 and 1e160
    with pytest.raises(sd.BOutOfRange, match="1e-60"):
        sd.cardano_theta0(1e-60)
    with pytest.raises(sd.BOutOfRange, match="1e\\+40"):
        sd.cardano_theta0(1e40)
    with pytest.raises(sd.BOutOfRange):
        sd.dw_exact_ix(id2, np.array([[0.0, 1e40], [0.0, 0.0]]))
    with pytest.raises(sd.BOutOfRange, match="1e\\+160"):
        sd.dw_exact_0x(id2, np.array([[0.0, 1e160], [0.0, 0.0]]))
    # just inside the range every field stays finite
    for b in (1e-51, 1e38):
        data = sd.cardano_theta0(b)
        assert np.isfinite([data.p, data.q, data.r, data.s, data.theta0]).all()
    assert sd.dw_exact_ix(id2, np.array([[0.0, 1e38], [0.0, 0.0]])).value > 1e75
    assert sd.dw_exact_0x(id2, np.array([[0.0, 1e150], [0.0, 0.0]])).value == pytest.approx(1e300)


# ---------------------------------------------------------------------------
# dw of [[I, X], [O, O]]


def test_ix_zero_operator(id2):
    est = sd.dw_exact_ix(id2, np.zeros((2, 2)))
    assert est.value == pytest.approx(SQ2, abs=1e-12)
    assert est.warning is None


def test_ix_scalar_b1():
    m1 = sd.build_metric(np.eye(1))
    est = sd.dw_exact_ix(m1, np.array([[1.0]]))
    # frozen from the 1-D grid maximization: max phi = 5.1078208...
    assert est.value == pytest.approx(2.2600488483, abs=1e-9)
    _, phi_g = _grid_argmax(1.0)
    assert est.value == pytest.approx(np.sqrt(phi_g), abs=1e-8)


def _golden_max_phi(b, grid=10_000):
    """Grid argmax of phi, then golden section on its neighbours (phi is unimodal)."""
    thetas = np.linspace(0.0, np.pi / 2, grid)
    vals = split_objective(thetas, b)
    idx = int(np.argmax(vals))
    lo, hi = thetas[max(idx - 1, 0)], thetas[min(idx + 1, grid - 1)]
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-15 * (1.0 + hi):
        x1, x2 = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        if split_objective(x1, b) < split_objective(x2, b):
            lo = x1
        else:
            hi = x2
    return max(vals[idx], split_objective(0.5 * (lo + hi), b))


def test_ix_matches_phi_maximum_across_b():
    # the Cardano angle alone lost 1.08e-6 of the value at b = 8.74e-12 by cancellation
    m1 = sd.build_metric(np.eye(1))
    for b in [8.74e-12, *np.logspace(np.log10(1.0001e-12), 38.4, 121)]:
        est = sd.dw_exact_ix(m1, np.array([[b]]))
        assert est.warning is None
        assert est.value == pytest.approx(np.sqrt(_golden_max_phi(b)), rel=1e-12, abs=0.0), b


def test_ix_vs_oracle(diag12):
    est = sd.dw_exact_ix(diag12, X_MAT)
    eye, zero = np.eye(2), np.zeros((2, 2))
    blk = sd.block2(diag12, eye, X_MAT, zero, zero)
    ora = sd.oracle_extremum(blk.metric2, blk.assembled, "dw", samples=8192, seed=4)
    assert est.value == pytest.approx(ora.value, abs=1e-4)
    assert est.warning is None


def _assert_maximizer_attains(est, blk):
    """The coordinates ``est.maximizer`` attain ``est.value`` on the block's compression."""
    c = est.maximizer
    n_c = sd.compress(blk.metric2, blk.assembled) @ c
    assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-13)
    obj = np.hypot(abs(np.vdot(c, n_c)), np.vdot(n_c, n_c).real)
    assert abs(obj - est.value) <= 1e-13 * (1.0 + est.value)


def _rank_deficient_instance(target_b):
    """A seeded rank-2 metric on C^4 and an A-bounded X with ``||X||_A = target_b``."""
    rng = np.random.default_rng(31)
    m = random_metric(rng, 4, 2)
    x = random_bounded_operator(rng, m)
    return m, x * (target_b / sd.op_seminorm(m, x).value)


def _assert_canonical_witness(m, est):
    """The witness has zero null-space component, lifts each half of ``est.maximizer``
    and is diag(A, A)-unit."""
    z = est.witness
    halves = (z[: m.dim], z[m.dim:])
    off_range = np.concatenate([half - m.proj @ half for half in halves])
    assert np.linalg.norm(off_range) <= 1e-14 * np.linalg.norm(z)
    for half, coords in zip(halves, np.split(est.maximizer, 2)):
        np.testing.assert_allclose(sd.to_coords(m, half), coords, rtol=0.0, atol=1e-14)
    assert np.vdot(z, np.kron(np.eye(2), m.a) @ z).real == pytest.approx(1.0, abs=1e-12)


def test_ix_witness(diag12):
    est = sd.dw_exact_ix(diag12, X_MAT)
    z = est.witness
    assert z is not None
    eye, zero = np.eye(2), np.zeros((2, 2))
    blk = sd.block2(diag12, eye, X_MAT, zero, zero)
    a2 = blk.metric2.a
    assert np.vdot(z, a2 @ z).real == pytest.approx(1.0, abs=1e-10)
    tz = blk.assembled @ z
    obj = np.sqrt(abs(np.vdot(z, a2 @ tz)) ** 2 + np.vdot(tz, a2 @ tz).real ** 2)
    assert obj == pytest.approx(est.value, abs=1e-8)
    _assert_maximizer_attains(est, blk)
    # on a rank-deficient metric the witness is canonical at b = 0, below and above
    # 1/sqrt(2) (before, up to 99% of its norm lay in ker A)
    for target in (0.0, 0.3, 1.5):
        m, x = _rank_deficient_instance(target)
        est = sd.dw_exact_ix(m, x)
        _assert_canonical_witness(m, est)
        zero4 = np.zeros((m.dim, m.dim))
        _assert_maximizer_attains(est, sd.block2(m, np.eye(m.dim), x, zero4, zero4))


# ---------------------------------------------------------------------------
# dw of [[O, X], [O, O]]


def test_0x_branches(id2, diag12):
    assert sd.dw_exact_0x(id2, np.zeros((2, 2))).value == 0.0
    # boundary b = 1/sqrt(2): both branch formulas coincide
    est = sd.dw_exact_0x(diag12, X_MAT)
    assert est.value == pytest.approx(0.5, abs=1e-12)
    b = INV_SQ2
    assert b / (2 * np.sqrt(1 - b ** 2)) == pytest.approx(b ** 2, abs=1e-12)
    # interior of the small-b branch
    m1 = sd.build_metric(np.eye(1))
    est2 = sd.dw_exact_0x(m1, np.array([[0.5]]))
    assert est2.value == pytest.approx(0.5 / (2 * np.sqrt(0.75)), abs=1e-12)
    assert est2.value == pytest.approx(0.2886751346, abs=1e-9)


def test_0x_monotone_in_b():
    m1 = sd.build_metric(np.eye(1))
    bs = np.linspace(0.01, 2.0, 80)
    vals = [sd.dw_exact_0x(m1, np.array([[b]])).value for b in bs]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


def test_0x_vs_oracle_and_sandwich(diag12):
    zero = np.zeros((2, 2))
    for scale in (0.4, 1.0, 1.8):
        x = scale * X_MAT
        est = sd.dw_exact_0x(diag12, x)
        blk = sd.block2(diag12, zero, x, zero, zero)
        ora = sd.oracle_extremum(blk.metric2, blk.assembled, "dw", samples=8192, seed=9)
        assert est.value == pytest.approx(ora.value, abs=1e-4 * (1 + est.value))
        # block sandwich: ||S||_AA = ||X||_A and w_AA(S) = ||X||_A / 2
        b = sd.op_seminorm(diag12, x).value
        norm_blk = sd.op_seminorm(blk.metric2, blk.assembled).value
        w_blk = sd.numerical_radius(blk.metric2, blk.assembled).value
        assert norm_blk == pytest.approx(b, abs=1e-9)
        assert w_blk == pytest.approx(b / 2, abs=1e-9)
        assert est.value >= max(w_blk, norm_blk ** 2) - 1e-9


def test_0x_witness(diag12):
    x = 0.6 * X_MAT  # below the branch point
    est = sd.dw_exact_0x(diag12, x)
    z = est.witness
    zero = np.zeros((2, 2))
    blk = sd.block2(diag12, zero, x, zero, zero)
    a2 = blk.metric2.a
    assert np.vdot(z, a2 @ z).real == pytest.approx(1.0, abs=1e-10)
    tz = blk.assembled @ z
    obj = np.sqrt(abs(np.vdot(z, a2 @ tz)) ** 2 + np.vdot(tz, a2 @ tz).real ** 2)
    assert obj == pytest.approx(est.value, abs=1e-8)
    _assert_maximizer_attains(est, blk)
    # above the branch point the maximizer lives in the bottom copy alone
    x = 1.5 * X_MAT
    blk = sd.block2(diag12, zero, x, zero, zero)
    _assert_maximizer_attains(sd.dw_exact_0x(diag12, x), blk)
    # on a rank-deficient metric the witness is canonical on every branch
    for target in (0.0, 0.3, INV_SQ2, 1.5):
        m, x = _rank_deficient_instance(target)
        est = sd.dw_exact_0x(m, x)
        _assert_canonical_witness(m, est)
        zero4 = np.zeros((m.dim, m.dim))
        _assert_maximizer_attains(est, sd.block2(m, zero4, x, zero4, zero4))


@pytest.mark.parametrize("seed", range(5))
def test_exact_random_instances(seed):
    rng = np.random.default_rng(seed + 200)
    n = 2 + seed % 2
    m = random_metric(rng, n, n if seed % 3 else n - 1)
    x = random_bounded_operator(rng, m)
    targets = [0.3, INV_SQ2, 0.95, 1.6, 0.08]
    b = sd.op_seminorm(m, x).value
    x = x * (targets[seed] / b)
    eye, zero = np.eye(n), np.zeros((n, n))
    for top, fn in ((eye, sd.dw_exact_ix), (zero, sd.dw_exact_0x)):
        closed = fn(m, x)
        blk = sd.block2(m, top, x, zero, zero)
        _assert_maximizer_attains(closed, blk)
        ora = sd.oracle_extremum(blk.metric2, blk.assembled, "dw", samples=4096,
                                 seed=seed)
        assert abs(closed.value - ora.value) <= 1e-3 * (1 + closed.value)
