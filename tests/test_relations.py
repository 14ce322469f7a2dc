"""Provable relations between records of the bound catalog, as seeded property tests.

Each relation holds for the formulas as :mod:`semidw.bounds` implements them,
so it is checked at rounding scale, relative ``RTOL``:

* the lambda-real member at any real lambda is at least its lambda = 0 member,
  at every angle (with ``t >= b`` the extreme eigenvalues of ``C_th + |T|^2``
  and ``m = (t + b) / 2 >= 0``, the member is ``t^2 / 2`` on ``[0, m/2]`` and
  rises past it; ``lambda < 0`` and ``m < 0`` follow from ``(t, b) -> (-b, -t)``);
* the lambda-complex member at any complex lambda is at least its lambda = 0
  member, the sandwich upper bound (``2||R|| + ||G - 2R|| >= ||G||`` and
  ``w(N - l)^2 >= w^2 - 2||R|| + |l|^2`` with ``R = Re(conj(l) N)``);
* ``buzano-square-upper >= sandwich-upper``, by Buzano's ``w^2 <= (w(T^2) + ||T||^2) / 2``;
* each product Crawford lower record is at most its non-product form, by
  ``2ab <= a^2 + b^2``;
* ``sup_w / sqrt(2) <= lambda-real-upper <= sup_w``, theta-sweep's ``sup_w``.
"""

import numpy as np
import pytest

import semidw as sd
from semidw._optim import gram_herm, herm_parts
from semidw.bounds import THETA_GRID_BOUNDS
from semidw.metric import compress
from semidw.sampling import random_bounded_operator, random_metric

from helpers import lambda_complex_members

RTOL = 1e-14


def _real_member(lam, top, bot):
    """The lambda-real member without its lambda-free ``||C_th - |T|^2||^2 / 2`` term."""
    rho1 = np.maximum(top - lam, lam - bot)
    rho2 = np.maximum(top - 2.0 * lam, 2.0 * lam - bot)
    return 2.0 * np.abs(lam) * rho1 + 0.5 * rho2 ** 2


def _instances():
    """Seeded ``(metric, operator)``: random metrics of every rank at dims 2-5, then
    normal, Hermitian, PSD, unitary, scalar, nilpotent and rank-one operators under I."""
    rng = np.random.default_rng(71)
    for dim in range(2, 6):
        for rank in range(1, dim + 1):
            m = random_metric(rng, dim, rank)
            yield m, random_bounded_operator(rng, m)
    eye4 = sd.build_metric(np.eye(4))
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    for t in ((q * g[0]) @ q.conj().T, g + g.conj().T, g @ g.conj().T,
              q, np.exp(0.7j) * np.eye(4), (0.3 - 1.7j) * np.eye(4), np.triu(g, 1),
              np.outer(g[0], g[1].conj()), 1e-3 * g, 1e3 * g):
        yield eye4, t


def test_real_shift_member_at_least_lambda0_member_pointwise():
    rng = np.random.default_rng(3)
    size = 200_000
    scale = rng.choice([1e-3, 1.0, 1e3], size)
    top, bot = np.sort(rng.standard_normal((2, size)) * scale, axis=0)[::-1]
    mid = 0.5 * (top + bot)
    # uniform shifts, shifts inside the interval where the member ties (between 0
    # and m/2) and its two ends
    lams = [rng.uniform(-3.0, 3.0, size) * scale, rng.uniform(0.0, 0.5, size) * mid,
            0.5 * mid, np.zeros(size), -rng.uniform(0.0, 0.5, size) * mid]
    base = _real_member(0.0, top, bot)
    for lam in lams:
        assert np.all(_real_member(lam, top, bot) >= base * (1.0 - RTOL))
    # the tie is exact in exact arithmetic: t^2/2 on [0, m/2] when m >= 0
    inside = _real_member(lams[1], top, bot)[mid >= 0.0]
    assert np.allclose(inside, base[mid >= 0.0], rtol=RTOL, atol=0.0)


def test_real_shift_members_on_the_grid():
    thetas = np.linspace(0.0, 2.0 * np.pi, THETA_GRID_BOUNDS, endpoint=False)
    rng = np.random.default_rng(5)
    for m, t in _instances():
        n_mat = compress(m, t)
        h_mat, j_mat = herm_parts(n_mat)
        c = np.cos(thetas)[:, None, None] * h_mat + np.sin(thetas)[:, None, None] * j_mat
        vals = np.linalg.eigvalsh(c + gram_herm(n_mat))
        top, bot = vals[:, -1], vals[:, 0]
        span = 2.0 * np.linalg.norm(n_mat, 2) ** 2
        lams = np.concatenate([np.linspace(-span, span, 41), rng.uniform(-span, span, 20),
                               1e-9 * span * rng.standard_normal(5)])[:, None]
        base = _real_member(0.0, top, bot)
        members = _real_member(lams, top, bot)
        assert np.all(members >= base * (1.0 - RTOL))
        assert np.all(members.max(axis=1) >= base.max() * (1.0 - RTOL))


def test_complex_shift_member_at_least_lambda0_member():
    # every member from the tests' own reference, which shifts N explicitly
    rng = np.random.default_rng(7)
    for m, t in _instances():
        n_mat = compress(m, t)
        w_val = sd.numerical_radius(m, t).value
        lams = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) * w_val
        lams[:2] *= 1e-6
        lambda0, *members = np.sqrt(lambda_complex_members(n_mat, [0.0, *lams]))
        assert lambda0 == pytest.approx(sd.sandwich(m, t, reference=1.0)[1].value,
                                        rel=1e-13, abs=0.0), m.rank
        for lam, member in zip(lams, members):
            assert member >= lambda0 * (1.0 - RTOL), (m.rank, lam)


def _record(records, anchor):
    return next(r for r in records if r.anchor == anchor).value


def test_buzano_square_at_least_sandwich_upper():
    for m, t in _instances():
        upper = sd.sandwich(m, t, reference=1.0)[1].value
        square = _record(sd.upper_buzano(m, t, reference=1.0), "buzano-square-upper")
        assert square >= upper * (1.0 - RTOL), m.rank


def test_product_crawford_lower_at_most_non_product():
    for m, t in _instances():
        records = sd.lower_crawford(m, t, reference=1.0)
        for plain in ("lower-crawford-radius", "lower-crawford-norm"):
            bound = _record(records, plain)
            assert _record(records, f"{plain}-product") <= bound * (1.0 + RTOL), (m.rank, plain)


def test_lambda_real_upper_between_sup_w_over_root2_and_sup_w():
    """``sup_w / sqrt(2) <= lambda-real-upper <= sup_w``, ``sup_w`` theta-sweep's param.

    With ``C_th = cos(th) H + sin(th) J`` and ``G = |T|^2 >= 0``, ``C_{th+pi} = -C_th``
    gives ``||C_th - G|| = ||C_{th+pi} + G||``, so the lambda-real member (the record's
    lambda = 0 member) is ``(rho(th)^2 + rho(th+pi)^2) / 2`` with ``rho(th) = ||C_th + G||
    = max(lambda_max(C_th + G), lambda_max(C_{th+pi} - G))``. As ``C - G <= C + G``,
    ``rho(th) <= sup_w``, so every member is at most ``sup_w^2``; at the angle of
    ``sup_w``, ``rho >= sup_w`` and the member is at least ``sup_w^2 / 2``. The record
    is the square root of the members' supremum. Both ends are sharp: at r = 1, with
    ``a = |N|``, the ratio is ``sqrt(1 + a^2) / (1 + a)``, ``1 / sqrt(2)`` at a = 1 and
    near 1 for a near 0 or large.
    """
    rng = np.random.default_rng(83)
    for k in range(210):
        r = 1 + k % 6
        m = random_metric(rng, r + k % 2, r)
        t = random_bounded_operator(rng, m) * 10.0 ** rng.uniform(-2.0, 2.0)
        sup_w = sd.upper_theta_sweep(m, t, reference=1.0).params["sup_w"]
        real = sd.upper_lambda_theta(m, t, reference=1.0).value
        assert sup_w / np.sqrt(2.0) <= real * (1.0 + RTOL), (k, sup_w, real)
        assert real <= sup_w * (1.0 + RTOL), (k, sup_w, real)
        if r == 1:
            a = abs(compress(m, t)[0, 0])
            assert real == pytest.approx(sup_w * np.sqrt(1.0 + a * a) / (1.0 + a), rel=1e-13)
