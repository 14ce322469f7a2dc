"""Closed-form Davis-Wielandt radii of two structured 2x2 blocks.

Under the doubled metric diag(A, A):

* ``dw_exact_ix`` -- the block [[I, X], [O, O]]. Its radius reduces to the
  1-D maximization of ``phi(theta) = g^2 (cos^2 theta + g^2)`` with
  ``g = cos theta + b sin theta`` and ``b = ||X||_A`` on [0, pi/2]; the
  stationary angle solves a cubic in tan(theta) whose Cardano data is
  returned by :func:`cardano_theta0`. The cubic has one real root, so phi
  has one stationary point, its maximum; :func:`_stationary_angle` finds it
  by the sign of phi' from the Cardano angle, which loses digits to
  cancellation for small b (1.08e-6 of the value at b = 8.74e-12).
* ``dw_exact_0x`` -- the block [[O, X], [O, O]]; piecewise in ``b`` with
  branch point at 1/sqrt(2) (inclusive on the upper branch).

``semidw exact`` and ``semidw suite`` check both against the certified dw
bracket of the compressed block ``[[I_r or 0, N_X], [0, 0]]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BOutOfRange, NonpositiveB
from .metric import Metric, as_operator, to_ambient, to_coords
from .radii import RadiusEstimate, op_seminorm

_B_ZERO = 1e-12


@dataclass(frozen=True)
class CardanoData:
    """Cubic data for the stationary angle of the [[I, X], [O, O]] block.

    The stationary condition for phi is ``u^3 + p u^2 + q u + r = 0`` in
    ``u = tan(theta)``; ``s`` is the Cardano discriminant ``alpha^2/4 +
    (q - p^2/3)^3/27`` in closed polynomial form, and ``theta0 =
    arctan(beta + gamma - p/3)`` with real (sign-preserving) cube roots.
    """

    b: float
    p: float
    q: float
    r: float
    s: float
    alpha: float
    beta: float
    gamma: float
    theta0: float


def split_objective(theta, b: float):
    """The 1-D objective phi(theta) = g^2 (cos^2 theta + g^2), g = cos + b sin."""
    theta = np.asarray(theta, dtype=float)
    g = np.cos(theta) + b * np.sin(theta)
    val = g ** 2 * (np.cos(theta) ** 2 + g ** 2)
    return float(val) if val.ndim == 0 else val


def _out_of_range(b: float) -> BOutOfRange:
    return BOutOfRange(f"b = ||X||_A = {b:.6g} is outside the range where the closed "
                       "form is finite in double precision")


def cardano_theta0(b: float) -> CardanoData:
    """Cardano data and stationary angle for a given b = ||X||_A > 0.

    Raises :class:`BOutOfRange` when b is so small or so large (below about
    3e-52, above about 2.6e38) that the coefficients leave the
    floating-point range; :func:`dw_exact_ix` inherits the upper limit.
    """
    b = float(b)
    if b <= 0.0:
        raise NonpositiveB(f"b must be positive, got {b}")
    try:
        p = -(2.0 * b ** 2 - 5.0) / (2.0 * b)
        q = -(2.0 * b ** 2 - 2.0) / b ** 2
        r = -3.0 / (2.0 * b)
        s = (8.0 * b ** 8 + 20.0 * b ** 6 + 45.0 * b ** 4 + 61.0 * b ** 2 + 28.0) / (
            2.0 ** 4 * 3.0 ** 3 * b ** 6
        )
        alpha = (2.0 * p ** 3 - 9.0 * p * q + 27.0 * r) / 27.0
    except (OverflowError, ZeroDivisionError):
        p = q = r = s = alpha = np.nan
    # s > 0 for every b > 0 (its numerator is a sum of positive terms), so the
    # cubic has one real root and Cardano's formula gives it
    beta = float(np.cbrt(-alpha / 2.0 + np.sqrt(s)))
    gamma = float(np.cbrt(-alpha / 2.0 - np.sqrt(s)))
    theta0 = float(np.arctan(beta + gamma - p / 3.0))
    if not np.isfinite([p, q, r, s, alpha, beta, gamma, theta0]).all():
        raise _out_of_range(b)
    return CardanoData(b=b, p=p, q=q, r=r, s=s, alpha=alpha, beta=beta, gamma=gamma,
                       theta0=theta0)


def _phi_slope(theta: float, b: float) -> float:
    """A positive multiple of phi'(theta): ``g' (cos^2 + 2 g^2) - g cos sin``, g > 0."""
    c, s = math.cos(theta), math.sin(theta)
    g = c + b * s
    return (b * c - s) * (c * c + 2.0 * g * g) - g * c * s


def _stationary_angle(b: float, theta0: float) -> float:
    """The maximizer of phi on [0, pi/2], bisected by the sign of phi' from ``theta0``.

    phi' is positive at 0 (3b) and negative at pi/2 (-2b^2) with one root
    between, so the bisection runs until the bracket holds adjacent floats.
    """
    lo, hi = (theta0, 0.5 * math.pi) if _phi_slope(theta0, b) > 0.0 else (0.0, theta0)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _phi_slope(mid, b) > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def _split_witness(m: Metric, x: np.ndarray, est: RadiusEstimate, k: float):
    """Ambient block witness (X y0, k y0)/rho and its stacked-basis coordinates.

    ``est`` is ``op_seminorm(m, x)``: ``y0`` is its witness, which maximizes
    ``||X y||_A`` over A-unit vectors. The coordinates are with respect to
    the stacked range basis diag(B, B) of diag(A, A). Called after
    :func:`_degenerate`, so the rank is positive and ``rho >= b > 0``.
    """
    y0 = est.witness
    rho = np.sqrt(est.value ** 2 + k ** 2)
    z = np.concatenate([x @ y0, k * y0]) / rho
    return z, np.concatenate([to_coords(m, z[: m.dim]), to_coords(m, z[m.dim:])])


def _degenerate(m: Metric, b: float, value: float) -> RadiusEstimate | None:
    """0 on a rank-zero metric; ``value`` at the first top-block coordinate when
    ``b <= _B_ZERO``; None otherwise."""
    if m.rank == 0:
        return RadiusEstimate(0.0, np.zeros(0, dtype=complex), "exact_svd", 0, 0.0,
                              None, "metric has rank zero; no A-unit vectors exist")
    if b > _B_ZERO:
        return None
    coords = np.zeros(2 * m.rank, dtype=complex)
    coords[0] = 1.0
    z = np.concatenate([to_ambient(m, coords[: m.rank]), np.zeros(m.dim, dtype=complex)])
    return RadiusEstimate(float(value), coords, "exact_svd", 0, 0.0, z, None)


def dw_exact_ix(m: Metric, x) -> RadiusEstimate:
    """Exact dw of [[I, X], [O, O]] under diag(A, A).

    sqrt(2) when ``||X||_A = 0``; otherwise
    ``(cos t0 + b sin t0) sqrt(cos^2 t0 + (cos t0 + b sin t0)^2)`` at the
    stationary angle t0 (:func:`_stationary_angle` from the Cardano root).
    """
    arr = as_operator(x, m.dim)
    est_b = op_seminorm(m, arr)
    b = est_b.value
    degenerate = _degenerate(m, b, np.sqrt(2.0))
    if degenerate is not None:
        return degenerate
    theta = _stationary_angle(b, cardano_theta0(b).theta0)
    z, coords = _split_witness(m, arr, est_b, b * np.tan(theta))
    return RadiusEstimate(float(np.sqrt(split_objective(theta, b))), coords, "exact_svd", 0,
                          0.0, z, None)


def dw_exact_0x(m: Metric, x) -> RadiusEstimate:
    """Exact dw of [[O, X], [O, O]] under diag(A, A).

    0 when ``||X||_A = 0``; ``b / (2 sqrt(1 - b^2))`` for ``b < 1/sqrt(2)``;
    ``b^2`` for ``b >= 1/sqrt(2)`` (boundary inclusive; both branches agree
    there). Raises :class:`BOutOfRange` when ``b^2`` overflows (b above
    about 1.3e154).
    """
    arr = as_operator(x, m.dim)
    est_b = op_seminorm(m, arr)
    b = est_b.value
    degenerate = _degenerate(m, b, 0.0)
    if degenerate is not None:
        return degenerate
    if b >= 1.0 / np.sqrt(2.0):
        try:
            value = b ** 2
        except OverflowError as exc:
            raise _out_of_range(b) from exc
        z = np.concatenate([np.zeros(m.dim, dtype=complex), est_b.witness])
        coords = np.concatenate([np.zeros(m.rank, dtype=complex), to_coords(m, est_b.witness)])
        return RadiusEstimate(float(value), coords, "exact_svd", 0, 0.0, z, None)
    value = b / (2.0 * np.sqrt(1.0 - b ** 2))
    k = b / np.sqrt(1.0 - 2.0 * b ** 2)
    z, coords = _split_witness(m, arr, est_b, k)
    return RadiusEstimate(float(value), coords, "exact_svd", 0, 0.0, z, None)
