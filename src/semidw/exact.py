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

Both depend on X only through ``b`` and a unit vector ``c0`` attaining it,
the top singular pair of ``N_X = compress(m, X)``. Each has one core on
``N_X`` (:func:`_ix_core`, :func:`_0x_core`) that returns the value and the
maximizer in the basis diag(B, B) of diag(A, A): ``(N_X c0, k c0) / rho``,
``(0, c0)`` above the branch point, ``e_1`` when ``b = 0``; the memo turns it
into an estimate and :func:`semidw.radii._lift` lifts each half, so, like every
radius witness, it has zero null-space component. ``semidw exact`` and ``semidw
suite`` run both cores on one memo (:func:`semidw.bounds.exact_checks`) and
check them against the certified dw bracket of the compressed block
``[[I_r or 0, N_X], [0, 0]]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BOutOfRange, NonpositiveB
from .metric import Metric, compress
from .radii import RadiusEstimate, _lift, _Memo, _seminorm_core

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


def _split_coords(n_x: np.ndarray, b: float, c0: np.ndarray, k: float) -> np.ndarray:
    """Block coordinates ``(N_X c0, k c0) / rho`` with ``rho = sqrt(b^2 + k^2)`` (``b > 0``)."""
    return np.concatenate([n_x @ c0, k * c0]) / np.sqrt(b ** 2 + k ** 2)


def _first_coords(n_x: np.ndarray) -> np.ndarray:
    """The first block coordinate vector e_1, the maximizer when ``b <= _B_ZERO``."""
    return np.eye(1, 2 * n_x.shape[0], dtype=complex)[0]


def _ix_core(n_x: np.ndarray, b: float, c0: np.ndarray):
    """dw of [[I, X], [O, O]] and its block coordinates, from ``N_X``, ``b`` and ``c0``."""
    if b <= _B_ZERO:
        return np.sqrt(2.0), _first_coords(n_x)
    theta = _stationary_angle(b, cardano_theta0(b).theta0)
    return np.sqrt(split_objective(theta, b)), _split_coords(n_x, b, c0, b * np.tan(theta))


def _0x_core(n_x: np.ndarray, b: float, c0: np.ndarray):
    """dw of [[O, X], [O, O]] and its block coordinates, from ``N_X``, ``b`` and ``c0``."""
    if b <= _B_ZERO:
        return 0.0, _first_coords(n_x)
    if b >= 1.0 / np.sqrt(2.0):
        try:
            value = b ** 2
        except OverflowError as exc:
            raise _out_of_range(b) from exc
        return value, np.concatenate([np.zeros_like(c0), c0])
    k = b / np.sqrt(1.0 - 2.0 * b ** 2)
    return b / (2.0 * np.sqrt(1.0 - b ** 2)), _split_coords(n_x, b, c0, k)


def _closed_estimate(m: Metric, memo: _Memo, n_x: np.ndarray, core) -> RadiusEstimate:
    """The estimate of a closed-form ``core`` on ``N_X = compress(m, X)``, with its witness;
    ``b`` and ``c0`` are the memoized seminorm of ``N_X`` (:meth:`semidw.radii._Memo.estimate`)."""
    return _lift(m, memo.estimate(_seminorm_core, n_x, "exact_svd", core))


def dw_exact_ix(m: Metric, x) -> RadiusEstimate:
    """Exact dw of [[I, X], [O, O]] under diag(A, A).

    sqrt(2) when ``||X||_A = 0``; otherwise
    ``(cos t0 + b sin t0) sqrt(cos^2 t0 + (cos t0 + b sin t0)^2)`` at the
    stationary angle t0 (:func:`_stationary_angle` from the Cardano root).
    """
    return _closed_estimate(m, _Memo(), compress(m, x), _ix_core)


def dw_exact_0x(m: Metric, x) -> RadiusEstimate:
    """Exact dw of [[O, X], [O, O]] under diag(A, A).

    0 when ``||X||_A = 0``; ``b / (2 sqrt(1 - b^2))`` for ``b < 1/sqrt(2)``;
    ``b^2`` for ``b >= 1/sqrt(2)`` (boundary inclusive; both branches agree
    there). Raises :class:`BOutOfRange` when ``b^2`` overflows (b above
    about 1.3e154).
    """
    return _closed_estimate(m, _Memo(), compress(m, x), _0x_core)
