"""Closed-form Davis-Wielandt radii of two structured 2x2 blocks.

Under the doubled metric diag(A, A):

* ``dw_exact_ix`` -- the block [[I, X], [O, O]]. Its radius reduces to the
  1-D maximization of ``phi(theta) = g^2 (cos^2 theta + g^2)`` with
  ``g = cos theta + b sin theta`` and ``b = ||X||_A`` on [0, pi/2]; the
  stationary angle solves a cubic in tan(theta) whose Cardano data is
  returned by :func:`cardano_theta0`.
* ``dw_exact_0x`` -- the block [[O, X], [O, O]]; piecewise in ``b`` with
  branch point at 1/sqrt(2) (inclusive on the upper branch).

Both closed forms are cross-checked against the 1-D grid maximization they
come from; on disagreement the estimate carries a warning and reports the
grid value, since the grid is the semantic ground truth of the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._optim import golden_max
from .errors import BOutOfRange, NonpositiveB
from .metric import Metric, as_operator, to_ambient
from .radii import RadiusEstimate, op_seminorm

GRID_POINTS = 10_000
AGREE_RTOL = 1e-6
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


def _grid_max_phi(b: float, grid: int = GRID_POINTS):
    """Grid + golden-section maximization of phi on [0, pi/2]."""
    thetas = np.linspace(0.0, np.pi / 2.0, grid)
    vals = split_objective(thetas, b)
    idx = int(np.argmax(vals))
    lo = thetas[max(idx - 1, 0)]
    hi = thetas[min(idx + 1, grid - 1)]
    theta, val, _ = golden_max(lambda th: split_objective(th, b), lo, hi, 1e-14)
    if vals[idx] > val:
        return float(thetas[idx]), float(vals[idx])
    return float(theta), float(val)


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


def _checked_value(b: float, theta0: float):
    """Closed-form value sqrt(phi(theta0)) with the grid cross-check."""
    closed = float(np.sqrt(split_objective(theta0, b)))
    theta_g, phi_g = _grid_max_phi(b)
    grid_val = float(np.sqrt(phi_g))
    if abs(closed - grid_val) > AGREE_RTOL * (1.0 + grid_val):
        return grid_val, theta_g, (
            f"closed form {closed:.12g} disagrees with grid maximum {grid_val:.12g}; "
            "reporting the grid value"
        )
    return closed, theta0, None


def _split_witness(m: Metric, x: np.ndarray, k: float):
    """Ambient block witness (X y0, k y0)/rho and its stacked-basis coordinates.

    ``y0`` maximizes ``||X y||_A`` over A-unit vectors; the coordinates are
    with respect to the stacked range basis diag(B, B) of diag(A, A).
    """
    est = op_seminorm(m, x)
    if est.witness is None:
        return None, np.zeros(0, dtype=complex)
    y0 = est.witness
    top = x @ y0
    rho = np.sqrt(max(est.value ** 2 + k ** 2, 0.0))
    if rho == 0.0:
        return None, np.zeros(0, dtype=complex)
    z = np.concatenate([top, k * y0]) / rho
    coords = np.concatenate([
        m.basis.conj().T @ (m.sqrt_a @ z[: m.dim]),
        m.basis.conj().T @ (m.sqrt_a @ z[m.dim:]),
    ])
    return z, coords


def _degenerate(m: Metric, b: float, value: float) -> RadiusEstimate | None:
    """0 on a rank-zero metric; ``value`` at the first top-block coordinate when
    ``b <= _B_ZERO``; None otherwise."""
    if m.rank == 0:
        return RadiusEstimate(0.0, np.zeros(0, dtype=complex), "exact_svd", 0, 0.0,
                              None, "metric has rank zero; no A-unit vectors exist")
    if b > _B_ZERO:
        return None
    e1 = np.zeros(m.rank, dtype=complex)
    e1[0] = 1.0
    z = np.concatenate([to_ambient(m, e1), np.zeros(m.dim, dtype=complex)])
    coords = np.concatenate([e1, np.zeros(m.rank, dtype=complex)])
    return RadiusEstimate(float(value), coords, "exact_svd", 0, 0.0, z, None)


def dw_exact_ix(m: Metric, x) -> RadiusEstimate:
    """Exact dw of [[I, X], [O, O]] under diag(A, A).

    sqrt(2) when ``||X||_A = 0``; otherwise
    ``(cos t0 + b sin t0) sqrt(cos^2 t0 + (cos t0 + b sin t0)^2)`` at the
    Cardano stationary angle t0.
    """
    arr = as_operator(x, m.dim)
    b = op_seminorm(m, arr).value
    degenerate = _degenerate(m, b, np.sqrt(2.0))
    if degenerate is not None:
        return degenerate
    data = cardano_theta0(b)
    value, theta_used, warning = _checked_value(b, data.theta0)
    k0 = b * np.tan(theta_used)
    z, coords = _split_witness(m, arr, k0)
    residual = abs(float(np.sqrt(split_objective(theta_used, b))) - value)
    return RadiusEstimate(value, coords, "exact_svd", 0, residual, z, warning)


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
        y0 = est_b.witness
        z = np.concatenate([np.zeros(m.dim, dtype=complex), y0])
        coords = np.concatenate([
            np.zeros(m.rank, dtype=complex),
            m.basis.conj().T @ (m.sqrt_a @ y0),
        ])
        return RadiusEstimate(float(value), coords, "exact_svd", 0, 0.0, z, None)
    value = b / (2.0 * np.sqrt(1.0 - b ** 2))
    k = b / np.sqrt(1.0 - 2.0 * b ** 2)
    z, coords = _split_witness(m, arr, k)
    return RadiusEstimate(float(value), coords, "exact_svd", 0, 0.0, z, None)
