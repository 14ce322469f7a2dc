"""Small 1-D maximization helpers shared by the radius and bound evaluators."""

from __future__ import annotations

import numpy as np
import scipy.linalg

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, lo: float, hi: float, tol: float, max_iter: int = 200):
    """Golden-section maximization of a scalar function on [lo, hi].

    Returns ``(x, f(x), evals)``; assumes local unimodality on the bracket.
    """
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    it = 0
    while (b - a) > tol and it < max_iter:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        evals += 1
        it += 1
    if fc >= fd:
        return c, fc, evals
    return d, fd, evals


def refine_periodic_max(xs: np.ndarray, vals: np.ndarray, f_scalar, period: float,
                        top_k: int = 3, tol: float = 1e-12):
    """Refine the maximum of pre-evaluated periodic grid values.

    Golden-section refinement around the ``top_k`` circular local maxima;
    returns ``(x, value, evals)`` with value >= the grid maximum.
    """
    left = np.roll(vals, 1)
    right = np.roll(vals, -1)
    local = np.flatnonzero((vals >= left) & (vals >= right))
    if local.size == 0:
        local = np.array([int(np.argmax(vals))])
    order = local[np.argsort(vals[local])[::-1]]
    h = period / xs.size
    best_x, best_v = float(xs[np.argmax(vals)]), float(vals.max())
    evals = 0
    for idx in order[:top_k]:
        x0 = xs[idx]
        x, v, used = golden_max(f_scalar, x0 - h, x0 + h, tol)
        evals += used
        if v > best_v:
            best_x, best_v = float(x % period), float(v)
    return best_x, best_v, evals


#: equispaced angles whose best value is the first level of :func:`rotated_eig_max`
START_ANGLES = 16
#: a pencil eigenvalue z is a crossing when ``||z| - 1| <= UNIMODULAR_TOL max(1, |z|)``
UNIMODULAR_TOL = 1e-6
#: cap on the level sets of one maximization (quadratic convergence needs about 7)
MAX_LEVELS = 30


def rotated_eig_max(n_mat: np.ndarray, index: int, shift=None):
    """Maximize eigenvalue ``index`` (0 or -1) of ``f(theta) = Re(e^{i theta} N) + K`` over theta.

    Criss-cross level-set method (Mengi-Overton, IMA J. Numer. Anal. 25 (2005);
    Boyd-Balakrishnan, Systems Control Lett. 15 (1990)) on ``N, K`` scaled by
    ``max(||N||_F, ||K||_F)``, ``K = shift`` (Hermitian) or 0. The first level
    gamma is the best of ``START_ANGLES`` equispaced angles. Some eigenvalue of
    ``f(theta)`` equals gamma iff ``z = e^{i theta}`` solves
    ``det(z^2 N + 2z (K - gamma I) + N*) = 0``: the unimodular eigenvalues of a
    2r x 2r pencil (infinite ones, from singular N, are dropped). Between
    consecutive crossings the midpoint is evaluated; on the arcs where it beats
    gamma, so is the meeting point of the tangents at the two ends (slopes
    ``Re(i e^{i theta} x* N x)`` from the end eigenvectors x), which resolves a
    kink in few steps. The best candidate is the next gamma, until none beats
    it by more than ``4 eps (1 + |gamma|)``.

    Returns ``(theta, value, evals)``: ``value`` is eigenvalue ``index`` at
    ``theta`` (attained, never extrapolated), ``evals`` the number of angles
    evaluated.
    """
    r = n_mat.shape[0]
    k_mat = np.zeros((r, r)) if shift is None else shift
    scale = max(float(np.linalg.norm(n_mat)), float(np.linalg.norm(k_mat)))
    if scale == 0.0:
        return 0.0, 0.0, 0
    n_mat, k_mat = n_mat / scale, k_mat / scale

    def values(thetas: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(rotated_herm_batch(n_mat, thetas) + k_mat)[:, index]

    thetas = np.linspace(0.0, 2.0 * np.pi, START_ANGLES, endpoint=False)
    vals = values(thetas)
    best = int(np.argmax(vals))
    theta, gamma = float(thetas[best]), float(vals[best])
    evals = START_ANGLES
    eye, zero = np.eye(r), np.zeros((r, r))
    b_mat = np.block([[eye, zero], [zero, n_mat]])
    for _ in range(MAX_LEVELS):
        a_mat = np.block([[zero, eye], [-n_mat.conj().T, 2.0 * (gamma * eye - k_mat)]])
        z = scipy.linalg.eigvals(a_mat, b_mat)
        z = z[np.isfinite(z)]
        z = z[np.abs(np.abs(z) - 1.0) <= UNIMODULAR_TOL * np.maximum(1.0, np.abs(z))]
        if not z.size:
            break
        lo = np.sort(np.angle(z) % (2.0 * np.pi))
        hi = np.append(lo[1:], lo[0] + 2.0 * np.pi)
        mids = 0.5 * (lo + hi)
        mid_vals = values(mids)
        evals += mids.size
        up = mid_vals > gamma
        if not up.any():
            break
        lo, hi, cands, cand_vals = lo[up], hi[up], mids[up], mid_vals[up]
        ends = np.concatenate([lo, hi])
        lam, vecs = np.linalg.eigh(rotated_herm_batch(n_mat, ends) + k_mat)
        evals += ends.size
        x = vecs[:, :, index]
        slopes = (1j * np.exp(1j * ends) * np.einsum("ki,ij,kj->k", x.conj(), n_mat, x)).real
        f_lo, f_hi = np.split(lam[:, index], 2)
        s_lo, s_hi = np.split(slopes, 2)
        fall = s_lo - s_hi
        meet = (f_hi - f_lo + s_lo * lo - s_hi * hi) / np.where(fall > 0.0, fall, 1.0)
        inside = (fall > 0.0) & (meet > lo) & (meet < hi)
        if inside.any():
            cands = np.concatenate([cands, meet[inside]])
            cand_vals = np.concatenate([cand_vals, values(meet[inside])])
            evals += int(inside.sum())
        best = int(np.argmax(cand_vals))
        gain = float(cand_vals[best]) - gamma
        if gain > 0.0:
            theta, gamma = float(cands[best]), float(cand_vals[best])
        if gain <= 4.0 * np.finfo(float).eps * (1.0 + abs(gamma)):
            break
    return theta % (2.0 * np.pi), gamma * scale, evals


def herm_parts(n_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian real/imaginary parts H, J with ``N = H + iJ``."""
    h = 0.5 * (n_mat + n_mat.conj().T)
    j = (n_mat - n_mat.conj().T) / 2j
    return h, j


def gram_herm(n_mat: np.ndarray) -> np.ndarray:
    """The gram ``N*N``, symmetrized against rounding."""
    gram = n_mat.conj().T @ n_mat
    return 0.5 * (gram + gram.conj().T)


def rotated_herm(n_mat: np.ndarray, theta: float) -> np.ndarray:
    """``Re(e^{i theta} N)``; ``theta - pi/2`` gives ``Im(e^{i theta} N)``."""
    ph = np.exp(1j * theta)
    return 0.5 * (ph * n_mat + np.conj(ph) * n_mat.conj().T)


def rotated_herm_batch(n_mat: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Batch of ``Re(e^{i theta} N)`` over the angle array."""
    ph = np.exp(1j * thetas)
    return 0.5 * (ph[:, None, None] * n_mat + np.conj(ph)[:, None, None] * n_mat.conj().T)
