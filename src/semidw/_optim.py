"""Small 1-D maximization helpers shared by the radius and bound evaluators."""

from __future__ import annotations

import numpy as np

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


def rotated_eig_max(n_mat: np.ndarray, index: int, grid: int, tol: float, shift=None):
    """Maximize eigenvalue ``index`` of ``Re(e^{i theta} N)`` (plus ``shift``) over theta.

    A sweep of ``grid`` angles on [0, 2pi), then golden-section refinement of the
    three best circular local maxima. Returns ``(theta, value, evals)``.
    """

    def eig(herm):
        return np.linalg.eigvalsh(herm if shift is None else herm + shift)[..., index]

    xs = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    x, v, evals = refine_periodic_max(xs, eig(rotated_herm_batch(n_mat, xs)),
                                      lambda theta: float(eig(rotated_herm(n_mat, theta))),
                                      2.0 * np.pi, top_k=3, tol=tol)
    return x, v, grid + evals


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
