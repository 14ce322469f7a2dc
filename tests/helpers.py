"""Shared test helpers: ambient brute-force oracles independent of the package.

The brute-force extrema sample A-unit vectors directly in the ambient space
and evaluate <Tx,x>_A and ||Tx||_A from the definition, never touching the
package's compression or ascent machinery. The scalar golden-section search
and its periodic-grid refinement are the reference maximizers of the angle
tests.
"""

from __future__ import annotations

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def ambient_forms(a: np.ndarray, t: np.ndarray, xs: np.ndarray):
    """Rows of <Tx,x>_A and ||Tx||_A^2 for ambient row vectors xs."""
    tx = xs @ t.T
    atx = tx @ a.T
    forms = np.einsum("ki,ki->k", atx, xs.conj())
    norms_sq = np.einsum("ki,ki->k", atx, tx.conj()).real
    return forms, norms_sq


def ambient_unit_samples(a: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """A-unit ambient vectors (rows); rejects near-null directions."""
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    na = np.sqrt(np.maximum(np.einsum("ki,ij,kj->k", xs.conj(), a, xs).real, 0.0))
    keep = na > 1e-8
    return xs[keep] / na[keep, None]


def brute_dw(a: np.ndarray, t: np.ndarray, samples: int = 150_000, seed: int = 0) -> float:
    xs = ambient_unit_samples(a, samples, seed)
    forms, norms_sq = ambient_forms(a, t, xs)
    return float(np.sqrt(np.abs(forms) ** 2 + norms_sq ** 2).max())


def brute_numrad(a: np.ndarray, t: np.ndarray, samples: int = 150_000, seed: int = 0) -> float:
    xs = ambient_unit_samples(a, samples, seed)
    forms, _ = ambient_forms(a, t, xs)
    return float(np.abs(forms).max())


def brute_crawford(a: np.ndarray, t: np.ndarray, samples: int = 150_000, seed: int = 0) -> float:
    xs = ambient_unit_samples(a, samples, seed)
    forms, _ = ambient_forms(a, t, xs)
    return float(np.abs(forms).min())


def brute_seminorm(a: np.ndarray, t: np.ndarray, samples: int = 150_000, seed: int = 0) -> float:
    xs = ambient_unit_samples(a, samples, seed)
    _, norms_sq = ambient_forms(a, t, xs)
    return float(np.sqrt(norms_sq.max()))


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
