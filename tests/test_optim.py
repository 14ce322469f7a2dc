"""The level-set angle kernel against dense angle grids, and its stack sizes."""

import numpy as np
import pytest

from semidw import _optim
from semidw._optim import (gram_herm, herm_parts, refine_periodic_max, rotated_eig_max,
                           rotated_herm, rotated_herm_batch)
from semidw.radii import _crawford_core, _w_core

#: angles of the reference grid at small rank; larger ranks use a coarser grid
#: plus golden-section refinement of its three best local maxima
DENSE_GRID = 100_000
COARSE_GRID = 4096


def _families(rng, r):
    """Named r x r matrices covering the hard cases of an angle supremum."""
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    q, _ = np.linalg.qr(g)
    h_mat, j_mat = herm_parts(g)
    ev = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    yield "random", g
    yield "triangular", np.triu(g)
    yield "normal", (q * ev) @ q.conj().T
    if r >= 2:  # the flat face [1 - i, 1 + i] of W(N) nearest 0
        face = 2.0 + np.abs(ev) + 1j * ev.imag
        face[:2] = [1 + 1j, 1 - 1j]
        yield "flat face", (q * face) @ q.conj().T
    yield "0 on the boundary", g - np.linalg.eigvalsh(h_mat)[0] * np.eye(r)
    yield "nilpotent", np.triu(g, 1)
    yield "scalar", (0.3 - 1.7j) * np.eye(r)
    yield "rank one", np.outer(g[0], g[-1].conj())
    yield "hermitian psd", g @ g.conj().T
    yield "tall", h_mat + 1e6j * j_mat
    yield "flat", h_mat + 1e-6j * j_mat


def _reference(n_mat, shift, r):
    """``(refined max, grid max, grid size)`` per index (0, -1) of Re(e^{i theta} N) + K."""
    k_mat = np.zeros((r, r)) if shift is None else shift
    size = DENSE_GRID if r <= 3 else COARSE_GRID
    thetas = np.linspace(0.0, 2.0 * np.pi, size, endpoint=False)
    lam = np.concatenate([np.linalg.eigvalsh(rotated_herm_batch(n_mat, part) + k_mat)
                          for part in np.array_split(thetas, max(1, size // 5000))])
    out = {}
    for index in (0, -1):
        def f(theta, index=index):
            return float(np.linalg.eigvalsh(rotated_herm(n_mat, theta) + k_mat)[index])

        refined = refine_periodic_max(thetas, lam[:, index], f, 2.0 * np.pi, tol=1e-14)[1]
        out[index] = (refined, float(lam[:, index].max()), size)
    return out


@pytest.mark.parametrize("r", [1, 2, 3, 5, 8, 16])
def test_kernel_matches_dense_grid(r):
    rng = np.random.default_rng(100 + r)
    for name, n_mat in _families(rng, r):
        for shift in (None, gram_herm(n_mat)):
            scale = 1.0 + np.linalg.norm(n_mat, 2) + (0.0 if shift is None
                                                      else np.linalg.norm(shift, 2))
            ref = _reference(n_mat, shift, r)
            for index in (0, -1):
                label = (name, index, shift is not None)
                theta, value, _ = rotated_eig_max(n_mat, index, shift)
                refined, grid_max, size = ref[index]
                assert value >= refined - 1e-13 * scale, label
                attained = np.linalg.eigvalsh(rotated_herm(n_mat, theta)
                                              + (0.0 if shift is None else shift))[index]
                assert abs(value - attained) <= 1e-13 * scale, label
                if shift is None and index == -1:
                    # the support function: w <= grid max / cos(pi / grid)
                    assert value <= grid_max / np.cos(np.pi / size), label


def test_kernel_zero_matrix():
    assert rotated_eig_max(np.zeros((3, 3), dtype=complex), -1) == (0.0, 0.0, 0)
    theta, value, _ = rotated_eig_max(np.zeros((2, 2), dtype=complex), 0, np.diag([2.0, 5.0]))
    assert value == pytest.approx(2.0, rel=1e-15)


def test_w_and_crawford_build_no_theta_grid_stack(monkeypatch):
    sizes = []

    def recorded(n_mat, thetas):
        sizes.append(len(thetas))
        return rotated_herm_batch(n_mat, thetas)

    monkeypatch.setattr(_optim, "rotated_herm_batch", recorded)
    rng = np.random.default_rng(3)
    for r in (2, 6, 12):
        for _, n_mat in _families(rng, r):
            _w_core(n_mat)
            _crawford_core(n_mat)
    # the 1440-angle stacks the kernel replaced
    assert sizes and max(sizes) < 1440
