"""The level-set angle kernel against dense angle grids, and its stack sizes."""

import os
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy.linalg

from semidw import _optim
from semidw._optim import (gram_herm, herm_parts, pencil_eigvals, rotated_eig_max, rotated_herm,
                           rotated_herm_batch)
from semidw.radii import _crawford_core, _Memo, _w_core

from helpers import golden_max, refine_periodic_max

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
                theta, value, *_ = rotated_eig_max(n_mat, index, shift)
                refined, grid_max, size = ref[index]
                assert value >= refined - 1e-13 * scale, label
                attained = np.linalg.eigvalsh(rotated_herm(n_mat, theta)
                                              + (0.0 if shift is None else shift))[index]
                assert abs(value - attained) <= 1e-13 * scale, label
                if shift is None and index == -1:
                    # the support function: w <= grid max / cos(pi / grid)
                    assert value <= grid_max / np.cos(np.pi / size), label


#: pencils the level-set kernel solved on the sweep of
#: ``test_kernel_pencil_count`` before it polished its levels by Newton steps
UNPOLISHED_PENCILS = 538


def _counted_pencils(monkeypatch):
    calls = []

    def counted(a_mat, b_mat, _solve=pencil_eigvals):
        calls.append(a_mat.shape[0])
        return _solve(a_mat, b_mat)

    monkeypatch.setattr(_optim, "pencil_eigvals", counted)
    return calls


def test_kernel_pencil_count(monkeypatch):
    # a polished level is the maximum on smooth families: its pencil certifies it
    calls = _counted_pencils(monkeypatch)
    total = 0
    for r in (2, 3, 5, 8, 16):
        rng = np.random.default_rng(100 + r)
        for name, n_mat in _families(rng, r):
            for shift in (None, gram_herm(n_mat)):
                for index in (0, -1):
                    calls.clear()
                    rotated_eig_max(n_mat, index, shift)
                    total += len(calls)
                    if index == -1 and name in ("random", "triangular", "tall", "flat"):
                        assert len(calls) == 1, (r, name, shift is not None)
    assert total <= UNPOLISHED_PENCILS


@pytest.mark.parametrize("r", [2, 3, 5, 8])
def test_newton_polish_alone_reaches_maximum(r, monkeypatch):
    # with no level set solved the value is the polished best start angle
    monkeypatch.setattr(_optim, "MAX_LEVELS", 0)
    calls = _counted_pencils(monkeypatch)
    rng = np.random.default_rng(100 + r)
    for name, n_mat in _families(rng, r):
        for shift in (None, gram_herm(n_mat)):
            if name in ("scalar", "flat face"):
                # multiple eigenvalues: the step is refused, with no division by a zero gap
                for index in (0, -1):
                    rotated_eig_max(n_mat, index, shift)
                continue
            if name not in ("random", "triangular", "tall", "flat", "nilpotent"):
                continue
            label = (name, shift is not None)
            scale = 1.0 + np.linalg.norm(n_mat, 2) + (0.0 if shift is None
                                                      else np.linalg.norm(shift, 2))
            theta, value, *_ = rotated_eig_max(n_mat, -1, shift)
            assert value >= _reference(n_mat, shift, r)[-1][0] - 1e-13 * scale, label
            attained = np.linalg.eigvalsh(rotated_herm(n_mat, theta)
                                          + (0.0 if shift is None else shift))[-1]
            assert abs(value - attained) <= 1e-13 * scale, label
    assert calls == []


def test_newton_polish_refuses_multiple_eigenvalue():
    n_mat = (0.3 - 1.7j) * np.eye(3)
    for index in (0, -1):
        assert _optim._newton_polish(n_mat, np.zeros((3, 3)), index, 0.4, 0.3)[:3] == (0.4, 0.3, 1)


def _pencil(n_mat, gamma, shift=None):
    """The kernel's level-gamma pencil ``([[0, I], [-N*, 2 (gamma I - K)]], diag(I, N))``."""
    r = n_mat.shape[0]
    k_mat = np.zeros((r, r)) if shift is None else shift
    eye, zero = np.eye(r), np.zeros((r, r))
    return (np.block([[zero, eye], [-n_mat.conj().T, 2.0 * (gamma * eye - k_mat)]]),
            np.block([[eye, zero], [zero, n_mat]]))


def _pencil_cases():
    """Pencils of the ``_families`` at levels below, inside and above their angle maxima."""
    for r in (1, 2, 3, 5, 8):
        rng = np.random.default_rng(200 + r)
        for name, n_mat in _families(rng, r):
            for shift in (None, gram_herm(n_mat)):
                top = rotated_eig_max(n_mat, -1, shift)[1]
                for gamma in (-0.5 * top, 0.5 * top, top, 1.25 * top + 1.0):
                    yield (name, r, gamma), *_pencil(n_mat, gamma, shift)
    real = np.random.default_rng(7).standard_normal((4, 4))
    yield ("real dtype", 4, 0.9), *_pencil(real, 0.9)
    yield ("real nilpotent", 4, 0.3), *_pencil(np.triu(real, 1), 0.3)
    flat = np.array([[0.0, 1.0], [0.0, 0.0]])
    for n_mat in (flat, flat.astype(complex)):
        yield ("flat", 2, 0.5), *_pencil(n_mat, 0.5)


def test_pencil_eigvals_match_scipy_bit_for_bit():
    for label, a_mat, b_mat in _pencil_cases():
        got = pencil_eigvals(a_mat, b_mat)
        want = scipy.linalg.eigvals(a_mat, b_mat)
        assert got.dtype == want.dtype, label
        assert got.tobytes() == want.tobytes(), label


def test_pencil_flat_has_no_finite_unimodular_eigenvalue():
    # at gamma = 1/2 every angle of the flat N crosses: the pencil is singular
    z = pencil_eigvals(*_pencil(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5))
    z = z[np.isfinite(z)]
    assert not np.any(np.abs(np.abs(z) - 1.0) <= _optim.UNIMODULAR_TOL)


def test_pencil_failure_raises(monkeypatch):
    flapack = _optim._FLAPACK

    def failing(ggev):
        def broken(*args, **kw):
            *out, info = ggev(*args, **kw)
            return (*out, info if kw.get("lwork") == -1 else 1)

        return broken

    monkeypatch.setattr(_optim, "_FLAPACK", types.SimpleNamespace(
        zggev=failing(flapack.zggev), dggev=failing(flapack.dggev)))
    n_mat = np.random.default_rng(1).standard_normal((3, 3)) + 0j
    with pytest.raises(np.linalg.LinAlgError):
        pencil_eigvals(*_pencil(n_mat, 1.0))
    with pytest.raises(np.linalg.LinAlgError):
        rotated_eig_max(n_mat, -1)


@pytest.mark.parametrize("first", ["semidw", "scipy.linalg"])
def test_flapack_is_scipys_own_extension(first):
    # one copy of the extension, whichever of the two packages is imported first
    second = "scipy.linalg" if first == "semidw" else "semidw"
    probe = (f"import {first}, {second}, scipy.linalg.lapack, semidw._optim\n"
             "assert semidw._optim._FLAPACK is scipy.linalg.lapack._flapack")
    subprocess.run([sys.executable, "-c", probe], timeout=120, check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def _golden_cases():
    """``(f, lo, hi)``: smooth, flat, stepwise (exact ties), monotone, degenerate, signed zeros."""
    rng = np.random.default_rng(11)
    funcs = [
        lambda x: 1.0 - (x - 0.3) * (x - 0.3),
        lambda x: (x - 1.1) * (x - 1.1) * (x - 2.0) * (2.0 - x),
        lambda x: 0.0 * x + 2.0,
        lambda x: float(np.floor(x * 8.0)),
        lambda x: -abs(x - 0.5),
        lambda x: x,
        lambda x: -x,
    ]
    for f in funcs:
        for width in (0.0, 1e-13, 1e-9, 0.05, 1.0, 3.0):
            lo = float(rng.uniform(-1.0, 1.0))
            yield f, lo, lo + width
        yield f, 0.0, 1.0  # -|x - 1/2| and the steps tie on it
    # signed zeros: f(c) = -0.0 ties f(d) = 0.0 on a bracket narrower than tol
    yield (lambda x: 0.0 * x), -1e-14, 1e-14


@pytest.mark.parametrize("tol", [1e-10, 1e-6, 0.0])
def test_golden_lockstep_matches_scalar_golden_bit_for_bit(tol):
    # one lockstep batch against each bracket's scalar search: the same points
    # in the same order, the same number of steps (tol = 0 runs into the
    # 200-step cap), and the same bytes of the returned maximum
    cases = list(_golden_cases())
    lo = np.array([c[1] for c in cases])
    hi = np.array([c[2] for c in cases])
    visited = [[] for _ in cases]

    def f(xs, ks):
        out = []
        for x, k in zip(xs.tolist(), ks.tolist()):
            visited[k].append(x)
            out.append(cases[k][0](x))
        return np.array(out)

    got = _optim.golden_max_lockstep(lo, hi, f, tol)
    assert got.shape == lo.shape
    capped = unstepped = 0
    for k, (func, a, b) in enumerate(cases):
        points = []

        def scalar(x, func=func, points=points):
            points.append(x)
            return func(x)

        _, want, evals = golden_max(scalar, a, b, tol)
        assert visited[k] == points, k
        assert len(points) == evals, k
        assert np.float64(got[k]).tobytes() == np.float64(want).tobytes(), k
        capped += evals == 202
        unstepped += evals == 2
    # one batch mixes searches that never step, that stop on tol and (at
    # tol = 0) that run into the cap
    assert unstepped >= 7 + (tol > 0.0)
    assert (0 < capped < len(cases) - unstepped) if tol == 0.0 else capped == 0


def test_kernel_zero_matrix():
    assert rotated_eig_max(np.zeros((3, 3), dtype=complex), -1)[:3] == (0.0, 0.0, 0)
    theta, value, *_ = rotated_eig_max(np.zeros((2, 2), dtype=complex), 0, np.diag([2.0, 5.0]))
    assert value == pytest.approx(2.0, rel=1e-15)


def _check_eigenpairs(n_mat, index, shift, label):
    """The kernel's ``lam, vecs`` are the eigenpairs of f(theta) at its returned angle."""
    r = n_mat.shape[0]
    theta, value, _, lam, vecs = rotated_eig_max(n_mat, index, shift)
    f_mat = rotated_herm(n_mat, theta) + (0.0 if shift is None else shift)
    scale = 1.0 + np.linalg.norm(n_mat, 2) + (0.0 if shift is None else np.linalg.norm(shift, 2))
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(r)) <= 1e-13 * max(r, 1), label
    assert np.linalg.norm(f_mat @ vecs - vecs * lam) <= 1e-13 * scale, label
    # eigvalsh and eigh round relative to ||f(theta)||: 4 eps (1 + |value|) in the
    # kernel's units, N and K over s = max(||N||_F, ||K||_F)
    s = max(np.linalg.norm(n_mat), 0.0 if shift is None else np.linalg.norm(shift))
    assert abs(lam[index] - value) <= 4.0 * np.finfo(float).eps * (s + abs(value)), label
    return theta


@pytest.mark.parametrize("steps, levels", [(_optim.NEWTON_STEPS, _optim.MAX_LEVELS),
                                           (0, _optim.MAX_LEVELS),
                                           (_optim.NEWTON_STEPS, 0)])
def test_kernel_returns_its_eigenpairs(steps, levels, monkeypatch):
    # the polish's eigenpairs, or one eigh when the last level's candidate was not polished
    monkeypatch.setattr(_optim, "NEWTON_STEPS", steps)
    monkeypatch.setattr(_optim, "MAX_LEVELS", levels)
    polished = []

    def recorded(*args, _polish=_optim._newton_polish):
        out = _polish(*args)
        polished.append(out[0] % (2.0 * np.pi))
        return out

    monkeypatch.setattr(_optim, "_newton_polish", recorded)
    ends = set()
    for r in (1, 2, 3, 5, 8):
        rng = np.random.default_rng(100 + r)
        for name, n_mat in _families(rng, r):
            for shift in (None, gram_herm(n_mat)):
                for index in (0, -1):
                    polished.clear()
                    theta = _check_eigenpairs(n_mat, index, shift,
                                              (name, r, index, shift is not None))
                    if polished:  # N = 0 at r = 1 returns before any polish
                        ends.add(theta == polished[-1])
    # both endings occur, except with no level set, where the polish is the end
    assert ends == ({True} if levels == 0 else {True, False})
    for n_mat, shift in ((np.zeros((3, 3), dtype=complex), None),
                         (np.zeros((2, 2), dtype=complex), np.diag([2.0, 5.0]))):
        for index in (0, -1):
            _check_eigenpairs(n_mat, index, shift, ("zero", index, shift is not None))


def test_w_core_solves_no_eigh_outside_the_kernel(monkeypatch):
    # the witness is the kernel's top eigenvector: no eigensolve at its angle again
    from semidw import radii

    counts = {"all": 0, "kernel": 0}

    def counted_eigh(a, *args, _eigh=np.linalg.eigh, **kw):
        counts["all"] += 1
        return _eigh(a, *args, **kw)

    def counted_kernel(*args, _kernel=radii.rotated_eig_max):
        before = counts["all"]
        out = _kernel(*args)
        counts["kernel"] += counts["all"] - before
        return out

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(radii, "rotated_eig_max", counted_kernel)
    rng = np.random.default_rng(5)
    for r in (2, 5, 8):
        counts.update(all=0, kernel=0)
        _Memo().run(_w_core, rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
        assert counts["all"] == counts["kernel"] > 0, r


def test_w_and_crawford_build_no_theta_grid_stack(monkeypatch):
    sizes = []

    def recorded(n_mat, thetas):
        sizes.append(len(thetas))
        return rotated_herm_batch(n_mat, thetas)

    monkeypatch.setattr(_optim, "rotated_herm_batch", recorded)
    rng = np.random.default_rng(3)
    for r in (2, 6, 12):
        for _, n_mat in _families(rng, r):
            _Memo().run(_w_core, n_mat)
            _Memo().run(_crawford_core, n_mat)
    # the 1440-angle stacks the kernel replaced
    assert sizes and max(sizes) < 1440
