"""The level-set angle kernel against dense angle grids, and its stack sizes."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from semidw import _optim
from semidw._optim import (gram_herm, herm_parts, pencil_eigvals, rotated_eig_max,
                           rotated_eig_max_stack, rotated_herm)
from semidw.radii import _crawford_core, _Memo, _w_core

from helpers import refine_periodic_max

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
    lam = np.concatenate([np.linalg.eigvalsh(rotated_herm(n_mat, part) + k_mat)
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
            if name == "flat face":
                # a double eigenvalue at a kink of index 0: the cluster mean's step is
                # kept only where the eigenvalue rises, with no division by a zero gap
                for index in (0, -1):
                    rotated_eig_max(n_mat, index, shift)
                continue
            if name not in ("random", "triangular", "tall", "flat", "nilpotent", "scalar"):
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


def test_scalar_kernel_solves_one_pencil(monkeypatch):
    # every eigenvalue of Re(e^{i theta} alpha I) + K is r-fold, a single cluster whose
    # mean the polish climbs to the peak |alpha| (+ |alpha|^2 with K = G): the pencil
    # at that level certifies it and is the only one solved
    calls = _counted_pencils(monkeypatch)
    alpha = 0.3 - 1.7j
    for r in (2, 3, 5, 8, 16):
        n_mat = alpha * np.eye(r)
        for shift in (None, gram_herm(n_mat)):
            peak = abs(alpha) + (0.0 if shift is None else abs(alpha) ** 2)
            for index in (0, -1):
                label = (r, shift is not None, index)
                calls.clear()
                value = rotated_eig_max(n_mat, index, shift)[1]
                assert len(calls) == 1, label
                assert abs(value - peak) <= 4.0 * np.finfo(float).eps * (1.0 + abs(value)), label


def test_eig_jet_is_the_derivatives_of_its_cluster_mean():
    # simple: the top eigenvalue of Re(e^{i theta} B), bit for bit its textbook
    # derivatives; double: that of Q (B + B) Q*, whose every eigenvalue is twofold at
    # every angle, with couplings across clusters; each against central differences of
    # the top eigenvalue of Re(e^{i theta} B)
    rng = np.random.default_rng(5)
    b_mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    double = q @ np.kron(np.eye(2), b_mat) @ q.conj().T
    theta, h = 0.7, 1e-4

    def top(angle):
        return np.linalg.eigvalsh(rotated_herm(b_mat, angle))[-1]

    slope = (top(theta + h) - top(theta - h)) / (2.0 * h)
    curv = (top(theta + h) - 2.0 * top(theta) + top(theta - h)) / h ** 2
    for n_mat in (double, b_mat):
        c_mat, c_prime = rotated_herm(n_mat, theta), rotated_herm(n_mat, theta + 0.5 * np.pi)
        lam, vecs = np.linalg.eigh(c_mat)
        jet = _optim.eig_jet(lam, vecs, c_mat, c_prime, lam.size - 1)
        assert jet[0] == lam[-1]
        assert abs(jet[1] - slope) <= 1e-8 and abs(jet[2] - curv) <= 1e-5, n_mat.shape
    x = vecs[:, -1]  # of B
    m = vecs.conj().T @ (c_prime @ x)
    gaps = lam[-1] - lam
    gaps[-1] = np.inf
    assert (jet[1], jet[2]) == (m[-1].real, 2.0 * float((np.abs(m) ** 2 / gaps).sum())
                                - np.vdot(x, c_mat @ x).real)


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


#: the two ``ggev`` bindings of :func:`pencil_eigvals`, by the factory of their closure
_BINDINGS = {"openblas": "_openblas_ggev", "flapack": "_flapack_ggev"}


@pytest.fixture(params=sorted(_BINDINGS))
def binding(request, monkeypatch):
    """Installs a freshly loaded binding as ``_optim._GGEV``: numpy's OpenBLAS (skipped
    where numpy bundles none), or the ``_flapack`` fallback, forced by making the
    locator find nothing."""
    if request.param == "openblas" and _optim._numpy_openblas() is None:
        pytest.skip("numpy bundles no libscipy_openblas64_")
    if request.param == "flapack":
        monkeypatch.setattr(_optim, "_numpy_openblas", lambda: None)
    ggev = _optim._load_ggev()
    assert ggev.__qualname__.startswith(_BINDINGS[request.param] + ".")
    monkeypatch.setattr(_optim, "_GGEV", ggev)
    return request.param


def test_pencil_eigvals_match_scipy_bit_for_bit(binding):
    for label, a_mat, b_mat in _pencil_cases():
        got = pencil_eigvals(a_mat, b_mat)
        want = scipy.linalg.eigvals(a_mat, b_mat)
        assert got.dtype == want.dtype, label
        assert got.tobytes() == want.tobytes(), label


def test_kernel_pencil_is_the_block_pencil(monkeypatch):
    # every pencil the kernel solves is, in dtype and byte for byte, the np.block pencil of
    # its scaled N and K and its level corner; rebuilt that way, the output is unchanged
    def rebuilt(a_mat, n_mat):
        r = n_mat.shape[0]
        eye, zero = np.eye(r), np.zeros((r, r))
        return (np.block([[zero, eye], [-n_mat.conj().T, a_mat[r:, r:]]]),
                np.block([[eye, zero], [zero, n_mat]]))

    cases = [(name, n_mat) for r in (1, 2, 3, 5, 8)
             for name, n_mat in _families(np.random.default_rng(300 + r), r)]
    cases.append(("real dtype", np.random.default_rng(7).standard_normal((4, 4))))
    solved = 0
    for name, n_mat in cases:
        for shift in (None, gram_herm(n_mat)):
            k_mat = np.zeros(n_mat.shape) if shift is None else shift
            scale = max(np.linalg.norm(n_mat), np.linalg.norm(k_mat)) or 1.0
            pencils = []

            def check(a_mat, b_mat, _solve=pencil_eigvals, n_s=n_mat / scale):
                ref_a, ref_b = rebuilt(a_mat, n_s)
                assert (a_mat.dtype, b_mat.dtype) == (ref_a.dtype, ref_b.dtype), name
                assert a_mat.tobytes() == ref_a.tobytes() and b_mat.tobytes() == ref_b.tobytes()
                pencils.append(a_mat.dtype)
                return _solve(a_mat, b_mat)

            def block_built(a_mat, b_mat, _solve=pencil_eigvals, n_s=n_mat / scale):
                return _solve(*rebuilt(a_mat, n_s))

            for index in (0, -1):
                monkeypatch.setattr(_optim, "pencil_eigvals", check)
                got = rotated_eig_max(n_mat, index, shift)
                monkeypatch.setattr(_optim, "pencil_eigvals", block_built)
                want = rotated_eig_max(n_mat, index, shift)
                for x, y in zip(got, want):
                    assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), (name, index)
            solved += len(pencils)
            if name == "real dtype" and shift is None:  # real pencils still run dggev
                assert set(pencils) == {np.dtype(float)}
    assert solved > len(cases)


def test_pencil_flat_has_no_finite_unimodular_eigenvalue():
    # at gamma = 1/2 every angle of the flat N crosses: the pencil is singular
    z = pencil_eigvals(*_pencil(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5))
    z = z[np.isfinite(z)]
    assert not np.any(np.abs(np.abs(z) - 1.0) <= _optim.UNIMODULAR_TOL)


def _failing_openblas(routine):
    # the ctypes routine, then info = 1 on every solve; the query passes JOBVL = "V"
    def call(*args):
        routine(*args)
        if args[0] == b"N":
            args[-3]._obj.value = 1

    return call


def _failing_flapack(routine):
    # the f2py routine, then info = 1 on every solve; the query passes lwork = -1
    def call(*args, **kw):
        *out, info = routine(*args, **kw)
        return (*out, info if kw.get("lwork") == -1 else 1)

    return call


def test_pencil_failure_raises(binding, monkeypatch):
    # info != 0 from either routine of either binding raises, in the pencil and the kernel
    if binding == "openblas":
        routines = _optim._openblas_routines(_optim._numpy_openblas())
        failing = _optim._openblas_ggev(*map(_failing_openblas, routines))
    else:
        flapack = _optim._load_flapack()
        failing = _optim._flapack_ggev(_failing_flapack(flapack.zggev),
                                       _failing_flapack(flapack.dggev))
    monkeypatch.setattr(_optim, "_GGEV", failing)
    n_mat = np.random.default_rng(1).standard_normal((3, 3))
    for n in (n_mat, n_mat + 0j):
        with pytest.raises(np.linalg.LinAlgError, match="info=1"):
            pencil_eigvals(*_pencil(n, 1.0))
        with pytest.raises(np.linalg.LinAlgError):
            rotated_eig_max(n, -1)


def test_pencil_rejects_other_shapes(binding):
    # the ctypes copy would broadcast (3, 1) or (1, 3); f2py's dggev took the (2, 2), (3, 3)
    for shapes in ((3, 1), (3, 3)), ((2, 2), (3, 3)), ((3, 3), (1, 3)), ((2, 3), (2, 3)):
        with pytest.raises(ValueError, match="square matrices of one order"):
            pencil_eigvals(np.ones(shapes[0]), np.ones(shapes[1]))


def _run_probe(probe: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


@pytest.mark.parametrize("first", ["semidw", "scipy.linalg"])
def test_flapack_is_scipys_own_extension(first):
    # the fallback binds one copy of the extension, whichever package loads it first
    probe = ("import semidw._optim as o\nflapack = o._load_flapack()\nimport scipy.linalg.lapack"
             if first == "semidw" else
             "import scipy.linalg.lapack, semidw._optim as o\nflapack = o._load_flapack()")
    proc = _run_probe(probe + "\nassert flapack is scipy.linalg.lapack._flapack")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(_optim._numpy_openblas() is None,
                    reason="numpy bundles no libscipy_openblas64_")
def test_import_works_without_scipy():
    # sys.modules["scipy"] = None hides scipy from import and from importlib.util.find_spec
    proc = _run_probe("import sys\nsys.modules['scipy'] = None\n"
                      "import numpy as np, semidw as sd\n"
                      "print(sd.numerical_radius(sd.build_metric(np.eye(2)),"
                      " np.array([[0.0, 1.0], [0.0, 0.0]])).value)")
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx(0.5, rel=1e-14)


def test_no_lapack_raises_import_error_naming_both(monkeypatch):
    monkeypatch.setattr(_optim, "_numpy_openblas", lambda: None)
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    with pytest.raises(ImportError, match="libscipy_openblas64_.*scipy.linalg._flapack"):
        _optim._load_ggev()


@pytest.mark.skipif(_optim._numpy_openblas() is None or not os.path.exists("/proc/self/maps"),
                    reason="numpy bundles no libscipy_openblas64_, or no /proc/self/maps")
def test_one_openblas_and_no_scipy_per_process():
    # the package's LAPACK is the OpenBLAS numpy has already mapped: a verify run loads
    # no scipy module and maps no second OpenBLAS
    proc = _run_probe("import sys\nimport numpy as np\nimport semidw, semidw.cli\n"
                      "m = semidw.build_metric(np.diag([1.0, 2.0, 0.0]))\n"
                      "x = np.array([[0.0, 1.0, 0.0], [0.5j, 0.0, 0.0], [0.0, 0.0, 0.0]])\n"
                      "assert semidw.bounds.verify_all(m, x, seed=1).overall_pass\n"
                      "print(*sorted(k for k in sys.modules if k.startswith('scipy')))\n"
                      "print(*sorted({line.split()[-1] for line in open('/proc/self/maps')"
                      " if 'openblas' in line.rsplit('/', 1)[-1]}))")
    assert proc.returncode == 0, proc.stderr
    scipy_modules, libraries = proc.stdout.split("\n")[:2]
    assert scipy_modules == ""
    assert len(libraries.split()) == 1, libraries


def _cos_jet(phi, amp=1.0):
    return lambda x: (amp * np.cos(x - phi), -amp * np.sin(x - phi), -amp * np.cos(x - phi))


def _newton_cases():
    """``(f, theta0, argmax, max)`` per search, ``f(x) = (value, slope, curv)``: analytic
    peaks, then starts where no step may be kept (argmax None): a convex start, a step
    that falls (its slope has the wrong sign) and a step without a strict rise."""
    cases = []
    for phi, offset in ((0.4, 0.3), (-2.0, -0.25), (3.0, 0.05), (1.0, 0.9)):
        cases.append((_cos_jet(phi, 2.0), phi + offset, phi, 2.0))
        cases.append((lambda x, p=phi: (np.cos(x - p) + 0.3 * np.cos(2.0 * (x - p)),
                                        -np.sin(x - p) - 0.6 * np.sin(2.0 * (x - p)),
                                        -np.cos(x - p) - 1.2 * np.cos(2.0 * (x - p))),
                      phi + offset, phi, 1.3))
        cases.append((lambda x, p=phi: np.exp(np.cos(x - p)) * np.array(
                          [1.0, -np.sin(x - p), np.sin(x - p) ** 2 - np.cos(x - p)]),
                      phi + offset, phi, np.e))
    cases.append((_cos_jet(0.0), np.pi - 0.1, None, None))
    cases.append((lambda x: (-(x - 1.0) ** 2, 2.0 * (x - 1.0), -2.0), 1.2, None, None))
    cases.append((lambda x: (1.0, 1.0, -1.0), 0.5, None, None))
    return cases


def test_newton_lockstep_known_maxima_and_refused_steps():
    eps = np.finfo(float).eps
    step_max = 0.5
    cases = _newton_cases()
    visits = [[] for _ in cases]
    calls = []

    def f(xs, ks):
        calls.append(list(ks))
        for x, k in zip(xs.tolist(), ks):
            visits[k].append(x)
        return np.array([cases[k][0](x) for x, k in zip(xs.tolist(), ks)]).T

    theta, value, evals = _optim.newton_max_lockstep(np.array([c[1] for c in cases]), f, step_max)
    # one call per step, over a shrinking set of the searches; evals counts their angles
    assert calls[0] == list(range(len(cases))) and 1 < len(calls) <= _optim.NEWTON_STEPS + 1
    assert evals == sum(map(len, calls)) == sum(map(len, visits))
    assert all(set(later) <= set(earlier) for earlier, later in zip(calls, calls[1:]))
    for k, (func, start, argmax, top) in enumerate(cases):
        # every value is attained at its angle; every kept step is within step_max
        assert value[k] == func(theta[k])[0], k
        assert np.all(np.abs(np.diff(visits[k])) <= step_max), k
        if argmax is None:
            assert (theta[k], value[k]) == (start, func(start)[0]), k
        else:
            assert top - 4.0 * eps * (1.0 + top) <= value[k] <= top, k
            assert abs(theta[k] - argmax) <= 1e-7, k
    # a start 0.9 from its peak takes a clamped first step
    assert visits[9][1] - visits[9][0] == -step_max
    # the last start moved by the clamped step and no further
    assert len(visits[-1]) == 2 and visits[-1][1] - visits[-1][0] == step_max


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
    # a taken candidate is always polished, so the returned angle is the last polish's
    # and its eigenpairs are the polish's eigh
    monkeypatch.setattr(_optim, "NEWTON_STEPS", steps)
    monkeypatch.setattr(_optim, "MAX_LEVELS", levels)
    polished = []

    def recorded(*args, _drive=_optim.newton_max_lockstep):
        out = _drive(*args)
        polished.append(out[0][0] % (2.0 * np.pi))
        return out

    monkeypatch.setattr(_optim, "newton_max_lockstep", recorded)
    calls = 0
    for r in (1, 2, 3, 5, 8):
        rng = np.random.default_rng(100 + r)
        for name, n_mat in _families(rng, r):
            for shift in (None, gram_herm(n_mat)):
                for index in (0, -1):
                    label = (name, r, index, shift is not None)
                    polished.clear()
                    theta = _check_eigenpairs(n_mat, index, shift, label)
                    if polished:  # N = 0 at r = 1 returns before any polish
                        calls += 1
                        assert theta == polished[-1], label
    assert calls > 150
    for n_mat, shift in ((np.zeros((3, 3), dtype=complex), None),
                         (np.zeros((2, 2), dtype=complex), np.diag([2.0, 5.0]))):
        for index in (0, -1):
            _check_eigenpairs(n_mat, index, shift, ("zero", index, shift is not None))


def _counted_solves(monkeypatch):
    """Record each kernel eigensolve as ``(kind, matrices, inside the polish)`` and each
    pencil as ``("pencil", 1, False)``, in the order of the calls."""
    solves = []
    polishing = [False]

    def counted(kind, solve):
        def wrapped(a, *args, **kw):
            solves.append((kind, int(np.prod(np.shape(a)[:-2])), polishing[0]))
            return solve(a, *args, **kw)
        return wrapped

    def polish(*args, _drive=_optim.newton_max_lockstep):
        polishing[0] = True
        try:
            return _drive(*args)
        finally:
            polishing[0] = False

    for kind in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, kind, counted(kind, getattr(np.linalg, kind)))
    monkeypatch.setattr(_optim, "newton_max_lockstep", polish)
    monkeypatch.setattr(_optim, "pencil_eigvals", counted("pencil", pencil_eigvals))
    return solves


def _family_calls():
    """``(label, N, index, shift)`` of the kernel sweep over ``_families``: 260 calls."""
    for r in (1, 2, 3, 5, 8, 16):
        rng = np.random.default_rng(100 + r)
        for name, n_mat in _families(rng, r):
            for shift in (None, gram_herm(n_mat)):
                for index in (0, -1):
                    yield (name, r, index, shift is not None), n_mat, index, shift


def test_kernel_evals_count_its_eigensolves(monkeypatch):
    # evals (the iterations of w_A and c_A) is every matrix the kernel's eigh and
    # eigvalsh solve, stacked ones included: no eigensolve goes uncounted
    solves = _counted_solves(monkeypatch)
    extra = []
    for label, n_mat, index, shift in _family_calls():
        solves.clear()
        evals = rotated_eig_max(n_mat, index, shift)[2]
        extra.append(sum(count for kind, count, _ in solves if kind != "pencil") - evals)
    assert len(extra) == 260 and set(extra) == {0}


def test_kernel_solves_no_arc_end_for_a_rounding_rise(monkeypatch):
    # an arc rises only past the stop rule's 4 eps (1 + |gamma|), so each arc-end eigh
    # (an eigh outside the polish) opens a level whose polished candidate the next
    # pencil tests: a call solves one fewer arc-end eigh than pencils, none on a call
    # whose first level is the maximum (the parent's criss-cross chased the rounding
    # rise of the certificate's arc there with an arc-end and a final eigh)
    solves = _counted_solves(monkeypatch)
    one_pencil = 0
    for label, n_mat, index, shift in _family_calls():
        solves.clear()
        rotated_eig_max(n_mat, index, shift)
        pencils = sum(kind == "pencil" for kind, _, _ in solves)
        ends = [count for kind, count, polish in solves if kind == "eigh" and not polish]
        assert len(ends) == max(pencils - 1, 0), (label, pencils, ends)
        one_pencil += pencils == 1
    assert one_pencil > 200


def test_kernel_flat_nilpotent_solves_one_pencil(monkeypatch):
    # f(theta) = |a| / 2 at every angle: the pencil at that level is singular and reports
    # no crossing, and no midpoint is evaluated, let alone an arc end
    solves = _counted_solves(monkeypatch)
    for a in (1.0, 1.0 / np.sqrt(2.0), 3.0 + 4.0j):
        n_mat = np.array([[0.0, a], [0.0, 0.0]], dtype=complex)
        for index in (0, -1):
            solves.clear()
            theta, value, evals, *_ = rotated_eig_max(n_mat, index)
            top = abs(a) / 2.0
            assert value == pytest.approx(top if index == -1 else -top, rel=1e-15)
            assert [kind for kind, _, polish in solves if not polish] == ["eigvalsh", "pencil"]
            assert evals == _optim.START_ANGLES + sum(
                count for kind, count, polish in solves if polish)


def test_w_core_solves_no_eigh_outside_the_kernel(monkeypatch):
    # the witness is the kernel's top eigenvector: no eigensolve at its angle again
    from semidw import radii

    counts = {"all": 0, "kernel": 0}

    def counted_eigh(a, *args, _eigh=np.linalg.eigh, **kw):
        counts["all"] += 1
        return _eigh(a, *args, **kw)

    def counted_kernel(*args, _kernel=radii.rotated_eig_max_stack):
        before = counts["all"]
        out = _kernel(*args)
        counts["kernel"] += counts["all"] - before
        return out

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(radii, "rotated_eig_max_stack", counted_kernel)
    rng = np.random.default_rng(5)
    for r in (2, 5, 8):
        counts.update(all=0, kernel=0)
        _Memo().run(_w_core, rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
        assert counts["all"] == counts["kernel"] > 0, r


def test_w_and_crawford_build_no_theta_grid_stack(monkeypatch):
    # the matrices of each eigensolve: the kernel's stacks and the support points
    sizes = []

    def recorded(solve):
        def wrapped(a, *args, **kw):
            sizes.append(int(np.prod(np.shape(a)[:-2])))
            return solve(a, *args, **kw)
        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
    rng = np.random.default_rng(3)
    for r in (2, 6, 12):
        for _, n_mat in _families(rng, r):
            _Memo().run(_w_core, n_mat)
            _Memo().run(_crawford_core, n_mat)
    # the 1440-angle stacks the kernel replaced
    assert sizes and max(sizes) < 1440


def _stack_problems(rng, r):
    """One order's hard cases as kernel problems: every family (random, triangular,
    normal with kinks, singular N whose pencils have infinite eigenvalues, ...) with and
    without the G shift at both indices, a zero problem (scale 0) and a shift alone."""
    problems = [(n_mat, index, shift) for _, n_mat in _families(rng, r)
                for shift in (None, gram_herm(n_mat)) for index in (0, -1)]
    zero = np.zeros((r, r), dtype=complex)
    return problems + [(zero, -1, None), (zero, 0, np.diag(np.arange(1.0, r + 1.0)))]


def _same_bits(got, want) -> bool:
    return all(np.asarray(x).dtype == np.asarray(y).dtype
               and np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(got, want))


@pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
def test_stack_is_its_stacks_of_one_bit_for_bit(r, monkeypatch):
    # each problem's (theta, value, evals, lam, vecs), evals counted per problem, is that
    # of its stack of one, and permuting the stack permutes the outputs
    rng = np.random.default_rng(400 + r)
    problems = _stack_problems(rng, r)
    pencils = _counted_pencils(monkeypatch)
    singles = [rotated_eig_max(*problem) for problem in problems]
    single_pencils = len(pencils)
    pencils.clear()
    stacked = rotated_eig_max_stack(problems)
    assert len(pencils) == single_pencils
    assert len(stacked) == len(problems)
    for k, (got, want) in enumerate(zip(stacked, singles)):
        assert _same_bits(got, want), k
    assert len({out[2] for out in stacked}) > 2
    for perm in (rng.permutation(len(problems)), np.arange(len(problems))[::-1]):
        permuted = rotated_eig_max_stack([problems[k] for k in perm])
        for k, got in zip(perm, permuted):
            assert _same_bits(got, singles[k]), k


def test_stack_runs_in_lockstep(monkeypatch):
    # one eigvalsh of all start grids, one eigh per Newton step: the eigensolve calls of a
    # stack are bounded by the levels and steps, not by its size
    solves = []

    def counted(solve):
        def wrapped(a, *args, **kw):
            solves.append(int(np.prod(np.shape(a)[:-2])))
            return solve(a, *args, **kw)
        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    rng = np.random.default_rng(5)
    for r in (2, 4):
        problems = [p for p in _stack_problems(rng, r) if np.linalg.norm(p[0])]
        solves.clear()
        rotated_eig_max_stack(problems)
        stacked = list(solves)
        solves.clear()
        for problem in problems:
            rotated_eig_max(*problem)
        assert stacked[0] == _optim.START_ANGLES * len(problems)
        assert 3 * len(stacked) < len(solves), (r, len(stacked), len(solves))


def test_stack_of_nothing_and_of_zero_problems():
    assert rotated_eig_max_stack([]) == []
    zero = np.zeros((2, 2), dtype=complex)
    out = rotated_eig_max_stack([(zero, -1, None), (zero, 0, None)])
    assert [o[:3] for o in out] == [(0.0, 0.0, 0)] * 2



def _curve(n_mat, index, shift, thetas):
    k_mat = 0.0 if shift is None else shift
    return np.linalg.eigvalsh(rotated_herm(n_mat, thetas) + k_mat)[:, index]


def _grid_starts(n_mat, index, shift, theta):
    """``(local, minimum)`` on a 4096-angle grid of the eigenvalue curve: the best strict
    local maximum away from ``theta`` (None if there is none) and the lowest angle."""
    thetas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    vals = _curve(n_mat, index, shift, thetas)
    peak = (vals > np.roll(vals, 1)) & (vals > np.roll(vals, -1))
    far = np.abs(np.angle(np.exp(1j * (thetas - theta)))) > 0.1
    cands = np.flatnonzero(peak & far)
    local = float(thetas[cands[np.argmax(vals[cands])]]) if cands.size else None
    return local, float(thetas[np.argmin(vals)])


def _kinks(n_mat, index, shift):
    """The angles where two eigenvalues of ``Re(e^{i theta} N) + K`` cross at eigenvalue
    ``index``, for a normal N and K = N*N or 0: with ``N = sum mu_j q_j q_j*`` they are
    ``f_j(theta) = Re(e^{i theta} mu_j) + |mu_j|^2 [K]``, and ``f_j = f_k`` is one cosine."""
    mu = np.linalg.eigvals(n_mat)
    lift = np.abs(mu) ** 2 if shift is not None else np.zeros(mu.size)
    out = []
    for j in range(mu.size):
        for k in range(j):
            d = mu[j] - mu[k]
            c = lift[k] - lift[j]
            if abs(d) > 1e-9 and abs(c) < abs(d):
                for sgn in (1.0, -1.0):
                    theta = -np.angle(d) + sgn * np.arccos(c / abs(d))
                    f = (np.exp(1j * theta) * mu).real + lift
                    if abs(np.sort(f)[index] - f[j]) <= 1e-9 * (1.0 + np.abs(f).max()):
                        out.append(float(theta))
    return out


@pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
def test_warm_starts_reach_the_cold_maximum(r):
    # a start angle and its antipode replace the start grid; from the cold maximizer, its
    # antipode, a non-global local maximum, the curve's minimum, a kink of a normal N or
    # an angle outside [0, 2 pi) the kernel still returns the cold maximum, attained at
    # its angle
    rng = np.random.default_rng(500 + r)
    eps = np.finfo(float).eps
    tried = set()
    for name, n_mat in _families(rng, r):
        for shift in (None, gram_herm(n_mat)):
            scale = max(np.linalg.norm(n_mat), 0.0 if shift is None else np.linalg.norm(shift))
            for index in (0, -1):
                theta, value = rotated_eig_max_stack([(n_mat, index, shift)])[0][:2]
                local, minimum = _grid_starts(n_mat, index, shift, theta)
                starts = {"cold": theta, "antipode": theta + np.pi, "-pi": -np.pi,
                          "7 pi": 7.0 * np.pi, "local": local, "minimum": minimum}
                if name == "normal":
                    starts.update((f"kink {k}", t)
                                  for k, t in enumerate(_kinks(n_mat, index, shift)))
                for kind, start in starts.items():
                    if start is None:
                        continue
                    tried.add(kind.split()[0])
                    label = (name, shift is not None, index, kind)
                    got_theta, got, evals, lam, _ = rotated_eig_max_stack(
                        [(n_mat, index, shift, start)])[0]
                    assert abs(got - value) <= 4 * eps * (scale + abs(value)), label
                    attained = _curve(n_mat, index, shift, np.array([got_theta]))[0]
                    assert abs(got - attained) <= 4 * eps * (scale + abs(value)), label
                    assert abs(lam[index] - got) <= 4 * eps * (scale + abs(value)), label
                    assert 0.0 <= got_theta < 2.0 * np.pi and (evals >= 2 or scale == 0.0), label
    assert tried == {"cold", "antipode", "-pi", "7", "local", "minimum", "kink"} or r == 1


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_warm_problems_in_a_stack_are_their_stacks_of_one(r, monkeypatch):
    # warm and cold problems mixed in one stack give, bit for bit, their stacks of one,
    # in the same number of pencils, and permuting the stack permutes the outputs
    rng = np.random.default_rng(600 + r)
    problems = _stack_problems(rng, r)
    starts = rng.uniform(-np.pi, 3.0 * np.pi, len(problems))
    problems = [p + (float(s),) if k % 3 else p
                for k, (p, s) in enumerate(zip(problems, starts))]
    pencils = _counted_pencils(monkeypatch)
    singles = [rotated_eig_max_stack([problem])[0] for problem in problems]
    single_pencils = len(pencils)
    pencils.clear()
    stacked = rotated_eig_max_stack(problems)
    assert len(pencils) == single_pencils
    for k, (got, want) in enumerate(zip(stacked, singles)):
        assert _same_bits(got, want), k
    for perm in (rng.permutation(len(problems)), np.arange(len(problems))[::-1]):
        for k, got in zip(perm, rotated_eig_max_stack([problems[k] for k in perm])):
            assert _same_bits(got, singles[k]), k
