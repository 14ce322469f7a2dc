"""Angle maximization helpers shared by the radius and bound evaluators.

The level-set kernel :func:`rotated_eig_max_stack` maximizes one eigenvalue of
``Re(e^{i theta} N) + K`` for each problem of a stack of one order, in lockstep;
:func:`rotated_eig_max` is its stack of one. :func:`newton_max_lockstep`, the one
Newton ascent, polishes the kernel's levels and the lambda-real peaks of
:mod:`semidw.bounds` in lockstep, both on the derivatives of one extreme eigenvalue
from :func:`eig_jet`, the mean of its rounding-level cluster, which stays smooth where
the eigenvalue is multiple; :func:`pencil_eigvals` is the kernel's QZ solve. It calls
LAPACK's ``ggev`` in the OpenBLAS that numpy's wheel bundles, which ``import numpy``
has already mapped, so the package loads no scipy module and no second BLAS; where
numpy bundles none (a system-LAPACK or MKL build), in scipy's f2py ``_flapack``.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np


def _numpy_openblas() -> str | None:
    """Path of the ILP64 OpenBLAS that numpy's wheel bundles (``libscipy_openblas64_*``
    in ``numpy.libs``, or ``numpy/.dylibs`` on macOS), or None where numpy has none."""
    package = os.path.dirname(np.__file__)
    for folder in (os.path.join(os.path.dirname(package), "numpy.libs"),
                   os.path.join(package, ".dylibs")):
        found = sorted(glob.glob(os.path.join(folder, "libscipy_openblas64_*")))
        if found:
            return found[0]
    return None


def _openblas_routines(path: str) -> tuple:
    """``scipy_zggev_64_`` and ``scipy_dggev_64_`` of the OpenBLAS at ``path``, as ctypes
    functions without ``argtypes``, which would convert every argument in Python: a
    call passes each argument as a ctypes reference (the integers 64-bit), then
    gfortran's hidden lengths of the two ``CHARACTER`` arguments as ``size_t``."""
    lib = ctypes.CDLL(path)
    routines = lib.scipy_zggev_64_, lib.scipy_dggev_64_
    for routine in routines:
        routine.restype = None
    return routines


#: gfortran's hidden length of a ``CHARACTER*1`` argument
_CHAR_LEN = ctypes.c_size_t(1)


def _openblas_ggev(zggev, dggev):
    """``ggev(a_mat, b_mat, cplx) -> (alpha, beta, info)`` on the ctypes routines of
    :func:`_openblas_routines`, ``zggev`` if ``cplx`` else ``dggev`` (whose ``alpha`` is
    ``alphar + 1j alphai``).

    A plan per (cplx, order) holds the order, 1 and the ``lwork = -1`` query's workspace
    size as 64-bit integers, and the byte offsets of A, B, the outputs and the
    workspaces in one buffer. Each call copies A and B in Fortran order into a fresh
    such buffer, so the caller's arrays are untouched and no call shares a buffer
    with another.
    """
    plans: dict[tuple[bool, int], tuple] = {}
    byref = ctypes.byref

    def plan(cplx: bool, n: int) -> tuple:
        dtype = np.dtype(complex if cplx else float)
        order, query, info = ctypes.c_int64(n), ctypes.c_int64(-1), ctypes.c_int64()
        nn, work = byref(order), (ctypes.c_double * 2)()
        # with eigenvectors, as scipy queries: the size sets the blocking of the solve
        if cplx:
            zggev(b"V", b"V", nn, work, nn, work, nn, work, work, work, nn, work, nn, work,
                  byref(query), work, byref(info), _CHAR_LEN, _CHAR_LEN)
        else:
            dggev(b"V", b"V", nn, work, nn, work, nn, work, work, work, work, nn, work, nn,
                  work, byref(query), byref(info), _CHAR_LEN, _CHAR_LEN)
        lwork = int(work[0])
        # A at 0, B, alpha and beta (alphar, alphai, beta), work, and zggev's 8n reals
        sizes = [n * n, n * n] + [n] * (2 if cplx else 3) + [lwork, 4 * n if cplx else 0]
        ends = [dtype.itemsize * int(x) for x in np.cumsum(sizes)]
        plans[cplx, n] = (dtype, ctypes.c_char * ends[-1], ends[:-1], nn,
                          byref(ctypes.c_int64(1)), byref(ctypes.c_int64(lwork)))
        return plans[cplx, n]

    def ggev(a_mat: np.ndarray, b_mat: np.ndarray, cplx: bool) -> tuple:
        n = a_mat.shape[0]
        dtype, buffer, offsets, nn, one, lwork = plans.get((cplx, n)) or plan(cplx, n)
        raw, info = buffer(), ctypes.c_int64()
        buf = np.frombuffer(raw, dtype)
        mats = buf[:2 * n * n].reshape(2, n, n)
        mats[0], mats[1] = a_mat.T, b_mat.T  # Fortran order
        b, *outs, work, rwork = [byref(raw, at) for at in offsets]
        at = 2 * n * n
        if cplx:  # VL and VR are not referenced
            zggev(b"N", b"N", nn, raw, nn, b, nn, *outs, raw, one, raw, one, work, lwork, rwork,
                  byref(info), _CHAR_LEN, _CHAR_LEN)
            return buf[at:at + n], buf[at + n:at + 2 * n], info.value
        dggev(b"N", b"N", nn, raw, nn, b, nn, *outs, raw, one, raw, one, work, lwork,
              byref(info), _CHAR_LEN, _CHAR_LEN)
        alpha = buf[at:at + n] + 1j * buf[at + n:at + 2 * n]
        return alpha, buf[at + 2 * n:at + 3 * n], info.value

    return ggev


def _load_flapack():
    """scipy's f2py LAPACK extension ``scipy.linalg._flapack``, without the ``scipy.linalg``
    package, or None where scipy or the extension is not installed.

    ``find_spec("scipy")`` locates scipy without running its ``__init__``; the
    extension is then loaded from ``scipy/linalg`` and registered under its
    own name, so a later ``import scipy.linalg`` binds this same module (and
    one loaded by scipy first is taken as it is).
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _flapack_ggev(zggev, dggev):
    """``ggev(a_mat, b_mat, cplx) -> (alpha, beta, info)``, as :func:`_openblas_ggev`, on
    the f2py wrappers of ``_flapack``, with the same per-(cplx, order) query."""
    lworks: dict[tuple[bool, int], int] = {}

    def ggev(a_mat: np.ndarray, b_mat: np.ndarray, cplx: bool) -> tuple:
        routine, key = zggev if cplx else dggev, (cplx, a_mat.shape[0])
        if key not in lworks:
            lworks[key] = int(routine(a_mat, b_mat, lwork=-1)[-2][0].real)
        *alpha, beta, _, _, _, info = routine(a_mat, b_mat, compute_vl=0, compute_vr=0,
                                              lwork=lworks[key])
        return alpha[0] if cplx else alpha[0] + 1j * alpha[1], beta, info

    return ggev


def _load_ggev():
    """The ``ggev`` of :func:`pencil_eigvals`: :func:`_openblas_ggev` where numpy bundles
    its OpenBLAS, else :func:`_flapack_ggev`; ImportError where neither loads."""
    path = _numpy_openblas()
    if path is not None:
        try:
            return _openblas_ggev(*_openblas_routines(path))
        except (OSError, AttributeError):  # not loadable, or without the ILP64 ggev
            pass
    flapack = _load_flapack()
    if flapack is None:
        raise ImportError("semidw needs LAPACK's ggev: found neither numpy's bundled OpenBLAS "
                          "(libscipy_openblas64_) nor scipy's scipy.linalg._flapack")
    return _flapack_ggev(flapack.zggev, flapack.dggev)


_GGEV = _load_ggev()


def pencil_eigvals(a_mat: np.ndarray, b_mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of the pencil ``(A, B)``, bit for bit those of ``scipy.linalg.eigvals(A, B)``.

    One LAPACK ``ggev`` call without eigenvectors (``zggev``, ``dggev`` for real
    pencils), through :data:`_GGEV`: the ILP64 ``scipy_?ggev_64_`` of the OpenBLAS in
    numpy's wheel, called by ctypes, or else scipy's f2py ``_flapack``. Its workspace
    is sized by one ``lwork = -1`` query per order, with eigenvectors, as scipy does
    on every call: the size sets the blocking, so a smaller one could change the
    result. ``alpha / beta`` is inf where ``beta = 0`` (nan for ``0 / 0``, complex nan
    unless every ``alpha`` is real). Raises ``ValueError`` unless A and B are square of
    one order, and ``LinAlgError`` when QZ fails.
    """
    if a_mat.shape != b_mat.shape or a_mat.shape != a_mat.shape[:1] * 2:
        # the ctypes binding's copy would broadcast them, and f2py's dggev takes a B too big
        raise ValueError(f"a pencil needs two square matrices of one order, not "
                         f"{a_mat.shape} and {b_mat.shape}")
    alpha, beta, info = _GGEV(a_mat, b_mat, np.iscomplexobj(a_mat) or np.iscomplexobj(b_mat))
    if info != 0:
        raise np.linalg.LinAlgError(f"generalized eig algorithm (ggev) failed (LAPACK info={info})")
    if beta.all():  # no infinite eigenvalue: the plain quotient, a third of the masked cost
        return alpha / beta
    finite = beta != 0
    z = np.divide(alpha, beta, out=np.full_like(alpha, np.inf), where=finite)
    z[(alpha == 0) & ~finite] = complex(np.nan, np.nan) if alpha.imag.any() else np.nan
    return z


#: equispaced angles whose best value is the first level of :func:`rotated_eig_max`
START_ANGLES = 16
#: the start angles, equispaced on [0, 2 pi)
START_THETAS = np.linspace(0.0, 2.0 * np.pi, START_ANGLES, endpoint=False)
#: a pencil eigenvalue z is a crossing when ``||z| - 1| <= UNIMODULAR_TOL max(1, |z|)``
UNIMODULAR_TOL = 1e-6
#: cap on the level sets of one maximization (quadratic convergence needs about 7)
MAX_LEVELS = 30
#: longest step of the Newton polish: half the start-angle spacing
NEWTON_STEP_MAX = np.pi / START_ANGLES
#: cap on the Newton steps of one polish (quadratic convergence needs about 5)
NEWTON_STEPS = 8
#: a Newton ascent stops once its predicted rise is at most ``NEWTON_STOP_ULPS eps |value|``
NEWTON_STOP_ULPS = 1


def newton_max_lockstep(theta0, f, step_max: float):
    """Safeguarded Newton ascents from the angles ``theta0``, run in lockstep.

    ``f(thetas, k)`` gives ``(value, slope, curv)`` of the searches ``k`` (a list) at
    the angles ``thetas`` (an array), so a caller can solve a step's angles in one
    stack; it is called at ``theta0``, then once per step for the searches still
    running. A step ``-slope / curv`` is tried only where ``curv < 0`` (never at nan),
    clamped to ``step_max``, and kept only if the value strictly rises, so every value
    stays attained. A search stops at a refused step, after ``NEWTON_STEPS`` steps, or
    once its predicted rise ``slope * step / 2`` is at most ``NEWTON_STOP_ULPS eps
    |value|``: relative, as the values need not be scaled (with ``eps (1 + |value|)`` a
    lambda-real member of ``||N|| ~ 4e-3`` stopped 5.5e-12 relative short of its peak).
    Returns ``(theta, value, evals)``: lists per search and the count of angles given
    to ``f``; plain floats, as most calls run one search.
    """
    stop = NEWTON_STOP_ULPS * float(np.finfo(float).eps)
    theta = [float(x) for x in theta0]
    run = list(range(len(theta)))
    value, slope, curv = ([float(x) for x in a] for a in f(np.array(theta), run))
    evals = len(run)
    for _ in range(NEWTON_STEPS):
        go, steps = [], []
        for k in run:
            step = -slope[k] / curv[k] if curv[k] < 0.0 else 0.0
            if 0.5 * slope[k] * step > stop * abs(value[k]):
                go.append(k)
                steps.append(min(max(step, -step_max), step_max))
        if not go:
            break
        new = f(np.array([theta[k] + step for k, step in zip(go, steps)]), go)
        evals += len(go)
        run = []
        for k, step, v, s, c in zip(go, steps, *new):
            if v > value[k]:
                run.append(k)
                theta[k] += step
                value[k], slope[k], curv[k] = float(v), float(s), float(c)
    return theta, value, evals


def eig_jet(lam: np.ndarray, vecs: np.ndarray, c_mat: np.ndarray, c_prime: np.ndarray,
            k: int) -> tuple:
    """``(value, slope, curv)`` in theta of the extreme eigenvalue ``k`` (0, or r - 1 or -1) of
    one matrix ``f(theta)`` with eigenpairs ``lam`` (ascending), ``vecs``, ``f' = C'`` and
    ``f'' = -C`` (``c_prime``, ``c_mat``), as for ``Re(e^{i theta} N)`` plus a constant.

    The value is ``lam[k]``; slope and curvature are those of the mean of its cluster S,
    the eigenvalues within ``4 r eps (1 + max |lambda|)`` of it (a contiguous slice of
    ``lam``), which is smooth where a multiple eigenvalue is not: ``tr(X* C' X) / |S|``
    and ``(-tr(X* C X) + 2 sum_{i in S, j not in S} |x_j* C' x_i|^2 / (lambda_i -
    lambda_j)) / |S|`` with ``X = vecs[:, S]``. At a simple eigenvalue these are its
    own derivatives.
    """
    tol = 4.0 * lam.size * sys.float_info.epsilon * (1.0 + max(-lam[0], lam[-1]))
    lo, hi = lam.searchsorted(lam[k] - tol), lam.searchsorted(lam[k] + tol, "right")
    x = vecs[:, lo:hi]
    m = vecs.conj().T @ (c_prime @ x)
    gaps = lam[lo:hi] - lam[:, None]
    gaps[lo:hi] = np.inf
    size, pull = hi - lo, float((np.abs(m) ** 2 / gaps).sum())
    return lam[k], m[lo:hi].trace().real / size, (2.0 * pull - np.vdot(x, c_mat @ x).real) / size


def _pow2_units(*mats) -> tuple[list[np.ndarray], int]:
    """``([M 2^-e for M in mats], e)``, ``e`` the exponent of the largest real or imaginary
    part of any entry of ``mats``, so that this part of the result lies in [1/2, 1).

    Exact, signed zeros included (``np.ldexp`` on the float views; each matrix keeps a
    float or complex dtype): the units' norms and products neither underflow nor
    overflow for subnormal to huge matrices, and a ratio of two of them is that of the
    matrices. ``e`` is 0 where every entry is 0; a nonfinite entry stays nonfinite.
    """
    arrs = [np.ascontiguousarray(m, dtype=np.result_type(m, float)) for m in mats]
    e = math.frexp(max([np.abs(a.view(float)).max(initial=0.0) for a in arrs]))[1]
    return [np.ldexp(a.view(float), -e).view(a.dtype) for a in arrs], e


def rotated_eig_max(n_mat: np.ndarray, index: int, shift=None):
    """Maximize eigenvalue ``index`` (0 or -1) of ``f(theta) = Re(e^{i theta} N) + K`` over theta.

    The stack of one of :func:`rotated_eig_max_stack`, which gives the method and
    the returned ``(theta, value, evals, lam, vecs)``; ``K = shift`` (Hermitian) or 0.
    """
    return rotated_eig_max_stack([(n_mat, index, shift)])[0]


def rotated_eig_max_stack(problems) -> list[tuple]:
    """:func:`rotated_eig_max` of each problem ``(N, index, shift[, start])``, in lockstep.

    Criss-cross level-set method (Mengi-Overton, IMA J. Numer. Anal. 25 (2005);
    Boyd-Balakrishnan, Systems Control Lett. 15 (1990)) on ``N, K`` scaled by
    ``max(||N||_F, ||K||_F)``, ``K = shift`` (Hermitian) or 0, taken of the exact
    :func:`_pow2_units` of N and K, so it neither underflows nor overflows, with local
    Newton ascent between the level sets (Mitchell, SIAM J. Sci. Comput. 45
    (2023)). The first level gamma is the best of the ``START_ANGLES`` angles
    ``START_THETAS`` or, for a problem with a start angle (a warm start), the better
    of that angle and its antipode, polished by :func:`newton_max_lockstep`. The
    antipode guards a start at the curve's minimum: a level there touches the curve
    at one point, a double root that the pencil may split off the unit circle, and
    from such a start alone the search ended there (at the antipode of the
    maximizer of shifted triangular, tall and PSD test matrices). The polish steps on
    eigenvalue ``index`` with the derivatives of :func:`eig_jet` from one ``eigh`` per
    angle: at a multiple eigenvalue, which has no second derivative, those of its
    cluster mean, so a scalar ``N = alpha I`` is polished to its peak and its first
    pencil certifies it. Some eigenvalue of
    ``f(theta)`` equals gamma iff ``z = e^{i theta}`` solves
    ``det(z^2 N + 2z (K - gamma I) + N*) = 0``: the unimodular eigenvalues of a
    2r x 2r pencil (infinite ones, from singular N, are dropped). Between
    consecutive crossings the midpoint is evaluated, and an arc rises when its
    midpoint beats gamma by more than ``tiny (1 + |gamma|)``, ``tiny = 4 eps``,
    the stop rule's own tolerance, taken once per level from gamma before any
    update. On a rising arc the meeting point of the tangents at the two ends
    (slopes ``Re(i e^{i theta} x* N x)`` from the end eigenvectors x) is a
    candidate too, which resolves a kink in few steps (where no Newton step rises).
    The best candidate, polished, is the next gamma, until no arc rises. So every
    taken candidate is polished. Once the polish reaches the global maximum, the
    pencil at that level is the only one solved: it certifies that no arc lies
    above it, and the midpoint of the tiny arc at the maximizer, which can beat
    gamma by rounding alone, costs no arc-end solve.

    The gate is sound: a point inside an arc that comes within ``tiny`` of gamma
    without crossing it lies within the pencil's resolution, as a gap ``delta`` of
    the level to the curve splits its double root off the unit circle by about
    ``sqrt(delta)``, and ``UNIMODULAR_TOL = 1e-6`` is far above ``sqrt(4 eps) ~ 3e-8``.
    So the pencil reports that point as a crossing pair, and each arc on either side
    is still tested at its own midpoint.

    The problems share one order r and run in lockstep: one ``eigvalsh`` for all
    start angles, one ``eigh`` per Newton step for all polishes, and per level one
    pencil per open problem and one stacked solve each for the midpoints, the arc
    ends and the tangent meets of all of them. A stacked eigensolve solves each
    matrix alone and the matrix-vector products stay per problem, so each tuple is
    bit for bit that of the problem's stack of one.

    Returns one ``(theta, value, evals, lam, vecs)`` per problem: ``value`` is
    eigenvalue ``index`` at ``theta`` (attained, never extrapolated), ``evals`` the
    number of matrices its ``eigh`` and ``eigvalsh`` calls solve (every angle
    evaluated: start angles, Newton steps, midpoints, arc ends and tangent meets),
    and ``lam, vecs`` the eigenpairs of ``f(theta)`` in the caller's units, from the
    last polish's ``eigh``, ``lam[index] = value`` up to rounding.
    """
    out: list = [None] * len(problems)
    live, n_list, k_list, index, scale, grids = [], [], [], [], [], []
    for i, (n_mat, idx, shift, *start) in enumerate(problems):
        r = n_mat.shape[0]
        units, e = _pow2_units(n_mat) if shift is None else _pow2_units(n_mat, shift)
        s = max(float(np.linalg.norm(u)) for u in units)
        if s == 0.0:
            out[i] = (0.0, 0.0, 0, np.zeros(r), np.eye(r))
            continue
        live.append(i)
        n_list.append(units[0] / s)
        k_list.append(np.zeros((r, r)) if shift is None else units[1] / s)
        index.append(idx % r)
        scale.append((s, e))
        grids.append(START_THETAS if not start or start[0] is None
                     else float(start[0]) + np.array([0.0, np.pi]))
    if not live:
        return out
    b, r = len(live), n_list[0].shape[0]
    # a stack of one broadcasts its problem where a stack gathers one row per angle
    n_all = n_list[0][None] if b == 1 else np.stack(n_list)
    k_all = k_list[0][None] if b == 1 else np.stack(k_list)
    tiny = 4.0 * np.finfo(float).eps

    def rows(stack: np.ndarray, owner) -> np.ndarray:
        return stack if b == 1 else stack[owner]

    def herm(angles: np.ndarray, owner, shifted: bool = False) -> np.ndarray:
        # Re(e^{i theta_j} N) (+ K when shifted) of problem owner[j]
        m = rotated_herm(rows(n_all, owner), angles)
        if shifted:
            m += rows(k_all, owner)
        return m

    def gather(parts: list):
        # the angles of the (problem, angles) parts as one array, and the problem of each
        if len(parts) == 1:
            return parts[0][1], None if b == 1 else np.full(parts[0][1].size, parts[0][0])
        return (np.concatenate([angles for _, angles in parts]),
                np.repeat([p for p, _ in parts], [angles.size for _, angles in parts]))

    def values(parts: list) -> list:
        # eigenvalue index at the angles of each part, from one eigvalsh
        if not parts:
            return []
        angles, owner = gather(parts)
        vals = np.linalg.eigvalsh(herm(angles, owner, shifted=True))
        vals = vals[:, index[0]] if b == 1 else vals[np.arange(angles.size), np.take(index, owner)]
        return [vals] if len(parts) == 1 else np.split(
            vals, np.cumsum([angles.size for _, angles in parts])[:-1])

    evals = [grid.size for grid in grids]
    solved: list[dict] = [{} for _ in range(b)]
    polishing: list[int] = []

    def jets(angles: np.ndarray, searches):
        # eigenvalue index of one eigh per angle, with C' = Re(i e^{i theta} N)
        owner = [polishing[k] for k in searches]
        both = herm(np.concatenate([angles, angles + 0.5 * np.pi]), owner + owner)
        c_mats, c_primes = both[:len(owner)], both[len(owner):]
        lams, vecss = np.linalg.eigh(c_mats + rows(k_all, owner))
        for p, angle, lam_j, vecs_j in zip(owner, angles.tolist(), lams, vecss):
            solved[p][angle] = lam_j, vecs_j
            evals[p] += 1
        return zip(*map(eig_jet, lams, vecss, c_mats, c_primes, [index[p] for p in owner]))

    def polish(ps: list[int]) -> None:
        # an angle the ascent does not move keeps its level gamma, eigvalsh's value:
        # eigh's may be an ulp lower, and the level's pencil would chase that ulp
        polishing[:] = ps
        for p in ps:
            solved[p].clear()
        moved, value, _ = newton_max_lockstep([theta[p] for p in ps], jets, NEWTON_STEP_MAX)
        for p, t, v in zip(ps, moved, value):
            if t != theta[p]:
                theta[p], gamma[p] = t, v
            lam[p], vecs[p] = solved[p][t]

    theta, gamma = [], []
    for grid, vals in zip(grids, values(list(enumerate(grids)))):
        best = int(np.argmax(vals))
        theta.append(float(grid[best]))
        gamma.append(float(vals[best]))
    lam: list = [None] * b
    vecs: list = [None] * b
    polish(list(range(b)))
    eye = np.eye(r)
    pencils = [_pencil(n_mat, k_mat) for n_mat, k_mat in zip(n_list, k_list)]
    running = list(range(b))
    for _ in range(MAX_LEVELS):
        arcs = []  # (p, lo, hi, mids) of the problems whose level set has crossings
        for p in running:
            a_mat, b_mat = pencils[p]
            a_mat[r:, r:] = 2.0 * (gamma[p] * eye - k_list[p])
            z = pencil_eigvals(a_mat, b_mat)
            z = z[np.isfinite(z)]
            modulus = np.abs(z)
            z = z[np.abs(modulus - 1.0) <= UNIMODULAR_TOL * np.maximum(1.0, modulus)]
            if z.size:
                lo = np.sort(np.angle(z) % (2.0 * np.pi))
                hi = np.append(lo[1:], lo[0] + 2.0 * np.pi)
                arcs.append((p, lo, hi, 0.5 * (lo + hi)))
        if not arcs:
            break
        rising = []  # (p, lo, hi, cands, cand_vals) of the arcs that rise above gamma
        for (p, lo, hi, mids), vals in zip(arcs, values([(p, mids) for p, _, _, mids in arcs])):
            evals[p] += mids.size
            up = vals - gamma[p] > tiny * (1.0 + abs(gamma[p]))
            if up.any():
                rising.append((p, lo[up], hi[up], mids[up], vals[up]))
        if not rising:
            break
        ends = [(p, np.concatenate([lo, hi])) for p, lo, hi, _, _ in rising]
        angles, owner = gather(ends)
        end_lam, end_vecs = np.linalg.eigh(herm(angles, owner, shifted=True))
        meets, at = [], 0
        for (p, lo, hi, _, _), (_, p_ends) in zip(rising, ends):
            k = index[p]
            f_end, x = end_lam[at:at + p_ends.size, k], end_vecs[at:at + p_ends.size, :, k]
            at += p_ends.size
            evals[p] += p_ends.size
            slopes = (1j * np.exp(1j * p_ends) * form_values(n_list[p], x)).real
            f_lo, f_hi = np.split(f_end, 2)
            s_lo, s_hi = np.split(slopes, 2)
            fall = s_lo - s_hi
            meet = (f_hi - f_lo + s_lo * lo - s_hi * hi) / np.where(fall > 0.0, fall, 1.0)
            meets.append((p, meet[(fall > 0.0) & (meet > lo) & (meet < hi)]))
        meet_vals = iter(values([(p, meet) for p, meet in meets if meet.size]))
        for (p, _, _, cands, cand_vals), (_, meet) in zip(rising, meets):
            if meet.size:
                cands = np.concatenate([cands, meet])
                cand_vals = np.concatenate([cand_vals, next(meet_vals)])
                evals[p] += meet.size
            # a rising midpoint is among the candidates, so the best one clears the gate
            best = int(np.argmax(cand_vals))
            theta[p], gamma[p] = float(cands[best]), float(cand_vals[best])
        running = [p for p, *_ in rising]
        polish(running)
    for p, i in enumerate(live):
        # the units times s, then 2^e: exact, and finite wherever the result is
        s, e = scale[p]
        out[i] = (theta[p] % (2.0 * np.pi), float(np.ldexp(gamma[p] * s, e)), evals[p],
                  np.ldexp(lam[p] * s, e), vecs[p])
    return out


#: (order, dtype) -> the identity blocks of the kernel's pencil, copied for each problem
_PENCIL_BLANKS: dict = {}


def _pencil(n_mat: np.ndarray, k_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's pencil ``([[0, I], [-N*, 2 (gamma I - K)]], [[I, 0], [0, N]])``, its
    level corner left for each level to fill in place; real for real N, K (dggev).

    A copy of a cached blank: two np.block calls cost 20 us against 7 at r = 4 for
    filling zeros in place (Xeon vCPU), and the copy halves that again.
    """
    r = n_mat.shape[0]
    key = (r, np.result_type(n_mat, k_mat))
    if key not in _PENCIL_BLANKS:
        blank = _PENCIL_BLANKS[key] = np.zeros((2, 2 * r, 2 * r), dtype=key[1])
        diag = np.arange(r)
        blank[0, diag, r + diag] = 1.0
        blank[1, diag, diag] = 1.0
    a_mat, b_mat = _PENCIL_BLANKS[key].copy()
    a_mat[r:, :r] = -n_mat.conj().T
    b_mat[r:, r:] = n_mat
    return a_mat, b_mat


def form_values(n_mat: np.ndarray, c_rows: np.ndarray) -> np.ndarray:
    """Row-wise quadratic form values ``c* N c``."""
    return np.einsum("ki,ij,kj->k", c_rows.conj(), n_mat, c_rows)


def herm_parts(n_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian real/imaginary parts H, J with ``N = H + iJ``."""
    h = 0.5 * (n_mat + n_mat.conj().T)
    j = (n_mat - n_mat.conj().T) / 2j
    return h, j


def gram_herm(n_mat: np.ndarray) -> np.ndarray:
    """The gram ``N*N``, symmetrized against rounding."""
    gram = n_mat.conj().T @ n_mat
    return 0.5 * (gram + gram.conj().T)


def rotated_herm(n_mat: np.ndarray, thetas) -> np.ndarray:
    """``Re(e^{i theta} N)`` at one angle or at each of an array of angles, of one N or of
    a stack of them (one per angle); ``theta - pi/2`` gives ``Im(e^{i theta} N)``.

    Built as ``(M + M*) / 2`` with ``M = e^{i theta} N``: ``conj(e^{i theta}) N*`` is
    ``M*``, rounding included. In place, as a stack of 16 b matrices of order 24 is a
    megabyte.
    """
    m = np.exp(1j * np.asarray(thetas))[..., None, None] * n_mat
    m += m.conj().swapaxes(-1, -2)
    m *= 0.5
    return m
