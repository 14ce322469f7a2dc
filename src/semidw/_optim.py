"""Angle maximization helpers shared by the radius and bound evaluators.

The level-set kernel :func:`rotated_eig_max` maximizes one eigenvalue of
``Re(e^{i theta} N) + K``; :func:`newton_max_lockstep`, the one Newton ascent,
polishes its levels one angle at a time and the lambda-real peaks of
:mod:`semidw.bounds` in lockstep; :func:`pencil_eigvals` is the kernel's QZ
solve.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np


def _load_flapack():
    """scipy's f2py LAPACK extension ``scipy.linalg._flapack``, without the ``scipy.linalg`` package.

    ``find_spec("scipy")`` locates scipy without running its ``__init__``; the
    extension is then loaded from ``scipy/linalg`` and registered under its
    own name, so a later ``import scipy.linalg`` binds this same module (and
    one loaded by scipy first is taken as it is).
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    linalg_dir = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                              "linalg")
    finder = importlib.machinery.FileFinder(
        linalg_dir, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_FLAPACK = _load_flapack()

#: (complex?, order) -> the workspace size of a ``zggev`` / ``dggev`` of that
#: order, which depends on nothing else
_GGEV_LWORK: dict[tuple[bool, int], int] = {}


def pencil_eigvals(a_mat: np.ndarray, b_mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of the pencil ``(A, B)``, bit for bit those of ``scipy.linalg.eigvals(A, B)``.

    One LAPACK ``ggev`` call without eigenvectors: ``zggev`` of scipy's own f2py
    extension ``_flapack`` (the wrapper ``scipy.linalg.lapack`` hands out,
    loaded without the ``scipy.linalg`` package), ``dggev`` for real pencils.
    Its workspace is sized by one ``lwork = -1`` query per order, as scipy
    does on every call: the size sets the blocking, so a smaller one could
    change the result. ``alpha / beta`` is inf where ``beta = 0`` (nan for
    ``0 / 0``, complex nan unless every ``alpha`` is real). Raises
    ``LinAlgError`` when QZ fails.
    """
    key = (np.iscomplexobj(a_mat) or np.iscomplexobj(b_mat), a_mat.shape[0])
    ggev = _FLAPACK.zggev if key[0] else _FLAPACK.dggev
    if key not in _GGEV_LWORK:
        _GGEV_LWORK[key] = int(ggev(a_mat, b_mat, lwork=-1)[-2][0].real)
    *alpha, beta, _, _, _, info = ggev(a_mat, b_mat, compute_vl=0, compute_vr=0,
                                       lwork=_GGEV_LWORK[key])
    if info != 0:
        raise np.linalg.LinAlgError(f"generalized eig algorithm (ggev) failed (LAPACK info={info})")
    alpha = alpha[0] if len(alpha) == 1 else alpha[0] + 1j * alpha[1]
    finite = beta != 0
    z = np.divide(alpha, beta, out=np.full_like(alpha, np.inf), where=finite)
    if not finite.all():
        z[(alpha == 0) & ~finite] = complex(np.nan, np.nan) if alpha.imag.any() else np.nan
    return z


#: equispaced angles whose best value is the first level of :func:`rotated_eig_max`
START_ANGLES = 16
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


def rotated_eig_max(n_mat: np.ndarray, index: int, shift=None):
    """Maximize eigenvalue ``index`` (0 or -1) of ``f(theta) = Re(e^{i theta} N) + K`` over theta.

    Criss-cross level-set method (Mengi-Overton, IMA J. Numer. Anal. 25 (2005);
    Boyd-Balakrishnan, Systems Control Lett. 15 (1990)) on ``N, K`` scaled by
    ``max(||N||_F, ||K||_F)``, ``K = shift`` (Hermitian) or 0, with local
    Newton ascent between the level sets (Mitchell, SIAM J. Sci. Comput. 45
    (2023)). The best of ``START_ANGLES`` equispaced angles, polished by
    :func:`newton_max_lockstep`, is the first level gamma. The polish steps on
    eigenvalue ``index`` with derivatives from one ``eigh`` per angle, and never
    at a multiple eigenvalue (gaps within ``4 eps (1 + |lambda|)``), where the
    second derivative does not exist. Some eigenvalue of
    ``f(theta)`` equals gamma iff ``z = e^{i theta}`` solves
    ``det(z^2 N + 2z (K - gamma I) + N*) = 0``: the unimodular eigenvalues of a
    2r x 2r pencil (infinite ones, from singular N, are dropped). Between
    consecutive crossings the midpoint is evaluated; on the arcs where it beats
    gamma, so is the meeting point of the tangents at the two ends (slopes
    ``Re(i e^{i theta} x* N x)`` from the end eigenvectors x), which resolves a
    kink in few steps (where Newton is refused). The best candidate, polished,
    is the next gamma, until none beats it by more than ``4 eps (1 + |gamma|)``.
    Once the polish reaches the global maximum, the pencil at that level is the
    only one solved: it certifies that no arc lies above it.

    Returns ``(theta, value, evals, lam, vecs)``: ``value`` is eigenvalue ``index`` at
    ``theta`` (attained, never extrapolated), ``evals`` the number of angles
    evaluated, Newton steps included, and ``lam, vecs`` the eigenpairs of
    ``f(theta)`` in the caller's units (the polish's, or one ``eigh`` when the last
    candidate was not polished), ``lam[index] = value`` up to rounding.
    """
    r = n_mat.shape[0]
    k_mat = np.zeros((r, r)) if shift is None else shift
    scale = max(float(np.linalg.norm(n_mat)), float(np.linalg.norm(k_mat)))
    if scale == 0.0:
        return 0.0, 0.0, 0, np.zeros(r), np.eye(r)
    n_mat, k_mat = n_mat / scale, k_mat / scale
    k = index % r
    tiny = 4.0 * np.finfo(float).eps

    def values(thetas: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(rotated_herm_batch(n_mat, thetas) + k_mat)[:, index]

    solved = {}

    def jets(angles: np.ndarray, _):
        # eigenvalue k of one eigh, with f' = x* C' x and f'' = -x* C x
        # + 2 sum_j |x_j* C' x|^2 / (lambda_k - lambda_j), C' = Re(i e^{i theta} N);
        # f'' is nan where the eigenvalue is not simple, so no step is taken there
        theta = float(angles[0])
        c_mat = rotated_herm(n_mat, theta)
        lam, vecs = solved[theta] = np.linalg.eigh(c_mat + k_mat)
        x = vecs[:, k]
        m = vecs.conj().T @ (rotated_herm(n_mat, theta + 0.5 * np.pi) @ x)
        gaps = lam[k] - lam
        gaps[k] = np.inf
        curv = (2.0 * float(np.sum(np.abs(m) ** 2 / gaps)) - np.vdot(x, c_mat @ x).real
                if np.abs(gaps).min() > tiny * (1.0 + abs(lam[k])) else np.nan)
        return [lam[k]], [m[k].real], [curv]

    def polish(theta: float, gamma: float):
        # an angle the ascent does not move keeps its level gamma, eigvalsh's value:
        # eigh's may be an ulp lower, and the level's pencil would chase that ulp
        solved.clear()
        (moved,), (value,), steps = newton_max_lockstep([theta], jets, NEWTON_STEP_MAX)
        return moved, value if moved != theta else gamma, steps, *solved[moved]

    thetas = np.linspace(0.0, 2.0 * np.pi, START_ANGLES, endpoint=False)
    vals = values(thetas)
    best = int(np.argmax(vals))
    theta, gamma, evals, lam, vecs = polish(float(thetas[best]), float(vals[best]))
    evals += START_ANGLES
    # the pencil ([[0, I], [-N*, 2 (gamma I - K)]], [[I, 0], [0, N]]), real for real N, K
    # (dggev), filled in place: two np.block calls cost 20 us against 7 at r = 4 (Xeon vCPU)
    eye, diag = np.eye(r), np.arange(r)
    a_mat, b_mat = np.zeros((2, 2 * r, 2 * r), dtype=np.result_type(n_mat, k_mat))
    a_mat[diag, r + diag] = 1.0
    a_mat[r:, :r] = -n_mat.conj().T
    b_mat[diag, diag] = 1.0
    b_mat[r:, r:] = n_mat
    for _ in range(MAX_LEVELS):
        a_mat[r:, r:] = 2.0 * (gamma * eye - k_mat)
        z = pencil_eigvals(a_mat, b_mat)
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
        end_lam, end_vecs = np.linalg.eigh(rotated_herm_batch(n_mat, ends) + k_mat)
        evals += ends.size
        x = end_vecs[:, :, index]
        slopes = (1j * np.exp(1j * ends) * np.einsum("ki,ij,kj->k", x.conj(), n_mat, x)).real
        f_lo, f_hi = np.split(end_lam[:, index], 2)
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
            theta, gamma, lam = float(cands[best]), float(cand_vals[best]), None
        if gain <= tiny * (1.0 + abs(gamma)):
            break
        theta, gamma, steps, lam, vecs = polish(theta, gamma)
        evals += steps
    if lam is None:
        lam, vecs = np.linalg.eigh(rotated_herm(n_mat, theta) + k_mat)
    return theta % (2.0 * np.pi), gamma * scale, evals, lam * scale, vecs


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
