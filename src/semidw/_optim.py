"""Small 1-D maximization helpers shared by the radius and bound evaluators."""

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

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_max_lockstep(lo: np.ndarray, hi: np.ndarray, f, tol: float) -> np.ndarray:
    """Golden-section maxima on the brackets ``[lo[k], hi[k]]``, run in lockstep.

    ``f(x, k)`` gives the values of searches ``k`` (an index array) at points
    ``x``. It is called once for the two first points of every search, then
    once per step (at most 200) for every search still wider than ``tol``,
    so a caller can solve all the points of a step in one stack. Each search
    follows the arithmetic of a scalar golden-section search; returns the
    best value of each (local unimodality assumed).
    """
    a, b = lo.astype(float), hi.astype(float)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    every = np.arange(a.size)
    fc, fd = np.split(f(np.concatenate([c, d]), np.concatenate([every, every])), 2)
    run = np.flatnonzero(b - a > tol)
    for _ in range(200):
        if not run.size:
            break
        left = fc[run] >= fd[run]
        # left: [a, d] with c the kept point as the new d; right: [c, b], d kept as c
        kept, f_kept = np.where(left, c[run], d[run]), np.where(left, fc[run], fd[run])
        a[run] = np.where(left, a[run], c[run])
        b[run] = np.where(left, d[run], b[run])
        width = b[run] - a[run]
        new = np.where(left, b[run] - _INVPHI * width, a[run] + _INVPHI * width)
        f_new = f(new, run)
        c[run], d[run] = np.where(left, new, kept), np.where(left, kept, new)
        fc[run], fd[run] = np.where(left, f_new, f_kept), np.where(left, f_kept, f_new)
        run = run[b[run] - a[run] > tol]
    return np.where(fc >= fd, fc, fd)


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
#: the polish stops once its predicted rise is at most ``NEWTON_STOP_ULPS eps (1 + |gamma|)``
NEWTON_STOP_ULPS = 1


def _newton_polish(n_mat: np.ndarray, k_mat: np.ndarray, index: int, theta: float,
                   gamma: float):
    """Safeguarded Newton ascent of ``f(theta) = lambda_index(C(theta) + K)`` from theta.

    ``C(theta) = Re(e^{i theta} N)`` and ``gamma`` is the value at ``theta``.
    One ``eigh`` at theta gives, for the eigenvector x of eigenvalue
    ``index``, ``f' = x* C' x`` with ``C' = Re(i e^{i theta} N)`` and
    ``f'' = -x* C x + 2 sum_{j != k} |x_j* C' x_k|^2 / (lambda_k - lambda_j)``
    (``C'' = -C``). A step ``-f'/f''`` is tried only at a simple eigenvalue
    with ``f'' < 0``, clamped to ``NEWTON_STEP_MAX``, and kept only if the
    eigenvalue at the new angle strictly beats gamma, so gamma stays
    attained; a kink, where two branches cross, is left to the level sets'
    tangent meets. The polish stops at a
    refused step, after ``NEWTON_STEPS`` steps, or once the predicted rise
    ``f'^2 / (2 |f''|)`` is at most ``NEWTON_STOP_ULPS eps (1 + |gamma|)``: a
    quarter of the level-set stop rule, so that the pencil at the polished
    level rarely finds a candidate above that rule (stopping at the rule
    itself left some levels a few ulps short, and those calls solved a second
    pencil). An eigenvalue counts as simple when its gaps exceed
    ``4 eps (1 + |lambda|)``. Returns ``(theta, gamma, evals, lam, vecs)``,
    ``evals`` the ``eigh`` count and ``lam, vecs`` the eigenpairs at theta.
    """
    eps = np.finfo(float).eps
    k = index % n_mat.shape[0]
    c_mat = rotated_herm(n_mat, theta)
    lam, vecs = np.linalg.eigh(c_mat + k_mat)
    evals = 1
    for _ in range(NEWTON_STEPS):
        x = vecs[:, k]
        gaps = lam[k] - np.delete(lam, k)
        if gaps.size and np.abs(gaps).min() <= 4.0 * eps * (1.0 + abs(lam[k])):
            break
        m = vecs.conj().T @ (rotated_herm(n_mat, theta + 0.5 * np.pi) @ x)
        slope = m[k].real
        curv = 2.0 * float(np.sum(np.abs(np.delete(m, k)) ** 2 / gaps)) - np.vdot(x, c_mat @ x).real
        if not curv < 0.0:
            break
        step = -slope / curv
        if 0.5 * slope * step <= NEWTON_STOP_ULPS * eps * (1.0 + abs(gamma)):
            break
        step = min(max(step, -NEWTON_STEP_MAX), NEWTON_STEP_MAX)
        c_new = rotated_herm(n_mat, theta + step)
        lam_new, vecs_new = np.linalg.eigh(c_new + k_mat)
        evals += 1
        if not lam_new[k] > gamma:
            break
        theta, gamma, c_mat, lam, vecs = theta + step, float(lam_new[k]), c_new, lam_new, vecs_new
    return theta, gamma, evals, lam, vecs


def rotated_eig_max(n_mat: np.ndarray, index: int, shift=None):
    """Maximize eigenvalue ``index`` (0 or -1) of ``f(theta) = Re(e^{i theta} N) + K`` over theta.

    Criss-cross level-set method (Mengi-Overton, IMA J. Numer. Anal. 25 (2005);
    Boyd-Balakrishnan, Systems Control Lett. 15 (1990)) on ``N, K`` scaled by
    ``max(||N||_F, ||K||_F)``, ``K = shift`` (Hermitian) or 0, with local
    Newton ascent between the level sets (Mitchell, SIAM J. Sci. Comput. 45
    (2023)). The best of ``START_ANGLES`` equispaced angles, polished by
    :func:`_newton_polish`, is the first level gamma. Some eigenvalue of
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
    ``f(theta)`` in the caller's units, ``lam[index] = value`` up to rounding.
    """
    r = n_mat.shape[0]
    k_mat = np.zeros((r, r)) if shift is None else shift
    scale = max(float(np.linalg.norm(n_mat)), float(np.linalg.norm(k_mat)))
    if scale == 0.0:
        return 0.0, 0.0, 0, np.zeros(r), np.eye(r)
    n_mat, k_mat = n_mat / scale, k_mat / scale

    def values(thetas: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(rotated_herm_batch(n_mat, thetas) + k_mat)[:, index]

    thetas = np.linspace(0.0, 2.0 * np.pi, START_ANGLES, endpoint=False)
    vals = values(thetas)
    best = int(np.argmax(vals))
    theta, gamma, evals, lam, vecs = _newton_polish(n_mat, k_mat, index, float(thetas[best]),
                                                    float(vals[best]))
    evals += START_ANGLES
    eye, zero = np.eye(r), np.zeros((r, r))
    b_mat = np.block([[eye, zero], [zero, n_mat]])
    a_mat = np.block([[zero, eye], [-n_mat.conj().T, 2.0 * (gamma * eye - k_mat)]])
    corner = a_mat[r:, r:]
    for level in range(MAX_LEVELS):
        if level:
            corner[...] = 2.0 * (gamma * eye - k_mat)
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
        if gain <= 4.0 * np.finfo(float).eps * (1.0 + abs(gamma)):
            break
        theta, gamma, steps, lam, vecs = _newton_polish(n_mat, k_mat, index, theta, gamma)
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
