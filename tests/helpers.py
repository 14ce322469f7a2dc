"""Shared test helpers: ambient brute-force oracles independent of the package.

The brute-force extrema sample A-unit vectors directly in the ambient space
and evaluate <Tx,x>_A and ||Tx||_A from the definition, never touching the
package's compression or ascent machinery. The scalar golden-section search
and its periodic-grid refinement are the reference maximizers of the angle
tests, and scipy's L-BFGS-B on the sphere is the reference of the sampling
oracle's Newton refinement. The scalar-shift references evaluate every member
of a lambda grid of the two scalar-shift bounds from explicitly shifted
matrices, on a compressed ``N``. :func:`hook_kernel` sees every call of the angle
kernel that :mod:`semidw.radii` makes, and :func:`opening_lines` names the two
problems a dw bracket opens with. :func:`refuse_multiple_eigenvalues` installs the
mutant of the eigenvalue jet that takes no Newton step at a multiple eigenvalue.
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


def lbfgs_sphere_refine(n_mat: np.ndarray, gram: np.ndarray | None, c0: np.ndarray,
                        minimize_it: bool):
    """Stock quasi-Newton (L-BFGS-B) refinement of a sphere objective from one start vector.

    The reference of the oracle's own refinement. Works on the homogeneous
    extension F(c) = R(c)/||c||^2 with R = |c*Nc| (or sqrt(|c*Nc|^2 + (c*Gc)^2)
    when ``gram`` G is given), so no explicit normalization is needed; analytic
    Wirtinger gradient. The minimizer sees F over its a-priori bound,
    ``||N||_2`` (``hypot(||N||_2, ||N||_2^2)`` with G; 1 for N = 0), so its steps
    and its fixed gradient tolerance keep the scale of the unit sphere whatever
    ``||N||``. Returns ``(value, c, evaluations)``.
    """
    from scipy.optimize import minimize  # slow to import; only this reference uses it
    r = c0.size
    sign = 1.0 if minimize_it else -1.0
    nh = n_mat.conj().T
    # unscaled, the quasi-Newton steps overflow ``u @ u`` from ||N|| near 1e30, and
    # below ||N|| = 1 the gradient tolerance stops them early
    norm = float(np.linalg.norm(n_mat, 2))
    unit = (norm if gram is None else float(np.hypot(norm, norm ** 2))) or 1.0

    def fg(u: np.ndarray):
        c = u[:r] + 1j * u[r:]
        n2 = float(u @ u)
        if n2 < 1e-24:
            return 0.0, np.zeros_like(u)
        nc = n_mat @ c
        z = np.vdot(c, nc)
        gbar = np.conj(z) * nc + z * (nh @ c)
        s_val = z.real * z.real + z.imag * z.imag
        if gram is not None:
            mc = gram @ c
            v = np.vdot(c, mc).real
            s_val += v * v
            gbar = gbar + 2.0 * v * mc
        big_r = np.sqrt(s_val)
        if big_r < 1e-300:
            return 0.0, np.zeros_like(u)
        g = gbar / (2.0 * big_r * n2) - (big_r / (n2 * n2)) * c
        g *= 2.0 * sign / unit
        return sign * big_r / (n2 * unit), np.concatenate([g.real, g.imag])

    res = minimize(
        fg,
        np.concatenate([c0.real, c0.imag]),
        method="L-BFGS-B",
        jac=True,
        options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-11},
    )
    c = res.x[:r] + 1j * res.x[r:]
    nrm = np.linalg.norm(c)
    c = c0 if nrm < 1e-12 else c / nrm
    return sign * float(res.fun) * unit, c, int(res.nfev)


def _herm_parts_and_gram(n_mat: np.ndarray):
    nh = n_mat.conj().T
    gram = nh @ n_mat
    return 0.5 * (n_mat + nh), (n_mat - nh) / 2j, 0.5 * (gram + gram.conj().T)


def _spectral_norm(mat: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(mat)
    return max(vals[..., -1], -vals[..., 0])


def lambda_real_stacked(n_mat: np.ndarray, theta_points: int, lambda_points: int,
                        tol: float = 1e-8):
    """Squared ``(minimum, lambda = 0 member)`` of the lambda-real members over its grid.

    The grid is 0 and ``lambda_points`` points on ``[-2||N||^2, 2||N||^2]``. Each
    member ``2|l| ||C + G - l I|| + (||C + G - 2l I||^2 + ||C - G||^2) / 2`` (``C =
    cos(th) H + sin(th) J``, ``G = N*N``) is eigen-solved at every (lambda, theta) on
    ``theta_points`` angles, then golden-refined around its three best local maxima
    to a bracket of ``tol``: near a smooth peak the member error is quadratic in the
    angle error.
    """
    h_mat, j_mat, gram = _herm_parts_and_gram(n_mat)
    eye = np.eye(n_mat.shape[0])
    span = 2.0 * np.linalg.norm(n_mat, 2) ** 2
    lambda_grid = np.concatenate([[0.0], np.linspace(-span, span, lambda_points)])
    thetas = np.linspace(0.0, 2.0 * np.pi, theta_points, endpoint=False)
    cth = np.cos(thetas)[:, None, None] * h_mat + np.sin(thetas)[:, None, None] * j_mat

    def rho(vals):
        return np.maximum(vals[..., -1], -vals[..., 0])

    rho_minus_sq = rho(np.linalg.eigvalsh(cth - gram)) ** 2
    lams = lambda_grid[:, None, None, None]
    e1 = np.linalg.eigvalsh(cth[None] + gram - lams * eye)
    e2 = np.linalg.eigvalsh(cth[None] + gram - 2.0 * lams * eye)
    grid = (2.0 * np.abs(lambda_grid)[:, None] * rho(e1) + 0.5 * rho(e2) ** 2
            + 0.5 * rho_minus_sq[None, :])

    def refined(i):
        lam = lambda_grid[i]

        def f(theta):
            c = np.cos(theta) * h_mat + np.sin(theta) * j_mat
            vals = np.linalg.eigvalsh(np.stack([c + gram - lam * eye,
                                                c + gram - 2.0 * lam * eye, c - gram]))
            r = rho(vals)
            return 2.0 * abs(lam) * r[0] + 0.5 * r[1] ** 2 + 0.5 * r[2] ** 2

        _, sup, _ = refine_periodic_max(thetas, grid[i], f, 2.0 * np.pi, top_k=3, tol=tol)
        return max(sup, grid[i].max())

    sups = [refined(i) for i in range(lambda_grid.size)]
    return min(sups), sups[0]


def lambda_complex_members(n_mat: np.ndarray, lambda_grid) -> np.ndarray:
    """The squared lambda-complex member at each ``l`` of ``lambda_grid``.

    A member is ``(2||R|| + ||G - 2R||)^2 + 2||R|| - |l|^2 + w(N - l I)^2`` with ``R =
    Re(l) H + Im(l) J`` and ``G = N*N``; ``w(N - l I) = max_theta lambda_max(Re(e^{i
    theta}N)) - Re(l e^{i theta})`` on 4096 angles, golden-refined around its three
    best local maxima.
    """
    h_mat, j_mat, gram = _herm_parts_and_gram(n_mat)
    nh = n_mat.conj().T
    thetas = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    ph = np.exp(1j * thetas)[:, None, None]
    base_top = np.linalg.eigvalsh(0.5 * (ph * n_mat + ph.conj() * nh))[:, -1]
    members = []
    for lam in np.asarray(lambda_grid, dtype=complex):
        curve = base_top - (lam * np.exp(1j * thetas)).real

        def f(theta, lam=lam):
            ph = np.exp(1j * theta)
            return (np.linalg.eigvalsh(0.5 * (ph * n_mat + np.conj(ph) * nh))[-1]
                    - (lam * ph).real)

        w_shift = max(refine_periodic_max(thetas, curve, f, 2.0 * np.pi, tol=1e-14)[1],
                      curve.max())
        re_shift = lam.real * h_mat + lam.imag * j_mat
        fixed = ((2.0 * _spectral_norm(re_shift) + _spectral_norm(gram - 2.0 * re_shift)) ** 2
                 + 2.0 * _spectral_norm(re_shift))
        members.append(fixed - abs(lam) ** 2 + w_shift ** 2)
    return np.asarray(members)


def hook_kernel(monkeypatch, record) -> None:
    """Call ``record(problems)`` with the problems of each kernel call of :mod:`semidw.radii`:
    the memo's stacked calls and the stacks of one of ``numrange_distance``. A problem is
    ``(N, index, shift)``, or ``(N, index, shift, start)`` with a start angle (the slices
    of a dw bracket)."""
    from semidw import radii

    def stacked(problems, _kernel=radii.rotated_eig_max_stack):
        record(list(problems))
        return _kernel(problems)

    monkeypatch.setattr(radii, "rotated_eig_max_stack", stacked)


def opening_lines(n_mat: np.ndarray) -> list:
    """The keys (``semidw.radii._problem_key``) of the two kernel problems a dw bracket of
    ``n_mat`` opens with: ``w`` at 0, ``(N, -1, None)``, and theta-sweep's pi/4 line,
    ``(N, -1, N*N)``."""
    from semidw import radii
    from semidw._optim import gram_herm

    return [radii._problem_key(n_mat, -1, None), radii._problem_key(n_mat, -1, gram_herm(n_mat))]


def cluster_size(lam: np.ndarray, k: int) -> int:
    """The members of the cluster of eigenvalue ``k`` of ``lam`` that
    :func:`semidw._optim.eig_jet` averages: those within ``4 r eps (1 + max |lambda|)``."""
    tol = 4.0 * lam.size * np.finfo(float).eps * (1.0 + np.abs(lam).max())
    return int(np.count_nonzero(np.abs(lam - lam[k]) <= tol))


def refuse_multiple_eigenvalues(monkeypatch) -> None:
    """Replace :func:`semidw._optim.eig_jet`, in the level-set kernel and in the lambda-real
    search, by a mutant whose curvature is nan wherever its cluster has more than one
    member, so that the Newton polish takes no step at a multiple eigenvalue."""
    from semidw import _optim, bounds

    def refusing(lam, vecs, c_mat, c_prime, k, _jet=_optim.eig_jet):
        value, slope, curv = _jet(lam, vecs, c_mat, c_prime, k)
        return value, slope, curv if cluster_size(lam, k) == 1 else np.nan

    for owner in (_optim, bounds):
        monkeypatch.setattr(owner, "eig_jet", refusing)
