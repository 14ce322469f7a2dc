"""Scalar functionals of semi-Hilbertian operators.

Five quantities of an A-bounded operator ``T``, all computed on the
compressed matrix ``N`` from :func:`semidw.metric.compress`:

* ``op_seminorm``      -- ``||T||_A``, the largest singular value of N;
* ``min_modulus``      -- ``m_A(T)``, the smallest singular value of N;
* ``numerical_radius`` -- ``w_A(T) = max_theta lambda_max(Re(e^{i theta} N))``;
* ``crawford``         -- ``c_A(T) = min |c* N c| = dist(0, W(N))`` over unit c;
* ``dw_radius``        -- ``dw_A(T) = max sqrt(|c* N c|^2 + ||N c||^4)``.

Each functional has one private core that maps ``N`` to ``(value, c,
iterations, residual)``; the bound evaluators apply the same cores to
products of compressed matrices. Each public function is :func:`_estimate`
around its core and returns a :class:`RadiusEstimate` carrying the optimal
value, the unit coordinate vector attaining it, and convergence metadata.
Ambient witnesses are reported with zero null-space component
(``x = (A^{1/2})^+ B c``); adding any null-space vector changes no
A-quantity, so the witness is canonical only up to that coset.

:func:`oracle_extremum` is the ground-truth estimator used by the tests:
quasi-uniform sampling of the compressed unit sphere followed by stock
quasi-Newton refinement of the best candidates, independent of the angle
sweeps and of the dw ascent above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtri
from scipy.stats import qmc

from ._optim import gram_herm, herm_parts, rotated_eig_max, rotated_herm
from .errors import NormOutOfRange, RankTooLarge
from .metric import Metric, compress, to_ambient

DEFAULT_SEED = 20220
DW_STARTS = 32
GRAD_TOL = 1e-10
#: largest ||N||_2 at which dw_A and every bound record stay finite: their largest
#: terms are about 25 ||N||_2^4, so this leaves a factor 4 of headroom
NORM_MAX = (np.finfo(float).max / 100.0) ** 0.25

_ORACLE_OBJECTIVES = ("dw", "crawford", "numrad")


@dataclass
class RadiusEstimate:
    """A computed radius value with its witness and convergence metadata."""

    value: float
    maximizer: np.ndarray
    method: str
    iterations: int
    residual: float
    witness: np.ndarray | None = None
    warning: str | None = None

    def to_dict(self) -> dict:
        """JSON-ready representation (value, method, iterations, residual, maximizer)."""
        out = {
            "value": self.value,
            "method": self.method,
            "iterations": self.iterations,
            "residual": self.residual,
            "maximizer": {
                "re": np.real(self.maximizer).tolist(),
                "im": np.imag(self.maximizer).tolist(),
            },
        }
        if self.warning:
            out["warning"] = self.warning
        return out


def _fix_phase(c: np.ndarray) -> np.ndarray:
    """Gauge fix: first nonzero coordinate made real nonnegative, unit norm."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(c)
    if nrm > 0.0:
        c = c / nrm
    idx = np.flatnonzero(np.abs(c) > 1e-12)
    if idx.size:
        c = c * np.exp(-1j * np.angle(c[idx[0]]))
    return c


def _estimate(m: Metric, t, method: str, core, *args) -> RadiusEstimate:
    """Compress ``t`` and run ``core(N, *args) -> (value, c, iterations, residual)``.

    A rank-zero metric admits no A-unit vectors: the estimate is 0 with a
    warning. Otherwise ``c`` is phase-fixed and lifted to the ambient witness.
    """
    n_mat = compress(m, t)
    if m.rank == 0:
        return RadiusEstimate(0.0, np.zeros(0, dtype=complex), method, 0, 0.0, None,
                              "metric has rank zero; no A-unit vectors exist")
    value, c, iterations, residual = core(n_mat, *args)
    c = _fix_phase(c)
    return RadiusEstimate(float(value), c, method, int(iterations), float(residual),
                          to_ambient(m, c))


def form_values(n_mat: np.ndarray, c_rows: np.ndarray) -> np.ndarray:
    """Row-wise quadratic form values ``c* N c``."""
    return np.einsum("ki,ij,kj->k", c_rows.conj(), n_mat, c_rows)


def dw_objective(n_mat: np.ndarray, gram: np.ndarray, c_rows: np.ndarray) -> np.ndarray:
    """Row-wise ``sqrt(|c* N c|^2 + (c* G c)^2)`` with ``gram`` = G = N*N."""
    z = form_values(n_mat, c_rows)
    v = form_values(gram, c_rows).real
    return np.sqrt(np.abs(z) ** 2 + v ** 2)


# ---------------------------------------------------------------------------
# exact SVD functionals


def _seminorm_core(n_mat: np.ndarray):
    _, s, vh = np.linalg.svd(n_mat)
    return s[0], vh[0].conj(), 1, 0.0


def _min_modulus_core(n_mat: np.ndarray):
    _, s, vh = np.linalg.svd(n_mat)
    return s[-1], vh[-1].conj(), 1, 0.0


def op_seminorm(m: Metric, t) -> RadiusEstimate:
    """A-operator seminorm ``||T||_A``: top singular value of N."""
    return _estimate(m, t, "exact_svd", _seminorm_core)


def min_modulus(m: Metric, t) -> RadiusEstimate:
    """A-minimum modulus ``m_A(T)``: smallest singular value of N."""
    return _estimate(m, t, "exact_svd", _min_modulus_core)


# ---------------------------------------------------------------------------
# numerical radius: level-set angle kernel


def _w_core(n_mat: np.ndarray):
    """Maximize ``lambda_max(Re(e^{i theta} N))`` over [0, 2pi); c is the top eigenvector.

    ``iterations`` is the number of angles the level-set kernel evaluated.
    """
    theta, value, evals = rotated_eig_max(n_mat, -1)
    c = np.linalg.eigh(rotated_herm(n_mat, theta))[1][:, -1]
    return value, c, evals, abs(abs(form_values(n_mat, c[None, :])[0]) - value)


def numerical_radius(m: Metric, t) -> RadiusEstimate:
    """A-numerical radius ``w_A(T)`` by the level-set angle kernel.

    :func:`semidw._optim.rotated_eig_max` maximizes the support function
    ``lambda_max(Re(e^{i theta} N))`` of W(N); the value is attained at the
    returned angle and the witness is the top eigenvector there.
    """
    return _estimate(m, t, "theta_sweep", _w_core)


def _support_sweep(n_mat: np.ndarray):
    """Maximize ``lambda_min(Re(e^{i phi} N))`` over phi with the level-set angle kernel.

    Returns ``(max(0, maximum), phi, evals, lam, vecs)`` with the eigenpairs
    ``lam, vecs`` of ``Re(e^{i phi} N)``.
    """
    phi, value, evals = rotated_eig_max(n_mat, 0)
    lam, vecs = np.linalg.eigh(rotated_herm(n_mat, phi))
    return max(0.0, float(value)), float(phi), evals, lam, vecs


def numrange_distance(n_mat: np.ndarray):
    """Distance from 0 to the numerical range of ``N`` (exact by convexity).

    Returns ``(distance, phi, c)`` where ``c`` is the bottom eigenvector of
    ``Re(e^{i phi} N)`` at the optimal support angle. The numerical range is
    convex, so ``dist = max(0, max_phi lambda_min(Re(e^{i phi} N)))``; this
    is the certified value of the Crawford functional.
    """
    if n_mat.shape[0] == 0:
        return 0.0, 0.0, np.zeros(0, dtype=complex)
    value, phi, _, _, vecs = _support_sweep(n_mat)
    return value, phi, vecs[:, 0]


# ---------------------------------------------------------------------------
# Crawford number: convexity sweep with a constructive witness

#: bottom eigenvalues of Re(e^{i phi} N) this close (relative) span one face
FACE_RTOL = 1e-8
#: eigensolve budget of the support-angle bisection through 0
ZERO_SEARCH_EVALS = 64


def _form(n_mat: np.ndarray, c: np.ndarray) -> complex:
    return complex(np.vdot(c, n_mat @ c))


def _nearest(n_mat: np.ndarray, *cands: np.ndarray) -> np.ndarray:
    """The candidate unit vector of smallest ``|c* N c|``."""
    return min(cands, key=lambda c: abs(_form(n_mat, c)))


def _hit(n_mat: np.ndarray, x: np.ndarray, y: np.ndarray, target: complex) -> np.ndarray:
    """Unit ``c`` in span{x, y} with ``c* N c = target`` on the segment [x*Nx, y*Ny].

    Toeplitz-Hausdorff in two dimensions: rotate ``N - target`` so that the
    forms of x and y are real with opposite signs; on ``c = x + r e^{i psi} y``
    the phase psi makes the cross term real, and ``r >= 0`` is the root of a
    real quadratic. A target off the segment gives the nearer end.
    """
    basis = np.stack([x, y], axis=1)
    g = basis.conj().T @ (n_mat @ basis) - target * (basis.conj().T @ basis)
    span = g[1, 1] - g[0, 0]
    if span == 0.0:
        return x
    g = (np.conj(span) / abs(span)) * g
    a, b = g[0, 0].real, g[1, 1].real
    if a >= 0.0:
        return x
    if b <= 0.0:
        return y
    ph = np.exp(-1j * np.angle(g[0, 1] - np.conj(g[1, 0])))
    kappa = (ph * g[0, 1] + np.conj(ph) * g[1, 0]).real
    root = np.sqrt(kappa ** 2 - 4.0 * a * b)
    r = (root - kappa) / (2.0 * b) if kappa <= 0.0 else -2.0 * a / (kappa + root)
    c = x + r * ph * y
    return c / np.linalg.norm(c)


def _face_point(n_mat: np.ndarray, phi: float, lam: np.ndarray, vecs: np.ndarray,
                target: complex) -> np.ndarray:
    """Unit vector whose form is the point ``target`` of the support face at phi.

    A simple bottom eigenvalue of ``Re(e^{i phi} N)`` gives a one-point face.
    A multiple one gives a segment of W(N), between the forms of the extreme
    eigenvectors of ``Im(e^{i phi} N)`` on the bottom eigenspace.
    """
    face = vecs[:, lam <= lam[0] + FACE_RTOL * (1.0 + float(np.linalg.norm(n_mat)))]
    if face.shape[1] < 2:
        return vecs[:, 0]
    _, u = np.linalg.eigh(face.conj().T @ rotated_herm(n_mat, phi - 0.5 * np.pi) @ face)
    return _nearest(n_mat, vecs[:, 0], _hit(n_mat, face @ u[:, 0], face @ u[:, -1], target))


def _through_zero(n_mat: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Unit ``c`` with ``c* N c = 0`` when 0 is in W(N): constructive Toeplitz-Hausdorff.

    In the frame ``R = e^{-i arg(-z1)} N`` the support point ``z1 = x1* N x1``
    lies on the negative real axis. The top eigenvectors of ``Re(e^{i theta} R)``
    for theta from -pi/2 to pi/2 give support points of falling imaginary
    part; bisecting theta finds two whose chord crosses the real axis at
    ``q >= 0``. One 2x2 solve attains q, a second 0 on [z1, q]. Falls back
    to x1 after ``ZERO_SEARCH_EVALS`` eigensolves.
    """
    z1 = _form(n_mat, x1)
    if z1 == 0.0:
        return x1
    r_mat = (-np.conj(z1) / abs(z1)) * n_mat

    def support(theta: float):
        x = np.linalg.eigh(rotated_herm(r_mat, theta))[1][:, -1]
        return theta, x, _form(r_mat, x)

    hi, lo = support(-0.5 * np.pi), support(0.5 * np.pi)
    for _ in range(ZERO_SEARCH_EVALS - 2):
        rise = hi[2].imag - lo[2].imag
        cross = (lo[2].real * hi[2].imag - lo[2].imag * hi[2].real) / rise if rise else hi[2].real
        if cross >= 0.0:
            return _hit(r_mat, x1, _hit(r_mat, lo[1], hi[1], cross), 0.0)
        mid = support(0.5 * (hi[0] + lo[0]))
        hi, lo = (mid, lo) if mid[2].imag >= 0.0 else (hi, mid)
    return x1


def _crawford_core(n_mat: np.ndarray):
    value, phi, evals, lam, vecs = _support_sweep(n_mat)
    c = _face_point(n_mat, phi, lam, vecs, value * np.exp(-1j * phi))
    if value == 0.0:
        c = _nearest(n_mat, c, _through_zero(n_mat, c))
    return value, c, evals, abs(abs(_form(n_mat, c)) - value)


def crawford(m: Metric, t) -> RadiusEstimate:
    """A-Crawford number ``c_A(T) = dist(0, W(N))`` by the convexity sweep.

    The value d is :func:`numrange_distance`'s. The witness attains the
    point ``d e^{-i phi}`` of W(N) nearest 0, phi the sweep angle: on the
    support face at phi when ``d > 0``, through :func:`_through_zero` when
    ``d = 0``. ``iterations`` is the number of angles the level-set kernel
    evaluated.
    """
    return _estimate(m, t, "convexity_sweep", _crawford_core)


# ---------------------------------------------------------------------------
# Davis-Wielandt radius: multistart monotone ascent


def _dw_residual(n_mat: np.ndarray, gram: np.ndarray, c: np.ndarray, unit: float) -> float:
    """Projected-gradient residual of the dw objective at a unit vector (as in ``_ascend_dw``)."""
    h_mat, j_mat = herm_parts(n_mat)
    z = form_values(n_mat, c[None, :])[0]
    v = form_values(gram, c[None, :])[0].real
    val = np.sqrt(abs(z) ** 2 + v ** 2)
    s_mat = z.real * h_mat + z.imag * j_mat + v * gram
    s_c = s_mat @ c
    mu = np.vdot(c, s_c).real
    return float(np.linalg.norm((s_c - mu * c) / unit) / (1.0 + val))


def _ascend_dw(n_mat: np.ndarray, gram: np.ndarray, c_rows: np.ndarray, unit: float,
               tol: float = GRAD_TOL, max_iter: int = 300, stall_limit: int = 10):
    """Maximize ``|c* N c|^2 + (c* M c)^2`` on the unit sphere, batched.

    Fixed-point ascent: each row is replaced by the top eigenvector of
    ``Re(conj(z) N) + v M`` at its current form values ``(z, v)``. The
    objective is nondecreasing along the iteration. Rows freeze when the
    residual drops below tolerance or decays sublinearly (a crawl near a
    degeneracy-flattened maximum); the caller polishes the best row when
    its residual is still above tolerance. The residual is
    ``||S c - mu c|| / unit / (1 + dw)`` with ``unit = max(||N||_2, 1)^2``:
    ``S`` grows like ``||N||^4`` and dw like ``||N||^2``, so it is scale-free
    above ``||N||_2 = 1`` and its norm cannot overflow.
    """
    h_mat, j_mat = herm_parts(n_mat)
    c_rows = c_rows.copy()
    k = c_rows.shape[0]
    best_val = -1.0
    best_c = c_rows[0]
    best_res = np.inf
    active = np.arange(k)
    last_res = np.full(k, np.inf)
    stall = np.zeros(k, dtype=int)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        sub = c_rows[active]
        z = form_values(n_mat, sub)
        v = form_values(gram, sub).real
        vals = np.sqrt(np.abs(z) ** 2 + v ** 2)
        s_batch = (
            z.real[:, None, None] * h_mat
            + z.imag[:, None, None] * j_mat
            + v[:, None, None] * gram
        )
        s_c = np.einsum("kij,kj->ki", s_batch, sub)
        mu = np.sum(np.conj(sub) * s_c, axis=1).real
        resid = np.linalg.norm((s_c - mu[:, None] * sub) / unit, axis=1) / (1.0 + vals)
        top = int(np.argmax(vals))
        if vals[top] > best_val or (vals[top] == best_val and resid[top] < best_res):
            best_val, best_c, best_res = float(vals[top]), sub[top], float(resid[top])
        slow = resid > last_res[active] / 1.02
        last_res[active] = resid
        stall[active] = np.where(slow, stall[active] + 1, 0)
        keep = (resid > tol) & (stall[active] < stall_limit)
        if not keep.any():
            break
        _, vecs = np.linalg.eigh(s_batch[keep])
        c_rows[active[keep]] = vecs[..., -1]
        active = active[keep]
    return best_val, best_c, best_res, iterations


def _sphere_refine(n_mat: np.ndarray, gram: np.ndarray | None, c0: np.ndarray,
                   minimize_it: bool):
    """Quasi-Newton refinement of a sphere objective from one start vector.

    Works on the homogeneous extension F(c) = R(c)/||c||^2 with
    R = |c*Nc| (or sqrt(|c*Nc|^2 + (c*Mc)^2) when ``gram`` is given), so no
    explicit normalization is needed; analytic Wirtinger gradient. The
    minimizer sees F over ``max(||N||_2, 1)`` (squared for dw), so its steps
    keep the scale of the unit sphere whatever ``||N||``.
    """
    r = c0.size
    sign = 1.0 if minimize_it else -1.0
    nh = n_mat.conj().T
    # unscaled, the quasi-Newton steps overflow ``u @ u`` from ||N|| near 1e30
    unit = max(float(np.linalg.norm(n_mat, 2)), 1.0) ** (1 if gram is None else 2)

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


def _dw_core(n_mat: np.ndarray, seed: int, starts: int = DW_STARTS, w_start=None):
    """Multistart ascent on ``N``; the starts are those of :func:`dw_radius`.

    ``w_start`` is the numerical-radius witness of ``N`` (``_w_core(N)[1]``)
    when the caller already has it; otherwise it is computed here.
    """
    r = n_mat.shape[0]
    norm, c_norm = _seminorm_core(n_mat)[:2]
    if not norm <= NORM_MAX:
        raise NormOutOfRange(f"||T||_A = {norm:.3g} is above {NORM_MAX:.3g}, where dw_A "
                             "and its bounds leave the floating-point range")
    gram = gram_herm(n_mat)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD0]))
    rand = rng.standard_normal((starts, r)) + 1j * rng.standard_normal((starts, r))
    if w_start is None:
        w_start = _w_core(n_mat)[1]
    c0 = np.vstack([c_norm[None, :], w_start[None, :], rand])
    c0 = c0 / np.linalg.norm(c0, axis=1, keepdims=True)
    unit = max(norm, 1.0) ** 2
    value, c_best, resid, iterations = _ascend_dw(n_mat, gram, c0, unit)
    if resid > GRAD_TOL:
        # degeneracy-flattened maximum: quasi-Newton polish of the leader
        val2, c2, nfev = _sphere_refine(n_mat, gram, c_best, minimize_it=False)
        iterations += nfev
        if val2 >= value:
            value, c_best = val2, c2
            resid = _dw_residual(n_mat, gram, c_best, unit)
    return value, c_best, iterations, resid


def dw_radius(m: Metric, t, starts: int = DW_STARTS, seed: int = DEFAULT_SEED) -> RadiusEstimate:
    """A-Davis-Wielandt radius ``dw_A(T)`` by multistart monotone ascent.

    Starts: the top right singular vector of N, the numerical-radius witness,
    and ``starts`` seeded random unit vectors; deterministic reduction by
    start order. Raises :class:`NormOutOfRange` when ``||T||_A > NORM_MAX``.
    """
    return _estimate(m, t, "multistart", _dw_core, seed, starts)


# ---------------------------------------------------------------------------
# sampling oracle


def _sobol_sphere(r: int, samples: int, seed: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors on the complex r-sphere."""
    dim = 2 * r
    sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
    m_pow = max(int(np.ceil(np.log2(max(samples, 2)))), 1)
    pts = sampler.random_base2(m_pow)[:samples]
    gauss = ndtri(np.clip(pts, 1e-15, 1.0 - 1e-15))
    c = gauss[:, :r] + 1j * gauss[:, r:]
    norms = np.linalg.norm(c, axis=1)
    keep = norms > 1e-12
    return c[keep] / norms[keep, None]


def oracle_extremum(m: Metric, t, objective: str, samples: int = 20000,
                    seed: int = DEFAULT_SEED) -> RadiusEstimate:
    """Ground-truth estimator for the dw / crawford / numrad extrema.

    Evaluates the objective on quasi-uniform unit vectors (deterministic for
    a given seed), then refines the ten best candidates with a stock
    quasi-Newton pass on the real parameterization of the sphere. Guarded to
    compressed rank <= 6; raises :class:`RankTooLarge` above that.
    """
    if objective not in _ORACLE_OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {_ORACLE_OBJECTIVES}")
    return _estimate(m, t, "oracle", _oracle_core, objective, samples, seed)


def _oracle_core(n_mat: np.ndarray, objective: str, samples: int, seed: int):
    r = n_mat.shape[0]
    if r > 6:
        raise RankTooLarge(f"oracle guard: compressed rank {r} > 6")
    gram = gram_herm(n_mat)
    minimize_it = objective == "crawford"

    def batch_vals(c_rows: np.ndarray) -> np.ndarray:
        if objective == "dw":
            return dw_objective(n_mat, gram, c_rows)
        return np.abs(form_values(n_mat, c_rows))

    c_all = _sobol_sphere(r, samples, seed)
    vals = batch_vals(c_all)
    order = np.argsort(vals)
    picks = order[:10] if minimize_it else order[::-1][:10]
    refine_gram = gram if objective == "dw" else None

    best_val = float(vals[picks[0]])
    best_c = c_all[picks[0]]
    feval_total = int(c_all.shape[0])
    for idx in picks:
        val, c, nfev = _sphere_refine(n_mat, refine_gram, c_all[idx], minimize_it)
        feval_total += nfev
        if (val < best_val) if minimize_it else (val > best_val):
            best_val, best_c = val, c
    sampled_best = float(vals[picks[0]])
    return best_val, best_c, feval_total, abs(best_val - sampled_best)
