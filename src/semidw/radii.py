"""Scalar functionals of semi-Hilbertian operators.

Five quantities of an A-bounded operator ``T``, all computed on the
compressed matrix ``N`` from :func:`semidw.metric.compress`:

* ``op_seminorm``      -- ``||T||_A``, the largest singular value of N;
* ``min_modulus``      -- ``m_A(T)``, the smallest singular value of N;
* ``numerical_radius`` -- ``w_A(T) = max_theta lambda_max(Re(e^{i theta} N))``;
* ``crawford``         -- ``c_A(T) = min |c* N c| = dist(0, W(N))`` over unit c;
* ``dw_radius``        -- ``dw_A(T) = max sqrt(|c* N c|^2 + ||N c||^4)``, a certified
  ``[lower, upper]`` bracket from the Davis-Wielandt shell.

Each functional has one private core that maps ``(N, memo)`` to ``(value, c,
iterations, residual)``; the bound evaluators apply the same cores to
products of compressed matrices. Every caller, and every core, reads them through a
:class:`_Memo`, whose :class:`RadiusEstimate` carries the optimal value, the
unit coordinate vector attaining it, and convergence metadata. :func:`_lift`
adds the ambient witness, with zero null-space component
(``x = (A^{1/2})^+ B c``); adding any null-space vector changes no
A-quantity, so the witness is canonical only up to that coset.

``w``, ``c`` and ``dw`` come from the level-set angle kernel
:func:`semidw._optim.rotated_eig_max` (witnesses: its eigenvectors at its
maximizer), with one short cut: when the support
points of W(N) at the kernel's ``START_ANGLES`` start angles enclose 0 by a
rounding margin, ``c_A(T) = 0`` by convexity and no kernel runs
(:func:`_inner_zero`); ``iterations`` is then ``START_ANGLES``.

:func:`oracle_extremum` is the independent estimator the tests and the
benchmark check against: seeded uniform sampling of the compressed unit
sphere followed by stock quasi-Newton refinement of the best candidates,
independent of the level-set kernel above it. No command calls it; it alone
loads ``scipy.optimize``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._optim import START_ANGLES, gram_herm, rotated_eig_max, rotated_herm, rotated_herm_batch
from .errors import NormOutOfRange, RankTooLarge
from .metric import Metric, compress, to_ambient

DEFAULT_SEED = 20220
#: largest ||N||_2 at which dw_A and every bound record stay finite: their largest
#: terms are about 25 ||N||_2^4, so this leaves a factor 4 of headroom
NORM_MAX = (np.finfo(float).max / 100.0) ** 0.25

_ORACLE_OBJECTIVES = ("dw", "crawford")


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


def _lift(m: Metric, est: RadiusEstimate) -> RadiusEstimate:
    """``est`` with its witness, :func:`to_ambient` of each rank-r block of the maximizer."""
    if m.rank:
        est.witness = np.concatenate([to_ambient(m, c) for c in est.maximizer.reshape(-1, m.rank)])
    return est


def _estimate(m: Metric, t, method: str, core) -> RadiusEstimate:
    """The estimate of ``core`` on the compression of ``t``, with its witness."""
    return _lift(m, _Memo().estimate(core, compress(m, t), method))


@dataclass
class _Memo:
    """The raw core outputs of one instance, each computed once per ``(core, N)``.

    :meth:`run` calls ``core(N, memo)``; a core reads what it builds on through
    ``memo.run``: :func:`_dw_core` its raw ``_seminorm_core`` and ``_w_core`` end lines
    (phase-fixed vectors move the bracket by rounding), :func:`_crawford_core` and
    :func:`semidw.bounds.upper_lambda_complex` the :func:`_start_support` of N, the closed
    forms the top singular pair of N_X. :meth:`estimate` alone turns a raw output into a
    :class:`RadiusEstimate`.
    """

    raw: dict = field(default_factory=dict)

    def run(self, core, n_mat: np.ndarray):
        """The raw output of ``core`` on ``n_mat``, computed on the first call."""
        key = (core, n_mat.shape, n_mat.tobytes())
        if key not in self.raw:
            self.raw[key] = core(n_mat, self)
        return self.raw[key]

    def value(self, core, n_mat: np.ndarray) -> float:
        """Value of a core on a compressed matrix; 0 on a rank-zero metric."""
        return float(self.run(core, n_mat)[0]) if n_mat.size else 0.0

    def estimate(self, core, n_mat: np.ndarray, method: str) -> RadiusEstimate:
        """The raw output of ``core`` on ``n_mat`` as an estimate, ``c`` phase-fixed, no witness.

        A rank-zero metric (N is 0x0) admits no A-unit vectors: the estimate is 0 with a
        warning.
        """
        if not n_mat.size:
            return RadiusEstimate(0.0, np.zeros(0, dtype=complex), method, 0, 0.0, None,
                                  "metric has rank zero; no A-unit vectors exist")
        value, c, iterations, residual = self.run(core, n_mat)
        return RadiusEstimate(float(value), _fix_phase(c), method, int(iterations),
                              float(residual))

    def dw(self, n_mat: np.ndarray) -> RadiusEstimate:
        """The dw bracket ``[value, value + residual]`` of ``n_mat``, as :func:`dw_radius`."""
        return self.estimate(_dw_core, n_mat, "dw_shell")


def form_values(n_mat: np.ndarray, c_rows: np.ndarray) -> np.ndarray:
    """Row-wise quadratic form values ``c* N c``."""
    return np.einsum("ki,ij,kj->k", c_rows.conj(), n_mat, c_rows)


# ---------------------------------------------------------------------------
# exact SVD functionals


def _seminorm_core(n_mat: np.ndarray, memo: _Memo):
    _, s, vh = np.linalg.svd(n_mat)
    return s[0], vh[0].conj(), 1, 0.0


def _min_modulus_core(n_mat: np.ndarray, memo: _Memo):
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


def _w_core(n_mat: np.ndarray, memo: _Memo):
    """Maximize ``lambda_max(Re(e^{i theta} N))`` over [0, 2pi); c is the top eigenvector.

    ``iterations`` is the number of angles the level-set kernel evaluated.
    """
    _, value, evals, _, vecs = rotated_eig_max(n_mat, -1)
    return value, vecs[:, -1], evals, abs(abs(_form(n_mat, vecs[:, -1])) - value)


def numerical_radius(m: Metric, t) -> RadiusEstimate:
    """A-numerical radius ``w_A(T)`` by the level-set angle kernel.

    :func:`semidw._optim.rotated_eig_max` maximizes the support function
    ``lambda_max(Re(e^{i theta} N))`` of W(N); the value is attained at the
    returned angle and the witness is the top eigenvector there.
    """
    return _estimate(m, t, "theta_sweep", _w_core)


def numrange_distance(n_mat: np.ndarray):
    """Distance from 0 to the numerical range of ``N`` (exact by convexity).

    Returns ``(distance, phi, c)`` where ``c`` is the bottom eigenvector of
    ``Re(e^{i phi} N)`` at the optimal support angle. The numerical range is
    convex, so ``dist = max(0, max_phi lambda_min(Re(e^{i phi} N)))``; this
    is the certified value of the Crawford functional.
    """
    if n_mat.shape[0] == 0:
        return 0.0, 0.0, np.zeros(0, dtype=complex)
    phi, value, _, _, vecs = rotated_eig_max(n_mat, 0)
    return max(0.0, float(value)), phi, vecs[:, 0]


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


def _chord_zero(r_mat: np.ndarray, x1: np.ndarray, lo, hi) -> np.ndarray | None:
    """Unit ``c`` with ``c* R c = 0`` from a chord of W(R) across the nonnegative real axis.

    ``x1* R x1`` lies on the negative real axis and ``lo = (x, x* R x)``, ``hi`` are
    points of W(R) below and above the real axis. Their chord crosses it at ``q``:
    one 2x2 solve attains q, a second 0 on ``[x1* R x1, q]``. None when ``q < 0``.
    """
    rise = hi[1].imag - lo[1].imag
    cross = (lo[1].real * hi[1].imag - lo[1].imag * hi[1].real) / rise if rise else hi[1].real
    if not cross >= 0.0:
        return None
    return _hit(r_mat, x1, _hit(r_mat, lo[0], hi[0], cross), 0.0)


def _through_zero(n_mat: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Unit ``c`` with ``c* N c = 0`` when 0 is in W(N): constructive Toeplitz-Hausdorff.

    In the frame ``R = e^{-i arg(-z1)} N`` the support point ``z1 = x1* N x1``
    lies on the negative real axis. The top eigenvectors of ``Re(e^{i theta} R)``
    for theta from -pi/2 to pi/2 give support points of falling imaginary
    part; bisecting theta finds two whose chord crosses the real axis at
    ``q >= 0`` (:func:`_chord_zero`). Falls back to x1 after
    ``ZERO_SEARCH_EVALS`` eigensolves.
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
        c = _chord_zero(r_mat, x1, lo[1:], hi[1:])
        if c is not None:
            return c
        mid = support(0.5 * (hi[0] + lo[0]))
        hi, lo = (mid, lo) if mid[2].imag >= 0.0 else (hi, mid)
    return x1


#: rounding margin of the inner-polygon short cut, in units of ``r eps ||N||_F``
ENCLOSE_ULPS = 8


def _start_support(n_mat: np.ndarray, memo: _Memo):
    """``(tops, points)``: the top eigenvectors ``x_k`` of ``Re(e^{i theta_k} N)`` at the
    ``START_ANGLES`` equispaced angles (one stacked ``eigh``) and the support points
    ``p_k = x_k* N x_k`` of W(N) they attain."""
    thetas = np.linspace(0.0, 2.0 * np.pi, START_ANGLES, endpoint=False)
    tops = np.linalg.eigh(rotated_herm_batch(n_mat, thetas))[1][..., -1]
    return tops, form_values(n_mat, tops)


def _inner_zero(n_mat: np.ndarray, tops: np.ndarray, points: np.ndarray) -> np.ndarray | None:
    """Unit ``c`` with ``c* N c = 0`` when the support points enclose 0, else None.

    Sorted by angle around 0, a point within ``ENCLOSE_ULPS r eps ||N||_F`` (which
    bounds the rounding of the forms) of its predecessor is dropped: the top
    eigenvectors of a normal N repeat across angles, and their points coincide up
    to rounding. At least three points must be left, and the line through every
    two consecutive ones must pass 0 on the inner side by more than that margin.
    Dropping points only shrinks their hull. The disc of that radius
    then lies in their convex hull, so 0 is inside W(N) (Toeplitz-Hausdorff; the
    inner polygon of C. R. Johnson, SIAM J. Numer. Anal. 15 (1978)) and
    ``c(N) = 0``. The witness: in the frame where the farthest point is on the
    negative real axis, the edge across the positive real axis feeds
    :func:`_chord_zero`.
    """
    order = np.argsort(np.angle(points))
    ring, x = points[order], tops[order]
    margin = ENCLOSE_ULPS * n_mat.shape[0] * np.finfo(float).eps * np.linalg.norm(n_mat)
    fresh = np.abs(ring - np.roll(ring, 1)) > margin
    ring, x = ring[fresh], x[fresh]
    succ = np.roll(ring, -1)
    if ring.size < 3 or not np.all((ring.conj() * succ).imag > margin * np.abs(succ - ring)):
        return None
    far = int(np.argmax(np.abs(ring)))
    turn = -np.conj(ring[far]) / abs(ring[far])
    hi = int(np.searchsorted(np.angle(ring), np.angle(-ring[far]))) % ring.size
    return _chord_zero(turn * n_mat, x[far], (x[hi - 1], turn * ring[hi - 1]),
                       (x[hi], turn * ring[hi]))


def _crawford_core(n_mat: np.ndarray, memo: _Memo):
    """``(c(N), c, iterations, residual)``: the :func:`_inner_zero` short cut, else the sweep.

    When the points of the memoized :func:`_start_support` of N enclose 0 the value is 0
    with ``START_ANGLES`` iterations and no kernel call; the kernel would return
    ``max(0, lambda_min) = 0`` there too, since every ``lambda_min(Re(e^{i phi} N))``
    is below minus the margin. Else the kernel's eigenpairs at phi give the face.
    """
    c = _inner_zero(n_mat, *memo.run(_start_support, n_mat))
    if c is not None:
        return 0.0, c, START_ANGLES, abs(_form(n_mat, c))
    phi, value, evals, lam, vecs = rotated_eig_max(n_mat, 0)
    value = max(0.0, float(value))
    c = _face_point(n_mat, phi, lam, vecs, value * np.exp(-1j * phi))
    if value == 0.0:
        c = _nearest(n_mat, c, _through_zero(n_mat, c))
    return value, c, evals, abs(abs(_form(n_mat, c)) - value)


def crawford(m: Metric, t) -> RadiusEstimate:
    """A-Crawford number ``c_A(T) = dist(0, W(N))``: inner-polygon short cut, else convexity sweep.

    When the support points of W(N) at the kernel's ``START_ANGLES`` start angles
    enclose 0 by a rounding margin, the value is 0 with no kernel call, the witness
    attains 0 by two 2x2 solves and ``iterations`` is ``START_ANGLES``
    (:func:`_inner_zero`). Otherwise the value d is :func:`numrange_distance`'s.
    The witness attains the point ``d e^{-i phi}`` of W(N) nearest 0, phi the
    sweep angle: on the support face at phi when ``d > 0``, through
    :func:`_through_zero` when ``d = 0``. ``iterations`` is the number of angles
    the level-set kernel evaluated.
    """
    return _estimate(m, t, "convexity_sweep", _crawford_core)


# ---------------------------------------------------------------------------
# Davis-Wielandt radius: the farthest point of the Davis-Wielandt shell

#: the bracket stops once ``upper - lower <= DW_RTOL (1 + upper)``
DW_RTOL = 1e-10
#: cap on the kernel calls of one bracket
DW_MAX_DIRECTIONS = 64
#: rounding pad of the upper end, in units of ``r eps (||N||_2 + ||N||_2^2)``
DW_PAD_ULPS = 16


def _dw_core(n_mat: np.ndarray, memo: _Memo):
    """Bracket ``[lower, upper]`` of ``dw(N) = max |p|`` over ``S = {(|c* N c|, c* G c)}``.

    ``G = N*N``, c unit. S lies in the positive quadrant, so dw is the farthest
    point of ``conv S``, whose support function at ``u(alpha) = (cos alpha,
    sin alpha)``, alpha in [0, pi/2], is one level-set kernel call,
    ``max_theta lambda_max(cos alpha Re(e^{i theta} N) + sin alpha G)``
    (Davis-Wielandt shell: Li-Poon-Sze, Oper. Matrices 2 (2008)); at the ends
    it is ``||N||_2^2`` and ``w(N)`` (the memoized ``_seminorm_core`` and
    ``_w_core``; ``_w_core`` runs only past the ``NORM_MAX`` and zero checks).
    Inner and outer polygons (C. R. Johnson, SIAM J. Numer. Anal. 15 (1978)):
    the lower end is the largest ``|p|`` over the support points, each the point
    of the kernel's top eigenvector at its maximizer (the witness); the upper
    end is the farthest vertex of the
    polygon of support lines plus ``DW_PAD_ULPS r eps (||N||_2 + ||N||_2^2)``,
    a bound on the rounding of support values (unpadded, vertices fell up to
    3.1 such units below attained points). The next line is at the angle of
    the farthest vertex, else of the best point.

    Stops at ``upper - lower <= DW_RTOL (1 + upper)``, when no angle is new,
    or after ``DW_MAX_DIRECTIONS`` calls; where S osculates the circle
    ``|p| = dw`` (N nilpotent 2x2, ``||N||_2 = 1/sqrt(2)``) the polygon closes
    slowly and the cap leaves a width near 2e-7 dw. Returns ``(lower, c, kernel
    calls, upper - lower)``; raises :class:`NormOutOfRange` above ``NORM_MAX``.
    """
    norm = memo.run(_seminorm_core, n_mat)
    if not norm[0] <= NORM_MAX:
        raise NormOutOfRange(f"||T||_A = {norm[0]:.3g} is above {NORM_MAX:.3g}, where dw_A "
                             "and its bounds leave the floating-point range")
    if norm[0] == 0.0:
        return 0.0, norm[1], 0, 0.0
    gram = gram_herm(n_mat)
    pad = DW_PAD_ULPS * n_mat.shape[0] * np.finfo(float).eps * (norm[0] + norm[0] ** 2)
    alphas, offsets, points, vecs = [], [], [], []

    def add(alpha: float, value: float, x: np.ndarray) -> None:
        p = np.array([abs(_form(n_mat, x)), _form(gram, x).real])
        alphas.append(alpha)
        # |x* N x| >= Re(e^{i theta} x* N x): the point may lie beyond the eigenvalue's line
        offsets.append(max(float(value), np.cos(alpha) * p[0] + np.sin(alpha) * p[1]))
        points.append(p)
        vecs.append(x)

    add(0.0, *memo.run(_w_core, n_mat)[:2])
    add(0.5 * np.pi, norm[0] ** 2, norm[1])
    for calls in range(DW_MAX_DIRECTIONS + 1):
        order = np.argsort(alphas)
        a, h = np.asarray(alphas)[order], np.asarray(offsets)[order]
        step = np.diff(a)
        # consecutive lines meet at h_i u(a_i) + t_i u(a_i + pi/2)
        t = (h[1:] - h[:-1] * np.cos(step)) / np.sin(step)
        far = np.hypot(h[:-1], t)
        k = int(np.argmax(far))
        upper = float(far[k]) + pad
        norms = np.hypot(*np.transpose(points))
        best = int(np.argmax(norms))
        lower = float(norms[best])
        if upper - lower <= DW_RTOL * (1.0 + upper) or calls == DW_MAX_DIRECTIONS:
            break
        dirs = (float(a[k] + np.arctan2(t[k], h[k])),
                float(np.arctan2(points[best][1], points[best][0])))
        fresh = [d for d in dirs if 0.0 < d < 0.5 * np.pi and d not in alphas]
        if not fresh:
            break
        alpha = fresh[0]
        _, value, _, _, slice_vecs = rotated_eig_max(np.cos(alpha) * n_mat, -1,
                                                     np.sin(alpha) * gram)
        add(alpha, value, slice_vecs[:, -1])
    return lower, vecs[best], calls, upper - lower


def dw_radius(m: Metric, t, seed: int = DEFAULT_SEED) -> RadiusEstimate:
    """A-Davis-Wielandt radius ``dw_A(T)``: the lower end of the :func:`_dw_core` bracket.

    ``value`` is attained at the witness, ``residual`` is the bracket width
    (``dw_A(T) <= value + residual``) and ``iterations`` counts the kernel
    calls. The bracket is deterministic: ``seed`` is accepted so that call
    forms keep working, and unused. Raises :class:`NormOutOfRange` when
    ``||T||_A > NORM_MAX``.
    """
    return _lift(m, _Memo().dw(compress(m, t)))


def estimates(m: Metric, t) -> dict[str, RadiusEstimate]:
    """The five functionals of T, by name, on one compression and one memo.

    Each estimate equals that of its public function (``seminorm`` is
    :func:`op_seminorm`'s, ``dw_radius`` is :func:`dw_radius`'s); ``w_A`` and
    ``||T||_A`` are computed once for their own estimates and the dw end lines.
    """
    n_mat, memo = compress(m, t), _Memo()
    cores = (("seminorm", _seminorm_core, "exact_svd"),
             ("min_modulus", _min_modulus_core, "exact_svd"),
             ("numerical_radius", _w_core, "theta_sweep"),
             ("crawford", _crawford_core, "convexity_sweep"),
             ("dw_radius", _dw_core, "dw_shell"))
    return {name: _lift(m, memo.estimate(core, n_mat, method)) for name, core, method in cores}


# ---------------------------------------------------------------------------
# sampling oracle


def _sphere_samples(r: int, samples: int, seed: int) -> np.ndarray:
    """``samples`` seeded unit vectors, uniform on the complex r-sphere (normalized Gaussians)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5A]))
    c = rng.standard_normal((samples, r)) + 1j * rng.standard_normal((samples, r))
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def _sphere_refine(n_mat: np.ndarray, gram: np.ndarray | None, c0: np.ndarray,
                   minimize_it: bool):
    """Quasi-Newton refinement of a sphere objective from one start vector.

    Works on the homogeneous extension F(c) = R(c)/||c||^2 with
    R = |c*Nc| (or sqrt(|c*Nc|^2 + (c*Mc)^2) when ``gram`` is given), so no
    explicit normalization is needed; analytic Wirtinger gradient. The
    minimizer sees F over its a-priori bound, ``||N||_2`` (``hypot(||N||_2,
    ||N||_2^2)`` for dw; 1 for N = 0), so its steps and its fixed gradient
    tolerance keep the scale of the unit sphere whatever ``||N||``.
    """
    from scipy.optimize import minimize  # slow to import; only the oracle uses it
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


def oracle_extremum(m: Metric, t, objective: str, samples: int = 20000,
                    seed: int = DEFAULT_SEED) -> RadiusEstimate:
    """Ground-truth estimator for the dw and crawford extrema.

    Evaluates the objective on ``samples`` seeded uniform unit vectors
    (deterministic for a given seed), then refines the ten best candidates
    with a stock quasi-Newton pass on the real parameterization of the
    sphere. Guarded to compressed rank <= 6; raises :class:`RankTooLarge`
    above that and ``ValueError`` for ``samples < 1``.
    """
    if objective not in _ORACLE_OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {_ORACLE_OBJECTIVES}")
    return _estimate(m, t, "oracle",
                     lambda n_mat, memo: _oracle_core(n_mat, objective, samples, seed))


def _oracle_core(n_mat: np.ndarray, objective: str, samples: int, seed: int):
    r = n_mat.shape[0]
    if r > 6:
        raise RankTooLarge(f"oracle guard: compressed rank {r} > 6")
    if samples < 1:
        raise ValueError(f"the oracle needs samples >= 1, got {samples}")
    gram = gram_herm(n_mat)
    minimize_it = objective == "crawford"

    def batch_vals(c_rows: np.ndarray) -> np.ndarray:
        z = np.abs(form_values(n_mat, c_rows))
        if objective == "dw":  # sqrt(|c* N c|^2 + (c* G c)^2)
            return np.sqrt(z ** 2 + form_values(gram, c_rows).real ** 2)
        return z

    c_all = _sphere_samples(r, samples, seed)
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
