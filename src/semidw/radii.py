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
:func:`semidw._optim.rotated_eig_max_stack` (witnesses: its eigenvectors at its
maximizer; :meth:`_Memo.fill` stacks the problems of many cores, solves each once,
and runs the slices of the dw brackets it is given in lockstep), with one short
cut: when the support points of W(N) at the kernel's ``START_ANGLES`` start angles
enclose 0 by a rounding margin, ``c_A(T) = 0`` by convexity and no kernel runs
(:func:`_inner_zero`); ``iterations`` is then ``START_ANGLES``.

:func:`oracle_extremum` is the independent estimator the tests and the
benchmark check against: seeded uniform sampling of the compressed unit
sphere followed by one lockstep Riemannian Newton refinement of the best
candidates (:func:`_sphere_newton`), in numpy and independent of the level-set
kernel above it. No command calls it. The tests check its refinement against
scipy's L-BFGS-B from the same starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import GeneratorType

import numpy as np

from ._optim import (START_ANGLES, START_THETAS, _pow2_units, form_values, gram_herm,
                     herm_parts, rotated_eig_max_stack, rotated_herm)
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


def _problem_key(n_mat: np.ndarray, index: int, shift, start=None) -> tuple:
    """The key of a kernel problem ``(N, index, shift[, start])`` in :attr:`_Memo.solved`."""
    return n_mat.shape, n_mat.tobytes(), index, None if shift is None else shift.tobytes(), start


@dataclass
class _Memo:
    """The raw core outputs of one instance, each computed once per ``(core, N)``, and the
    kernel tuples of the level-set problems they read, each solved once.

    :meth:`run` calls ``core(N, memo)``; a core reads what it builds on through
    ``memo.run``: :func:`_dw_core` the top singular pair of N, the closed forms the top
    singular pair of N_X. A kernel-backed core (``_w_core``, ``_crawford_core`` past its
    short cut, ``_theta_sweep_core``, ``_dw_core``) is a generator: it yields a list of
    level-set problems ``(N, index, shift[, start])`` and is sent the list of their
    kernel tuples. So cores that pose one problem share its tuple, and :meth:`fill`
    drives many cores in lockstep: a report that names its cores up front pays the
    kernel's fixed costs once per round. :meth:`estimate` alone turns a raw output into
    a :class:`RadiusEstimate`.
    """

    raw: dict = field(default_factory=dict)
    #: :func:`_problem_key` -> the kernel's ``(theta, value, evals, lam, vecs)``
    solved: dict = field(default_factory=dict)

    def fill(self, pairs) -> None:
        """Compute every ``(core, N)`` of ``pairs`` not yet held; 0x0 matrices, which no
        core reads (:meth:`value` is 0 there), are skipped.

        Each round solves the problems that the waiting generator cores pose and
        :attr:`solved` lacks, each once, in one :func:`semidw._optim.rotated_eig_max_stack`
        call per order, and resumes every waiting core, until all have returned; a stack's
        tuples are bit for bit its stacks of one, so no output depends on what else is
        filled. An exception of one core leaves the fill.
        """
        waiting: dict = {}  # key -> (generator, the keys of its problems)
        fresh: dict = {}  # problem key -> problem, of the problems not yet solved

        def advance(key, gen, result=None) -> None:
            try:
                problems = gen.send(result)
            except StopIteration as done:  # returned, maybe by a short cut before any yield
                self.raw[key] = done.value
                return
            keys = [_problem_key(*problem) for problem in problems]
            for k, problem in zip(keys, problems):
                if k not in self.solved:
                    fresh[k] = problem
            waiting[key] = gen, keys

        for core, n_mat in pairs:
            key = (core, n_mat.shape, n_mat.tobytes())
            if not n_mat.size or key in self.raw or key in waiting:
                continue
            out = core(n_mat, self)
            if isinstance(out, GeneratorType):
                advance(key, out)
            else:
                self.raw[key] = out
        while waiting:
            orders: dict = {}
            for k, problem in fresh.items():
                orders.setdefault(problem[0].shape[0], []).append(k)
            for keys in orders.values():
                self.solved.update(zip(keys, rotated_eig_max_stack([fresh[k] for k in keys])))
            fresh.clear()
            for key in list(waiting):
                gen, keys = waiting.pop(key)
                advance(key, gen, [self.solved[k] for k in keys])

    def run(self, core, n_mat: np.ndarray):
        """The raw output of ``core`` on ``n_mat``, computed on the first call."""
        key = (core, n_mat.shape, n_mat.tobytes())
        if key not in self.raw:
            self.fill([(core, n_mat)])
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

    ``iterations`` is the number of angles the level-set kernel evaluated. A generator
    core: it yields its kernel problem to :meth:`_Memo.fill`.
    """
    (_, value, evals, _, vecs), = yield [(n_mat, -1, None)]
    return value, vecs[:, -1], evals, abs(abs(_form(n_mat, vecs[:, -1])) - value)


def numerical_radius(m: Metric, t) -> RadiusEstimate:
    """A-numerical radius ``w_A(T)`` by the level-set angle kernel.

    :func:`semidw._optim.rotated_eig_max_stack` maximizes the support function
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
    phi, value, _, _, vecs = rotated_eig_max_stack([(n_mat, 0, None)])[0]
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


def _start_support(n_mat: np.ndarray):
    """``(tops, points)``: the top eigenvectors ``x_k`` of ``Re(e^{i theta_k} N)`` at the
    kernel's start angles ``START_THETAS`` (one stacked ``eigh``) and the support points
    ``p_k = x_k* N x_k`` of W(N) they attain."""
    tops = np.linalg.eigh(rotated_herm(n_mat, START_THETAS))[1][..., -1]
    return tops, form_values(n_mat, tops)


def _inner_zero(n_mat: np.ndarray, tops: np.ndarray, points: np.ndarray) -> np.ndarray | None:
    """Unit ``c`` with ``c* N c = 0`` when the support points enclose 0, else None.

    Sorted by angle around 0, a point within ``ENCLOSE_ULPS r eps ||N||_F`` of its
    predecessor is dropped, a margin four times a bound on the rounding of the forms:
    :func:`semidw._optim.form_values` takes two complex inner products of length r, each
    within ``gamma_{r+2} |x|^T |y|`` in any summation order (N. J. Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 3.6; ``gamma_k ~ k eps / 2``), so for
    a unit c it is within about ``2 gamma_{r+2} |c|^T |N| |c| <= (r + 2) eps ||N||_F``,
    at most ``2 r eps ||N||_F`` for r >= 2 (at r = 1 there is one point). The top
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

    The witness geometry runs on ``U = 2^-e N`` (:func:`semidw._optim._pow2_units`): its
    forms and their products stay in range for subnormal to huge N. When the points of
    the :func:`_start_support` of U enclose 0 the value is 0 with ``START_ANGLES``
    iterations and no kernel call; the kernel would return ``max(0, lambda_min) = 0``
    there too, since every ``lambda_min(Re(e^{i phi} N))`` is below minus the margin.
    Else the value is the kernel's on N, whose eigenpairs at phi give the face: a
    generator core past the short cut.
    """
    (unit,), e = _pow2_units(n_mat.astype(complex, copy=False))
    c = _inner_zero(unit, *_start_support(unit))
    if c is not None:
        return 0.0, c, START_ANGLES, math.ldexp(abs(_form(unit, c)), e)
    (phi, value, evals, lam, vecs), = yield [(n_mat, 0, None)]
    value = max(0.0, float(value))
    unit_value = math.ldexp(value, -e)
    c = _face_point(unit, phi, np.ldexp(lam, -e), vecs, unit_value * np.exp(-1j * phi))
    if value == 0.0:
        c = _nearest(unit, c, _through_zero(unit, c))
    return value, c, evals, math.ldexp(abs(abs(_form(unit, c)) - unit_value), e)


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
#: cap on the slices (kernel problems) of one bracket
DW_MAX_DIRECTIONS = 64
#: rounding pad of the upper end, in units of ``r eps (||N||_2 + ||N||_2^2)``
DW_PAD_ULPS = 16


def _check_norm(norm: float) -> None:
    """Raise :class:`NormOutOfRange` unless ``||T||_A = norm`` is at most ``NORM_MAX``."""
    if not norm <= NORM_MAX:
        raise NormOutOfRange(f"||T||_A = {norm:.3g} is above {NORM_MAX:.3g}, where dw_A "
                             "and its bounds leave the floating-point range")


def _theta_sweep_core(n_mat: np.ndarray, memo: _Memo):
    """``sup_w = max_psi lambda_max(Re(e^{i psi} N) + G)``, ``G = N*N``: one kernel problem,
    yielded to :meth:`_Memo.fill`.

    theta-sweep's supremum. Its problem is the pi/4 slice of :func:`_dw_core`'s support
    function, ``h(pi/4) = sup_w / sqrt(2)``, which a bracket opens with. Returns
    ``(sup_w, top eigenvector, angles evaluated, |lambda_max - sup_w|)``, the last the
    disagreement of the kernel's two solvers.
    """
    (_, sup_w, evals, lam, vecs), = yield [(n_mat, -1, gram_herm(n_mat))]
    return sup_w, vecs[:, -1], evals, abs(lam[-1] - sup_w)


def _dw_core(n_mat: np.ndarray, memo: _Memo):
    """Bracket ``[lower, upper]`` of ``dw(N) = max |p|`` over ``S = {(|c* N c|, c* G c)}``.

    ``G = N*N``, c unit. S lies in the positive quadrant, so dw is the farthest
    point of ``conv S``, whose support function at ``u(alpha) = (cos alpha,
    sin alpha)``, alpha in [0, pi/2], is one level-set kernel problem, the slice
    ``h(alpha) = max_theta lambda_max(cos alpha Re(e^{i theta} N) + sin alpha G)``
    (Davis-Wielandt shell: Li-Poon-Sze, Oper. Matrices 2 (2008)). Past the ``NORM_MAX``
    and zero checks the bracket opens with three lines: ``h(pi/2) = ||N||_2^2``
    (``_seminorm_core``), and, in one yield, the problems of ``_w_core``, ``h(0) = w(N)``,
    and of ``_theta_sweep_core``, ``h(pi/4) = sup_w / sqrt(2)``, whose top eigenvectors
    give the points. Inner and outer polygons (C. R. Johnson, SIAM J. Numer. Anal. 15 (1978)):
    the lower end is the largest ``|p|`` over the support points, each the point
    of the kernel's top eigenvector at its maximizer (the witness); the upper
    end is the farthest vertex of the
    polygon of support lines plus ``DW_PAD_ULPS r eps (||N||_2 + ||N||_2^2)``,
    a bound on the rounding of support values (unpadded, vertices fell up to
    3.1 such units below attained points). The next line is at the angle of
    the farthest vertex, else of the best point.

    Stops at ``upper - lower <= DW_RTOL (1 + upper)``, when no angle is new, or
    after ``DW_MAX_DIRECTIONS`` slices, the pi/4 line among them; where S osculates
    the circle ``|p| = dw`` (N nilpotent 2x2, ``||N||_2 = 1/sqrt(2)``) the polygon
    closes slowly and the cap leaves a width near 1e-7 dw. A generator core: it yields
    each slice ``(cos alpha N, -1, sin alpha G, start)`` to :meth:`_Memo.fill`, so
    the brackets of one fill share its kernel calls. Every slice starts warm, at the
    maximizer angle of the solved slice nearest to it in alpha (at pi/4, theta-sweep's).
    Returns ``(lower, c, slices, upper - lower)``; raises :class:`NormOutOfRange` above
    ``NORM_MAX``, before its first yield.
    """
    norm = memo.run(_seminorm_core, n_mat)
    _check_norm(norm[0])
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

    (_, w_val, _, _, w_vecs), (psi, sup_w, _, _, sweep_vecs) = yield [
        (n_mat, -1, None), (n_mat, -1, gram)]
    add(0.0, w_val, w_vecs[:, -1])
    add(0.25 * np.pi, np.sqrt(0.5) * sup_w, sweep_vecs[:, -1])
    add(0.5 * np.pi, norm[0] ** 2, norm[1])
    thetas = {0.25 * np.pi: psi}  # alpha -> the maximizer angle of its slice
    for calls in range(1, DW_MAX_DIRECTIONS + 1):  # the pi/4 line is the first slice
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
        start = thetas[min(thetas, key=lambda a: abs(a - alpha))]
        (thetas[alpha], value, _, _, slice_vecs), = yield [
            (np.cos(alpha) * n_mat, -1, np.sin(alpha) * gram, start)]
        add(alpha, value, slice_vecs[:, -1])
    return lower, vecs[best], calls, upper - lower


def dw_radius(m: Metric, t, seed: int = DEFAULT_SEED) -> RadiusEstimate:
    """A-Davis-Wielandt radius ``dw_A(T)``: the lower end of the :func:`_dw_core` bracket.

    ``value`` is attained at the witness, ``residual`` is the bracket width
    (``dw_A(T) <= value + residual``) and ``iterations`` counts the slices, the pi/4
    line among them. After the norm and zero checks one stacked kernel call solves the
    ``w`` and pi/4 lines, then the bracket runs. The bracket is deterministic: ``seed`` is accepted so that call forms keep working,
    and unused. Raises :class:`NormOutOfRange` when
    ``||T||_A > NORM_MAX``.
    """
    return _lift(m, _Memo().dw(compress(m, t)))


def estimates(m: Metric, t) -> dict[str, RadiusEstimate]:
    """The five functionals of T, by name, on one compression and one memo.

    Each estimate equals that of its public function (``seminorm`` is
    :func:`op_seminorm`'s, ``dw_radius`` is :func:`dw_radius`'s); ``w_A`` and
    ``||T||_A`` are computed once for their own estimates and the dw end lines. One
    :meth:`_Memo.fill`, the dw bracket first, checks ``||T||_A`` (:class:`NormOutOfRange`
    above ``NORM_MAX``, as for ``dw_A``), solves the kernel problems of ``w_A``, ``c_A``
    and the bracket's pi/4 slice in one stacked call, and then runs the bracket.
    """
    n_mat, memo = compress(m, t), _Memo()
    memo.fill([(_dw_core, n_mat), (_w_core, n_mat), (_crawford_core, n_mat)])
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


#: cap on the Newton steps (stacked ``eigh`` calls) of one oracle refinement
_ORACLE_STEPS = 32
#: cap on the shifts one oracle Newton step tries
_ORACLE_SHIFTS = 24


def _real_forms(herms) -> np.ndarray:
    """Stack of ``[[Re H, -Im H], [Im H, Re H]]``: ``c* H c = u^T M u`` for ``u = (Re c, Im c)``."""
    return np.stack([np.block([[h.real, -h.imag], [h.imag, h.real]]) for h in herms])


def _quartic(forms: np.ndarray, u: np.ndarray):
    """``(M_k u, u^T M_k u, F)`` of the rows u, ``F = sum_k (u^T M_k u)^2``."""
    mv = np.transpose(forms @ u.T, (2, 0, 1))
    q = (mv @ u[:, :, None])[..., 0]
    return mv, q, np.einsum("mk,mk->m", q, q)


def _sphere_newton(forms: np.ndarray, u: np.ndarray, sign: float):
    """Lockstep Riemannian Newton ascent of ``sign F`` on the unit sphere from the rows of u.

    ``F(u) = sum_k (u^T M_k u)^2`` does not change along the phase direction ``J u``
    (``c -> i c``), so a step lives in an orthonormal basis B of the complement of u
    and ``J u``: there the gradient is ``g = B^T grad F`` and the Hessian is
    ``H = B^T (hess F - 4 F I) B``, since ``u^T grad F = 4 F``. One stacked ``eigh`` of
    ``sign H`` per step gives the Levenberg-Marquardt steps ``s = (mu I - sign H)^{-1}
    sign g``, retracted by normalizing ``u + B s``. The shift mu is 0 where ``sign H``
    is negative definite, else twice its top eigenvalue: a shift just above it sent the
    steps along the near-null curvature of a Crawford zero far off, and the refused
    steps left a linear rate. A step that does not raise ``sign F`` is refused and
    retried with mu grown 8 times (from at least ``|top|``), so F stays attained at the
    returned rows. A start stops once its gain or the model's predicted gain is at most
    ``4 eps (|F| + eps)`` (F is at most 1, and below ``eps^2`` it is the rounding of the
    forms), after ``_ORACLE_SHIFTS`` refused shifts in one step, or after
    ``_ORACLE_STEPS`` steps. Returns ``(u, F, evaluations)``.
    """
    eps = np.finfo(float).eps
    u, half = u.copy(), u.shape[1] // 2
    f = _quartic(forms, u)[2]
    evals = u.shape[0]
    # at r = 1 every unit vector is a phase: F is constant
    run = np.arange(u.shape[0] if half > 1 else 0)
    for _ in range(_ORACLE_STEPS):
        if not run.size:
            break
        x, floor = u[run], 4.0 * eps * (np.abs(f[run]) + eps)
        mv, q, _ = _quartic(forms, x)
        grad = 4.0 * (q[:, None, :] @ mv)[:, 0]
        hess = 8.0 * (np.swapaxes(mv, 1, 2) @ mv) + 4.0 * np.tensordot(q, forms, 1)
        phase = np.concatenate([-x[:, half:], x[:, :half]], axis=1)
        basis = np.linalg.qr(np.stack([x, phase], axis=2), mode="complete")[0][:, :, 2:]
        tangent = np.swapaxes(basis, 1, 2) @ hess @ basis
        tangent -= 4.0 * f[run, None, None] * np.eye(tangent.shape[-1])
        lam, vecs = np.linalg.eigh(sign * tangent)
        basis = basis @ vecs
        coef = ((sign * grad[:, None, :]) @ basis)[:, 0]
        top = lam[:, -1]
        mu = np.where(top < 0.0, 0.0, 2.0 * top + floor)
        trying, going = np.arange(run.size), []
        for _ in range(_ORACLE_SHIFTS):
            step = coef[trying] / (mu[trying, None] - lam[trying])
            predicted = np.sum(step * (coef[trying] + 0.5 * lam[trying] * step), axis=1)
            keep = predicted > floor[trying]
            trying, step = trying[keep], step[keep]
            if not trying.size:
                break
            y = x[trying] + (basis[trying] @ step[..., None])[..., 0]
            y /= np.linalg.norm(y, axis=1, keepdims=True)
            fy = _quartic(forms, y)[2]
            evals += trying.size
            k = run[trying]
            gain = sign * (fy - f[k])
            up = gain > 0.0
            u[k[up]], f[k[up]] = y[up], fy[up]
            going.append(trying[up & (gain > 4.0 * eps * (np.abs(fy) + eps))])
            trying = trying[~up]
            mu[trying] = np.maximum(8.0 * mu[trying], np.abs(top[trying]))
        run = run[np.sort(np.concatenate(going))] if going else run[:0]
    return u, f, evals


def oracle_extremum(m: Metric, t, objective: str, samples: int = 20000,
                    seed: int = DEFAULT_SEED) -> RadiusEstimate:
    """Ground-truth estimator for the dw and crawford extrema.

    Evaluates the objective on ``samples`` seeded uniform unit vectors
    (deterministic for a given seed), then refines the ten best candidates
    together by safeguarded Newton steps on the real parameterization of the
    sphere (:func:`_sphere_newton`). The value is attained at the maximizer;
    ``iterations`` counts the samples and the refinement's evaluations, and
    ``residual`` is the refinement's gain over the best sample. Guarded to
    compressed rank <= 6; raises :class:`RankTooLarge` above that and
    ``ValueError`` for ``samples < 1``, and for ``"dw"``, as :func:`dw_radius` does,
    :class:`NormOutOfRange` when ``||T||_A > NORM_MAX``.
    """
    if objective not in _ORACLE_OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {_ORACLE_OBJECTIVES}")
    return _estimate(m, t, "oracle",
                     lambda n_mat, memo: _oracle_core(n_mat, objective, samples, seed))


def _oracle_starts(n_mat: np.ndarray, gram: np.ndarray | None, objective: str,
                   samples: int, seed: int):
    """``(starts, values)``: the ten best of ``samples`` seeded unit vectors, best first."""
    c_all = _sphere_samples(n_mat.shape[0], samples, seed)
    vals = np.abs(form_values(n_mat, c_all))
    if objective == "dw":  # sqrt(|c* N c|^2 + (c* G c)^2)
        vals = np.sqrt(vals ** 2 + form_values(gram, c_all).real ** 2)
    order = np.argsort(vals)
    picks = order[:10] if objective == "crawford" else order[::-1][:10]
    return c_all[picks], vals[picks]


def _oracle_core(n_mat: np.ndarray, objective: str, samples: int, seed: int):
    r = n_mat.shape[0]
    if r > 6:
        raise RankTooLarge(f"oracle guard: compressed rank {r} > 6")
    if samples < 1:
        raise ValueError(f"the oracle needs samples >= 1, got {samples}")
    minimize_it = objective == "crawford"
    norm = float(np.linalg.norm(n_mat, 2))
    if not minimize_it:
        _check_norm(norm)
    gram = None if minimize_it else gram_herm(n_mat)
    starts, vals = _oracle_starts(n_mat, gram, objective, samples, seed)
    best_val, best_c = float(vals[0]), starts[0]
    if norm == 0.0:
        return best_val, best_c, samples, 0.0
    # one common unit keeps F at most 1, and finite up to NORM_MAX
    unit = norm if minimize_it else float(np.hypot(norm, norm ** 2))
    herms = [*herm_parts(n_mat)] + ([] if minimize_it else [gram])
    forms = _real_forms([h / unit for h in herms])
    u, f, evals = _sphere_newton(forms, np.concatenate([starts.real, starts.imag], axis=1),
                                 -1.0 if minimize_it else 1.0)
    refined = np.sqrt(f) * unit
    k = int(np.argmin(refined) if minimize_it else np.argmax(refined))
    if (refined[k] < best_val) if minimize_it else (refined[k] > best_val):
        best_val, best_c = float(refined[k]), u[k, :r] + 1j * u[k, r:]
    return best_val, best_c, samples + evals, abs(best_val - float(vals[0]))
