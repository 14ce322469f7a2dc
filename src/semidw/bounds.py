"""Bound evaluators for the A-Davis-Wielandt radius.

Every inequality is evaluated as a named :class:`BoundRecord`, judged by one
rule (:meth:`_Instance.record`) against the certified dw bracket
(:func:`semidw.radii.dw_radius`; deterministic, so the ``seed`` that a report
accepts is only recorded) or a caller's reference. :func:`verify_all` runs the
whole single-operator catalog and assembles a :class:`VerificationReport`.

Each bound is a formula over radii-core values of products of compressed
matrices (``|T|^2_A`` is ``N*N``, ``X^# Y`` is ``N_X* N_Y``: compression is a
*-homomorphism, see :mod:`semidw.metric`), read from the memo of one
:class:`_Instance` (:class:`semidw.radii._Memo`), which computes each value once
and builds every estimate. A public evaluator compresses its operands, checks
their norms against ``NORM_MAX`` and runs its body on a fresh instance
(:func:`_evaluate`); a report runs every body on one memo, which one
:meth:`semidw.radii._Memo.fill` first fills with the dw brackets it reads (its matrix's,
its operands' and the offdiag block's) and every kernel-backed value its bodies read
(:func:`_catalog_cores` and :func:`_pair_cores`), all in lockstep.

Angle suprema of one eigenvalue (``w``, ``c`` and the theta-sweep bound) come
from the level-set kernel :func:`semidw._optim.rotated_eig_max_stack`, whose value is
attained and converged to rounding, so an inner supremum is never
under-resolved before a subtraction. Both scalar-shift records are their
lambda = 0 members: every member is at least that one. The lambda-complex one
is the sandwich upper bound, read from the memo. The lambda-real one, which is
not one eigenvalue, is a certified branch and bound on the curvature floor of
its theta-member (:func:`_lambda_real_search`): 16 angles of a half-turn,
safeguarded Newton ascents that run in lockstep on one stacked ``eigh`` per
step and on the kernel's eigenvalue jets (:func:`semidw._optim.eig_jet`), then
bisection rounds of one stacked ``eigvalsh`` each until no interval can hold a
value ``LAMBDA_REAL_RTOL`` above the best attained one. Records store the
default lambda grids, whose infimum each value is.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from ._optim import (NEWTON_STEP_MAX, START_ANGLES, _pow2_units, eig_jet, form_values,
                     gram_herm, newton_max_lockstep, rotated_herm)
from .errors import DegenerateNorm, NonFiniteReference, ZeroT
from .exact import _0x_core, _ix_core
from .metric import Metric, as_operator, compress
from .radii import (_check_norm, _crawford_core, _dw_core, _lift, _Memo, _min_modulus_core,
                    _seminorm_core, _theta_sweep_core, _w_core)

LAMBDA_GRID_POINTS = 41
#: the lambda-real record's ``theta_grid`` param, kept at the 360 angles of the grid it
#: once read: the search of :func:`_lambda_real_search` samples no fixed grid
THETA_GRID_BOUNDS = 360
#: the lambda-real search bisects until its certified end is within this of its value
LAMBDA_REAL_RTOL = 1e-4
#: the sum split is orthogonal when ||N_X* N_Y + N_Y* N_X|| <= this (1 + ||X|| ||Y||)
ORTHOGONAL_TOL = 1e-10

#: fixed catalog order of the single-operator records
CATALOG = (
    "sandwich-lower",
    "sandwich-upper",
    "lower-crawford-radius",
    "lower-crawford-norm",
    "lower-crawford-radius-product",
    "lower-crawford-norm-product",
    "theta-sweep-upper",
    "cartesian-lower",
    "cartesian-upper",
    "buzano-modulus-upper",
    "buzano-square-upper",
    "triple-modulus-upper",
    "lambda-real-upper",
    "lambda-complex-upper",
)


@dataclass
class BoundRecord:
    """One evaluated bound: value, the lower end of its dw bracket, satisfied flag and gap.

    ``satisfied`` is the rule of :meth:`_Instance.record`. ``gap`` is ``reference_dw -
    value`` for lower bounds, else ``value - reference_dw`` (exact values, from ``semidw
    exact``, carry the upper end as ``params["dw_upper"]``). ``status`` is "ok" or
    "not-applicable" (a hypothesis of the theorem fails).
    """

    name: str
    anchor: str
    kind: str
    value: float
    reference_dw: float
    satisfied: bool | None
    gap: float
    params: dict = field(default_factory=dict)
    status: str = "ok"


@dataclass
class VerificationReport:
    """All records of one instance and its dw bracket ``[reference_dw, reference_dw_upper]``.

    Records are judged against the bracket (:meth:`_Instance.record`); ``tol`` is their
    slack. ``dw_multistart`` and ``dw_oracle`` are always None; their JSON keys stay so
    that consumers still parse.
    """

    instance: dict
    dw_multistart: None
    dw_oracle: None
    reference_dw: float
    reference_dw_upper: float
    tol: float
    records: list[BoundRecord]
    overall_pass: bool
    seed: int


def _tol_for(ref: float, tol: float | None) -> float:
    return 1e-6 * (1.0 + ref) if tol is None else float(tol)


@dataclass
class _Instance:
    """The dw bracket and tolerance of one report or public evaluator, on one core memo.

    A record's bracket is ``reference`` (a float is ``(ref, ref)``), else the dw
    bracket of the compressed operator it bounds, from ``memo``; its tolerance is
    ``tol``, else ``1e-6 (1 + lower end)``. A non-finite end (:class:`NonFiniteReference`)
    or a ``tol`` outside [0, inf) (``ValueError``), which would pass or fail every
    record vacuously, is rejected here.
    """

    reference: tuple[float, float] | float | None = None
    tol: float | None = None
    memo: _Memo = field(default_factory=_Memo)

    def __post_init__(self):
        if self.tol is not None and not 0.0 <= self.tol < np.inf:
            raise ValueError(f"tol must be finite and nonnegative, got {self.tol}")
        if self.reference is not None:
            lower, upper = self.reference = tuple(map(float, np.broadcast_to(self.reference, 2)))
            if not np.isfinite([lower, upper]).all():
                raise NonFiniteReference(
                    f"the dw bracket is [{lower}, {upper}]; no record can be judged")
            self.tol = _tol_for(lower, self.tol)

    def record(self, bounded: np.ndarray, name: str, anchor: str, kind: str, value: float,
               params: dict | None = None) -> BoundRecord:
        """A "lower", "upper" or "exact" bound on dw of the compressed operator ``bounded``.

        With the bracket ``[lower, upper]`` and slack ``tol``, an upper bound holds
        iff ``value >= lower - tol``, a lower bound iff ``value <= upper + tol`` and
        an exact value iff both do. ``reference_dw`` and ``gap`` read the lower end.
        """
        if self.reference is None:
            est = self.memo.dw(bounded)
            lower, upper = est.value, est.value + est.residual
        else:
            lower, upper = self.reference
        value = float(value)
        tol = _tol_for(lower, self.tol)
        holds = {"upper": value >= lower - tol, "lower": value <= upper + tol}
        satisfied = all(holds.values()) if kind == "exact" else holds[kind]
        gap = lower - value if kind == "lower" else value - lower
        return BoundRecord(name, anchor, kind, value, lower, bool(satisfied), float(gap),
                           params or {})


def _sqrt0(x: float) -> float:
    return float(np.sqrt(max(float(x), 0.0)))


def _evaluate(body, m: Metric, operands, reference, tol, *args):
    """A public evaluator: ``body`` on a fresh instance, over the compressed ``operands``.

    Every operand's ``||.||_A`` is checked against ``NORM_MAX`` (:class:`NormOutOfRange`)
    before the body's arithmetic.
    """
    inst = _Instance(reference, tol)
    mats = [compress(m, op) for op in operands]
    for n_mat in mats:
        _check_norm(inst.memo.value(_seminorm_core, n_mat))
    return body(inst, *mats, *args)


# ---------------------------------------------------------------------------
# sandwich and equality diagnostics


def _sandwich(inst: _Instance, n_mat: np.ndarray):
    w_val = inst.memo.value(_w_core, n_mat)
    n_val = inst.memo.value(_seminorm_core, n_mat)
    params = {"w": w_val, "norm": n_val}
    return (inst.record(n_mat, "sandwich lower", "sandwich-lower", "lower",
                        max(w_val, n_val ** 2), params),
            inst.record(n_mat, "sandwich upper", "sandwich-upper", "upper",
                        _sqrt0(w_val ** 2 + n_val ** 4), params))


def sandwich(m: Metric, t, reference=None,
             tol: float | None = None) -> tuple[BoundRecord, BoundRecord]:
    """Two-sided envelope: max(w, ||T||^2) <= dw <= sqrt(w^2 + ||T||^4)."""
    return _evaluate(_sandwich, m, (t,), reference, tol)


@dataclass
class NormaloidDiagnostic:
    """Equality diagnostic for the upper sandwich bound.

    ``upper_tight`` (dw attains sqrt(w^2 + ||T||^4)) and ``is_normaloid``
    (w = ||T||) are equivalent; ``joint witness`` data reports an A-unit
    vector attaining both the seminorm and the numerical radius when the
    equality holds.
    """

    w: float
    norm: float
    dw: float
    sandwich_upper: float
    is_normaloid: bool
    upper_tight: bool
    consistent: bool
    witness_norm_gap: float
    witness_radius_gap: float
    witness: np.ndarray | None


def normaloid_equality_check(m: Metric, t, tol: float = 1e-8) -> NormaloidDiagnostic:
    """Check the A-normaloid equality dw = sqrt(w^2 + ||T||^4) <=> w = ||T||."""
    n_mat = compress(m, t)
    memo = _Memo()
    est = _lift(m, memo.dw(n_mat))
    w_val = memo.value(_w_core, n_mat)
    n_val = memo.value(_seminorm_core, n_mat)
    upper = _sqrt0(w_val ** 2 + n_val ** 4)
    is_normaloid = abs(w_val - n_val) <= tol * (1.0 + n_val)
    upper_tight = abs(est.value - upper) <= tol * (1.0 + upper)
    norm_gap = np.nan
    radius_gap = np.nan
    if est.maximizer.size:
        c = est.maximizer
        norm_gap = abs(float(np.linalg.norm(n_mat @ c)) - n_val)
        radius_gap = abs(abs(form_values(n_mat, c[None, :])[0]) - w_val)
    return NormaloidDiagnostic(
        w=w_val,
        norm=n_val,
        dw=est.value,
        sandwich_upper=upper,
        is_normaloid=bool(is_normaloid),
        upper_tight=bool(upper_tight),
        consistent=bool(is_normaloid == upper_tight),
        witness_norm_gap=float(norm_gap),
        witness_radius_gap=float(radius_gap),
        witness=est.witness,
    )


@dataclass
class ZeroEqualityDiagnostic:
    """Equality diagnostic for the lower sandwich bound: dw = w iff AT = 0."""

    product_norm: float
    dw: float
    w: float
    product_zero: bool
    radii_equal: bool
    consistent: bool


def zero_equality_check(m: Metric, t, tol: float = 1e-8) -> ZeroEqualityDiagnostic:
    """Check dw_A(T) = w_A(T) <=> A T = 0 (both quantities then vanish)."""
    arr = as_operator(t, m.dim)
    at_norm = float(np.linalg.norm(m.a @ arr))
    scale = 1.0 + float(np.linalg.norm(m.a)) * float(np.linalg.norm(arr))
    n_mat = compress(m, arr)
    memo = _Memo()
    dw_val = memo.dw(n_mat).value
    w_val = memo.value(_w_core, n_mat)
    product_zero = at_norm <= tol * scale
    radii_equal = abs(dw_val - w_val) <= tol * (1.0 + dw_val)
    return ZeroEqualityDiagnostic(
        product_norm=at_norm,
        dw=dw_val,
        w=w_val,
        product_zero=bool(product_zero),
        radii_equal=bool(radii_equal),
        consistent=bool(product_zero == radii_equal),
    )


@dataclass
class NormSqDiagnostic:
    """Necessary condition when dw = ||T||^2: seminorm maximizers kill the form."""

    applicable: bool
    dw: float
    norm: float
    max_form_at_maximizers: float
    ok: bool


def norm_sq_equality_check(m: Metric, t, tol: float = 1e-8) -> NormSqDiagnostic:
    """When dw_A(T) = ||T||_A^2, every seminorm maximizer x has <Tx,x>_A = 0.

    The maximizers checked are the right singular vectors of N at the top
    singular value, including the degenerate subspace basis. Skipped (not
    applicable) when the equality hypothesis fails.
    """
    n_mat = compress(m, t)
    memo = _Memo()
    dw_val = memo.dw(n_mat).value
    n_val = memo.value(_seminorm_core, n_mat)
    applicable = abs(dw_val - n_val ** 2) <= max(tol, 1e-6) * (1.0 + dw_val)
    if not applicable or m.rank == 0:
        return NormSqDiagnostic(bool(applicable and m.rank > 0), dw_val, n_val, np.nan,
                                True)
    _, s, vh = np.linalg.svd(n_mat)
    top = s >= s[0] - 1e-8 * (1.0 + s[0])
    witnesses = vh[top].conj()
    forms = np.abs(form_values(n_mat, witnesses))
    max_form = float(forms.max())
    return NormSqDiagnostic(True, dw_val, n_val, max_form,
                            bool(max_form <= tol * (1.0 + n_val ** 2)))


# ---------------------------------------------------------------------------
# lower bounds with Crawford terms


def _lower_crawford(inst: _Instance, n_mat: np.ndarray):
    w_val = inst.memo.value(_w_core, n_mat)
    n_val = inst.memo.value(_seminorm_core, n_mat)
    c_t = inst.memo.value(_crawford_core, n_mat)
    # |T|^2_A compresses to the PSD G = N*N: W(G) = [lambda_min, lambda_max], so
    # c(|T|^2_A) = lambda_min(G) = m_A(T)^2
    c_abs = inst.memo.value(_min_modulus_core, n_mat) ** 2
    params = {"w": w_val, "norm": n_val, "crawford": c_t, "crawford_abs_sq": c_abs}
    squares = (
        ("crawford radius lower", "lower-crawford-radius", w_val ** 2 + c_abs ** 2),
        ("crawford norm lower", "lower-crawford-norm", n_val ** 4 + c_t ** 2),
        ("crawford radius product lower", "lower-crawford-radius-product", 2.0 * w_val * c_abs),
        ("crawford norm product lower", "lower-crawford-norm-product", 2.0 * c_t * n_val ** 2),
    )
    return tuple(inst.record(n_mat, name, anchor, "lower", _sqrt0(sq), params)
                 for name, anchor, sq in squares)


def lower_crawford(m: Metric, t, reference=None, tol: float | None = None):
    """Four Crawford-strengthened lower bounds.

    ``sqrt(w^2 + c(|T|^2)^2)``, ``sqrt(||T||^4 + c(T)^2)``,
    ``sqrt(2 w c(|T|^2))`` and ``sqrt(2 c(T) ||T||^2)``; the first two
    dominate the plain sandwich lower bound.
    """
    return _evaluate(_lower_crawford, m, (t,), reference, tol)


# ---------------------------------------------------------------------------
# theta-sweep upper bound


def _upper_theta_sweep(inst: _Instance, n_mat: np.ndarray) -> BoundRecord:
    if not n_mat.size:
        return inst.record(n_mat, "theta sweep upper", "theta-sweep-upper", "upper", 0.0)
    sup_w, _, evals, *_ = inst.memo.run(_theta_sweep_core, n_mat)
    c_val = inst.memo.value(_crawford_core, n_mat)
    m_val = inst.memo.value(_min_modulus_core, n_mat)
    value = _sqrt0(sup_w ** 2 - 2.0 * c_val * m_val ** 2)
    return inst.record(n_mat, "theta sweep upper", "theta-sweep-upper", "upper", value,
                       {"grid": START_ANGLES, "evals": int(evals), "sup_w": float(sup_w),
                        "crawford": c_val, "min_modulus": m_val, "decoupled_sweep": True})


def upper_theta_sweep(m: Metric, t, reference=None, tol: float | None = None) -> BoundRecord:
    """Upper bound sqrt(sup_theta w^2(e^{i theta}T + |T|^2_A) - 2 c_A(T) m_A(T)^2).

    The inner supremum decouples exactly: compress(|T|^2_A) = G = N*N is
    Hermitian PSD, so sup_theta w(...) = max_psi lambda_max(Re(e^{i psi}N) + G),
    one call of the level-set kernel with shift G (the memo core
    :func:`semidw.radii._theta_sweep_core`); its value is attained and converged to
    rounding, so nothing is under-resolved before the subtraction. ``grid`` is the
    kernel's start grid and ``evals`` its angle count. Its kernel problem is the pi/4
    slice ``sup_w / sqrt(2)`` of the dw bracket, which one memo solves once for both.
    """
    return _evaluate(_upper_theta_sweep, m, (t,), reference, tol)


# ---------------------------------------------------------------------------
# Cartesian-style two-sided bound


def _cartesian_half(inst: _Instance, n_mat: np.ndarray):
    gram = gram_herm(n_mat)
    w_plus = inst.memo.value(_w_core, n_mat + gram)
    w_minus = inst.memo.value(_w_core, n_mat - gram)
    c_minus = inst.memo.value(_crawford_core, n_mat - gram)
    params = {"w_plus": w_plus, "w_minus": w_minus, "crawford_minus": c_minus}
    return (inst.record(n_mat, "cartesian lower", "cartesian-lower", "lower",
                        _sqrt0(0.5 * (w_plus ** 2 + c_minus ** 2)), params),
            inst.record(n_mat, "cartesian upper", "cartesian-upper", "upper",
                        _sqrt0(0.5 * (w_plus ** 2 + w_minus ** 2)), params))


def cartesian_half(m: Metric, t, reference=None,
                   tol: float | None = None) -> tuple[BoundRecord, BoundRecord]:
    """Half-sum bounds through T +- |T|^2_A.

    lower = sqrt((w^2(T+|T|^2) + c^2(T-|T|^2))/2),
    upper = sqrt((w^2(T+|T|^2) + w^2(T-|T|^2))/2).
    """
    return _evaluate(_cartesian_half, m, (t,), reference, tol)


# ---------------------------------------------------------------------------
# Buzano-type upper bounds


def _upper_buzano(inst: _Instance, n_mat: np.ndarray):
    gram = gram_herm(n_mat)
    val_i = _sqrt0(inst.memo.value(_seminorm_core, gram + gram @ gram))
    w_sq = inst.memo.value(_w_core, n_mat @ n_mat)
    n_val = inst.memo.value(_seminorm_core, n_mat)
    val_ii = _sqrt0(0.5 * (w_sq + n_val ** 2) + n_val ** 4)
    params = {"w_square": w_sq, "norm": n_val}
    return (inst.record(n_mat, "buzano modulus upper", "buzano-modulus-upper", "upper", val_i,
                        params),
            inst.record(n_mat, "buzano square upper", "buzano-square-upper", "upper", val_ii,
                        params))


def upper_buzano(m: Metric, t, reference=None,
                 tol: float | None = None) -> tuple[BoundRecord, BoundRecord]:
    """Two upper bounds from the Buzano inequality.

    (i) sqrt(|| |T|^2 + (|T|^2)^# |T|^2 ||_A), tight for A-normaloid T;
    (ii) sqrt((w(T^2) + ||T||^2)/2 + ||T||^4).
    """
    return _evaluate(_upper_buzano, m, (t,), reference, tol)


def _upper_triple(inst: _Instance, n_mat: np.ndarray) -> BoundRecord:
    gram = gram_herm(n_mat)
    core = 3.0 * inst.memo.value(_seminorm_core, gram + gram @ gram)
    sub = 0.0
    parts = {}
    # c and m do not change under M -> -M: the minus term G - N reads N - G
    for label, op in (("plus", n_mat + gram), ("minus", n_mat - gram)):
        c_val = inst.memo.value(_crawford_core, op)
        m_val = inst.memo.value(_min_modulus_core, op)
        sub += c_val * m_val
        parts[f"crawford_{label}"] = c_val
        parts[f"modulus_{label}"] = m_val
    value = _sqrt0(core - sub)
    parts["core"] = core
    return inst.record(n_mat, "triple modulus upper", "triple-modulus-upper", "upper", value,
                       parts)


def upper_triple(m: Metric, t, reference=None, tol: float | None = None) -> BoundRecord:
    """Upper bound 3|| (|T|^2)^# |T|^2 + |T|^2 ||_A minus two Crawford-modulus products."""
    return _evaluate(_upper_triple, m, (t,), reference, tol)


# ---------------------------------------------------------------------------
# scalar-shift upper bounds


def _curvature_floor(norm: float, gram_norm: float) -> float:
    """``M = 2 ||N|| (||N|| + ||G||)``, ``G = N*N``: ``g'' >= -M`` for the lambda-real ``g``.

    ``g(th) = (||C_th + G||^2 + ||C_th - G||^2) / 2``. Each piece ``s v*(C_th +- G) v``
    of the two norms (unit v, sign s) is a sinusoid of amplitude ``|v*Nv| <= ||N||``
    plus a constant, so it bends down by at most ``||N||``, and it is at most ``||N|| +
    ||G||``. The square of a nonnegative piece p bends down by at most ``2 p ||N||``, a
    sup of pieces only adds upward kinks, and g halves two such squares. Certified from
    ``||N||``: an attained ``w`` is not an upper bound on ``|v*Nv|``.
    """
    return 2.0 * norm * (norm + gram_norm)


def _lambda_real_search(n_mat: np.ndarray, norm: float):
    """``(value, certified_upper, angles)`` of the lambda = 0 lambda-real member.

    The member is ``sqrt(sup g)``, ``g(th) = (||C_th + G||^2 + ||C_th - G||^2) / 2`` with
    ``G = N*N``, ``C_th = Re(e^{-i th} N) = cos(th) H + sin(th) J`` (``N = H + iJ``) and
    ``norm = ||N||``.
    ``value`` is the square root of the best attained ``g``, ``certified_upper`` that of
    an upper bound on ``sup g`` (padded for ``eigvalsh`` rounding) within
    ``LAMBDA_REAL_RTOL`` of it, and ``angles`` the sampled angles of ``[0, pi)``, sorted:
    g is pi-periodic, as ``C_{th + pi} = -C_th``.

    Branch and bound on the curvature floor ``g'' >= -M`` of :func:`_curvature_floor`:
    on ``[a, b]``, g is at most its chord plus ``M (th - a)(b - th) / 2``, whose maximum
    is closed-form. The search samples ``START_ANGLES`` angles, runs
    :func:`semidw._optim.newton_max_lockstep` from the three best local maxima, then
    bisects every interval whose bound beats the best value times ``1 +
    LAMBDA_REAL_RTOL``: one stacked ``eigvalsh`` of ``C_th +- G`` per round, each new
    sample that beats the best value polished. As ``sup g >= max(||N||^2 / 4,
    ||N||^4)``, ``M <= 16 sup g``, so an interval closes once its width is at most
    ``sqrt(LAMBDA_REAL_RTOL / 2)``: at most 5 rounds from ``pi / 16``. The search runs
    on ``N, G`` times one exact power of two (:func:`semidw._optim._pow2_units`), so
    g neither underflows nor overflows, and its rounding pad is a multiple of ``eps``.
    The Newton steps differentiate, of each ``C_th +- G``, the extreme eigenvalue of
    larger modulus (the active branch of its norm) by :func:`semidw._optim.eig_jet`, one
    call per matrix, with ``C' = C_{th + pi/2}`` and ``C'' = -C_th``.
    """
    angles = np.arange(START_ANGLES) * (np.pi / START_ANGLES)
    if norm == 0.0:
        return 0.0, 0.0, angles
    (n_unit, gram), e = _pow2_units(n_mat, gram_herm(n_mat))

    def member(thetas):
        c_mat = rotated_herm(n_unit, -thetas)
        vals = np.linalg.eigvalsh(np.stack([c_mat + gram, c_mat - gram]))
        rho = np.maximum(vals[..., -1], -vals[..., 0])
        return 0.5 * rho[0] ** 2 + 0.5 * rho[1] ** 2

    def jets(thetas: np.ndarray, _):
        c_mat, c_prime = np.split(rotated_herm(n_unit, -np.append(thetas, thetas + 0.5 * np.pi)), 2)
        lam, vecs = np.linalg.eigh(np.stack([c_mat + gram, c_mat - gram]))
        out = []
        for j in range(thetas.size):
            # ||C + G|| and ||C - G||, each on the active branch of max(top, -bottom)
            rho = []
            for lam_s, vecs_s in zip(lam[:, j], vecs[:, j]):
                top = lam_s[-1] >= -lam_s[0]
                jet = eig_jet(lam_s, vecs_s, c_mat[j], c_prime[j], -1 if top else 0)
                rho.append(jet if top else [-x for x in jet])
            (a, a1, a2), (b, b1, b2) = rho
            out.append((0.5 * a ** 2 + 0.5 * b ** 2, a * a1 + b * b1,
                        a1 ** 2 + a * a2 + b1 ** 2 + b * b2))
        return zip(*out)

    def polish(thetas, vals, best):
        _, polished = newton_max_lockstep(thetas, jets, NEWTON_STEP_MAX)
        return max(best, float(vals.max()), *polished)

    vals = member(angles)
    # Newton ascents from the three best circular local maxima, each peak once
    local = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    best = polish(angles[local[np.argsort(vals[local])[::-1]][:3]], vals, -np.inf)
    # ||N|| and ||G|| = ||N||^2 in the units; each norm is at most their sum a_max, and
    # eigvalsh leaves it off by about r eps a_max, so g by about 2 r eps a_max^2
    n_u = float(np.ldexp(norm, -e))
    a_max = n_u + n_u * norm
    floor = _curvature_floor(n_u, n_u * norm)
    pad = 8.0 * n_mat.shape[0] * np.finfo(float).eps * a_max * a_max
    lo, hi = angles, np.append(angles[1:], np.pi)
    f_lo, f_hi = vals, np.roll(vals, -1)
    upper, sampled = best, [angles]
    while True:
        width = hi - lo
        # the peak of chord + floor (th - lo)(hi - th) / 2, clamped to the interval
        at = np.clip(0.5 * width + (f_hi - f_lo) / (floor * width), 0.0, width)
        bound = f_lo + (f_hi - f_lo) * (at / width) + 0.5 * floor * at * (width - at) + pad
        split = bound > best * (1.0 + LAMBDA_REAL_RTOL)
        upper = max(upper, float(bound[~split].max(initial=upper)))
        if not split.any():
            break
        lo, hi, f_lo, f_hi = lo[split], hi[split], f_lo[split], f_hi[split]
        mid = 0.5 * (lo + hi)
        f_mid = member(mid)
        sampled.append(mid)
        rise = f_mid > best
        if rise.any():
            best = polish(mid[rise], f_mid, best)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        f_lo, f_hi = np.concatenate([f_lo, f_mid]), np.concatenate([f_mid, f_hi])
    return (float(np.ldexp(np.sqrt(best), e)), float(np.ldexp(np.sqrt(upper), e)),
            np.sort(np.concatenate(sampled)))


def _upper_lambda_theta(inst: _Instance, n_mat: np.ndarray) -> BoundRecord:
    if not n_mat.size:
        return inst.record(n_mat, "lambda real upper", "lambda-real-upper", "upper", 0.0)
    norm = inst.memo.value(_seminorm_core, n_mat)
    value = _lambda_real_search(n_mat, norm)[0]
    # the default grid: 0 and LAMBDA_GRID_POINTS points on [-span, span]; its minimum
    # is 0.0 - span, which is +0.0, not -0.0, at span = 0
    span = 2.0 * norm ** 2
    return inst.record(n_mat, "lambda real upper", "lambda-real-upper", "upper", value,
                       {"lambda_span": [0.0 - span, span],
                        "lambda_points": LAMBDA_GRID_POINTS + 1,
                        "theta_grid": THETA_GRID_BOUNDS,
                        "best_lambda": 0.0,
                        "lambda0_value": value})


def upper_lambda_theta(m: Metric, t, reference=None, tol: float | None = None) -> BoundRecord:
    """Real-shift upper bound: inf over real lambda of a theta-supremum.

    Each member is ``2|l| ||C_th + |T|^2 - l I||_A + (||C_th + |T|^2 - 2l I||_A^2
    + ||C_th - |T|^2||_A^2)/2`` with ``C_th = cos(th) Re_A(T) + sin(th) Im_A(T)``.
    A scalar shift only shifts the spectrum: with ``top``/``bot`` the extreme
    eigenvalues of ``C_th + |T|^2``, ``||C_th + |T|^2 - s I||_A = max(top - s,
    s - bot)``. At every angle the lambda = 0 member ``(||C_th + |T|^2||_A^2 +
    ||C_th - |T|^2||_A^2)/2`` is at most every other member, so the infimum is its
    supremum alone. The params describe the default grid, 0 and ``LAMBDA_GRID_POINTS``
    points on ``[-2||T||_A^2, 2||T||_A^2]``, whose infimum that is: ``best_lambda``
    is 0 and ``lambda0_value`` the value.

    The supremum over th is :func:`_lambda_real_search`, a branch and bound on the
    curvature floor ``g'' >= -M`` of the member ``g`` (:func:`_curvature_floor`): the
    ``START_ANGLES`` angles of a half-turn (the member is pi-periodic in th, as
    ``||C_{th + pi} +- |T|^2||_A = ||C_th -+ |T|^2||_A``), safeguarded Newton ascents
    by :func:`semidw._optim.newton_max_lockstep` from their three best local maxima,
    one stacked ``eigh`` of ``C_th +- |T|^2`` per step, then bisection of every interval
    whose bound could hold a value ``LAMBDA_REAL_RTOL`` above the best attained one,
    one stacked ``eigvalsh`` per round. The member is a max of smooth eigenvalue
    branches whose kinks are convex, so its local maxima are smooth peaks; each
    ``max(.)`` is differentiated on its active branch, an extreme eigenvalue, by
    :func:`semidw._optim.eig_jet`, the kernel's own jet: the mean of its rounding-level
    cluster, smooth where the eigenvalue is multiple. The value is the best attained one.
    ``theta_grid`` is ``THETA_GRID_BOUNDS`` (360), the angle grid the record once
    read, kept so that the default JSON keeps its bytes; the search uses no such grid.
    """
    return _evaluate(_upper_lambda_theta, m, (t,), reference, tol)


def _upper_lambda_complex(inst: _Instance, n_mat: np.ndarray) -> BoundRecord:
    if not n_mat.size:
        return inst.record(n_mat, "lambda complex upper", "lambda-complex-upper", "upper", 0.0)
    w_val = inst.memo.value(_w_core, n_mat)
    # every member is at least the lambda = 0 member, the sandwich upper bound
    value = _sqrt0(w_val ** 2 + inst.memo.value(_seminorm_core, n_mat) ** 4)
    # the default grid: 0, and 8 phases at 5 radii on [0.4 w, 2 w] when w > 0
    return inst.record(n_mat, "lambda complex upper", "lambda-complex-upper", "upper", value,
                       {"grid_size": 1 + 5 * 8 if w_val > 0.0 else 1,
                        "best_lambda": [0.0, 0.0],
                        "lambda0_value": value})


def upper_lambda_complex(m: Metric, t, reference=None, tol: float | None = None) -> BoundRecord:
    """Complex-shift upper bound; the lambda = 0 member is the sandwich upper bound.

    Each member is ``(2||Re(l)Re_A(T) + Im(l)Im_A(T)||_A + || |T|^2 - 2Re_A(conj(l)T) ||_A)^2
    + 2||Re_A(conj(l)T)||_A - |l|^2 + w_A^2(T - l I)`` (A-adjoint reading of
    Re(conj(l)T) throughout). Every member is at least the lambda = 0 member
    ``sqrt(w_A^2(T) + ||T||_A^4)``: with ``R = Re(conj(l)N)``, ``2||R|| + ||G - 2R||
    >= ||G||``, and ``w(N - l)^2 >= |p - l|^2 >= |p|^2 - 2||R|| + |l|^2`` at a point
    ``p`` of W(N) with ``|p| = w``. So the value is the sandwich upper bound, read
    from the memoized ``w_A(T)`` and ``||T||_A`` with no eigensolve of its own. The
    params describe the default grid, 0 and 8 phases at 5 radii on ``[0.4 w_A(T),
    2 w_A(T)]``, whose infimum that is: ``best_lambda`` is 0 and ``lambda0_value``
    the value.
    """
    return _evaluate(_upper_lambda_complex, m, (t,), reference, tol)


# ---------------------------------------------------------------------------
# two-operator bounds


def _cross(n_x: np.ndarray, n_y: np.ndarray) -> np.ndarray:
    """The compressed cross term ``X^# Y + Y^# X`` of the sum split."""
    return n_x.conj().T @ n_y + n_y.conj().T @ n_x


def _sum_upper(inst: _Instance, n_x: np.ndarray, n_y: np.ndarray):
    n_sum = n_x + n_y
    cross = _cross(n_x, n_y)
    w_cross = inst.memo.value(_w_core, cross)
    dw_x, dw_y = inst.memo.dw(n_x).value, inst.memo.dw(n_y).value
    params = {"dw_x": dw_x, "dw_y": dw_y, "w_cross": w_cross}
    primary = inst.record(n_sum, "sum split upper", "sum-split-upper", "upper",
                          dw_x + dw_y + w_cross, params)
    cross_scale = 1.0 + inst.memo.value(_seminorm_core, n_x) * inst.memo.value(_seminorm_core, n_y)
    special = None
    if inst.memo.value(_seminorm_core, cross) <= ORTHOGONAL_TOL * cross_scale:
        special = inst.record(n_sum, "sum split upper (orthogonal)",
                              "sum-split-upper-orthogonal", "upper", dw_x + dw_y, params)
    return primary, special


def sum_upper(m: Metric, x, y, reference=None, tol: float | None = None):
    """Splitting bound dw(X+Y) <= dw(X) + dw(Y) + w(X^# Y + Y^# X).

    When the compressed cross term ``N_X* N_Y + N_Y* N_X`` vanishes (spectral
    norm at most ``ORTHOGONAL_TOL (1 + ||X||_A ||Y||_A)``; equivalently
    ``A (X^# Y + Y^# X) = 0``) the cross term drops and the orthogonal special
    record dw(X) + dw(Y) is also emitted (otherwise ``None``).
    """
    return _evaluate(_sum_upper, m, (x, y), reference, tol)


def _feki_sum_upper(inst: _Instance, n_x: np.ndarray, n_y: np.ndarray) -> BoundRecord:
    s = inst.memo.dw(n_x).value + inst.memo.dw(n_y).value
    return inst.record(n_x + n_y, "feki sum upper", "feki-sum-upper", "upper",
                       _sqrt0(2.0 * s + 4.0 * s ** 2), {"dw_sum": s})


def feki_sum_upper(m: Metric, x, y, reference=None, tol: float | None = None) -> BoundRecord:
    """Coarse splitting bound sqrt(2 s + 4 s^2) with s = dw(X) + dw(Y)."""
    return _evaluate(_feki_sum_upper, m, (x, y), reference, tol)


def _block(n11, n12, n21, n22) -> np.ndarray:
    """A 2x2 block under diag(A, A), compressed: the block of its blocks' compressions."""
    return np.block([[n11, n12], [n21, n22]])


def _offdiag(n_x: np.ndarray, n_y: np.ndarray) -> np.ndarray:
    """The block [[O, X], [Y, O]] under diag(A, A), compressed: [[0, N_X], [N_Y, 0]]."""
    zero = np.zeros_like(n_x)
    return _block(zero, n_x, n_y, zero)


def _offdiag_upper(inst: _Instance, n_x: np.ndarray, n_y: np.ndarray) -> BoundRecord:
    bx = inst.memo.value(_seminorm_core, n_x)
    by = inst.memo.value(_seminorm_core, n_y)
    value = _sqrt0(bx ** 2 / 4.0 + bx ** 4) + _sqrt0(by ** 2 / 4.0 + by ** 4)
    return inst.record(_offdiag(n_x, n_y), "offdiag block upper", "offdiag-block-upper",
                       "upper", value, {"norm_x": bx, "norm_y": by})


def offdiag_upper(m: Metric, x, y, reference=None, tol: float | None = None) -> BoundRecord:
    """Off-diagonal block bound under diag(A, A).

    dw of [[O, X], [Y, O]] <= sqrt(||X||^2/4 + ||X||^4) + sqrt(||Y||^2/4 + ||Y||^4).
    Without a ``reference`` the block's own dw is the reference.
    """
    return _evaluate(_offdiag_upper, m, (x, y), reference, tol)


def exact_checks(m: Metric, x, tol: float | None = None):
    """Closed-form dw of [[I,X],[O,O]] and [[O,X],[O,O]], each an "exact" record.

    Compresses X once; both closed forms and the returned ``||X||_A`` read one
    memoized ``_seminorm_core(N_X)``. Then one :meth:`semidw.radii._Memo.fill` runs
    both blocks' dw brackets in lockstep, each checked against ``NORM_MAX`` before any
    kernel call. Returns ``||X||_A`` and ``(label, closed, bracket, record)`` per block;
    ``bracket`` is the dw bracket ``[value, value + residual]`` of the compressed block
    ``[[I_r or 0, N_X], [0, 0]]``.
    """
    n_x = compress(m, x)
    zero = np.zeros_like(n_x)
    inst = _Instance(tol=tol)
    forms = [_lift(m, inst.memo.estimate(core, n_x, "exact_svd")) for core in (_ix_core, _0x_core)]
    blocks = [_block(top, n_x, zero, zero) for top in (np.eye(m.rank), zero)]
    inst.memo.fill([(_dw_core, blk) for blk in blocks])
    out = []
    for label, closed, blk in zip(("identity", "zero"), forms, blocks):
        bracket = inst.memo.dw(blk)
        out.append((label, closed, bracket, inst.record(
            blk, f"{label} block exact", f"{label}-block-exact", "exact", closed.value,
            {"dw_upper": bracket.value + bracket.residual})))
    return inst.memo.value(_seminorm_core, n_x), out


def _product_sum(inst: _Instance, name: str, anchor: str, n_p, n_q, n_x, n_y, sign: int,
                 pick_t):
    """The balanced product record at ``t = pick_t(||P||, ||Q||, ||PX||, ||QY||)``.

    ``pick_t`` may raise a failed hypothesis before the reference is computed, and
    so does a ``t`` with ``t^2`` or ``1/t^2`` zero or not finite (:class:`ZeroT`).
    Returns the record (params ``t``, ``sign``, ``alpha``) and the four norms, with
    ``value^2 = (t^2||P||^2 + ||Q||^2/t^2)^2 ((t^2||PX||^2 + ||QY||^2/t^2)^2 + alpha^2)``;
    squares are products, so a value that overflows is a vacuous +inf upper bound.
    """
    norms = tuple(inst.memo.value(_seminorm_core, op) for op in (n_p, n_q, n_p @ n_x, n_q @ n_y))
    t = float(pick_t(*norms))
    t2 = t * t
    if not (0.0 < t2 < np.inf and 1.0 / t2 < np.inf):  # nan fails too
        raise ZeroT(f"balance parameter t must have finite nonzero t^2 and 1/t^2, got {t!r}")
    sgn = 1 if sign >= 0 else -1
    alpha = inst.memo.value(_w_core, _offdiag(n_x, n_y))
    norm_p, norm_q, norm_px, norm_qy = norms
    f1 = t2 * (norm_p * norm_p) + (norm_q * norm_q) / t2
    f2 = t2 * (norm_px * norm_px) + (norm_qy * norm_qy) / t2
    root = _sqrt0(f2 * f2 + alpha * alpha)
    # a zero root bounds the zero operator: 0, also where f1 overflows
    value = f1 * root if root else 0.0
    op = n_p @ n_x @ n_q.conj().T + sgn * (n_q @ n_y @ n_p.conj().T)
    return inst.record(op, name, anchor, "upper", value,
                       {"t": t, "sign": sgn, "alpha": alpha}), norms


def _balancing(i: int, label: str):
    """The rule ``t = sqrt(norms[i + 1] / norms[i])``; a zero norm fails its hypothesis."""

    def pick_t(*norms):
        if norms[i] == 0.0 or norms[i + 1] == 0.0:
            raise DegenerateNorm(f"{label} must be nonzero")
        return np.sqrt(norms[i + 1] / norms[i])

    return pick_t


def _product_sum_upper(inst: _Instance, n_p, n_q, n_x, n_y, t: float, sign: int) -> BoundRecord:
    rec, norms = _product_sum(inst, "product sum upper", "product-sum-upper",
                              n_p, n_q, n_x, n_y, sign, lambda *_: t)
    rec.params.update(zip(("norm_p", "norm_q", "norm_px", "norm_qy"), norms))
    return rec


def product_sum_upper(m: Metric, p, q, x, y, t: float, sign: int = 1, reference=None,
                      tol: float | None = None) -> BoundRecord:
    """Balanced product bound for dw(P X Q^# +- Q Y P^#).

    value^2 = (t^2||P||^2 + ||Q||^2/t^2)^2 ((t^2||PX||^2 + ||QY||^2/t^2)^2 + alpha^2)
    with alpha the block numerical radius of [[O, X], [Y, O]] under diag(A, A).
    """
    return _evaluate(_product_sum_upper, m, (p, q, x, y), reference, tol, t, sign)


def _product_sum_upper_b(inst: _Instance, n_p, n_q, n_x, n_y, sign: int = 1) -> BoundRecord:
    return _product_sum(inst, "product sum balanced upper", "product-sum-balanced-upper",
                        n_p, n_q, n_x, n_y, sign, _balancing(0, "||P||_A and ||Q||_A"))[0]


def product_sum_upper_b(m: Metric, p, q, x, y, sign: int = 1, reference=None,
                        tol: float | None = None) -> BoundRecord:
    """Product bound at the norm-balancing t = sqrt(||Q||/||P||).

    value^2 = 4||P||^2||Q||^2 ((||P||/||Q||) ||QY||^2 + (||Q||/||P||) ||PX||^2)^2 + ...,
    equal to :func:`product_sum_upper` at that t.
    """
    return _evaluate(_product_sum_upper_b, m, (p, q, x, y), reference, tol, sign)


def _product_sum_upper_c(inst: _Instance, n_p, n_q, n_x, n_y, sign: int = 1) -> BoundRecord:
    return _product_sum(inst, "product sum aligned upper", "product-sum-aligned-upper",
                        n_p, n_q, n_x, n_y, sign, _balancing(2, "||PX||_A and ||QY||_A"))[0]


def product_sum_upper_c(m: Metric, p, q, x, y, sign: int = 1, reference=None,
                        tol: float | None = None) -> BoundRecord:
    """Product bound at the image-balancing t = sqrt(||QY||/||PX||).

    value^2 = ((||QY||/||PX||)||P||^2 + (||PX||/||QY||)||Q||^2)^2
    (4||PX||^2||QY||^2 + alpha^2), equal to :func:`product_sum_upper` at that t.
    """
    return _evaluate(_product_sum_upper_c, m, (p, q, x, y), reference, tol, sign)


# ---------------------------------------------------------------------------
# report assembly


def _sha16(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _report_instance(brackets, tol: float | None, cores) -> _Instance:
    """The instance of a report on ``brackets[0]``, judging by its dw bracket.

    ``brackets`` are the compressed matrices whose dw brackets the report reads: its
    own, then its operands' and blocks'. ``tol`` is checked first, then their
    ``||.||_A`` against ``NORM_MAX``: their ``NormOutOfRange`` precedes every other
    eigensolve, and every product whose norm could overflow. Then one
    :meth:`semidw.radii._Memo.fill` runs the brackets and the kernel-backed
    ``cores(*brackets)``, ``(core, matrix)`` pairs: its first kernel call per order solves
    the cores' problems with the brackets' ``w`` and pi/4 lines.
    """
    inst = _Instance(tol=tol)
    for op in brackets:
        _check_norm(inst.memo.value(_seminorm_core, op))
    inst.memo.fill([*((_dw_core, op) for op in brackets), *cores(*brackets)])
    est = inst.memo.dw(brackets[0])
    return replace(inst, reference=(est.value, est.value + est.residual))


def _catalog_cores(n_mat: np.ndarray) -> list:
    """The kernel-backed reads of the catalog: ``w`` of N, N +- G and N^2, theta-sweep's
    ``sup_w`` of N (the pi/4 line of N's dw bracket) and ``c`` of N and N +- G (G = N*N),
    the matrices the bodies form."""
    gram = gram_herm(n_mat)
    plus, minus = n_mat + gram, n_mat - gram
    return [(_w_core, n_mat), (_w_core, plus), (_w_core, minus), (_w_core, n_mat @ n_mat),
            (_theta_sweep_core, n_mat), (_crawford_core, n_mat), (_crawford_core, plus),
            (_crawford_core, minus)]


def _pair_cores(n_sum: np.ndarray, n_x: np.ndarray, n_y: np.ndarray, block: np.ndarray) -> list:
    """The kernel-backed reads of a pair report beyond its brackets' lines: ``w`` of the
    cross term of the sum split and of the offdiag ``block`` (the product records'
    alpha, read even when the block is zero)."""
    return [(_w_core, _cross(n_x, n_y)), (_w_core, block)]


def _run(records: list[BoundRecord], ref: float, body, inst: _Instance, *args) -> None:
    """Append the records of one evaluator body.

    A failed hypothesis (``DegenerateNorm``, ``ZeroT``) becomes one "not-applicable"
    record, named after the public evaluator: the body's name without the underscore.
    """
    try:
        out = body(inst, *args)
    except (DegenerateNorm, ZeroT) as exc:
        name = body.__name__.lstrip("_")
        out = BoundRecord(name, name, "upper", np.nan, ref, None, np.nan,
                          {"reason": str(exc)}, "not-applicable")
    records.extend([out] if isinstance(out, BoundRecord) else (r for r in out if r is not None))


def _report(m: Metric, operators: dict, inst: _Instance, seed: int,
            records: list[BoundRecord]) -> VerificationReport:
    ok = all(rec.satisfied for rec in records if rec.status == "ok")
    instance = {"dim": m.dim, "rank": m.rank, "metric_sha": _sha16(m.a)}
    instance.update((key, _sha16(arr)) for key, arr in operators.items())
    return VerificationReport(instance, None, None, *inst.reference, inst.tol, records,
                              bool(ok), int(seed))


def pair_report(m: Metric, x, y, seed: int = 42, tol: float | None = None) -> VerificationReport:
    """Evaluate the two-operator bound family for dw(X + Y).

    Records: the splitting bound (with its orthogonal special case when the
    cross term is A-null), the coarse quadratic splitting bound, the
    off-diagonal block bound, and the two balanced product corollaries at
    P = Q = I. Raises :class:`NormOutOfRange` when ``||X||_A``, ``||Y||_A``
    or ``||X + Y||_A`` is above ``NORM_MAX``.
    """
    xa = as_operator(x, m.dim)
    ya = as_operator(y, m.dim)
    n_x, n_y, n_eye = compress(m, xa), compress(m, ya), compress(m, np.eye(m.dim))
    inst = _report_instance((compress(m, xa + ya), n_x, n_y, _offdiag(n_x, n_y)), tol,
                            _pair_cores)
    records: list[BoundRecord] = []
    for body, *args in ((_sum_upper, inst, n_x, n_y), (_feki_sum_upper, inst, n_x, n_y),
                        # the block's own dw bracket judges the offdiag record
                        (_offdiag_upper, replace(inst, reference=None, tol=tol), n_x, n_y),
                        (_product_sum_upper_b, inst, n_eye, n_eye, n_x, n_y),
                        (_product_sum_upper_c, inst, n_eye, n_eye, n_x, n_y)):
        _run(records, inst.reference[0], body, *args)
    return _report(m, {"operator_sha": xa, "operator2_sha": ya}, inst, seed, records)


def verify_all(m: Metric, t, seed: int = 42, tol: float | None = None) -> VerificationReport:
    """Evaluate the full single-operator bound catalog on one instance.

    The reference dw is the lower end of the certified dw bracket, which the
    report carries with its upper end. Raises :class:`NormOutOfRange` when
    ``||T||_A`` is above ``NORM_MAX``.
    """
    arr = as_operator(t, m.dim)
    n_mat = compress(m, arr)
    inst = _report_instance((n_mat,), tol, _catalog_cores)
    records: list[BoundRecord] = []
    for body in (_sandwich, _lower_crawford, _upper_theta_sweep, _cartesian_half,
                 _upper_buzano, _upper_triple, _upper_lambda_theta, _upper_lambda_complex):
        _run(records, inst.reference[0], body, inst, n_mat)
    return _report(m, {"operator_sha": arr}, inst, seed, records)
