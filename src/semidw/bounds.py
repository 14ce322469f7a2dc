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
and builds every estimate. A public evaluator compresses its operands and runs
its body on a fresh instance; a report runs every body on one memo.

Angle suprema of one eigenvalue (``w``, ``c``, the theta-sweep bound and the
``w(N - lambda I)`` of a lambda-complex member) come from the level-set kernel
:func:`semidw._optim.rotated_eig_max`, whose value is attained and converged
to rounding, so an inner supremum is never under-resolved before a
subtraction. The lambda-real members, which are not one eigenvalue, are a
360-angle grid, one spectrum per angle (the grid angle half a turn on gives
the ``C_theta - |T|^2`` term), plus golden-section refinement, whose searches
for a batch of members run in lockstep on one stacked eigensolve per step;
infima over scalar parameters are documented grids, which can only loosen
an upper bound and never invalidate it. Records store the grids used so
every reported value is reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from ._optim import START_ANGLES, golden_max_lockstep, gram_herm, herm_parts, rotated_eig_max
from .errors import DegenerateNorm, NonFiniteReference, ZeroT
from .exact import _0x_core, _ix_core
from .metric import Metric, as_operator, compress
from .radii import (_crawford_core, _lift, _Memo, _min_modulus_core, _seminorm_core,
                    _start_support, _w_core, form_values)

LAMBDA_GRID_POINTS = 41
#: angle grid of the lambda-real members (even: a grid angle plus pi is one too)
THETA_GRID_BOUNDS = 360
#: golden-section bracket width of the lambda-real refinement: near a smooth peak
#: the member error is quadratic in the angle error, so 1e-8 in angle resolves
#: the value to rounding
SWEEP_BRACKET_TOL = 1e-8
#: lambda-real members refined per lockstep batch: the one-at-a-time rule refines
#: exactly four (lambda = 0 and three more) in 208 of the 228 calls of the bench
#: instances of seeds 1-3, and at most eight
LAMBDA_REAL_BATCH = 4
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
    return _sandwich(_Instance(reference, tol), compress(m, t))


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
    return _lower_crawford(_Instance(reference, tol), compress(m, t))


# ---------------------------------------------------------------------------
# theta-sweep upper bound


def _upper_theta_sweep(inst: _Instance, n_mat: np.ndarray) -> BoundRecord:
    if not n_mat.size:
        return inst.record(n_mat, "theta sweep upper", "theta-sweep-upper", "upper", 0.0)
    _, sup_w, evals, _, _ = rotated_eig_max(n_mat, -1, gram_herm(n_mat))
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
    one call of the level-set kernel with shift G; its value is attained and
    converged to rounding, so nothing is under-resolved before the subtraction.
    ``grid`` is the kernel's start grid and ``evals`` its angle count.
    """
    return _upper_theta_sweep(_Instance(reference, tol), compress(m, t))


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
    return _cartesian_half(_Instance(reference, tol), compress(m, t))


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
    return _upper_buzano(_Instance(reference, tol), compress(m, t))


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
    return _upper_triple(_Instance(reference, tol), compress(m, t))


# ---------------------------------------------------------------------------
# scalar-shift upper bounds

#: members within this relative distance of the minimum count as tied
TIE_RTOL = 1e-12


def _pruned_min(lambda_grid: np.ndarray, lower: np.ndarray, refine, batch: int = 1):
    """Minimum over a parameter grid of refined members ``refine(idx)[k] >= lower[idx[k]]``.

    The lambda = 0 member, if on the grid, is refined first; the others are
    refined in ascending order of their lower bounds until the next lower
    bound reaches the best refined member. ``refine`` takes a list of up to
    ``batch`` indices, the next ones in that order. A batch may run past the
    member where the one-at-a-time rule stops; that does not change the
    result, since each member past it is at least its lower bound, which is
    at least ``best`` (and more than ``TIE_RTOL`` above it unless lambda = 0
    ties). Returns ``(best, index, zero_member)`` (``zero_member`` is None
    without a 0 on the grid).
    Members can be exactly constant along the grid, so ``index`` is that of
    lambda = 0 when its member is within ``TIE_RTOL`` relative of ``best``,
    else the lowest index that is: unless lambda = 0 ties, every member whose
    lower bound is that close is refined, and the argmin never depends on
    rounding noise.
    """
    zeros = np.flatnonzero(lambda_grid == 0.0)
    zero = int(zeros[0]) if zeros.size else None
    order = [int(i) for i in np.argsort(lower) if i != zero]
    if zero is not None:
        order.insert(0, zero)
    refined, best = {}, np.inf

    def done(i: int) -> bool:
        if i == zero or lower[i] < best:
            return False
        # no member from here on lowers ``best``, but one within TIE_RTOL can
        # still tie, which matters only when the lambda = 0 member does not
        zero_ties = zero is not None and refined[zero] - best <= TIE_RTOL * abs(best)
        return zero_ties or lower[i] - best > TIE_RTOL * abs(best)

    pos = 0
    while pos < len(order) and not done(order[pos]):
        chunk = order[pos:pos + batch]
        refined.update(zip(chunk, refine(chunk)))
        best = min(best, *(refined[i] for i in chunk))
        pos += len(chunk)
    ties = [i for i, v in refined.items() if v - best <= TIE_RTOL * abs(best)]
    return best, (zero if zero in ties else min(ties)), refined.get(zero)


def _lambda_grid(lambda_grid, dtype):
    """``lambda_grid`` as an array of ``dtype`` (None: the default); ValueError unless 1-D,
    nonempty and finite."""
    grid = None if lambda_grid is None else np.asarray(lambda_grid, dtype=dtype)
    if grid is not None and (grid.ndim != 1 or not grid.size or not np.isfinite(grid).all()):
        raise ValueError(f"lambda_grid must be a nonempty 1-D array of finite numbers: {grid!r}")
    return grid


def _upper_lambda_theta(inst: _Instance, n_mat: np.ndarray, lambda_grid=None) -> BoundRecord:
    lambda_grid = _lambda_grid(lambda_grid, float)
    if not n_mat.size:
        return inst.record(n_mat, "lambda real upper", "lambda-real-upper", "upper", 0.0)
    gram = gram_herm(n_mat)
    h_mat, j_mat = herm_parts(n_mat)
    n_val = inst.memo.value(_seminorm_core, n_mat)
    if lambda_grid is None:
        span = 2.0 * n_val ** 2
        lambda_grid = np.concatenate([[0.0], np.linspace(-span, span, LAMBDA_GRID_POINTS)])

    def members(lam, top, bot, rho_minus):
        # lam broadcasts against the angles
        rho1 = np.maximum(top - lam, lam - bot)
        rho2 = np.maximum(top - 2.0 * lam, 2.0 * lam - bot)
        return 2.0 * np.abs(lam) * rho1 + 0.5 * rho2 ** 2 + 0.5 * rho_minus ** 2

    def c_theta(angles):
        return np.cos(angles)[:, None, None] * h_mat + np.sin(angles)[:, None, None] * j_mat

    thetas = np.linspace(0.0, 2.0 * np.pi, THETA_GRID_BOUNDS, endpoint=False)
    # C_{theta + pi} = -C_theta, so C_theta - G = -(C_{theta + pi} + G): the
    # spectrum half a turn on gives rho_minus, one eigensolve per grid angle
    vals = np.linalg.eigvalsh(c_theta(thetas) + gram)
    top, bot = vals[:, -1], vals[:, 0]
    half = THETA_GRID_BOUNDS // 2
    rho_minus = np.maximum(-np.roll(bot, -half), np.roll(top, -half))
    grid_members = members(lambda_grid[:, None], top, bot, rho_minus)
    grid_sups = grid_members.max(axis=1)
    # (top, bot, rho_minus) per refined angle: the golden searches of members that
    # agree near their maxima visit the same angles, and each is solved once
    seen = {}
    step = 2.0 * np.pi / THETA_GRID_BOUNDS

    def refined_sups(chunk: list[int]) -> list[float]:
        # golden-section searches, in lockstep, on the grid cells around the
        # three best circular local maxima of each member's grid row
        owner, centers = [], []
        for pos, i in enumerate(chunk):
            row = grid_members[i]
            local = np.flatnonzero((row >= np.roll(row, 1)) & (row >= np.roll(row, -1)))
            peaks = local[np.argsort(row[local])[::-1]][:3]
            owner.extend([pos] * peaks.size)
            centers.append(thetas[peaks])
        owner, centers = np.asarray(owner), np.concatenate(centers)
        lams = lambda_grid[chunk][owner]

        def values(xs: np.ndarray, k: np.ndarray) -> np.ndarray:
            angles = xs.tolist()
            new = [x for x in dict.fromkeys(angles) if x not in seen]
            if new:
                c_new = c_theta(np.asarray(new))
                ev = np.linalg.eigvalsh(np.stack([c_new + gram, c_new - gram]))
                rho = np.maximum(ev[1, :, -1], -ev[1, :, 0])
                seen.update(zip(new, np.stack([ev[0, :, -1], ev[0, :, 0], rho], 1).tolist()))
            return members(lams[k], *np.array([seen[x] for x in angles]).T)

        sups = golden_max_lockstep(centers - step, centers + step, values, SWEEP_BRACKET_TOL)
        return [max(float(grid_sups[i]), *sups[owner == pos].tolist())
                for pos, i in enumerate(chunk)]

    best, best_i, lambda0_sup = _pruned_min(lambda_grid, grid_sups, refined_sups,
                                            LAMBDA_REAL_BATCH)
    best_lam = float(lambda_grid[best_i])
    lambda0_val = None if lambda0_sup is None else _sqrt0(lambda0_sup)
    value = _sqrt0(best)
    return inst.record(n_mat, "lambda real upper", "lambda-real-upper", "upper", value,
                       {"lambda_span": [float(lambda_grid.min()), float(lambda_grid.max())],
                        "lambda_points": int(lambda_grid.size),
                        "theta_grid": THETA_GRID_BOUNDS,
                        "best_lambda": best_lam, "lambda0_value": lambda0_val})


def upper_lambda_theta(m: Metric, t, lambda_grid=None, reference=None,
                       tol: float | None = None) -> BoundRecord:
    """Real-shift upper bound: inf over real lambda of a theta-supremum.

    Each member is ``2|l| ||C_th + |T|^2 - l I||_A + (||C_th + |T|^2 - 2l I||_A^2
    + ||C_th - |T|^2||_A^2)/2`` with ``C_th = cos(th) Re_A(T) + sin(th) Im_A(T)``.
    A scalar shift only shifts the spectrum: with ``top``/``bot`` the extreme
    eigenvalues of ``C_th + |T|^2``, ``||C_th + |T|^2 - s I||_A = max(top - s,
    s - bot)``, so one eigensolve per angle serves every lambda. On the
    ``THETA_GRID_BOUNDS``-angle grid that is one spectrum per angle:
    ``C_{th + pi} = -C_th``, so ``C_th - |T|^2`` is the negated ``C + |T|^2``
    of the grid angle half a turn on. The members whose grid suprema fall
    below the best refined member are refined by golden-section searches
    around the three best grid maxima of each, ``LAMBDA_REAL_BATCH`` members
    at a time in lockstep: one stacked eigensolve per step, once per distinct
    angle.

    The lambda = 0 member is always refined and recorded in the params. On
    part of the grid the members are exactly constant (``2l(top - l) +
    (top - 2l)^2/2 = top^2/2``), so ``best_lambda`` is reported as 0.0 when
    the lambda = 0 member is within 1e-12 relative of the minimum (otherwise
    the first grid point that is); ``value`` is the minimum itself.
    """
    return _upper_lambda_theta(_Instance(reference, tol), compress(m, t), lambda_grid)


def _upper_lambda_complex(inst: _Instance, n_mat: np.ndarray,
                          lambda_grid=None) -> BoundRecord:
    lambda_grid = _lambda_grid(lambda_grid, complex)
    if not n_mat.size:
        return inst.record(n_mat, "lambda complex upper", "lambda-complex-upper", "upper", 0.0)
    gram = gram_herm(n_mat)
    h_mat, j_mat = herm_parts(n_mat)
    w_val = inst.memo.value(_w_core, n_mat)
    if lambda_grid is None:
        lams = [0.0 + 0.0j]
        if w_val > 0.0:
            radii_vals = np.linspace(0.4 * w_val, 2.0 * w_val, 5)
            phases = np.exp(2j * np.pi * np.arange(8) / 8.0)
            lams.extend((r * p for r in radii_vals for p in phases))
        lambda_grid = np.asarray(lams, dtype=complex)

    # support points p_k = x_k* N x_k of W(N), x_k the top eigenvectors of
    # Re(e^{i theta_k} N): p_k - lam lies in W(N - lam I), so |p_k - lam| <= w(N - lam I)
    # (the memoized start spectrum of the Crawford short cut)
    support = inst.memo.run(_start_support, n_mat)[1]

    # Re(conj(l)N) = Re(l)H + Im(l)J serves both the a- and the c-term
    re_shift = (lambda_grid.real[:, None, None] * h_mat
                + lambda_grid.imag[:, None, None] * j_mat)
    vals = np.linalg.eigvalsh(np.stack([re_shift, gram - 2.0 * re_shift]))
    rho_shift, b_term = np.maximum(vals[..., -1], -vals[..., 0])
    fixed_terms = (2.0 * rho_shift + b_term) ** 2 + 2.0 * rho_shift - np.abs(lambda_grid) ** 2
    members_low = fixed_terms + (np.abs(support[None, :] - lambda_grid[:, None]) ** 2).max(axis=1)

    def refined_member(chunk: list[int]) -> list[float]:
        # lambda = 0 reads N itself: the memoized w of the sandwich and Crawford records
        (i,) = chunk
        lam = complex(lambda_grid[i])
        shifted = n_mat if lam == 0.0 else n_mat - lam * np.eye(n_mat.shape[0])
        return [float(fixed_terms[i] + inst.memo.value(_w_core, shifted) ** 2)]

    best, best_i, lambda0_member = _pruned_min(lambda_grid, members_low, refined_member)
    best_lam = complex(lambda_grid[best_i])
    lambda0_val = None if lambda0_member is None else _sqrt0(lambda0_member)
    value = _sqrt0(best)
    return inst.record(n_mat, "lambda complex upper", "lambda-complex-upper", "upper", value,
                       {"grid_size": int(lambda_grid.size),
                        "best_lambda": [best_lam.real, best_lam.imag],
                        "lambda0_value": lambda0_val})


def upper_lambda_complex(m: Metric, t, lambda_grid=None, reference=None,
                         tol: float | None = None) -> BoundRecord:
    """Complex-shift upper bound; the lambda = 0 member is the sandwich upper bound.

    Each member is ``(2||Re(l)Re_A(T) + Im(l)Im_A(T)||_A + || |T|^2 - 2Re_A(conj(l)T) ||_A)^2
    + 2||Re_A(conj(l)T)||_A - |l|^2 + w_A^2(T - l I)`` (A-adjoint reading of
    Re(conj(l)T) throughout). ``w_A(T - l I)`` is one call of the level-set
    kernel; at l = 0 it is the memoized ``w_A(T)`` of the sandwich records.
    A member is computed only while its lower bound, with ``max_k |p_k - l|``
    for ``w_A(T - l I)``, is below the best one: ``p_k = x_k* N x_k`` are points
    of the numerical range at the top eigenvectors of ``Re(e^{i theta_k} N)``
    on the kernel's start angles. ``best_lambda`` follows the tie rule of
    :func:`upper_lambda_theta`: 0 when its member is within 1e-12 relative of
    the minimum, else the first grid point that is.
    """
    return _upper_lambda_complex(_Instance(reference, tol), compress(m, t), lambda_grid)


# ---------------------------------------------------------------------------
# two-operator bounds


def _sum_upper(inst: _Instance, n_x: np.ndarray, n_y: np.ndarray):
    n_sum = n_x + n_y
    cross = n_x.conj().T @ n_y + n_y.conj().T @ n_x
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
    return _sum_upper(_Instance(reference, tol), compress(m, x), compress(m, y))


def _feki_sum_upper(inst: _Instance, n_x: np.ndarray, n_y: np.ndarray) -> BoundRecord:
    s = inst.memo.dw(n_x).value + inst.memo.dw(n_y).value
    return inst.record(n_x + n_y, "feki sum upper", "feki-sum-upper", "upper",
                       _sqrt0(2.0 * s + 4.0 * s ** 2), {"dw_sum": s})


def feki_sum_upper(m: Metric, x, y, reference=None, tol: float | None = None) -> BoundRecord:
    """Coarse splitting bound sqrt(2 s + 4 s^2) with s = dw(X) + dw(Y)."""
    return _feki_sum_upper(_Instance(reference, tol), compress(m, x), compress(m, y))


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
    return _offdiag_upper(_Instance(reference, tol), compress(m, x), compress(m, y))


def exact_checks(m: Metric, x, tol: float | None = None):
    """Closed-form dw of [[I,X],[O,O]] and [[O,X],[O,O]], each an "exact" record.

    Compresses X once; both closed forms and the returned ``||X||_A`` read one
    memoized ``_seminorm_core(N_X)``. Returns ``||X||_A`` and ``(label, closed,
    bracket, record)`` per block; ``bracket`` is the dw bracket ``[value, value +
    residual]`` of the compressed block ``[[I_r or 0, N_X], [0, 0]]``.
    """
    n_x = compress(m, x)
    zero = np.zeros_like(n_x)
    inst = _Instance(tol=tol)
    out = []
    for label, top, core in (("identity", np.eye(m.rank), _ix_core), ("zero", zero, _0x_core)):
        closed = _lift(m, inst.memo.estimate(core, n_x, "exact_svd"))
        blk = _block(top, n_x, zero, zero)
        bracket = inst.memo.dw(blk)
        out.append((label, closed, bracket, inst.record(
            blk, f"{label} block exact", f"{label}-block-exact", "exact", closed.value,
            {"dw_upper": bracket.value + bracket.residual})))
    return inst.memo.value(_seminorm_core, n_x), out


def _product_sum(inst: _Instance, name: str, anchor: str, n_p, n_q, n_x, n_y, sign: int,
                 pick_t):
    """The balanced product record at ``t = pick_t(||P||, ||Q||, ||PX||, ||QY||)``.

    ``pick_t`` may raise a failed hypothesis before the reference is
    computed. Returns the record (params ``t``, ``sign``, ``alpha``) and the
    four norms, with ``value^2 = (t^2||P||^2 + ||Q||^2/t^2)^2
    ((t^2||PX||^2 + ||QY||^2/t^2)^2 + alpha^2)``.
    """
    norms = tuple(inst.memo.value(_seminorm_core, op) for op in (n_p, n_q, n_p @ n_x, n_q @ n_y))
    t = float(pick_t(*norms))
    sgn = 1 if sign >= 0 else -1
    alpha = inst.memo.value(_w_core, _offdiag(n_x, n_y))
    norm_p, norm_q, norm_px, norm_qy = norms
    t2 = t ** 2
    f1 = t2 * norm_p ** 2 + norm_q ** 2 / t2
    f2 = t2 * norm_px ** 2 + norm_qy ** 2 / t2
    op = n_p @ n_x @ n_q.conj().T + sgn * (n_q @ n_y @ n_p.conj().T)
    return inst.record(op, name, anchor, "upper", f1 * _sqrt0(f2 ** 2 + alpha ** 2),
                       {"t": t, "sign": sgn, "alpha": alpha}), norms


def _balancing(i: int, label: str):
    """The rule ``t = sqrt(norms[i + 1] / norms[i])``; a zero norm fails its hypothesis."""

    def pick_t(*norms):
        if norms[i] == 0.0 or norms[i + 1] == 0.0:
            raise DegenerateNorm(f"{label} must be nonzero")
        return np.sqrt(norms[i + 1] / norms[i])

    return pick_t


def product_sum_upper(m: Metric, p, q, x, y, t: float, sign: int = 1, reference=None,
                      tol: float | None = None) -> BoundRecord:
    """Balanced product bound for dw(P X Q^# +- Q Y P^#).

    value^2 = (t^2||P||^2 + ||Q||^2/t^2)^2 ((t^2||PX||^2 + ||QY||^2/t^2)^2 + alpha^2)
    with alpha the block numerical radius of [[O, X], [Y, O]] under diag(A, A).
    """
    if t == 0.0:
        raise ZeroT("balance parameter t must be nonzero")
    rec, norms = _product_sum(_Instance(reference, tol), "product sum upper",
                              "product-sum-upper", *(compress(m, op) for op in (p, q, x, y)),
                              sign, lambda *_: t)
    rec.params.update(zip(("norm_p", "norm_q", "norm_px", "norm_qy"), norms))
    return rec


def _product_sum_upper_b(inst: _Instance, n_p, n_q, n_x, n_y, sign: int = 1) -> BoundRecord:
    return _product_sum(inst, "product sum balanced upper", "product-sum-balanced-upper",
                        n_p, n_q, n_x, n_y, sign, _balancing(0, "||P||_A and ||Q||_A"))[0]


def product_sum_upper_b(m: Metric, p, q, x, y, sign: int = 1, reference=None,
                        tol: float | None = None) -> BoundRecord:
    """Product bound at the norm-balancing t = sqrt(||Q||/||P||).

    value^2 = 4||P||^2||Q||^2 ((||P||/||Q||) ||QY||^2 + (||Q||/||P||) ||PX||^2)^2 + ...,
    equal to :func:`product_sum_upper` at that t.
    """
    return _product_sum_upper_b(_Instance(reference, tol),
                                *(compress(m, op) for op in (p, q, x, y)), sign)


def _product_sum_upper_c(inst: _Instance, n_p, n_q, n_x, n_y, sign: int = 1) -> BoundRecord:
    return _product_sum(inst, "product sum aligned upper", "product-sum-aligned-upper",
                        n_p, n_q, n_x, n_y, sign, _balancing(2, "||PX||_A and ||QY||_A"))[0]


def product_sum_upper_c(m: Metric, p, q, x, y, sign: int = 1, reference=None,
                        tol: float | None = None) -> BoundRecord:
    """Product bound at the image-balancing t = sqrt(||QY||/||PX||).

    value^2 = ((||QY||/||PX||)||P||^2 + (||PX||/||QY||)||Q||^2)^2
    (4||PX||^2||QY||^2 + alpha^2), equal to :func:`product_sum_upper` at that t.
    """
    return _product_sum_upper_c(_Instance(reference, tol),
                                *(compress(m, op) for op in (p, q, x, y)), sign)


# ---------------------------------------------------------------------------
# report assembly


def _sha16(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _report_instance(n_mat: np.ndarray, operands, tol: float | None) -> _Instance:
    """The instance of a report on ``n_mat``, judging by its dw bracket. ``tol`` is checked
    first, then the dws of ``n_mat`` and the operands: their ``NormOutOfRange`` precedes
    every record."""
    inst = _Instance(tol=tol)
    est = inst.memo.dw(n_mat)
    for op in operands:
        inst.memo.dw(op)
    return replace(inst, reference=(est.value, est.value + est.residual))


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
    inst = _report_instance(compress(m, xa + ya), (n_x, n_y), tol)
    records: list[BoundRecord] = []
    for body, *args in ((_sum_upper, inst, n_x, n_y), (_feki_sum_upper, inst, n_x, n_y),
                        # the block's own dw bracket judges the offdiag record
                        (_offdiag_upper, replace(inst, reference=None), n_x, n_y),
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
    inst = _report_instance(n_mat, (), tol)
    records: list[BoundRecord] = []
    for body in (_sandwich, _lower_crawford, _upper_theta_sweep, _cartesian_half,
                 _upper_buzano, _upper_triple, _upper_lambda_theta, _upper_lambda_complex):
        _run(records, inst.reference[0], body, inst, n_mat)
    return _report(m, {"operator_sha": arr}, inst, seed, records)
