"""Bound evaluators for the A-Davis-Wielandt radius.

Every inequality is evaluated as a named :class:`BoundRecord` against a
reference ``dw_A`` value (multistart ascent, optionally oracle-confirmed).
:func:`verify_all` runs the whole single-operator catalog and assembles a
:class:`VerificationReport` certifying lower <= dw_A <= upper per record.

Each bound is a formula over radii-core values of products of compressed
matrices (``|T|^2_A`` is ``N*N``, ``X^# Y`` is ``N_X* N_Y``: compression is a
*-homomorphism, see :mod:`semidw.metric`), read from one :class:`_Instance`
that computes each value once. A public evaluator compresses its operands
and runs its body on a fresh instance; a report runs every body on one memo.

Angle suprema of one eigenvalue (``w``, ``c``, the theta-sweep bound and the
``w(N - lambda I)`` of a lambda-complex member) come from the level-set kernel
:func:`semidw._optim.rotated_eig_max`, whose value is attained and converged
to rounding, so an inner supremum is never under-resolved before a
subtraction. The lambda-real members, which are not one eigenvalue, are a
360-angle grid plus golden-section refinement; infima over scalar parameters
are documented grids, which can only loosen an upper bound and never
invalidate it. Records store the grids used so every reported value is
reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from ._optim import (START_ANGLES, gram_herm, herm_parts, refine_periodic_max, rotated_eig_max,
                     rotated_herm_batch)
from .errors import DegenerateNorm, NonFiniteReference, ZeroT
from .metric import Metric, as_operator, compress
from .radii import (
    DEFAULT_SEED,
    DW_STARTS,
    _crawford_core,
    _dw_core,
    _min_modulus_core,
    _oracle_core,
    _seminorm_core,
    _w_core,
    dw_radius,
    form_values,
)

LAMBDA_GRID_POINTS = 41
#: angle grid of the lambda-real members
THETA_GRID_BOUNDS = 360
SWEEP_BRACKET_TOL = 1e-10
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
    """One evaluated bound: value, reference dw, satisfied flag and gap.

    ``gap`` is ``reference_dw - value`` for lower bounds and
    ``value - reference_dw`` for upper bounds, so nonnegative means the
    inequality holds; ``satisfied`` allows slack ``-tol``. Exact records
    require ``|gap| <= tol``. ``status`` is "ok" or "not-applicable" (a
    hypothesis of the theorem fails).
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
    """All records of one instance plus the reference dw and oracle data."""

    instance: dict
    dw_multistart: float
    dw_oracle: float | None
    reference_dw: float
    tol: float
    records: list[BoundRecord]
    overall_pass: bool
    seed: int


def _tol_for(ref: float, tol: float | None) -> float:
    return 1e-6 * (1.0 + ref) if tol is None else float(tol)


@dataclass
class _Instance:
    """The memo, reference rule and tolerance of one report.

    ``memo`` maps ``(core, shape, bytes, args)`` to the core's output. A record's
    reference is ``reference``, else the multistart dw of the compressed
    operator it bounds; its tolerance is ``tol``, else ``1e-6 (1 + reference)``.
    """

    seed: int
    reference: float | None = None
    tol: float | None = None
    memo: dict = field(default_factory=dict)

    def _run(self, core, n_mat: np.ndarray, *args, extra=()):
        """``core(n_mat, *args, *extra)``, computed once per ``(core, n_mat, args)``."""
        key = (core, n_mat.shape, n_mat.tobytes(), args)
        if key not in self.memo:
            self.memo[key] = core(n_mat, *args, *extra)
        return self.memo[key]

    def value(self, core, n_mat: np.ndarray, *args) -> float:
        """Value of a radii core on a compressed matrix; 0 on a rank-zero metric."""
        return float(self._run(core, n_mat, *args)[0]) if n_mat.size else 0.0

    def dw(self, n_mat: np.ndarray) -> float:
        """Multistart dw; the memoized w witness of ``n_mat`` is one of its starts."""
        if not n_mat.size:
            return 0.0
        w_start = self._run(_w_core, n_mat)[1]
        return float(self._run(_dw_core, n_mat, self.seed, extra=(DW_STARTS, w_start))[0])

    def record(self, bounded: np.ndarray, name: str, anchor: str, kind: str, value: float,
               params: dict | None = None) -> BoundRecord:
        """A "lower" or "upper" bound on dw of the compressed operator ``bounded``."""
        ref = self.dw(bounded) if self.reference is None else float(self.reference)
        value = float(value)
        gap = value - ref if kind == "upper" else ref - value
        return BoundRecord(name, anchor, kind, value, ref, bool(gap >= -_tol_for(ref, self.tol)),
                           float(gap), params or {})


def _sqrt0(x: float) -> float:
    return float(np.sqrt(max(float(x), 0.0)))


# ---------------------------------------------------------------------------
# sandwich and equality diagnostics


def _sandwich(inst: _Instance, n_mat: np.ndarray):
    w_val = inst.value(_w_core, n_mat)
    n_val = inst.value(_seminorm_core, n_mat)
    params = {"w": w_val, "norm": n_val}
    return (inst.record(n_mat, "sandwich lower", "sandwich-lower", "lower",
                        max(w_val, n_val ** 2), params),
            inst.record(n_mat, "sandwich upper", "sandwich-upper", "upper",
                        _sqrt0(w_val ** 2 + n_val ** 4), params))


def sandwich(m: Metric, t, reference=None, tol: float | None = None,
             seed: int = DEFAULT_SEED) -> tuple[BoundRecord, BoundRecord]:
    """Two-sided envelope: max(w, ||T||^2) <= dw <= sqrt(w^2 + ||T||^4)."""
    return _sandwich(_Instance(seed, reference, tol), compress(m, t))


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


def normaloid_equality_check(m: Metric, t, tol: float = 1e-8,
                             seed: int = DEFAULT_SEED) -> NormaloidDiagnostic:
    """Check the A-normaloid equality dw = sqrt(w^2 + ||T||^4) <=> w = ||T||."""
    est = dw_radius(m, t, seed=seed)
    n_mat = compress(m, t)
    value = _Instance(seed).value
    w_val = value(_w_core, n_mat)
    n_val = value(_seminorm_core, n_mat)
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


def zero_equality_check(m: Metric, t, tol: float = 1e-8,
                        seed: int = DEFAULT_SEED) -> ZeroEqualityDiagnostic:
    """Check dw_A(T) = w_A(T) <=> A T = 0 (both quantities then vanish)."""
    arr = as_operator(t, m.dim)
    at_norm = float(np.linalg.norm(m.a @ arr))
    scale = 1.0 + float(np.linalg.norm(m.a)) * float(np.linalg.norm(arr))
    n_mat = compress(m, arr)
    inst = _Instance(seed)
    dw_val = inst.dw(n_mat)
    w_val = inst.value(_w_core, n_mat)
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


def norm_sq_equality_check(m: Metric, t, tol: float = 1e-8,
                           seed: int = DEFAULT_SEED) -> NormSqDiagnostic:
    """When dw_A(T) = ||T||_A^2, every seminorm maximizer x has <Tx,x>_A = 0.

    The maximizers checked are the right singular vectors of N at the top
    singular value, including the degenerate subspace basis. Skipped (not
    applicable) when the equality hypothesis fails.
    """
    n_mat = compress(m, t)
    inst = _Instance(seed)
    dw_val = inst.dw(n_mat)
    n_val = inst.value(_seminorm_core, n_mat)
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
    w_val = inst.value(_w_core, n_mat)
    n_val = inst.value(_seminorm_core, n_mat)
    c_t = inst.value(_crawford_core, n_mat)
    c_abs = inst.value(_crawford_core, gram_herm(n_mat))
    params = {"w": w_val, "norm": n_val, "crawford": c_t, "crawford_abs_sq": c_abs}
    squares = (
        ("crawford radius lower", "lower-crawford-radius", w_val ** 2 + c_abs ** 2),
        ("crawford norm lower", "lower-crawford-norm", n_val ** 4 + c_t ** 2),
        ("crawford radius product lower", "lower-crawford-radius-product", 2.0 * w_val * c_abs),
        ("crawford norm product lower", "lower-crawford-norm-product", 2.0 * c_t * n_val ** 2),
    )
    return tuple(inst.record(n_mat, name, anchor, "lower", _sqrt0(sq), params)
                 for name, anchor, sq in squares)


def lower_crawford(m: Metric, t, reference=None, tol: float | None = None,
                   seed: int = DEFAULT_SEED):
    """Four Crawford-strengthened lower bounds.

    ``sqrt(w^2 + c(|T|^2)^2)``, ``sqrt(||T||^4 + c(T)^2)``,
    ``sqrt(2 w c(|T|^2))`` and ``sqrt(2 c(T) ||T||^2)``; the first two
    dominate the plain sandwich lower bound.
    """
    return _lower_crawford(_Instance(seed, reference, tol), compress(m, t))


# ---------------------------------------------------------------------------
# theta-sweep upper bound


def _upper_theta_sweep(inst: _Instance, n_mat: np.ndarray) -> BoundRecord:
    if not n_mat.size:
        return inst.record(n_mat, "theta sweep upper", "theta-sweep-upper", "upper", 0.0)
    _, sup_w, evals = rotated_eig_max(n_mat, -1, gram_herm(n_mat))
    c_val = inst.value(_crawford_core, n_mat)
    m_val = inst.value(_min_modulus_core, n_mat)
    value = _sqrt0(sup_w ** 2 - 2.0 * c_val * m_val ** 2)
    return inst.record(n_mat, "theta sweep upper", "theta-sweep-upper", "upper", value,
                       {"grid": START_ANGLES, "evals": int(evals), "sup_w": float(sup_w),
                        "crawford": c_val, "min_modulus": m_val, "decoupled_sweep": True})


def upper_theta_sweep(m: Metric, t, reference=None, tol: float | None = None,
                      seed: int = DEFAULT_SEED) -> BoundRecord:
    """Upper bound sqrt(sup_theta w^2(e^{i theta}T + |T|^2_A) - 2 c_A(T) m_A(T)^2).

    The inner supremum decouples exactly: compress(|T|^2_A) = G = N*N is
    Hermitian PSD, so sup_theta w(...) = max_psi lambda_max(Re(e^{i psi}N) + G),
    one call of the level-set kernel with shift G; its value is attained and
    converged to rounding, so nothing is under-resolved before the subtraction.
    ``grid`` is the kernel's start grid and ``evals`` its angle count.
    """
    return _upper_theta_sweep(_Instance(seed, reference, tol), compress(m, t))


# ---------------------------------------------------------------------------
# Cartesian-style two-sided bound


def _cartesian_half(inst: _Instance, n_mat: np.ndarray):
    gram = gram_herm(n_mat)
    w_plus = inst.value(_w_core, n_mat + gram)
    w_minus = inst.value(_w_core, n_mat - gram)
    c_minus = inst.value(_crawford_core, n_mat - gram)
    params = {"w_plus": w_plus, "w_minus": w_minus, "crawford_minus": c_minus}
    return (inst.record(n_mat, "cartesian lower", "cartesian-lower", "lower",
                        _sqrt0(0.5 * (w_plus ** 2 + c_minus ** 2)), params),
            inst.record(n_mat, "cartesian upper", "cartesian-upper", "upper",
                        _sqrt0(0.5 * (w_plus ** 2 + w_minus ** 2)), params))


def cartesian_half(m: Metric, t, reference=None, tol: float | None = None,
                   seed: int = DEFAULT_SEED) -> tuple[BoundRecord, BoundRecord]:
    """Half-sum bounds through T +- |T|^2_A.

    lower = sqrt((w^2(T+|T|^2) + c^2(T-|T|^2))/2),
    upper = sqrt((w^2(T+|T|^2) + w^2(T-|T|^2))/2).
    """
    return _cartesian_half(_Instance(seed, reference, tol), compress(m, t))


# ---------------------------------------------------------------------------
# Buzano-type upper bounds


def _upper_buzano(inst: _Instance, n_mat: np.ndarray):
    gram = gram_herm(n_mat)
    val_i = _sqrt0(inst.value(_seminorm_core, gram + gram @ gram))
    w_sq = inst.value(_w_core, n_mat @ n_mat)
    n_val = inst.value(_seminorm_core, n_mat)
    val_ii = _sqrt0(0.5 * (w_sq + n_val ** 2) + n_val ** 4)
    params = {"w_square": w_sq, "norm": n_val}
    return (inst.record(n_mat, "buzano modulus upper", "buzano-modulus-upper", "upper", val_i,
                        params),
            inst.record(n_mat, "buzano square upper", "buzano-square-upper", "upper", val_ii,
                        params))


def upper_buzano(m: Metric, t, reference=None, tol: float | None = None,
                 seed: int = DEFAULT_SEED) -> tuple[BoundRecord, BoundRecord]:
    """Two upper bounds from the Buzano inequality.

    (i) sqrt(|| |T|^2 + (|T|^2)^# |T|^2 ||_A), tight for A-normaloid T;
    (ii) sqrt((w(T^2) + ||T||^2)/2 + ||T||^4).
    """
    return _upper_buzano(_Instance(seed, reference, tol), compress(m, t))


def _upper_triple(inst: _Instance, n_mat: np.ndarray) -> BoundRecord:
    gram = gram_herm(n_mat)
    core = 3.0 * inst.value(_seminorm_core, gram + gram @ gram)
    sub = 0.0
    parts = {}
    # c and m do not change under M -> -M: the minus term G - N reads N - G
    for label, op in (("plus", n_mat + gram), ("minus", n_mat - gram)):
        c_val = inst.value(_crawford_core, op)
        m_val = inst.value(_min_modulus_core, op)
        sub += c_val * m_val
        parts[f"crawford_{label}"] = c_val
        parts[f"modulus_{label}"] = m_val
    value = _sqrt0(core - sub)
    parts["core"] = core
    return inst.record(n_mat, "triple modulus upper", "triple-modulus-upper", "upper", value,
                       parts)


def upper_triple(m: Metric, t, reference=None, tol: float | None = None,
                 seed: int = DEFAULT_SEED) -> BoundRecord:
    """Upper bound 3|| (|T|^2)^# |T|^2 + |T|^2 ||_A minus two Crawford-modulus products."""
    return _upper_triple(_Instance(seed, reference, tol), compress(m, t))


# ---------------------------------------------------------------------------
# scalar-shift upper bounds

#: members within this relative distance of the minimum count as tied
TIE_RTOL = 1e-12


def _pruned_min(lambda_grid: np.ndarray, lower: np.ndarray, refine):
    """Minimum over a parameter grid of refined members ``refine(i) >= lower[i]``.

    The lambda = 0 member, if on the grid, is refined first; the others are
    refined in ascending order of their lower bounds until the next lower
    bound reaches the best refined member. Returns ``(best, index,
    zero_member)`` (``zero_member`` is None without a 0 on the grid).
    Members can be exactly constant along the grid, so ``index`` is that of
    lambda = 0 when its member is within ``TIE_RTOL`` relative of ``best``,
    else the lowest index that is: unless lambda = 0 ties, every member whose
    lower bound is that close is refined, and the argmin never depends on
    rounding noise.
    """
    zeros = np.flatnonzero(lambda_grid == 0.0)
    zero = int(zeros[0]) if zeros.size else None
    refined = {} if zero is None else {zero: refine(zero)}
    best = min(refined.values(), default=np.inf)
    for i in np.argsort(lower):
        if lower[i] >= best:
            # no member from here on lowers ``best``, but one within TIE_RTOL can
            # still tie, which matters only when the lambda = 0 member does not
            zero_ties = zero is not None and refined[zero] - best <= TIE_RTOL * abs(best)
            if zero_ties or lower[i] - best > TIE_RTOL * abs(best):
                break
        i = int(i)
        if i not in refined:
            refined[i] = refine(i)
            best = min(best, refined[i])
    ties = [i for i, v in refined.items() if v - best <= TIE_RTOL * abs(best)]
    return best, (zero if zero in ties else min(ties)), refined.get(zero)


def _upper_lambda_theta(inst: _Instance, n_mat: np.ndarray, lambda_grid=None) -> BoundRecord:
    if not n_mat.size:
        return inst.record(n_mat, "lambda real upper", "lambda-real-upper", "upper", 0.0)
    gram = gram_herm(n_mat)
    h_mat, j_mat = herm_parts(n_mat)
    n_val = inst.value(_seminorm_core, n_mat)
    if lambda_grid is None:
        span = 2.0 * n_val ** 2
        lambda_grid = np.concatenate([[0.0], np.linspace(-span, span, LAMBDA_GRID_POINTS)])
    lambda_grid = np.asarray(lambda_grid, dtype=float)

    def spectra(cth):
        # cth: one angle (r, r) or a stack (k, r, r); the lambda-free (top, bot, rho_minus)
        vals = np.linalg.eigvalsh(np.stack([cth + gram, cth - gram]))
        return vals[0, ..., -1], vals[0, ..., 0], np.maximum(vals[1, ..., -1], -vals[1, ..., 0])

    def members(lam, top, bot, rho_minus):
        # lam broadcasts against the angles
        rho1 = np.maximum(top - lam, lam - bot)
        rho2 = np.maximum(top - 2.0 * lam, 2.0 * lam - bot)
        return 2.0 * np.abs(lam) * rho1 + 0.5 * rho2 ** 2 + 0.5 * rho_minus ** 2

    thetas = np.linspace(0.0, 2.0 * np.pi, THETA_GRID_BOUNDS, endpoint=False)
    cth = (np.cos(thetas)[:, None, None] * h_mat
           + np.sin(thetas)[:, None, None] * j_mat)
    grid_members = members(lambda_grid[:, None], *spectra(cth))
    grid_sups = grid_members.max(axis=1)
    # the golden searches of members that agree near their maxima visit the same
    # angles: one eigensolve per distinct angle serves every lambda
    seen = {}

    def at_angle(th: float):
        if th not in seen:
            seen[th] = spectra(np.cos(th) * h_mat + np.sin(th) * j_mat)
        return seen[th]

    def refined_sup(i: int) -> float:
        lam = float(lambda_grid[i])
        _, sup, _ = refine_periodic_max(
            thetas, grid_members[i], lambda th: float(members(lam, *at_angle(th))),
            2.0 * np.pi, top_k=3, tol=SWEEP_BRACKET_TOL)
        return max(sup, float(grid_sups[i]))

    best, best_i, lambda0_sup = _pruned_min(lambda_grid, grid_sups, refined_sup)
    best_lam = float(lambda_grid[best_i])
    lambda0_val = None if lambda0_sup is None else _sqrt0(lambda0_sup)
    value = _sqrt0(best)
    return inst.record(n_mat, "lambda real upper", "lambda-real-upper", "upper", value,
                       {"lambda_span": [float(lambda_grid.min()), float(lambda_grid.max())],
                        "lambda_points": int(lambda_grid.size),
                        "theta_grid": THETA_GRID_BOUNDS,
                        "best_lambda": best_lam, "lambda0_value": lambda0_val})


def upper_lambda_theta(m: Metric, t, lambda_grid=None, reference=None,
                       tol: float | None = None, seed: int = DEFAULT_SEED) -> BoundRecord:
    """Real-shift upper bound: inf over real lambda of a theta-supremum.

    Each member is ``2|l| ||C_th + |T|^2 - l I||_A + (||C_th + |T|^2 - 2l I||_A^2
    + ||C_th - |T|^2||_A^2)/2`` with ``C_th = cos(th) Re_A(T) + sin(th) Im_A(T)``.
    A scalar shift only shifts the spectrum: with ``top``/``bot`` the extreme
    eigenvalues of ``C_th + |T|^2``, ``||C_th + |T|^2 - s I||_A = max(top - s,
    s - bot)``, so one eigensolve per angle serves every lambda: on a
    ``THETA_GRID_BOUNDS``-angle grid, then once per distinct angle of the
    golden-section refinements of the members whose grid suprema fall below
    the best refined member.

    The lambda = 0 member is always refined and recorded in the params. On
    part of the grid the members are exactly constant (``2l(top - l) +
    (top - 2l)^2/2 = top^2/2``), so ``best_lambda`` is reported as 0.0 when
    the lambda = 0 member is within 1e-12 relative of the minimum (otherwise
    the first grid point that is); ``value`` is the minimum itself.
    """
    return _upper_lambda_theta(_Instance(seed, reference, tol), compress(m, t), lambda_grid)


def _upper_lambda_complex(inst: _Instance, n_mat: np.ndarray,
                          lambda_grid=None) -> BoundRecord:
    if not n_mat.size:
        return inst.record(n_mat, "lambda complex upper", "lambda-complex-upper", "upper", 0.0)
    gram = gram_herm(n_mat)
    h_mat, j_mat = herm_parts(n_mat)
    w_val = inst.value(_w_core, n_mat)
    if lambda_grid is None:
        lams = [0.0 + 0.0j]
        if w_val > 0.0:
            radii_vals = np.linspace(0.4 * w_val, 2.0 * w_val, 5)
            phases = np.exp(2j * np.pi * np.arange(8) / 8.0)
            lams.extend((r * p for r in radii_vals for p in phases))
        lambda_grid = np.asarray(lams, dtype=complex)
    lambda_grid = np.asarray(lambda_grid, dtype=complex)

    # support points p_k = x_k* N x_k of W(N), x_k the top eigenvectors of
    # Re(e^{i theta_k} N): p_k - lam lies in W(N - lam I), so |p_k - lam| <= w(N - lam I)
    thetas = np.linspace(0.0, 2.0 * np.pi, START_ANGLES, endpoint=False)
    tops = np.linalg.eigh(rotated_herm_batch(n_mat, thetas))[1][..., -1]
    support = form_values(n_mat, tops)

    # Re(conj(l)N) = Re(l)H + Im(l)J serves both the a- and the c-term
    re_shift = (lambda_grid.real[:, None, None] * h_mat
                + lambda_grid.imag[:, None, None] * j_mat)
    vals = np.linalg.eigvalsh(np.stack([re_shift, gram - 2.0 * re_shift]))
    rho_shift, b_term = np.maximum(vals[..., -1], -vals[..., 0])
    fixed_terms = (2.0 * rho_shift + b_term) ** 2 + 2.0 * rho_shift - np.abs(lambda_grid) ** 2
    members_low = fixed_terms + (np.abs(support[None, :] - lambda_grid[:, None]) ** 2).max(axis=1)

    def refined_member(i: int) -> float:
        # lambda = 0 reads N itself: the memoized w of the sandwich and Crawford records
        lam = complex(lambda_grid[i])
        shifted = n_mat if lam == 0.0 else n_mat - lam * np.eye(n_mat.shape[0])
        return float(fixed_terms[i] + inst.value(_w_core, shifted) ** 2)

    best, best_i, lambda0_member = _pruned_min(lambda_grid, members_low, refined_member)
    best_lam = complex(lambda_grid[best_i])
    lambda0_val = None if lambda0_member is None else _sqrt0(lambda0_member)
    value = _sqrt0(best)
    return inst.record(n_mat, "lambda complex upper", "lambda-complex-upper", "upper", value,
                       {"grid_size": int(lambda_grid.size),
                        "best_lambda": [best_lam.real, best_lam.imag],
                        "lambda0_value": lambda0_val})


def upper_lambda_complex(m: Metric, t, lambda_grid=None, reference=None,
                         tol: float | None = None, seed: int = DEFAULT_SEED) -> BoundRecord:
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
    return _upper_lambda_complex(_Instance(seed, reference, tol), compress(m, t), lambda_grid)


# ---------------------------------------------------------------------------
# two-operator bounds


def _sum_upper(inst: _Instance, n_x: np.ndarray, n_y: np.ndarray):
    n_sum = n_x + n_y
    cross = n_x.conj().T @ n_y + n_y.conj().T @ n_x
    w_cross = inst.value(_w_core, cross)
    dw_x, dw_y = inst.dw(n_x), inst.dw(n_y)
    params = {"dw_x": dw_x, "dw_y": dw_y, "w_cross": w_cross}
    primary = inst.record(n_sum, "sum split upper", "sum-split-upper", "upper",
                          dw_x + dw_y + w_cross, params)
    cross_scale = 1.0 + inst.value(_seminorm_core, n_x) * inst.value(_seminorm_core, n_y)
    special = None
    if inst.value(_seminorm_core, cross) <= ORTHOGONAL_TOL * cross_scale:
        special = inst.record(n_sum, "sum split upper (orthogonal)",
                              "sum-split-upper-orthogonal", "upper", dw_x + dw_y, params)
    return primary, special


def sum_upper(m: Metric, x, y, reference=None, tol: float | None = None,
              seed: int = DEFAULT_SEED):
    """Splitting bound dw(X+Y) <= dw(X) + dw(Y) + w(X^# Y + Y^# X).

    When the compressed cross term ``N_X* N_Y + N_Y* N_X`` vanishes (spectral
    norm at most ``ORTHOGONAL_TOL (1 + ||X||_A ||Y||_A)``; equivalently
    ``A (X^# Y + Y^# X) = 0``) the cross term drops and the orthogonal special
    record dw(X) + dw(Y) is also emitted (otherwise ``None``).
    """
    return _sum_upper(_Instance(seed, reference, tol), compress(m, x), compress(m, y))


def _feki_sum_upper(inst: _Instance, n_x: np.ndarray, n_y: np.ndarray) -> BoundRecord:
    s = inst.dw(n_x) + inst.dw(n_y)
    return inst.record(n_x + n_y, "feki sum upper", "feki-sum-upper", "upper",
                       _sqrt0(2.0 * s + 4.0 * s ** 2), {"dw_sum": s})


def feki_sum_upper(m: Metric, x, y, reference=None, tol: float | None = None,
                   seed: int = DEFAULT_SEED) -> BoundRecord:
    """Coarse splitting bound sqrt(2 s + 4 s^2) with s = dw(X) + dw(Y)."""
    return _feki_sum_upper(_Instance(seed, reference, tol), compress(m, x), compress(m, y))


def _offdiag(n_x: np.ndarray, n_y: np.ndarray) -> np.ndarray:
    """The block [[O, X], [Y, O]] under diag(A, A), compressed: [[0, N_X], [N_Y, 0]]."""
    zero = np.zeros_like(n_x)
    return np.block([[zero, n_x], [n_y, zero]])


def _offdiag_upper(inst: _Instance, n_x: np.ndarray, n_y: np.ndarray) -> BoundRecord:
    bx = inst.value(_seminorm_core, n_x)
    by = inst.value(_seminorm_core, n_y)
    value = _sqrt0(bx ** 2 / 4.0 + bx ** 4) + _sqrt0(by ** 2 / 4.0 + by ** 4)
    return inst.record(_offdiag(n_x, n_y), "offdiag block upper", "offdiag-block-upper",
                       "upper", value, {"norm_x": bx, "norm_y": by})


def offdiag_upper(m: Metric, x, y, reference=None, tol: float | None = None,
                  seed: int = DEFAULT_SEED) -> BoundRecord:
    """Off-diagonal block bound under diag(A, A).

    dw of [[O, X], [Y, O]] <= sqrt(||X||^2/4 + ||X||^4) + sqrt(||Y||^2/4 + ||Y||^4).
    Without a ``reference`` the block's own dw is the reference.
    """
    return _offdiag_upper(_Instance(seed, reference, tol), compress(m, x), compress(m, y))


def _product_sum(inst: _Instance, name: str, anchor: str, n_p, n_q, n_x, n_y, sign: int,
                 pick_t):
    """The balanced product record at ``t = pick_t(||P||, ||Q||, ||PX||, ||QY||)``.

    ``pick_t`` may raise a failed hypothesis before the reference is
    computed. Returns the record (params ``t``, ``sign``, ``alpha``) and the
    four norms, with ``value^2 = (t^2||P||^2 + ||Q||^2/t^2)^2
    ((t^2||PX||^2 + ||QY||^2/t^2)^2 + alpha^2)``.
    """
    norms = tuple(inst.value(_seminorm_core, op) for op in (n_p, n_q, n_p @ n_x, n_q @ n_y))
    t = float(pick_t(*norms))
    sgn = 1 if sign >= 0 else -1
    alpha = inst.value(_w_core, _offdiag(n_x, n_y))
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
                      tol: float | None = None, seed: int = DEFAULT_SEED) -> BoundRecord:
    """Balanced product bound for dw(P X Q^# +- Q Y P^#).

    value^2 = (t^2||P||^2 + ||Q||^2/t^2)^2 ((t^2||PX||^2 + ||QY||^2/t^2)^2 + alpha^2)
    with alpha the block numerical radius of [[O, X], [Y, O]] under diag(A, A).
    """
    if t == 0.0:
        raise ZeroT("balance parameter t must be nonzero")
    rec, norms = _product_sum(_Instance(seed, reference, tol), "product sum upper",
                              "product-sum-upper", *(compress(m, op) for op in (p, q, x, y)),
                              sign, lambda *_: t)
    rec.params.update(zip(("norm_p", "norm_q", "norm_px", "norm_qy"), norms))
    return rec


def _product_sum_upper_b(inst: _Instance, n_p, n_q, n_x, n_y, sign: int = 1) -> BoundRecord:
    return _product_sum(inst, "product sum balanced upper", "product-sum-balanced-upper",
                        n_p, n_q, n_x, n_y, sign, _balancing(0, "||P||_A and ||Q||_A"))[0]


def product_sum_upper_b(m: Metric, p, q, x, y, sign: int = 1, reference=None,
                        tol: float | None = None, seed: int = DEFAULT_SEED) -> BoundRecord:
    """Product bound at the norm-balancing t = sqrt(||Q||/||P||).

    value^2 = 4||P||^2||Q||^2 ((||P||/||Q||) ||QY||^2 + (||Q||/||P||) ||PX||^2)^2 + ...,
    equal to :func:`product_sum_upper` at that t.
    """
    return _product_sum_upper_b(_Instance(seed, reference, tol),
                                *(compress(m, op) for op in (p, q, x, y)), sign)


def _product_sum_upper_c(inst: _Instance, n_p, n_q, n_x, n_y, sign: int = 1) -> BoundRecord:
    return _product_sum(inst, "product sum aligned upper", "product-sum-aligned-upper",
                        n_p, n_q, n_x, n_y, sign, _balancing(2, "||PX||_A and ||QY||_A"))[0]


def product_sum_upper_c(m: Metric, p, q, x, y, sign: int = 1, reference=None,
                        tol: float | None = None, seed: int = DEFAULT_SEED) -> BoundRecord:
    """Product bound at the image-balancing t = sqrt(||QY||/||PX||).

    value^2 = ((||QY||/||PX||)||P||^2 + (||PX||/||QY||)||Q||^2)^2
    (4||PX||^2||QY||^2 + alpha^2), equal to :func:`product_sum_upper` at that t.
    """
    return _product_sum_upper_c(_Instance(seed, reference, tol),
                                *(compress(m, op) for op in (p, q, x, y)), sign)


# ---------------------------------------------------------------------------
# report assembly


def _sha16(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _report_instance(n_mat: np.ndarray, operands, seed: int, oracle_samples: int,
                     tol: float | None) -> tuple[_Instance, float, float | None]:
    """``(instance, multistart, oracle)`` of a report on ``n_mat``.

    The reference dw is the multistart estimate, raised to the oracle's at rank
    <= 6. The dws of ``n_mat`` and the operands come first: their ``NormOutOfRange``
    precedes every record. A non-finite estimate raises
    :class:`NonFiniteReference`: against it every gap would pass vacuously.
    """
    inst = _Instance(seed)
    est = inst.dw(n_mat)
    for op in operands:
        inst.dw(op)
    oracle_val: float | None = None
    if 0 < n_mat.shape[0] <= 6:
        oracle_val = inst.value(_oracle_core, n_mat, "dw", oracle_samples, seed)
    for label, val in (("multistart", est), ("oracle", oracle_val)):
        if val is not None and not np.isfinite(val):
            raise NonFiniteReference(f"the {label} dw is {val}; no record can be judged")
    inst.reference = max(est, oracle_val) if oracle_val is not None else est
    inst.tol = _tol_for(inst.reference, tol)
    return inst, est, oracle_val


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


def _report(m: Metric, operators: dict, inst: _Instance, est: float,
            oracle_val: float | None, records: list[BoundRecord]) -> VerificationReport:
    ok = all(rec.satisfied for rec in records if rec.status == "ok")
    instance = {"dim": m.dim, "rank": m.rank, "metric_sha": _sha16(m.a)}
    instance.update((key, _sha16(arr)) for key, arr in operators.items())
    return VerificationReport(instance, est, oracle_val, inst.reference, inst.tol, records,
                              bool(ok), int(inst.seed))


def pair_report(m: Metric, x, y, seed: int = 42, oracle_samples: int = 8192,
                tol: float | None = None) -> VerificationReport:
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
    inst, est, oracle_val = _report_instance(compress(m, xa + ya), (n_x, n_y), seed,
                                             oracle_samples, tol)
    records: list[BoundRecord] = []
    for body, *args in ((_sum_upper, inst, n_x, n_y), (_feki_sum_upper, inst, n_x, n_y),
                        # the block's own dw is the offdiag reference
                        (_offdiag_upper, replace(inst, reference=None), n_x, n_y),
                        (_product_sum_upper_b, inst, n_eye, n_eye, n_x, n_y),
                        (_product_sum_upper_c, inst, n_eye, n_eye, n_x, n_y)):
        _run(records, inst.reference, body, *args)
    return _report(m, {"operator_sha": xa, "operator2_sha": ya}, inst, est, oracle_val,
                   records)


def verify_all(m: Metric, t, seed: int = 42, oracle_samples: int = 8192,
               tol: float | None = None) -> VerificationReport:
    """Evaluate the full single-operator bound catalog on one instance.

    The reference dw is the multistart estimate, oracle-confirmed when the
    compressed rank admits the sampling oracle. Raises
    :class:`NormOutOfRange` when ``||T||_A`` is above ``NORM_MAX``.
    """
    arr = as_operator(t, m.dim)
    n_mat = compress(m, arr)
    inst, est, oracle_val = _report_instance(n_mat, (), seed, oracle_samples, tol)
    records: list[BoundRecord] = []
    for body in (_sandwich, _lower_crawford, _upper_theta_sweep, _cartesian_half,
                 _upper_buzano, _upper_triple, _upper_lambda_theta, _upper_lambda_complex):
        _run(records, inst.reference, body, inst, n_mat)
    return _report(m, {"operator_sha": arr}, inst, est, oracle_val, records)
