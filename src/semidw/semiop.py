"""A-adjoint calculus and operator-class predicates.

The A-adjoint of ``T`` is ``T^# = A^dagger T* A``, the unique solution of
``A X = T* A`` with range inside ``range(A)``; it exists exactly when
``range(T* A) <= range(A)``. On top of it: Cartesian decomposition
``T = re_a(T) + i im_a(T)``, the A-modulus square ``|T|^2_A = T^# T``, the
A-selfadjoint / A-normal / A-unitary predicates, and 2x2 block assembly
whose block adjoint swaps the off-diagonal blocks and takes the A-adjoint
entrywise.

Predicates return booleans with relative tolerances; the companion
``*_residual`` functions expose the relative residuals for reporting. The
A-boundedness, A-adjoint, A-selfadjoint and A-normal residuals are scale-free:
relative to the norms of their inputs, each taken over a power of two
(:func:`semidw._optim._pow2_units`), so they do not change under ``T -> sT`` or
``A -> cA`` and neither underflow nor overflow, and a zero operator's is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._optim import _pow2_units
from .errors import NotInBA
from .metric import (
    BOUNDED_TOL,
    Metric,
    _freeze,
    a_bounded_residual,
    as_operator,
)

DEFAULT_TOL = 1e-9


def ba_residual(m: Metric, t) -> float:
    """Relative residual ``||(I-P_A) T* A||_F / (||T||_F ||A||_F)`` of the A-adjoint
    existence test."""
    (t_u,), _ = _pow2_units(as_operator(t, m.dim))
    (a_u,), _ = _pow2_units(m.a)
    ta = t_u.conj().T @ a_u
    res = float(np.linalg.norm(ta - m.proj @ ta))
    return res / (float(np.linalg.norm(t_u)) * float(np.linalg.norm(a_u))) if res else 0.0


def in_ba(m: Metric, t, tol: float = DEFAULT_TOL) -> bool:
    """True when ``T`` admits an A-adjoint, i.e. ``range(T* A) <= range(A)``."""
    return ba_residual(m, t) <= tol


def is_a_bounded(m: Metric, t, tol: float = DEFAULT_TOL) -> bool:
    """True when ``||Tx||_A <= c ||x||_A`` for some c (A^{1/2}T kills N(A))."""
    return a_bounded_residual(m, t) <= tol


def sharp(m: Metric, t, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A-adjoint ``T^# = A^dagger T* A``; raises :class:`NotInBA` unless residual <= tol."""
    arr = as_operator(t, m.dim)
    res = ba_residual(m, arr)
    if not res <= tol:
        raise NotInBA(f"operator admits no A-adjoint: residual {res:.3e} > {tol:.1e}")
    return m.pinv_a @ arr.conj().T @ m.a


def re_a(m: Metric, t) -> np.ndarray:
    """A-real part ``(T + T^#)/2``; A-selfadjoint by construction."""
    arr = as_operator(t, m.dim)
    return 0.5 * (arr + sharp(m, arr))


def im_a(m: Metric, t) -> np.ndarray:
    """A-imaginary part ``(T - T^#)/(2i)``; A-selfadjoint by construction."""
    arr = as_operator(t, m.dim)
    return (arr - sharp(m, arr)) / 2j


def abs_sq(m: Metric, t) -> np.ndarray:
    """A-modulus square ``|T|^2_A = T^# T``; A-positive."""
    arr = as_operator(t, m.dim)
    return sharp(m, arr) @ arr


def selfadjoint_residual(m: Metric, t) -> float:
    """Relative residual ``||A T - T* A||_F / (||A||_F ||T||_F)``."""
    (t_u,), _ = _pow2_units(as_operator(t, m.dim))
    (a_u,), _ = _pow2_units(m.a)
    at = a_u @ t_u
    res = float(np.linalg.norm(at - at.conj().T))
    return res / (float(np.linalg.norm(a_u)) * float(np.linalg.norm(t_u))) if res else 0.0


def is_a_selfadjoint(m: Metric, t, tol: float = DEFAULT_TOL) -> bool:
    """True when ``A T`` is Hermitian."""
    return selfadjoint_residual(m, t) <= tol


def normal_residual(m: Metric, t) -> float:
    """Relative residual ``||T T^# - T^# T||_F / (||T T^#||_F + ||T^# T||_F)``."""
    (t_u,), _ = _pow2_units(as_operator(t, m.dim))
    sh = sharp(m, t_u)
    left, right = t_u @ sh, sh @ t_u
    res = float(np.linalg.norm(left - right))
    return res / (float(np.linalg.norm(left)) + float(np.linalg.norm(right))) if res else 0.0


def is_a_normal(m: Metric, t, tol: float = DEFAULT_TOL) -> bool:
    """True when ``T`` commutes with its A-adjoint."""
    return normal_residual(m, t) <= tol


def unitary_residual(m: Metric, t) -> float:
    """Relative residual of ``U^# U = (U^#)^# U^# = P_A``."""
    arr = as_operator(t, m.dim)
    sh = sharp(m, arr)
    scale = 1.0 + float(np.linalg.norm(m.proj))
    r1 = float(np.linalg.norm(sh @ arr - m.proj))
    r2 = float(np.linalg.norm(sharp(m, sh) @ sh - m.proj))
    return max(r1, r2) / scale


def is_a_unitary(m: Metric, t, tol: float = DEFAULT_TOL) -> bool:
    """True when ``U`` is A-unitary (A-isometric together with its A-adjoint)."""
    return unitary_residual(m, t) <= tol


@dataclass(frozen=True)
class BlockOperator:
    """2x2 block operator on the doubled space with metric diag(A, A)."""

    metric: Metric
    t11: np.ndarray
    t12: np.ndarray
    t21: np.ndarray
    t22: np.ndarray
    assembled: np.ndarray
    metric2: Metric


def double_metric(m: Metric) -> Metric:
    """The block-diagonal metric diag(A, A) on the doubled space, from A's eigenpairs.

    Support first (both copies' support, then both null spaces): the range basis is
    exactly diag(B, B), so a block compresses to the block of its blocks' compressions.
    """
    n = m.dim

    def twice(x: np.ndarray) -> np.ndarray:
        out = np.zeros((2 * n, 2 * n), dtype=complex)
        out[:n, :n] = out[n:, n:] = x
        return out

    eigvals = np.tile(m.eigvals, 2)
    order = np.argsort(eigvals == 0.0, kind="stable")
    eigvecs = twice(m.eigvecs)[:, order]
    return Metric(
        dim=2 * n,
        a=_freeze(twice(m.a)),
        eigvals=_freeze(eigvals[order]),
        eigvecs=_freeze(eigvecs),
        rank=2 * m.rank,
        pinv_a=_freeze(twice(m.pinv_a)),
        proj=_freeze(twice(m.proj)),
        basis=_freeze(eigvecs[:, : 2 * m.rank].copy()),
        rank_tol=m.rank_tol,
    )


def block2(m: Metric, t11, t12, t21, t22, tol: float = DEFAULT_TOL) -> BlockOperator:
    """Assemble four B_A operators into a 2x2 block on diag(A, A).

    Raises :class:`NotInBA` unless every block's residual is <= tol, and
    :class:`DimensionMismatch` when blocks disagree in size.
    """
    blocks = [as_operator(b, m.dim) for b in (t11, t12, t21, t22)]
    for idx, blk in enumerate(blocks):
        res = ba_residual(m, blk)
        if not res <= tol:
            raise NotInBA(f"block {idx} admits no A-adjoint: residual {res:.3e}")
    assembled = np.block([[blocks[0], blocks[1]], [blocks[2], blocks[3]]])
    return BlockOperator(
        metric=m,
        t11=blocks[0],
        t12=blocks[1],
        t21=blocks[2],
        t22=blocks[3],
        assembled=assembled,
        metric2=double_metric(m),
    )


def block_sharp(b: BlockOperator) -> BlockOperator:
    """Block adjoint: off-diagonal blocks swap, every block takes its A-adjoint.

    Agrees with ``sharp(metric2, assembled)`` entrywise.
    """
    m = b.metric
    return block2(
        m,
        sharp(m, b.t11),
        sharp(m, b.t21),
        sharp(m, b.t12),
        sharp(m, b.t22),
    )


def bounded_part(m: Metric, t) -> np.ndarray:
    """Nearest A-bounded operator: zero out the ``P_A T (I - P_A)`` corner.

    In finite dimensions this also lands in B_A; the returned operator
    agrees with ``t`` whenever ``t`` was already A-bounded.
    """
    arr = as_operator(t, m.dim)
    comp = np.eye(m.dim, dtype=complex) - m.proj
    out = arr - m.proj @ arr @ comp
    if a_bounded_residual(m, out) > BOUNDED_TOL:
        raise NotInBA("projection to an A-bounded operator failed")  # pragma: no cover
    return out
