"""Positive-semidefinite metric workspace.

A Hermitian positive-semidefinite matrix ``A`` induces the semi-inner
product ``<x, y>_A = <Ax, y>`` (linear in the first slot) and the seminorm
``||x||_A = sqrt(<x, x>_A)``. :func:`build_metric` factorizes ``A`` once,
support first, and caches the eigenpairs, ``A^dagger``, the orthogonal
projection onto ``range(A)`` and the range basis ``B`` (support eigenvectors).

:func:`compress` is the workhorse reduction: for an A-bounded operator ``T``
it produces the r x r matrix ``N = B* A^{1/2} T (A^{1/2})^dagger B``, formed
as ``diag(sqrt(lambda)) B* T B diag(sqrt(lambda))^{-1}`` over the support
eigenvalues ``lambda``. For every unit coordinate vector ``c`` the A-unit
vector ``x = B (c / sqrt(lambda))`` (:func:`to_ambient`; :func:`to_coords`
inverts it) satisfies ``<Tx, x>_A = c* N c`` and ``||Tx||_A = ||N c||``, and
conversely. Compression is a *-homomorphism: ``T^#`` compresses to ``N*``,
``ST`` to ``N_S N_T`` and ``|T|^2_A`` to ``N* N``, so every A-seminorm
functional becomes an ordinary Euclidean problem on ``N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import _pow2_units
from .errors import (
    DimensionMismatch,
    EmptyMatrix,
    NotABounded,
    NotHermitian,
    NotPositiveSemidefinite,
)

DEFAULT_RANK_TOL = 1e-10
HERMITIAN_RTOL = 1e-12
BOUNDED_TOL = 1e-9


@dataclass(frozen=True)
class Metric:
    """Spectral workspace of a positive-semidefinite metric.

    Attributes
    ----------
    dim : ambient dimension n.
    a : the (symmetrized) metric matrix A.
    eigvals : eigenvalues of A, support first, clamped at the rank cutoff.
    eigvecs : matching orthonormal eigenvector columns.
    rank : numerical rank r under ``rank_tol``; ``eigvals[:rank]`` is the support.
    pinv_a : the pseudoinverse A^dagger.
    proj : orthogonal projection onto range(A).
    basis : n x r orthonormal columns spanning range(A), ``eigvecs[:, :rank]``.
    rank_tol : relative eigenvalue cutoff used at construction.
    """

    dim: int
    a: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    rank: int
    pinv_a: np.ndarray
    proj: np.ndarray
    basis: np.ndarray
    rank_tol: float


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _hermitian_part(z: np.ndarray) -> np.ndarray:
    return 0.5 * (z + z.conj().T)


def as_operator(t, dim: int | None = None) -> np.ndarray:
    """Validate and coerce an operator to a square complex array.

    Raises :class:`EmptyMatrix` for empty or non-2D input,
    :class:`DimensionMismatch` for non-square input or a dimension that does
    not match ``dim``, and :class:`DimensionMismatch` for non-finite entries.
    """
    arr = np.asarray(t, dtype=complex)
    if arr.ndim != 2 or arr.size == 0:
        raise EmptyMatrix(f"expected a nonempty square matrix, got shape {arr.shape}")
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"matrix is not square: shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatch(f"operator dimension {arr.shape[0]} != metric dimension {dim}")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch("operator has non-finite entries")
    return arr


def build_metric(a, rank_tol: float = DEFAULT_RANK_TOL) -> Metric:
    """Build the spectral workspace of a Hermitian PSD matrix.

    Raises :class:`DimensionMismatch` for non-finite entries, before any arithmetic, as
    :func:`as_operator` does, and :class:`NotHermitian` unless ``||A - A*||_F <=
    HERMITIAN_RTOL ||A||_F``.
    Eigenvalues in ``(-rank_tol*lmax, rank_tol*lmax)`` are clamped to zero, and
    so are those below the smallest normal float, whose reciprocals overflow;
    anything more negative raises :class:`NotPositiveSemidefinite` (with
    ``rank_tol = 0`` or no positive eigenvalue, anything below ``-eps ||A||_F``).
    Both tests are scale-free: the norms are taken of A over a power of two
    (:func:`semidw._optim._pow2_units`), so they neither underflow nor overflow. The
    input is symmetrized after the Hermiticity check so downstream arithmetic sees
    an exactly Hermitian matrix. A ``rank_tol`` outside [0, 1) raises ``ValueError``.
    """
    if not 0.0 <= rank_tol < 1.0:
        raise ValueError(f"rank_tol must be in [0, 1), got {rank_tol}")
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.size == 0:
        raise EmptyMatrix(f"expected a nonempty square matrix, got shape {arr.shape}")
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"metric is not square: shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch("metric has non-finite entries")
    (unit,), e = _pow2_units(arr)
    norm_u = float(np.linalg.norm(unit))
    herm_res = float(np.linalg.norm(unit - unit.conj().T))
    if herm_res > HERMITIAN_RTOL * norm_u:
        raise NotHermitian(f"metric is not Hermitian: relative residual "
                           f"{herm_res / norm_u:.3e}")
    arr = _hermitian_part(arr)

    eigvals, eigvecs = np.linalg.eigh(arr)
    lmax = float(eigvals[-1]) if eigvals.size else 0.0
    cutoff = rank_tol * max(lmax, 0.0)
    floor = cutoff if cutoff > 0 else math.ldexp(np.finfo(float).eps * norm_u, e)
    if np.any(eigvals < -floor):
        raise NotPositiveSemidefinite(
            f"metric has negative eigenvalue {float(eigvals[0]):.3e} below -{floor:.3e}"
        )
    eigvals = np.where(eigvals < max(cutoff, np.finfo(float).tiny), 0.0, eigvals)

    # descending order, support first; stable so equal eigenvalues (e.g. A = I)
    # keep the factorization's basis order and compression acts as identity
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    support = eigvals > 0.0
    rank = int(np.count_nonzero(support))
    inv = np.where(support, 1.0, 0.0) / np.where(support, eigvals, 1.0)

    def _assemble(diag: np.ndarray) -> np.ndarray:
        return _freeze(_hermitian_part((eigvecs * diag) @ eigvecs.conj().T))

    return Metric(
        dim=arr.shape[0],
        a=_freeze(arr),
        eigvals=_freeze(eigvals),
        eigvecs=_freeze(eigvecs),
        rank=rank,
        pinv_a=_assemble(inv),
        proj=_assemble(support.astype(float)),
        basis=_freeze(eigvecs[:, :rank].copy()),
        rank_tol=float(rank_tol),
    )


def semi_inner(m: Metric, x, y) -> complex:
    """Semi-inner product ``<x, y>_A = <Ax, y>``, linear in ``x``."""
    xv = np.asarray(x, dtype=complex).reshape(-1)
    yv = np.asarray(y, dtype=complex).reshape(-1)
    if xv.shape[0] != m.dim or yv.shape[0] != m.dim:
        raise DimensionMismatch(f"vectors of length {xv.shape[0]}, {yv.shape[0]} under metric of dim {m.dim}")
    return complex(np.vdot(yv, m.a @ xv))


def semi_norm_vec(m: Metric, x) -> float:
    """Seminorm ``||x||_A``; zero exactly on the null space of A."""
    val = semi_inner(m, x, x).real
    return float(np.sqrt(max(val, 0.0)))


def _bounded_product(m: Metric, arr: np.ndarray) -> tuple[np.ndarray, float]:
    """``S = diag(sqrt(lambda)) B* T = B* A^{1/2} T`` and ``||S - S B B*||_F / (||A^{1/2}||_2
    ||T||_F)``.

    The residual is relative to the scale of the product's inputs, which bounds both
    ``||S||_F`` and the rounding of ``S - S B B*``; so it does not depend on the scale
    of T, and an operator that is not A-bounded is rejected however small it is. The
    norms are those of S and T each over a power of two (:func:`semidw._optim._pow2_units`),
    so they neither underflow nor overflow, and the two powers meet in one exact
    ``ldexp``. An S that itself overflowed has no residual (nan, rejected); a residual
    of 0 (a zero S: ``A T = 0``, or a rank-zero A) is 0.
    """
    s = np.sqrt(m.eigvals[: m.rank])[:, None] * (m.basis.conj().T @ arr)
    (u,), e_s = _pow2_units(s)
    if not np.isfinite(u).all():
        return s, np.nan
    res = float(np.linalg.norm(u - (u @ m.basis) @ m.basis.conj().T))
    if res == 0.0:
        return s, 0.0
    # |S_ij| <= ||S||_2 <= sqrt(lambda_max) n max|T_ij|, so the ldexp stays in range
    (v,), e_t = _pow2_units(arr)
    return s, math.ldexp(res, e_s - e_t) / (np.sqrt(m.eigvals[0]) * float(np.linalg.norm(v)))


def a_bounded_residual(m: Metric, t) -> float:
    """Relative residual of the A-boundedness test ``A^{1/2} T (I - P_A) = 0``."""
    return _bounded_product(m, as_operator(t, m.dim))[1]


def compress(m: Metric, t) -> np.ndarray:
    """Compress an A-bounded operator to the r x r matrix ``N = S B diag(sqrt(lambda))^{-1}``.

    Raises :class:`NotABounded` unless :func:`a_bounded_residual` is at most
    ``BOUNDED_TOL`` (a residual that is not finite is rejected).
    """
    s, res = _bounded_product(m, as_operator(t, m.dim))
    if not res <= BOUNDED_TOL:
        raise NotABounded(f"operator is not A-bounded: residual {res:.3e} > {BOUNDED_TOL:.1e}")
    return (s @ m.basis) / np.sqrt(m.eigvals[: m.rank])


def to_ambient(m: Metric, c) -> np.ndarray:
    """Lift a coordinate vector ``c`` to the canonical ambient vector.

    Returns ``x = B (c / sqrt(lambda))``, the representative with zero
    null-space component; ``||x||_A = ||c||``. Adding any null-space vector
    to ``x`` changes no A-quantity.
    """
    cv = np.asarray(c, dtype=complex).reshape(-1)
    if cv.shape[0] != m.rank:
        raise DimensionMismatch(f"coordinate length {cv.shape[0]} != metric rank {m.rank}")
    return m.basis @ (cv / np.sqrt(m.eigvals[: m.rank]))


def to_coords(m: Metric, x) -> np.ndarray:
    """Coordinates ``c = sqrt(lambda) * B* x``, ``||c|| = ||x||_A``; inverts :func:`to_ambient`."""
    xv = np.asarray(x, dtype=complex).reshape(-1)
    if xv.shape[0] != m.dim:
        raise DimensionMismatch(f"vector length {xv.shape[0]} != metric dimension {m.dim}")
    return np.sqrt(m.eigvals[: m.rank]) * (m.basis.conj().T @ xv)
