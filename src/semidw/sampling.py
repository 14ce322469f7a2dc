"""Seeded random instance generators for the verification suites.

Everything is driven by a :class:`numpy.random.Generator`; callers split
seeds with ``numpy.random.SeedSequence`` so suites are reproducible and
individually replayable.
"""

from __future__ import annotations

import numpy as np

from .metric import Metric, build_metric
from .semiop import bounded_part

__all__ = [
    "random_metric",
    "random_bounded_operator",
    "random_selfadjoint_operator",
    "random_kernel_operator",
    "random_norm_sq_instance",
    "random_phase_unitary",
]


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_metric(rng: np.random.Generator, n: int, rank: int | None = None) -> Metric:
    """Random PSD metric of dimension n and prescribed rank (default: full).

    Raises ``ValueError`` unless ``0 <= rank <= n``: a rank above n would build
    a full-rank metric of rank n.
    """
    rank = n if rank is None else int(rank)
    if not 0 <= rank <= n:
        raise ValueError(f"rank must lie in [0, {n}] for a metric of dimension {n}, got {rank}")
    if rank == 0:
        return build_metric(np.zeros((n, n), dtype=complex))
    g = _complex_gaussian(rng, (n, rank))
    a = g @ g.conj().T
    a /= max(np.trace(a).real / n, 1e-12)
    return build_metric(a)


def random_bounded_operator(rng: np.random.Generator, m: Metric) -> np.ndarray:
    """Random A-bounded operator: complex Gaussian with the bad corner removed."""
    return bounded_part(m, _complex_gaussian(rng, (m.dim, m.dim)))


def random_selfadjoint_operator(rng: np.random.Generator, m: Metric) -> np.ndarray:
    """Random A-selfadjoint operator ``T = A^dagger G`` with G Hermitian on range(A)."""
    g = _complex_gaussian(rng, (m.dim, m.dim))
    g = 0.5 * (g + g.conj().T)
    g = m.proj @ g @ m.proj
    return m.pinv_a @ g


def random_kernel_operator(rng: np.random.Generator, m: Metric) -> np.ndarray:
    """Random operator with A T = 0 (columns inside the null space of A)."""
    comp = np.eye(m.dim, dtype=complex) - m.proj
    return comp @ _complex_gaussian(rng, (m.dim, m.dim))


def random_norm_sq_instance(rng: np.random.Generator, m: Metric,
                            kappa: float) -> np.ndarray:
    """Operator with dw_A(T) = ||T||_A^2: a rotated compressed shift of weight kappa.

    Built so the compressed matrix is ``kappa V E12 V*`` for a random unitary
    V; with ``kappa >= 1/sqrt(2)`` the Davis-Wielandt radius equals
    ``kappa^2`` and the seminorm maximizer annihilates the form.
    """
    r = m.rank
    if r < 2:
        raise ValueError("needs metric rank >= 2")
    shift = np.zeros((r, r), dtype=complex)
    shift[0, 1] = kappa
    q, _ = np.linalg.qr(_complex_gaussian(rng, (r, r)))
    n_target = q @ shift @ q.conj().T
    return m.basis @ (n_target * np.sqrt(m.eigvals[:r] / m.eigvals[:r, None])) @ m.basis.conj().T


def random_phase_unitary(rng: np.random.Generator, m: Metric) -> np.ndarray:
    """Random A-unitary: phases on the eigenbasis of A (identity on the kernel)."""
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m.dim))
    phases[m.rank:] = 1.0
    return (m.eigvecs * phases) @ m.eigvecs.conj().T
