"""Dense float64 primitives: seeded randomness and the Gram spectral norm.

All vectors are 1-d float64 numpy arrays, all matrices 2-d float64 arrays
in row-major order. Randomness comes from numpy's Philox counter-based
bit generator, whose stream for a given seed is fixed across platforms;
every reproducibility guarantee in this package rests on that choice.
Generators are single-owner: concurrent work must derive child seeds with
``child_rng`` instead of sharing one generator.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PowerIterationError",
    "as_matrix",
    "as_vector",
    "child_rng",
    "gaussian_vector",
    "make_rng",
    "spectral_norm_gram",
]


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the last estimate."""

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


def make_rng(seed: int) -> np.random.Generator:
    """Seeded Philox generator. Same seed, same stream, any platform."""
    return np.random.Generator(np.random.Philox(seed))


def child_rng(seed: int, index: int) -> np.random.Generator:
    """Derive an independent generator for parallel run ``index``.

    Philox keys are 64-bit; offsetting the seed by the run index keeps
    derivation deterministic and collision-free for index < 2**32.
    """
    if index < 0:
        raise ValueError(f"child index must be >= 0, got {index}")
    return make_rng((int(seed) + 0x9E3779B9 * (index + 1)) % (1 << 64))


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float64 array, optionally checking length."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def as_matrix(x) -> np.ndarray:
    """Coerce to a finite non-empty 2-d float64 array."""
    m = np.ascontiguousarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError(f"matrix must be non-empty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def gaussian_vector(rng: np.random.Generator, dim: int, std: float) -> np.ndarray:
    """I.i.d. zero-mean normal entries with standard deviation ``std``.

    ``std = 0`` returns the zero vector without consuming generator state,
    so noise-free runs draw exactly the same stream as plain SGD.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")
    if std == 0.0:
        return np.zeros(dim)
    return rng.normal(0.0, std, size=dim)


def spectral_norm_gram(X, tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Largest eigenvalue of the Gram matrix X^T X by power iteration.

    Iterates v -> X^T (X v) without forming the Gram matrix. Starts from
    the normalized all-ones vector; if the iterate collapses to zero
    (all-ones lies in the null space) it restarts once from a seeded
    random vector. Convergence is declared when the eigen-residual
    ||X^T X v - lam v|| <= tol * lam, so the returned value is within
    tol * lam_max of the true eigenvalue.

    When d <= n and the loop has not converged after d // 2 matrix-free
    iterations (which cost as many flops as forming G = X^T X), it forms
    G once and returns its largest eigenvalue from the symmetric
    eigensolver ``numpy.linalg.eigvalsh``, exact to rounding however
    close the top two eigenvalues are; G is never larger than X. That
    switch needs ``max_iter`` > d // 2; d > n stays matrix-free, so it can
    still raise PowerIterationError. Whenever the loop converges before
    the switch, the arithmetic and result are bit-identical to those of
    earlier, purely matrix-free versions; after it, the result can differ
    from theirs in the last bits.
    """
    X = as_matrix(X)
    if not tol > 0:  # also rejects nan
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n, d = X.shape
    switch_at = d // 2 if d <= n else max_iter

    v = np.full(d, 1.0 / np.sqrt(d))
    lam = 0.0
    restarted = False
    for it in range(max_iter):
        if it == switch_at:
            return float(np.linalg.eigvalsh(X.T @ X)[-1])
        w = X.T @ (X @ v)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            if restarted:
                return 0.0  # Gram matrix is zero
            v = make_rng(0).normal(size=d)
            v /= np.linalg.norm(v)
            restarted = True
            continue
        lam = float(v @ w)  # Rayleigh quotient, ||v|| = 1
        if np.linalg.norm(w - lam * v) <= tol * lam:
            return lam
        v = w / norm_w
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last estimate {lam!r})",
        last_estimate=lam,
    )
