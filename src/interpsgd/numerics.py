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
    """The Gram matrix of X, or its largest eigenvalue, overflows float64."""


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
    """Largest eigenvalue of the Gram matrix X^T X.

    Power iteration v -> X^T (X v) from the normalized all-ones vector,
    without forming the Gram matrix, for at most min(max_iter, min(n, d) // 16)
    iterations: that many take about as long as forming the smaller of
    X^T X and X X^T, whose nonzero eigenvalues agree, and running the
    eigensolver on it. They cost an eighth of the flops of that matrix
    product, but a matrix-vector pair runs several times below its rate
    (one BLAS thread: min(n, d) divided by the iterations that cost as
    much measured 13 to 24 on 8000x100, 20000x54 and 20000x300). It
    returns as soon as the eigen-residual ||X^T X v - lam v|| <= tol * lam,
    so the value is within tol * lam_max of the true eigenvalue.

    Every other way out of the loop (the iterations are spent, or the
    iterate's norm is zero or overflows float64) forms the smaller Gram
    matrix once and returns its largest eigenvalue from the symmetric
    eigensolver ``numpy.linalg.eigvalsh``, exact to rounding however close
    the top two eigenvalues are. A Gram matrix or eigenvalue that is itself
    not finite raises PowerIterationError rather than returning it.
    """
    X = as_matrix(X)
    if not tol > 0:  # also rejects nan
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n, d = X.shape
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.full(d, 1.0 / np.sqrt(d))
        for _ in range(min(max_iter, min(n, d) // 16)):
            w = X.T @ (X @ v)
            norm_w = float(np.linalg.norm(w))
            if not 0.0 < norm_w < np.inf:  # also catches nan
                break
            lam = float(v @ w)  # Rayleigh quotient, ||v|| = 1
            if np.linalg.norm(w - lam * v) <= tol * lam:
                return lam
            v = w / norm_w
        gram = X.T @ X if d <= n else X @ X.T
        if np.all(np.isfinite(gram)):
            top = float(np.linalg.eigvalsh(gram)[-1])
            if np.isfinite(top):
                return top
    raise PowerIterationError("the Gram matrix of X overflows float64")
