"""Independent verification oracles, kept free of the library's own
implementations: a cyclic Jacobi eigensolver and the purely matrix-free
power iteration for cross-checking ``spectral_norm_gram``, and central
finite differences for gradient checks."""

from __future__ import annotations

import numpy as np


def jacobi_max_eigenvalue(S: np.ndarray, sweeps: int = 100, tol: float = 1e-13) -> float:
    """Largest eigenvalue of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(S, dtype=np.float64, copy=True)
    n = A.shape[0]
    if A.shape != (n, n) or not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("Jacobi oracle needs a symmetric square matrix")
    scale = max(1.0, float(np.max(np.abs(A))))
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = c
                J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
    return float(np.max(np.diag(A)))


def matrix_free_spectral_norm_gram(X, tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """The power iteration v -> X^T (X v) that never forms the Gram matrix,
    as ``spectral_norm_gram`` ran before it gained its Gram phase."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    d = X.shape[1]

    v = np.full(d, 1.0 / np.sqrt(d))
    lam = 0.0
    restarted = False
    for _ in range(max_iter):
        w = X.T @ (X @ v)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            if restarted:
                return 0.0  # Gram matrix is zero
            v = np.random.Generator(np.random.Philox(0)).normal(size=d)
            v /= np.linalg.norm(v)
            restarted = True
            continue
        lam = float(v @ w)  # Rayleigh quotient, ||v|| = 1
        if np.linalg.norm(w - lam * v) <= tol * lam:
            return lam
        v = w / norm_w
    raise RuntimeError(f"power iteration did not converge in {max_iter} iterations")


def central_diff_grad(f, w: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g
