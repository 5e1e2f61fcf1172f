"""Small analytic objectives with known constants, for rate verification.

These quack like :class:`interpsgd.objectives.Objective` (n, dim, L, L_max,
mu, f_star, loss/grad oracles) but are single-example finite sums, so the
stochastic gradient equals the full gradient and the relative-growth
constant is exactly 1. That makes them the right instruments for checking
the deterministic-limit convergence guarantees of the optimizers.
:func:`interpsgd.optimizers.run` steps them through the public single-step
functions; its whole-pass kernels serve :class:`Objective` alone.
"""

from __future__ import annotations

import numpy as np

from .numerics import as_vector

__all__ = ["QuadraticObjective", "PlToyObjective"]


class _OneExample:
    """The n = 1 identities: example 0 is the whole objective."""

    n = 1

    def loss_example(self, w, i: int) -> float:
        return self.loss_full(w)

    def grad_example(self, w, i: int) -> np.ndarray:
        return self.grad_full(w)

    def per_example_grad_sq_norms(self, w) -> np.ndarray:
        g = self.grad_full(w)
        return np.array([float(g @ g)])


class QuadraticObjective(_OneExample):
    """f(w) = 0.5 (w - w_star)^T A (w - w_star) for symmetric PSD A.

    L = lam_max(A), mu = lam_min(A) (0 when A is singular, i.e. the
    objective has a flat direction), f_star = 0 at w_star.
    """

    kind = "quadratic"

    def __init__(self, A, w_star):
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if not np.allclose(A, A.T):
            raise ValueError("A must be symmetric")
        eigs = np.linalg.eigvalsh(A)
        if eigs[0] < -1e-12:
            raise ValueError("A must be positive semi-definite")
        self.A = A
        self.w_star = as_vector(w_star, dim=A.shape[0])
        self.L = float(eigs[-1])
        self.L_max = self.L
        self.mu = float(max(eigs[0], 0.0))
        self.f_star = 0.0

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def loss_full(self, w) -> float:
        r = as_vector(w, dim=self.dim) - self.w_star
        return 0.5 * float(r @ (self.A @ r))

    def grad_full(self, w) -> np.ndarray:
        r = as_vector(w, dim=self.dim) - self.w_star
        return self.A @ r


class PlToyObjective(_OneExample):
    """Separable non-convex test function sum_j [w_j^2 + 3 sin^2(w_j)].

    Each coordinate term has second derivative 2 + 6 cos(2 w_j), which is
    negative on intervals (non-convex) and bounded by 8, so L = 8. The
    function satisfies the gradient-dominance (PL) inequality
    ||grad f(w)||^2 >= 2 mu (f(w) - 0) with mu = 1/32, and its only
    stationary point is the global minimizer at the origin.
    """

    kind = "pl_toy"
    L = 8.0
    L_max = 8.0
    mu = 1.0 / 32.0
    f_star = 0.0

    def __init__(self, dim: int = 2):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self._dim = dim

    @property
    def dim(self) -> int:
        return self._dim

    def loss_full(self, w) -> float:
        w = as_vector(w, dim=self._dim)
        return float(np.sum(w**2 + 3.0 * np.sin(w) ** 2))

    def grad_full(self, w) -> np.ndarray:
        w = as_vector(w, dim=self._dim)
        return 2.0 * w + 3.0 * np.sin(2.0 * w)
