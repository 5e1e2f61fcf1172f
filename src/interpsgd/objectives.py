"""Finite-sum losses f(w) = (1/n) sum_i f_i(w) over labeled feature matrices.

Four kinds are supported, all taking labels in {-1, +1}:

  squared        f_i(w) = 0.5 * (x_i^T w - y_i)^2
  squared_hinge  f_i(w) = max(0, 1 - y_i x_i^T w)^2
  hinge          f_i(w) = max(0, 1 - y_i x_i^T w)        (non-smooth)
  logistic       f_i(w) = log(1 + exp(-y_i x_i^T w))

Every gradient has the form s_i(w) * x_i for a scalar s_i, which keeps
full-batch evaluation a single matrix product. The library convention is
the MEAN over examples everywhere (values, gradients, smoothness
constants): this rescales loss values relative to an unnormalized sum but
leaves separability structure and relative convergence behavior intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix, as_vector, spectral_norm_gram

__all__ = [
    "Dataset",
    "Objective",
    "LOSS_KINDS",
    "SMOOTH_KINDS",
    "make_objective",
    "smoothness_constants",
]

LOSS_KINDS = ("squared", "squared_hinge", "hinge", "logistic")
SMOOTH_KINDS = ("squared", "squared_hinge", "logistic")

# Per-example smoothness is kappa * ||x_i||^2 for each smooth kind.
_KAPPA = {"squared": 1.0, "squared_hinge": 2.0, "logistic": 0.25}


@dataclass(frozen=True)
class Dataset:
    """A dense binary classification sample, optionally margin-certified.

    When ``tau`` and ``w_star`` are present the rows are unit-norm,
    ``||w_star|| = 1/tau`` and y_i * x_i^T w_star >= 1 for every i, so the
    squared-hinge loss interpolates at ``w_star``. ``support_size`` bounds
    the number of distinct rows (used by the margin-based growth constant
    under uniform sampling).
    """

    X: np.ndarray
    y: np.ndarray
    tau: float | None = None
    w_star: np.ndarray | None = None
    support_size: int | None = None

    def __post_init__(self):
        X = as_matrix(self.X)
        y = as_vector(self.y)
        if y.shape[0] != X.shape[0]:
            raise ValueError(f"label count {y.shape[0]} != row count {X.shape[0]}")
        if not np.all(np.abs(y) == 1.0):
            raise ValueError("labels must be in {-1, +1}")
        w_star = self.w_star
        if w_star is not None:
            w_star = as_vector(w_star, dim=X.shape[1])
        if self.tau is not None and not 0 < self.tau:
            raise ValueError(f"margin tau must be positive, got {self.tau}")
        if self.tau is not None and w_star is not None:
            worst = float(np.min(y * (X @ w_star)))
            if worst < 1.0 - 1e-9:
                raise ValueError(
                    f"margin certificate violated: min y_i x_i^T w_star = {worst}"
                )
        if self.support_size is not None:
            if self.support_size < 1:
                raise ValueError(f"support_size must be >= 1, got {self.support_size}")
            # distinct rows never outnumber rows: the sort-based count is
            # only needed when the bound is below n
            if self.support_size < X.shape[0]:
                distinct = np.unique(X, axis=0).shape[0]
                if distinct > self.support_size:
                    raise ValueError(
                        f"{distinct} distinct rows exceed support_size {self.support_size}"
                    )
        X.flags.writeable = False
        y.flags.writeable = False
        if w_star is not None:
            w_star.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w_star", w_star)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def has_margin_certificate(self) -> bool:
        return self.tau is not None and self.w_star is not None


def smoothness_constants(kind: str, data: Dataset) -> tuple[float, float]:
    """(L, L_max) for the mean objective of a smooth loss kind.

    L is kappa * lam_max(X^T X) / n (the mean-normalized Gram spectral
    norm) and L_max is kappa * max_i ||x_i||^2, the largest per-example
    smoothness constant. The hinge loss is rejected as non-smooth.
    """
    if kind == "hinge":
        raise ValueError("hinge loss is non-smooth: no smoothness constants")
    if kind not in _KAPPA:
        raise ValueError(f"unknown loss kind {kind!r}")
    kappa = _KAPPA[kind]
    row_sq = np.einsum("ij,ij->i", data.X, data.X)
    L = kappa * spectral_norm_gram(data.X) / data.n
    L_max = kappa * float(np.max(row_sq))
    return L, L_max


class Objective:
    """A loss kind bound to a dataset, with smoothness metadata attached.

    ``mu`` is a strong-convexity (or PL) constant when one is known and
    ``f_star`` the optimal value; ``f_star`` defaults to 0 exactly when the
    dataset carries a margin certificate (interpolation), else stays None
    until supplied.
    """

    def __init__(
        self,
        kind: str,
        data: Dataset,
        mu: float | None = None,
        f_star: float | None = None,
    ):
        if kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {kind!r}")
        self.kind = kind
        self.data = data
        # Unnormalized Gram spectral norm; the experimental tau/L step rule
        # divides by this rather than by the mean-scaled L below.
        self.gram_lam_max = spectral_norm_gram(data.X)
        if kind == "hinge":
            # Sub-gradient oracle only; no smoothness constants exist.
            self.L = float("nan")
            self.L_max = float("nan")
        else:
            kappa = _KAPPA[kind]
            row_sq = np.einsum("ij,ij->i", data.X, data.X)
            self.L = kappa * self.gram_lam_max / data.n
            self.L_max = kappa * float(np.max(row_sq))
        self.mu = mu
        if f_star is None and data.has_margin_certificate and kind != "squared":
            f_star = 0.0
        self.f_star = f_star

    @property
    def n(self) -> int:
        return self.data.n

    @property
    def dim(self) -> int:
        return self.data.dim

    @property
    def smooth(self) -> bool:
        return self.kind in SMOOTH_KINDS

    @property
    def convex(self) -> bool:
        return True  # all four kinds are convex in w

    @property
    def interpolating(self) -> bool:
        return self.f_star == 0.0 and self.data.has_margin_certificate

    # -- scalar form: grad f_i(w) = s_i(w) * x_i --------------------------

    def _grad_scalars(self, z: np.ndarray) -> np.ndarray:
        """s_i for all i, given the predictions z = X w."""
        y = self.data.y
        if self.kind == "squared":
            return z - y
        m = y * z
        if self.kind == "squared_hinge":
            return -2.0 * np.maximum(0.0, 1.0 - m) * y
        if self.kind == "hinge":
            return np.where(m < 1.0, -y, 0.0)
        # logistic: sigmoid computed on the stable side of the exp
        s = np.empty_like(m)
        pos = m >= 0
        s[pos] = np.exp(-m[pos]) / (1.0 + np.exp(-m[pos]))
        s[~pos] = 1.0 / (1.0 + np.exp(m[~pos]))
        return -y * s

    def _losses(self, z: np.ndarray) -> np.ndarray:
        y = self.data.y
        if self.kind == "squared":
            return 0.5 * (z - y) ** 2
        m = y * z
        if self.kind == "squared_hinge":
            return np.maximum(0.0, 1.0 - m) ** 2
        if self.kind == "hinge":
            return np.maximum(0.0, 1.0 - m)
        return np.logaddexp(0.0, -m)

    # -- public oracles ----------------------------------------------------

    def loss_full(self, w) -> float:
        """Mean per-example loss; non-negative for all four kinds."""
        w = as_vector(w, dim=self.dim)
        return float(np.mean(self._losses(self.data.X @ w)))

    def loss_example(self, w, i: int) -> float:
        self._check_index(i)
        w = as_vector(w, dim=self.dim)
        return self._loss_scalar(float(self.data.X[i] @ w), float(self.data.y[i]))

    def grad_example(self, w, i: int) -> np.ndarray:
        """Exact gradient of f_i (zero-side subgradient at the hinge kink)."""
        self._check_index(i)
        w = as_vector(w, dim=self.dim)
        s = self._grad_scalar(float(self.data.X[i] @ w), float(self.data.y[i]))
        return s * self.data.X[i]

    def grad_full(self, w) -> np.ndarray:
        """Mean of the per-example gradients, computed as one matrix product."""
        w = as_vector(w, dim=self.dim)
        s = self._grad_scalars(self.data.X @ w)
        return (self.data.X.T @ s) / self.n

    def per_example_grad_sq_norms(self, w) -> np.ndarray:
        """||grad f_i(w)||^2 for all i; feeds the growth-condition audits."""
        w = as_vector(w, dim=self.dim)
        s = self._grad_scalars(self.data.X @ w)
        row_sq = np.einsum("ij,ij->i", self.data.X, self.data.X)
        return s**2 * row_sq

    def mistake_rate(self, w) -> float:
        """Fraction of examples with y_i * x_i^T w <= 0 (margin-0 counts)."""
        w = as_vector(w, dim=self.dim)
        return float(np.mean(self.data.y * (self.data.X @ w) <= 0.0))

    # -- helpers -----------------------------------------------------------

    def _check_index(self, i: int):
        if not 0 <= i < self.n:
            raise IndexError(f"example index {i} out of range [0, {self.n})")

    def _loss_scalar(self, z: float, y: float) -> float:
        # products instead of ** so huge arguments overflow to inf rather
        # than raising OverflowError mid-run
        if self.kind == "squared":
            r = z - y
            return 0.5 * r * r
        m = y * z
        if self.kind == "squared_hinge":
            t = max(0.0, 1.0 - m)
            return t * t
        if self.kind == "hinge":
            return max(0.0, 1.0 - m)
        return float(np.logaddexp(0.0, -m))

    def _grad_scalar(self, z: float, y: float) -> float:
        if self.kind == "squared":
            return z - y
        m = y * z
        if self.kind == "squared_hinge":
            return -2.0 * max(0.0, 1.0 - m) * y
        if self.kind == "hinge":
            return -y if m < 1.0 else 0.0
        if m >= 0:
            return -y * math.exp(-m) / (1.0 + math.exp(-m))
        return -y / (1.0 + math.exp(m))


def make_objective(
    kind: str,
    data: Dataset,
    mu: float | None = None,
    f_star: float | None = None,
) -> Objective:
    """Convenience constructor mirroring ``Objective(...)``."""
    return Objective(kind, data, mu=mu, f_star=f_star)
