"""Finite-sum losses f(w) = (1/n) sum_i f_i(w) over labeled feature matrices.

Four kinds are supported, all taking labels in {-1, +1}:

  squared        f_i(w) = 0.5 * (x_i^T w - y_i)^2
  squared_hinge  f_i(w) = max(0, 1 - y_i x_i^T w)^2
  hinge          f_i(w) = max(0, 1 - y_i x_i^T w)        (non-smooth)
  logistic       f_i(w) = log(1 + exp(-y_i x_i^T w))

Every gradient has the form s_i(w) * x_i for a scalar s_i, which keeps
full-batch evaluation a single matrix product. Each kind is one entry of
the loss table ``_LOSSES``: kappa (the per-example smoothness is
kappa * ||x_i||^2; the hinge loss has none) and its formulas. The
library convention is the MEAN over examples everywhere (values,
gradients, smoothness constants): this rescales loss values relative to an
unnormalized sum but leaves separability structure and relative
convergence behavior intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .numerics import as_matrix, as_vector, spectral_norm_gram

__all__ = [
    "Dataset",
    "Objective",
    "LOSS_KINDS",
    "kappa",
    "smoothness_constants",
]


class _LossKind(NamedTuple):
    """f_i and s_i from the prediction z = x_i^T w and the label y, for one
    example (floats) and for all (arrays). The two forms agree exactly,
    except the logistic s_i: ``math.exp`` and ``np.exp`` differ by up to
    2 ulps."""

    kappa: float | None
    loss: Callable[[float, float], float]
    grad: Callable[[float, float], float]
    losses: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grads: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # s = 0 exactly when y z >= 1, that is, s != 0 exactly when y * z < 1.0
    # in floating point (the two hinge losses). The hinge's s tests that
    # condition itself. The squared hinge's is -2 max(0, 1 - y z) y: for
    # y z < 1, 1 - y z is a nonzero difference of distinct floats, at least
    # 2^-53, and y = +-1, so s is nonzero (or -+inf, for y z = -inf); for
    # y z >= 1 (+inf included), 1 - y z <= 0 and the max is 0. A nan y z
    # fails y * z < 1.0, and max(0.0, nan) returns its first argument, 0.
    margin_zero: bool = False


# The scalar losses use products instead of ** so huge arguments overflow
# to inf rather than raising OverflowError mid-run.


def _squared_loss(z: float, y: float) -> float:
    r = z - y
    return 0.5 * r * r


def _squared_hinge_loss(z: float, y: float) -> float:
    t = max(0.0, 1.0 - y * z)
    return t * t


def _logistic_grad(z: float, y: float) -> float:
    m = y * z
    if m >= 0:
        return -y * math.exp(-m) / (1.0 + math.exp(-m))
    return -y / (1.0 + math.exp(m))


def _logistic_grads(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # sigmoid computed on the stable side of the exp
    m = y * z
    s = np.empty_like(m)
    pos = m >= 0
    s[pos] = np.exp(-m[pos]) / (1.0 + np.exp(-m[pos]))
    s[~pos] = 1.0 / (1.0 + np.exp(m[~pos]))
    return -y * s


_LOSSES = {
    "squared": _LossKind(
        kappa=1.0,
        loss=_squared_loss,
        grad=lambda z, y: z - y,
        losses=lambda z, y: 0.5 * (z - y) ** 2,
        grads=lambda z, y: z - y,
    ),
    "squared_hinge": _LossKind(
        kappa=2.0,
        loss=_squared_hinge_loss,
        grad=lambda z, y: -2.0 * max(0.0, 1.0 - y * z) * y,
        losses=lambda z, y: np.maximum(0.0, 1.0 - y * z) ** 2,
        grads=lambda z, y: -2.0 * np.maximum(0.0, 1.0 - y * z) * y,
        margin_zero=True,
    ),
    "hinge": _LossKind(
        kappa=None,
        loss=lambda z, y: max(0.0, 1.0 - y * z),
        grad=lambda z, y: -y if y * z < 1.0 else 0.0,
        losses=lambda z, y: np.maximum(0.0, 1.0 - y * z),
        grads=lambda z, y: np.where(y * z < 1.0, -y, 0.0),
        margin_zero=True,
    ),
    "logistic": _LossKind(
        kappa=0.25,
        loss=lambda z, y: float(np.logaddexp(0.0, -(y * z))),
        grad=_logistic_grad,
        losses=lambda z, y: np.logaddexp(0.0, -(y * z)),
        grads=_logistic_grads,
    ),
}

LOSS_KINDS = tuple(_LOSSES)


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


def kappa(kind: str) -> float | None:
    """f_i is kappa * ||x_i||^2-smooth; None for the non-smooth hinge loss."""
    if kind not in _LOSSES:
        raise ValueError(f"unknown loss kind {kind!r}")
    return _LOSSES[kind].kappa


def smoothness_constants(kind: str, data: Dataset) -> tuple[float, float]:
    """(L, L_max) for the mean objective of a smooth loss kind, as carried
    by ``Objective(kind, data)``.

    L is kappa * lam_max(X^T X) / n (the mean-normalized Gram spectral
    norm) and L_max is kappa * max_i ||x_i||^2, the largest per-example
    smoothness constant. The hinge loss is rejected as non-smooth.
    """
    if kappa(kind) is None:
        raise ValueError(f"{kind} loss is non-smooth: no smoothness constants")
    obj = Objective(kind, data)
    return obj.L, obj.L_max


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
        k = kappa(kind)  # rejects an unknown kind
        self.kind = kind
        self._loss_kind = _LOSSES[kind]
        self.data = data
        # Unnormalized Gram spectral norm; the experimental tau/L step rule
        # divides by this rather than by the mean-scaled L below.
        self.gram_lam_max = spectral_norm_gram(data.X)
        # ||x_i||^2, shared by L_max and the per-example gradient norms
        self._row_sq = np.einsum("ij,ij->i", data.X, data.X)
        self._row_sq.flags.writeable = False
        # a non-smooth kind is a sub-gradient oracle only: L and L_max are nan
        self.L = math.nan if k is None else k * self.gram_lam_max / data.n
        self.L_max = math.nan if k is None else k * float(np.max(self._row_sq))
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
        return self._loss_kind.kappa is not None

    # -- scalar form: grad f_i(w) = s_i(w) * x_i, from the loss table -------

    def _grad_scalars(self, z: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """s_i for the examples in ``rows`` (all by default), given their
        predictions z = X[rows] w; z may hold one such row per point."""
        return self._loss_kind.grads(z, self.data.y[rows])

    def _losses(self, z: np.ndarray) -> np.ndarray:
        return self._loss_kind.losses(z, self.data.y)

    def _grad_scalar(self, z: float, y: float) -> float:
        return self._loss_kind.grad(z, y)

    def _loss_scalar(self, z: float, y: float) -> float:
        return self._loss_kind.loss(z, y)

    @cached_property
    def _scalar_rows(self) -> tuple[list, list, list]:
        """The rows x_i (views), the labels y_i and ||x_i||^2 as Python
        lists, for the optimizers' per-example loops."""
        return list(self.data.X), self.data.y.tolist(), self._row_sq.tolist()

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
        return s**2 * self._row_sq

    def mistake_rate(self, w) -> float:
        """Fraction of examples with y_i * x_i^T w <= 0 (margin-0 counts)."""
        w = as_vector(w, dim=self.dim)
        return float(np.mean(self.data.y * (self.data.X @ w) <= 0.0))

    # -- helpers -----------------------------------------------------------

    def _check_index(self, i: int):
        if not 0 <= i < self.n:
            raise IndexError(f"example index {i} out of range [0, {self.n})")
