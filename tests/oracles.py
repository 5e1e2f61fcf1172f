"""Independent verification oracles, kept free of the library's own
implementations: a cyclic Jacobi eigensolver and the purely matrix-free
power iteration for cross-checking ``spectral_norm_gram``, a wide matrix
whose top two singular values nearly coincide, central finite
differences for gradient checks, and the per-element LIBSVM
reader/writer, the three-temporary RBF map, the difference-array
median bandwidth and the full-batch margin generator that
``interpsgd.data``'s streaming and in-place versions must match bit for
bit, and the one-point growth ratio that ``growth.empirical_sgc_ratio``'s
chunked block pass must agree with."""

from __future__ import annotations

import numpy as np

from interpsgd.data import LibsvmFormatError, RbfConfig
from interpsgd.growth import GRAD_NORM_CUTOFF, RatioUndefinedError
from interpsgd.numerics import as_matrix, as_vector, child_rng, make_rng
from interpsgd.objectives import Dataset, Objective


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


def wide_tiny_gap_matrix(seed: int = 9) -> np.ndarray:
    """A 20 x 200 matrix with singular values 1, 1 - 1e-9, then 0.5 down to
    0.1: power iteration alone does not settle its Gram spectral norm in
    10,000 iterations."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.normal(size=(20, 20)))[0]
    V = np.linalg.qr(rng.normal(size=(200, 20)))[0]
    s = np.concatenate([[1.0, 1.0 - 1e-9], np.linspace(0.5, 0.1, 18)])
    return (U * s) @ V.T


def central_diff_grad(f, w: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros_like(w)
    for j in range(w.size):
        e = np.zeros_like(w)
        e[j] = h
        g[j] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


# The per-element ingest functions as they were before streaming I/O.


def rbf_features(X, cfg: RbfConfig) -> np.ndarray:
    """Row i maps to exp(-||x_i - c_j||^2 / (2 bandwidth^2)), j = 1..m.

    Entries lie in (0, 1], with 1 exactly where a row equals a center.
    """
    X = as_matrix(X)
    if X.shape[1] != cfg.centers.shape[1]:
        raise ValueError(
            f"feature dim {X.shape[1]} != center dim {cfg.centers.shape[1]}"
        )
    sq = (
        np.einsum("ij,ij->i", X, X)[:, None]
        - 2.0 * X @ cfg.centers.T
        + np.einsum("ij,ij->i", cfg.centers, cfg.centers)[None, :]
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (2.0 * cfg.bandwidth**2))


def median_heuristic_bandwidth(centers: np.ndarray) -> float:
    """Median pairwise distance among the centers, from their full
    m x m x d difference array (1.0 for a single center)."""
    m = centers.shape[0]
    diffs = centers[:, None, :] - centers[None, :, :]
    dists = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    upper = dists[np.triu_indices(m, k=1)]
    return float(np.median(upper)) if upper.size else 1.0


def load_libsvm(path) -> Dataset:
    """Parse a LIBSVM text file into a dense Dataset.

    The two distinct labels, sorted ascending, map to (-1, +1); files with
    any other number of distinct labels are rejected (binary-only scope).
    No margin certificate is attached.
    """
    raw_labels: list[float] = []
    entries: list[list[tuple[int, float]]] = []
    max_index = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError as exc:
                raise LibsvmFormatError(
                    f"line {lineno}: unparsable label {parts[0]!r}"
                ) from exc
            row: list[tuple[int, float]] = []
            for token in parts[1:]:
                try:
                    idx_str, val_str = token.split(":", 1)
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError as exc:
                    raise LibsvmFormatError(
                        f"line {lineno}: malformed feature token {token!r}"
                    ) from exc
                if idx < 1:
                    raise LibsvmFormatError(
                        f"line {lineno}: index {idx} is not 1-based"
                    )
                row.append((idx, val))
                max_index = max(max_index, idx)
            raw_labels.append(label)
            entries.append(row)
    if not entries:
        raise LibsvmFormatError("file contains no examples")

    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise LibsvmFormatError(
            f"expected exactly 2 distinct labels, found {distinct}"
        )
    mapping = {distinct[0]: -1.0, distinct[1]: 1.0}

    X = np.zeros((len(entries), max_index))
    for i, row in enumerate(entries):
        for idx, val in row:
            X[i, idx - 1] = val
    y = np.array([mapping[lab] for lab in raw_labels])
    return Dataset(X=X, y=y)


def save_libsvm(data: Dataset, path) -> None:
    """Write a Dataset in LIBSVM text form (zeros omitted, repr floats)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(data.n):
            label = "+1" if data.y[i] > 0 else "-1"
            feats = " ".join(
                f"{j + 1}:{float(data.X[i, j])!r}"
                for j in range(data.dim)
                if data.X[i, j] != 0.0
            )
            fh.write(f"{label} {feats}".rstrip() + "\n")


def _unit_sphere(rng, count: int, d: int) -> np.ndarray:
    pts = rng.normal(size=(count, d))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def generate_margin_data(
    n: int, d: int, tau: float, seed: int = 0, balance: bool = False
) -> Dataset:
    """Margin data with a full-size norm, divided copy and boolean-mask
    gather per rejection batch. It has no draw budget: give it only bands
    that keep a fair share of the sphere."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    if balance and not abs(n % 2) < 0.05 * n:
        raise ValueError(f"no labeling of n = {n} points is class-balanced")

    for attempt in range(100):
        rng = child_rng(seed, attempt) if attempt else make_rng(seed)
        direction = _unit_sphere(rng, 1, d)[0]
        w_star = direction / tau

        rows = np.empty((n, d))
        filled = 0
        while filled < n:
            batch = _unit_sphere(rng, max(n - filled, 256), d)
            keep = np.abs(batch @ direction) >= tau
            accepted = batch[keep]
            take = min(accepted.shape[0], n - filled)
            rows[filled : filled + take] = accepted[:take]
            filled += take

        y = np.sign(rows @ direction)
        if not balance or abs(float(np.sum(y))) < 0.05 * n:
            return Dataset(X=rows, y=y, tau=tau, w_star=w_star, support_size=n)
    raise RuntimeError("could not draw a class-balanced sample in 100 attempts")


def point_sgc_ratio(obj, w) -> float:
    """The growth ratio at one w from one product z = X w over all rows, as
    ``growth.empirical_sgc_ratio`` computed it before it took blocks of
    points: raises RatioUndefinedError at interpolation or overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(obj, Objective):
            w = as_vector(w, dim=obj.dim)
            s = obj._grad_scalars(obj.data.X @ w)
            full = (obj.data.X.T @ s) / obj.n
            per_example = s**2 * obj._row_sq
        else:
            full, per_example = obj.grad_full(w), obj.per_example_grad_sq_norms(w)
        full_sq = float(full @ full)
        if full_sq <= GRAD_NORM_CUTOFF**2:
            raise RatioUndefinedError(
                f"full gradient norm {np.sqrt(full_sq)!r} below cutoff "
                f"{GRAD_NORM_CUTOFF}: ratio undefined at interpolation"
            )
        ratio = float(np.mean(per_example)) / full_sq
    if not np.isfinite(ratio):
        raise RatioUndefinedError(f"ratio {ratio!r} is not finite: the gradients overflow float64")
    return ratio
