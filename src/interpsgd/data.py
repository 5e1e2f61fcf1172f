"""Data pipeline: margin-separable synthetic generation, RBF features,
LIBSVM text ingestion, subsampling and row normalization.

The synthetic generator controls the separation margin exactly: features
are uniform on the unit sphere with the band around the separating
hyperplane rejected, the separator is scaled to norm 1/tau, and labels
come from the separator's sign, so y_i x_i^T w_star >= 1 holds for every
row by construction. The seed fully determines the dataset.

LIBSVM text format: one ``<label> <index>:<value> ...`` line per example,
indices 1-based, missing indices implicit zeros, ``#`` comment lines
ignored, UTF-8. Exactly two distinct labels are required; sorted ascending
they map to (-1, +1).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import as_matrix, child_rng, make_rng
from .objectives import Dataset

__all__ = [
    "LibsvmFormatError",
    "RbfConfig",
    "default_rbf_config",
    "generate_margin_data",
    "load_libsvm",
    "normalize_rows",
    "rbf_features",
    "save_libsvm",
    "subsample",
]

MAX_CONSECUTIVE_REJECTIONS = 1_000_000


class LibsvmFormatError(ValueError):
    """Malformed LIBSVM text; message carries the offending line number."""


def _unit_sphere(rng, count: int, d: int) -> np.ndarray:
    pts = rng.normal(size=(count, d))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _balanced(label_sum: float, n: int) -> bool:
    """Class counts that differ by less than 5% of n."""
    return abs(label_sum) < 0.05 * n


def balance_reachable(n: int) -> bool:
    """Whether some labeling of n points is balanced: a sum of n labels
    of +-1 has n's parity, so its smallest size is n % 2."""
    return _balanced(n % 2, n)


def generate_margin_data(
    n: int, d: int, tau: float, seed: int = 0, balance: bool = False
) -> Dataset:
    """Linearly separable sample of n unit-norm points with margin tau.

    The returned dataset carries tau, the separator w_star with
    ``||w_star|| = 1/tau``, and support size c = n, certifying
    y_i x_i^T w_star >= 1 for all i (so the squared-hinge loss is exactly
    zero at w_star). ``balance=True`` redraws until the class counts
    differ by less than 5% of n (a ValueError before any draw where no
    labeling can, for odd n <= 19); there is no balance guarantee otherwise.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    if balance and not balance_reachable(n):
        raise ValueError(f"no labeling of n = {n} points is class-balanced")

    for attempt in range(100):
        rng = child_rng(seed, attempt) if attempt else make_rng(seed)
        direction = _unit_sphere(rng, 1, d)[0]
        w_star = direction / tau

        rows = np.empty((n, d))
        filled = 0
        rejected_streak = 0
        while filled < n:
            batch = _unit_sphere(rng, max(n - filled, 256), d)
            keep = np.abs(batch @ direction) >= tau
            accepted = batch[keep]
            if accepted.shape[0] == 0:
                rejected_streak += batch.shape[0]
                if rejected_streak > MAX_CONSECUTIVE_REJECTIONS:
                    raise RuntimeError(
                        f"margin band rejection exceeded "
                        f"{MAX_CONSECUTIVE_REJECTIONS} consecutive draws; "
                        f"tau={tau} is too large for dimension {d}"
                    )
                continue
            rejected_streak = 0
            take = min(accepted.shape[0], n - filled)
            rows[filled : filled + take] = accepted[:take]
            filled += take

        y = np.sign(rows @ direction)
        if not balance or _balanced(float(np.sum(y)), n):
            return Dataset(X=rows, y=y, tau=tau, w_star=w_star, support_size=n)
    raise RuntimeError("could not draw a class-balanced sample in 100 attempts")


@dataclass(frozen=True)
class RbfConfig:
    """Gaussian kernel feature map: centers (m x d) and bandwidth > 0."""

    centers: np.ndarray
    bandwidth: float

    def __post_init__(self):
        centers = as_matrix(self.centers)
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        object.__setattr__(self, "centers", centers)


def default_rbf_config(X, rng, m: int | None = None) -> RbfConfig:
    """Centers drawn uniformly without replacement from the rows of X,
    bandwidth set by the median heuristic (median pairwise distance among
    the chosen centers). The distances are taken one center at a time
    against the centers after it, so no m x m x d difference array is
    made."""
    X = as_matrix(X)
    n = X.shape[0]
    m = min(n, 300) if m is None else min(m, n)
    idx = rng.choice(n, size=m, replace=False)
    centers = X[np.sort(idx)]
    sq = []
    for i, c in enumerate(centers):  # the last center adds an empty array
        diff = c - centers[i + 1 :]
        sq.append(np.einsum("jk,jk->j", diff, diff))
    upper = np.sqrt(np.concatenate(sq))
    bandwidth = float(np.median(upper)) if upper.size else 1.0
    if bandwidth <= 0:
        raise ValueError("median pairwise distance is zero: centers coincide")
    return RbfConfig(centers=centers, bandwidth=bandwidth)


def rbf_features(X, cfg: RbfConfig) -> np.ndarray:
    """Row i maps to exp(-||x_i - c_j||^2 / (2 bandwidth^2)), j = 1..m.

    Entries lie in (0, 1], with 1 exactly where a row equals a center.
    The map is built in place in its n x m output, with the same
    floating-point operations as ``||x||^2 - 2 x.c + ||c||^2`` evaluated
    term by term, so no n x m temporary is allocated beside it.
    """
    X = as_matrix(X)
    C = cfg.centers
    if X.shape[1] != C.shape[1]:
        raise ValueError(f"feature dim {X.shape[1]} != center dim {C.shape[1]}")
    sq = X @ C.T
    sq *= -2.0
    sq += np.einsum("ij,ij->i", X, X)[:, None]
    sq += np.einsum("ij,ij->i", C, C)[None, :]
    np.maximum(sq, 0.0, out=sq)
    np.divide(sq, -(2.0 * cfg.bandwidth**2), out=sq)
    return np.exp(sq, out=sq)


def _parse_line(lineno: int, text: str) -> tuple[float, list[int], list[float]]:
    """One stripped line token by token: (label, indices, values), or its
    first format error (label, then feature tokens in order)."""
    tokens = text.split()
    try:
        label = float(tokens[0])
    except ValueError as exc:
        raise LibsvmFormatError(
            f"line {lineno}: unparsable label {tokens[0]!r}"
        ) from exc
    cols: list[int] = []
    vals: list[float] = []
    for token in tokens[1:]:
        try:
            idx_str, val_str = token.split(":", 1)
            idx = int(idx_str)
            val = float(val_str)
        except ValueError as exc:
            raise LibsvmFormatError(
                f"line {lineno}: malformed feature token {token!r}"
            ) from exc
        if idx < 1:
            raise LibsvmFormatError(f"line {lineno}: index {idx} is not 1-based")
        cols.append(idx)
        vals.append(val)
    return label, cols, vals


@lru_cache(maxsize=1024)
def _pair_format(k: int) -> str:
    """``"label idx:val ..."`` with k single-space separated pairs."""
    return "%s" + " %s:%s" * k


def load_libsvm(path) -> Dataset:
    """Parse a LIBSVM text file into a dense Dataset.

    The two distinct labels, sorted ascending, map to (-1, +1); files with
    any other number of distinct labels are rejected (binary-only scope).
    No margin certificate is attached.

    The file is read in one streaming pass, and every row's values go into
    one flat buffer in file order. A line whose colons turned to spaces
    split into a label and k (index, value) pairs is accepted when its
    strings, put back into a format, give back the stripped line exactly;
    its values are then parsed by ``float``. A row whose index strings
    differ from the previous row's fills the cached ``label idx:val ...``
    format (2k + 1 slots) and has its indices parsed by ``int``. The
    second of consecutive rows with the same index strings builds a format
    with them baked in (k + 1 slots), which the rows after it reuse. Any
    other line (tabs or runs of spaces, a bad token, an index below 1 or
    beyond int64) goes token by token, which names the first bad token.
    When every row carries indices 1..d in order, X is the buffer itself,
    shaped n x d. Otherwise each run of consecutive rows that share their
    indices is placed by one block assignment, and the rows that share
    them with neither neighbour by one scatter. A repeated index on one
    line keeps its last value.
    """
    raw_labels: list[float] = []
    flat = array("d")
    # each run of consecutive rows sharing one index array: the array, the row count
    run_cols: list = []
    run_counts = array("q")
    # prev_cols and row_format are built from the index strings prev_idx
    prev_idx: list[str] | None = None
    prev_cols = row_format = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text[0] == "#":
                continue
            parts = text.replace(":", " ").split()
            idx_s = parts[1::2]
            try:
                if not len(parts) % 2:
                    raise ValueError("not a label idx:val ... line")
                if idx_s != prev_idx:
                    if _pair_format(len(idx_s)) % tuple(parts) != text:
                        raise ValueError("not a single-spaced label idx:val ... line")
                    cols = array("q", map(int, idx_s))
                    if cols and min(cols) < 1:
                        raise ValueError("index below 1")
                    prev_idx, prev_cols, row_format = idx_s, cols, None
                else:
                    if row_format is None:
                        row_format = "%s" + "".join(f" {s}:%s" for s in idx_s)
                    if row_format % tuple(parts[::2]) != text:
                        raise ValueError("not a single-spaced label idx:val ... line")
                label = float(parts[0])
                flat.extend(map(float, parts[2::2]))
                cols = prev_cols
            except (ValueError, OverflowError):
                # values are appended only once the format and the label
                # passed; a value float() then rejects is rejected again
                # by _parse_line, so the values appended before it are
                # never read
                label, cols, vals = _parse_line(lineno, text)
                flat.extend(vals)
            raw_labels.append(label)
            if run_cols and run_cols[-1] is cols:
                run_counts[-1] += 1
            else:
                run_cols.append(cols)
                run_counts.append(1)
    if not raw_labels:
        raise LibsvmFormatError("file contains no examples")

    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise LibsvmFormatError(
            f"expected exactly 2 distinct labels, found {distinct}"
        )
    mapping = {distinct[0]: -1.0, distinct[1]: 1.0}

    n = len(raw_labels)
    d = max((max(cols) for cols in run_cols if cols), default=0)
    values = np.frombuffer(flat)
    if len(run_cols) == 1 and run_cols[0] == array("q", range(1, d + 1)):
        X = values.reshape(n, d)
    else:
        # a run of several rows is placed as one block, and the rows that
        # share their indices with neither neighbour by one scatter
        X = np.zeros((n, d))
        lone_rows, lone_k, lone_cols = array("q"), array("q"), array("q")
        in_blocks = np.zeros(len(values), dtype=bool)
        row = start = 0
        for cols, count in zip(run_cols, run_counts):
            stop = start + count * len(cols)
            if count == 1:
                lone_rows.append(row)
                lone_k.append(len(cols))
                lone_cols.extend(cols)
            elif cols:
                X[row : row + count, np.asarray(cols) - 1] = values[start:stop].reshape(count, -1)
                in_blocks[start:stop] = True
            row, start = row + count, stop
        where = np.frombuffer(lone_cols, np.int64)  # row * d + col - 1, in place
        where += np.repeat(np.frombuffer(lone_rows, np.int64) * d - 1, lone_k)
        X.reshape(-1)[where] = values[~in_blocks] if in_blocks.any() else values
    y = np.array([mapping[lab] for lab in raw_labels])
    return Dataset(X=X, y=y)


def save_libsvm(data: Dataset, path) -> None:
    """Write a Dataset in LIBSVM text form (zeros omitted, repr floats).

    A row without an exact zero (or -0.0) is written through one format
    with every ``j:%r`` slot of the row built in; any other row joins its
    nonzero ``j:value`` tokens. Rows are converted one at a time, so no
    Python copy of the whole matrix is made.
    """
    dense = "%s" + "".join(f" {j}:%r" for j in range(1, data.dim + 1)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for label, x in zip(data.y.tolist(), data.X):
            row = x.tolist()
            sign = "+1" if label > 0 else "-1"
            if 0.0 in row:
                feats = [f"{j}:{v!r}" for j, v in enumerate(row, 1) if v != 0.0]
                fh.write(" ".join([sign, *feats]) + "\n")
            else:
                fh.write(dense % (sign, *row))


def subsample(data: Dataset, n_sub: int, seed: int = 0) -> Dataset:
    """Uniform subsample without replacement, deterministic per seed.

    The margin certificate survives (a margin holds on any subset); the
    support bound shrinks to min(c, n_sub).
    """
    if n_sub > data.n:
        raise ValueError(f"n_sub={n_sub} exceeds dataset size {data.n}")
    if n_sub < 1:
        raise ValueError(f"n_sub must be >= 1, got {n_sub}")
    idx = make_rng(seed).permutation(data.n)[:n_sub]
    support = None if data.support_size is None else min(data.support_size, n_sub)
    return Dataset(
        X=data.X[idx],
        y=data.y[idx],
        tau=data.tau,
        w_star=data.w_star,
        support_size=support,
    )


def normalize_rows(data: Dataset) -> Dataset:
    """Scale each row to unit Euclidean norm.

    Rescaling moves points relative to the separating hyperplane, so the
    margin certificate is dropped unless every row was already unit-norm
    (within 1e-12), in which case the dataset is returned unchanged.
    """
    norms = np.linalg.norm(data.X, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ValueError(f"cannot normalize zero row at index {int(zero[0])}")
    if np.max(np.abs(norms - 1.0)) <= 1e-12:
        return data
    return Dataset(X=data.X / norms[:, None], y=data.y)
