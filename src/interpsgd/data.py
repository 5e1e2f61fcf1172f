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

Both LIBSVM functions split a file at row boundaries into parts, one per
usable CPU, and run every part after the first in a child made by
``os.fork``; the bytes, arrays and errors are those of one pass. A child
runs only ``repr``/``float`` code, never BLAS, but on Python 3.12 and
later forking a process that has OpenBLAS worker threads emits a
DeprecationWarning.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import pickle
import shutil
import signal
import tempfile
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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

class LibsvmFormatError(ValueError):
    """Malformed LIBSVM text; message carries the offending line number."""


_NORMALIZE_ROWS = 1024

# The most standard normals a margin data set may be expected to draw:
# 400 times fig1a's 2.5e6 (8000 x 100 at tau = 0.1), whose draws take
# 62 ms on a 2-vCPU VM, so about 25 s of drawing there.
_DRAW_BUDGET = 10**9


def _unit_sphere(rng, count: int, d: int) -> np.ndarray:
    """count standard normal rows, each divided in place by its norm.

    The norm is ``np.linalg.norm(axis=1)``'s per-row sum of squares and
    square root, taken over blocks of rows, so the only temporary is one
    block's squares."""
    pts = rng.normal(size=(count, d))
    for start in range(0, count, _NORMALIZE_ROWS):
        b = pts[start : start + _NORMALIZE_ROWS]
        b /= np.sqrt(np.add.reduce(b * b, axis=1, keepdims=True))
    return pts


def _balanced(label_sum: float, n: int) -> bool:
    """Class counts that differ by less than 5% of n."""
    return abs(label_sum) < 0.05 * n


def balance_reachable(n: int) -> bool:
    """Whether some labeling of n points is balanced: a sum of n labels
    of +-1 has n's parity, so its smallest size is n % 2."""
    return _balanced(n % 2, n)


def _band_acceptance(d: int, tau: float) -> float:
    """The share of points uniform on the unit sphere in d >= 2 dimensions
    that ``generate_margin_data`` keeps: P(|x . v| >= tau), 0 < tau < 1.

    t = x . v has density proportional to (1 - t^2)^((d - 3)/2) on
    [-1, 1], so the share is the regularized incomplete beta function
    I_{1 - tau^2}((d - 1)/2, 1/2); with t = sin(theta) it reads
    int_{asin tau}^{pi/2} cos^(d-2) / int_0^{pi/2} cos^(d-2). It is
    evaluated by the continued fraction of Numerical Recipes' ``betai``
    (modified Lentz, to a relative 1e-13), on whichever side of the
    symmetry I_x(a, b) = 1 - I_{1-x}(b, a) it converges quickly, with
    1 - x = tau^2 taken exactly. An underflow reads as 0."""
    a, b = 0.5 * (d - 1), 0.5
    x, y = 1.0 - tau * tau, tau * tau  # y = 1 - x
    if y == 0.0:
        return 1.0
    front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(front) * _beta_fraction(b, a, y) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the incomplete beta function I_x(a, b)."""
    tiny = 1e-300
    clamp = lambda v: v if abs(v) > tiny else tiny
    c, dd = 1.0, 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    h = dd
    for m in range(1, 100_000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            dd = 1.0 / clamp(1.0 + aa * dd)
            c = clamp(1.0 + aa / c)
            h *= dd * c
        if abs(dd * c - 1.0) < 1e-13:
            break
    return h


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
    A band that keeps so few points that the n rows of d normals are
    expected to take more than ``_DRAW_BUDGET`` normals, n d / P with P
    the share it keeps (:func:`_band_acceptance`), is a ValueError before
    any draw too. So every ValueError here names an input that cannot be
    drawn.

    Rows are drawn in rejection batches of max(rows missing, 256), each
    normalized in place, and the accepted rows are copied straight into
    the n x d output. So the stage holds the output plus one batch, the
    last one freed before the next is drawn. The draws, their order and
    the float operations on every kept value are those of
    ``pts / np.linalg.norm(pts, axis=1, keepdims=True)`` and
    ``batch[keep]``, so a seed gives the same bytes as they do.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    if balance and not balance_reachable(n):
        raise ValueError(f"no labeling of n = {n} points is class-balanced")
    share = _band_acceptance(d, tau)
    if n * d > _DRAW_BUDGET * share:
        raise ValueError(
            f"tau = {tau!r} keeps a share {share:.3g} of the unit sphere in d = {d}: "
            f"n = {n} rows would take about {n * d / share if share else math.inf:.3g} "
            f"normal draws, more than the budget of {_DRAW_BUDGET:.0e}"
        )

    for attempt in range(100):
        rng = child_rng(seed, attempt) if attempt else make_rng(seed)
        direction = _unit_sphere(rng, 1, d)[0]
        w_star = direction / tau

        rows = np.empty((n, d))
        filled = 0
        while filled < n:
            batch = _unit_sphere(rng, max(n - filled, 256), d)
            keep = np.flatnonzero(np.abs(batch @ direction) >= tau)
            take = min(keep.size, n - filled)
            # mode="clip" writes straight into out; "raise" buffers it
            np.take(batch, keep[:take], axis=0, out=rows[filled : filled + take], mode="clip")
            del batch  # not alive while the next batch is drawn
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


# Both LIBSVM functions split a file at row boundaries into parts, one per
# usable CPU, at most _MAX_PARTS and none under about _PART_BYTES. Part 0
# runs in this process and every other part in a forked child.
_PART_BYTES = 1 << 20
_MAX_PARTS = 8
_TOKEN_BYTES = 24  # the writer's size estimate for one " j:value" token


def _part_count(size: int) -> int:
    """How many parts a file of about ``size`` bytes is split into."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_PARTS, size // _PART_BYTES))


def _in_parts(part, count: int) -> list:
    """``[part(0), ..., part(count - 1)]``. Part 0 runs here, every other
    part in a child made by ``os.fork`` that pickles its result into a pipe
    and always leaves by ``os._exit``. Each pipe is drained before its child
    is reaped, a part whose child left no result runs here, and every child
    is reaped however this call ends (killed first if still running)."""
    children = {}  # part -> (pid, read end of its pipe), until reaped
    try:
        for p in range(1, count):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no child to be had: the parts left run here
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as out:
                        pickle.dump(part(p), out, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children[p] = pid, open(read_fd, "rb")
        results = [part(0)]
        for p in range(1, count):
            status = 1
            if p in children:
                pid, pipe = children[p]
                with pipe:
                    blob = pipe.read()
                status = os.waitpid(pid, 0)[1]
                del children[p]
            results.append(pickle.loads(blob) if status == 0 else part(p))
        return results
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


class _Part(NamedTuple):
    """One part of a LIBSVM file, parsed. ``bad`` is its first malformed
    line (number within the part, stripped text), or None. ``counts`` has
    one entry per run of consecutive rows sharing one index array, in file
    order: the run's row count, or 0 for a lone row, which shares its
    indices with neither neighbour and has them appended to ``lone_cols``
    (``lone_k`` of them). The other runs keep their arrays in ``run_cols``;
    a part's first and last runs always do, so runs can merge at a seam."""

    lines: int
    bad: tuple[int, str] | None
    labels: list
    values: array
    counts: array
    run_cols: list
    lone_k: array
    lone_cols: array
    too_wide: int  # the largest index beyond int64, or 0


def _parse_part(lines) -> _Part:
    """Parse LIBSVM lines up to the first malformed one (see
    ``load_libsvm``), numbering them from 1."""
    labels: list[float] = []
    flat = array("d")
    counts, lone_k, lone_cols = array("q"), array("q"), array("q")
    run_cols: list = []
    bad, too_wide = None, 0
    cur, count = None, 0  # the open run: its index array and row count
    # prev_cols and row_format are built from the index strings prev_idx
    prev_idx: list[str] | None = None
    prev_cols = row_format = None
    lineno = 0
    for lineno, line in enumerate(lines, start=1):
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
            try:
                label, idx, vals = _parse_line(lineno, text)
            except LibsvmFormatError:
                bad = lineno, text
                break
            flat.extend(vals)
            try:
                cols = array("q", idx)
            except OverflowError:  # no X is this wide, so it is never placed
                cols, too_wide = array("q"), max(too_wide, *idx)
        labels.append(label)
        if cols is cur:
            count += 1
            continue
        if count == 1 and counts:  # the run closing is a lone row
            counts.append(0)
            lone_k.append(len(cur))
            lone_cols.extend(cur)
        elif cur is not None:
            counts.append(count)
            run_cols.append(cur)
        cur, count = cols, 1
    if cur is not None:
        counts.append(count)
        run_cols.append(cur)
    return _Part(lineno, bad, labels, flat, counts, run_cols, lone_k, lone_cols, too_wide)


def _read_part(path, cuts: list[int], p: int) -> _Part | None:
    """Parse bytes cuts[p]:cuts[p + 1] of the file, or None when they are
    not UTF-8. A file in one part is parsed as one text stream."""
    if len(cuts) == 2:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_part(fh)
    with open(path, "rb") as fh:
        fh.seek(cuts[p])
        blob = fh.read(cuts[p + 1] - cuts[p])
    try:
        return _parse_part(io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8"))
    except UnicodeDecodeError:
        return None


def load_libsvm(path) -> Dataset:
    """Parse a LIBSVM text file into a dense Dataset.

    The two distinct labels, sorted ascending, map to (-1, +1); files with
    any other number of distinct labels are rejected (binary-only scope).
    No margin certificate is attached.

    The file is cut just after a newline into parts, one per usable CPU (at
    most 8, none under about 1 MB), and parts after the first are parsed in
    forked children. Each part is one streaming pass, and every row's values
    go into one flat buffer in file order. A line whose colons turned to
    spaces split into a label and k (index, value) pairs is accepted when
    its strings, put back into a format, give back the stripped line
    exactly; its values are then parsed by ``float``. A row whose index
    strings differ from the previous row's fills the cached ``label idx:val
    ...`` format (2k + 1 slots) and has its indices parsed by ``int``. The
    second of consecutive rows with the same index strings builds a format
    with them baked in (k + 1 slots), which the rows after it reuse. Any
    other line (tabs or runs of spaces, a bad token, an index below 1 or
    beyond int64) goes token by token, which names the first bad token; the
    first bad line in file order is reported with its line number in the
    file. A file that is not UTF-8 is decoded as one stream, so its
    UnicodeDecodeError is the one a single pass meets. The parts give the
    same arrays, bit for bit, and the same errors as one pass over the file.

    When every row carries indices 1..d in order, X is the buffer itself,
    shaped n x d. Otherwise each run of consecutive rows that share their
    indices is placed by one block assignment, and the rows that share them
    with neither neighbour by one scatter. A repeated index on one line
    keeps its last value.
    """
    size = os.stat(path).st_size  # 0 for a pipe, which is read in one part
    count = _part_count(size)
    cuts = [0]
    if count > 1:
        with open(path, "rb") as fh:
            for p in range(1, count):
                fh.seek(size * p // count)
                fh.readline()  # a part starts just after a newline
                if cuts[-1] < fh.tell() < size:
                    cuts.append(fh.tell())
    cuts.append(size)
    parts = _in_parts(lambda p: _read_part(path, cuts, p), len(cuts) - 1)
    if any(part is None for part in parts):  # not UTF-8: one stream meets its error
        parts = [_read_part(path, [0, size], 0)]

    lines = 0
    for part in parts:  # the first bad line in file order wins
        if part.bad:
            _parse_line(lines + part.bad[0], part.bad[1])  # raises, numbered in the file
        lines += part.lines
    _, _, raw_labels, flat, counts, run_cols, lone_k, lone_cols, too_wide = parts[0]
    for part in parts[1:]:
        raw_labels += part.labels
        flat += part.values
        head = 0
        if run_cols and part.run_cols and run_cols[-1] == part.run_cols[0]:
            counts[-1] += part.counts[0]  # the runs that meet at the seam merge
            head = 1
        counts += part.counts[head:]
        run_cols += part.run_cols[head:]
        lone_k += part.lone_k
        lone_cols += part.lone_cols
        too_wide = max(too_wide, part.too_wide)
    del parts
    if not raw_labels:
        raise LibsvmFormatError("file contains no examples")

    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise LibsvmFormatError(
            f"expected exactly 2 distinct labels, found {distinct}"
        )
    mapping = {distinct[0]: -1.0, distinct[1]: 1.0}

    n = len(raw_labels)
    d = max(
        too_wide,
        max((max(cols) for cols in run_cols if cols), default=0),
        int(np.frombuffer(lone_cols, np.int64).max(initial=0)),
    )
    values = np.frombuffer(flat)
    if len(counts) == 1 and len(run_cols[0]) == d and run_cols[0] == array("q", range(1, d + 1)):
        X = values.reshape(n, d)
    else:
        # a run of several rows is placed as one block, and the lone rows
        # by one scatter
        X = np.zeros((n, d))
        lone_rows = array("q")
        in_blocks = np.zeros(len(values), dtype=bool)
        blocks, lone_ks = iter(run_cols), iter(lone_k)
        row = start = 0
        for count in counts:
            if not count:
                lone_rows.append(row)
                row, start = row + 1, start + next(lone_ks)
                continue
            cols = next(blocks)
            stop = start + count * len(cols)
            if cols:
                X[row : row + count, np.asarray(cols) - 1] = values[start:stop].reshape(count, -1)
                in_blocks[start:stop] = True
            row, start = row + count, stop
        where = np.frombuffer(lone_cols, np.int64)  # row * d + col - 1, in place
        where += np.repeat(np.frombuffer(lone_rows, np.int64) * d - 1, lone_k)
        X.reshape(-1)[where] = values[~in_blocks] if in_blocks.any() else values
    y = np.array([mapping[lab] for lab in raw_labels])
    return Dataset(X=X, y=y)


def _write_rows(fh, data: Dataset, lo: int, hi: int) -> None:
    """Rows lo..hi-1 of data as LIBSVM lines. A row without an exact zero
    (or -0.0) is written through one format with every ``j:%r`` slot of
    the row built in; any other row joins its nonzero ``j:value`` tokens.
    Rows are converted one at a time, so no Python copy of the matrix is
    made."""
    dense = "%s" + "".join(f" {j}:%r" for j in range(1, data.dim + 1)) + "\n"
    for label, x in zip(data.y[lo:hi].tolist(), data.X[lo:hi]):
        row = x.tolist()
        sign = "+1" if label > 0 else "-1"
        if 0.0 in row:
            feats = [f"{j}:{v!r}" for j, v in enumerate(row, 1) if v != 0.0]
            fh.write(" ".join([sign, *feats]) + "\n")
        else:
            fh.write(dense % (sign, *row))


def save_libsvm(data: Dataset, path) -> None:
    """Write a Dataset in LIBSVM text form (zeros omitted, repr floats).

    The rows are cut into parts, one per usable CPU (at most 8, none under
    about 1 MB of text). Part 0 is written to the file here; every other
    part is written by a forked child to an anonymous temporary file, which
    is then appended in order. The bytes are the same as one pass writes.
    """
    count = _part_count(data.X.size * _TOKEN_BYTES)
    bounds = [data.n * p // count for p in range(count + 1)]
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
        spills = [
            stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n"))
            for _ in range(1, count)
        ]

        def part(p):
            out = spills[p - 1] if p else fh
            if p:  # a part run here after its child failed starts over
                out.seek(0)
                out.truncate()
            _write_rows(out, data, bounds[p], bounds[p + 1])
            out.flush()  # a child leaves by os._exit, which flushes nothing

        _in_parts(part, count)
        for spill in spills:
            spill.seek(0)
            shutil.copyfileobj(spill, fh)


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
