"""Estimation and empirical auditing of relative-growth constants.

The constant rho bounds how much larger stochastic gradients are than the
full gradient, either pointwise,

    E_i ||grad f_i(w)||^2 <= rho ||grad f(w)||^2          (strong form)

or through the suboptimality gap,

    E_i ||grad f_i(w)||^2 <= 2 rho L (f(w) - f*)          (weak form).

Four routes produce an estimate: the analytic weak-form constant
L_max / L for smooth convex interpolating finite sums; the margin-based
strong-form constant c / tau^2 for separable data with support size c;
an empirical max of the pointwise ratio over sampled and visited points;
and a grid search picking the rho whose accelerated run converges best
without destabilizing. rho >= 1 always (Jensen).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix, as_vector, child_rng
from .objectives import Dataset, Objective
from .optimizers import RunConfig, RunError, SgdConfig, run, sgd_step

__all__ = [
    "GrowthEstimate",
    "RatioUndefinedError",
    "audit_sgc",
    "empirical_sgc_ratio",
    "grid_search_rho",
    "rho_sgc_margin",
    "rho_wgc",
]

# Below this full-gradient norm both sides of the ratio are numerically
# zero (interpolation) and the ratio is undefined rather than satisfied.
GRAD_NORM_CUTOFF = 1e-12

# Byte budget of the rows that one chunk of empirical_sgc_ratio's pass over
# X covers: about a core's L2, so the chunk read for the predictions is
# still cached when the gradient product reads it again.
CHUNK_BYTES = 512 * 1024

# audit_sgc evaluates its probes this many to a call. Larger blocks cost
# less per probe but more per call, and the benchmark times the audit per
# call: a pair takes less time than one probe took through two gemvs.
PROBES_PER_CALL = 2

ROUTES = ("wgc_analytic", "sgc_margin", "empirical_ratio", "grid_search")


class RatioUndefinedError(ValueError):
    """The growth ratio has no value at a point: the full gradient is below
    the cutoff, or the ratio is not finite."""


@dataclass(frozen=True)
class GrowthEstimate:
    rho: float
    route: str
    detail: str = ""

    def __post_init__(self):
        if self.route not in ROUTES:
            raise ValueError(f"unknown route {self.route!r}")
        # Certified constants obey Jensen's rho >= 1; a grid-searched rho is
        # a tuning choice and may legitimately land below 1.
        if self.route != "grid_search" and self.rho < 1.0:
            raise ValueError(f"rho must be >= 1, got {self.rho}")
        if self.rho <= 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")


def rho_wgc(obj: Objective) -> GrowthEstimate:
    """Analytic weak-form constant rho = L_max / L.

    Valid for smooth convex kinds on interpolating data (the dataset must
    carry a margin certificate or the optimal value must be 0).
    """
    if not obj.smooth:
        raise ValueError(f"{obj.kind} loss is non-smooth: no analytic constant")
    if not (obj.data.has_margin_certificate or obj.f_star == 0.0):
        raise ValueError("no interpolation certificate on this objective")
    rho = obj.L_max / obj.L
    return GrowthEstimate(
        rho=rho, route="wgc_analytic", detail=f"L_max={obj.L_max!r} L={obj.L!r}"
    )


def rho_sgc_margin(data: Dataset) -> GrowthEstimate:
    """Margin-based strong-form constant rho = c / tau^2.

    Requires the margin tau and the support size c; c equals the number of
    distinct feature vectors under uniform sampling (the only sampling
    scheme implemented here).
    """
    if data.tau is None:
        raise ValueError("dataset carries no margin tau")
    if data.support_size is None:
        raise ValueError("dataset carries no support size c")
    rho = data.support_size / data.tau**2
    return GrowthEstimate(
        rho=rho,
        route="sgc_margin",
        detail=f"c={data.support_size} tau={data.tau!r}",
    )


def empirical_sgc_ratio(obj, w):
    """Pointwise ratio E_i ||grad f_i(w)||^2 / ||grad f(w)||^2 at one w, or
    at each row of a (k, d) block of points.

    At least 1 up to floating error (Jensen). The ratio is undefined when
    the full gradient is below the cutoff (at interpolation both sides
    vanish), and also when it is not finite: a squared gradient norm
    overflows float64 (rows near 1e100) and the ratio is lost. At one w
    the result is a float and an undefined ratio raises
    :class:`RatioUndefinedError`; a block returns k ratios with nan where
    one is undefined. Neither emits an overflow warning. A single w is the
    k = 1 case of the block.

    For an :class:`Objective` all k points share one pass over X in chunks
    of about ``CHUNK_BYTES`` of rows: a chunk's predictions Z_c = W X_c^T
    give its gradient scalars S_c, and G += S_c X_c and the chunk's
    per-example terms read the chunk again while it is still in cache.
    When X fits in one chunk a single w gives the same bits as the public
    ``grad_full`` and ``per_example_grad_sq_norms``; over more chunks the
    sums are grouped by chunk. Other objectives go through those two
    public oracles, one point at a time.
    """
    single = np.ndim(w) == 1
    W = as_vector(w, dim=obj.dim)[None, :] if single else as_matrix(w)
    if W.shape[1] != obj.dim:
        raise ValueError(f"dimension mismatch: expected {obj.dim}, got {W.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if isinstance(obj, Objective):
            X, n = obj.data.X, obj.n
            rows = max(1, CHUNK_BYTES // X[0].nbytes)
            grads = np.zeros(W.shape)
            sq_sums = np.zeros(len(W))
            for a in range(0, n, rows):
                chunk = slice(a, a + rows)
                Xc = X[chunk]
                S = obj._grad_scalars(W @ Xc.T, chunk)
                grads += S @ Xc
                sq_sums += np.sum(S * S * obj._row_sq[chunk], axis=1)
            full = grads / n
            mean_sq = sq_sums / n
        else:
            full = np.array([obj.grad_full(p) for p in W])
            mean_sq = np.array([np.mean(obj.per_example_grad_sq_norms(p)) for p in W])
        full_sq = np.array([g @ g for g in full])
        ratios = mean_sq / full_sq
    at_cutoff = full_sq <= GRAD_NORM_CUTOFF**2
    if not single:
        return np.where(at_cutoff | ~np.isfinite(ratios), np.nan, ratios)
    if at_cutoff[0]:
        raise RatioUndefinedError(
            f"full gradient norm {np.sqrt(full_sq[0])!r} below cutoff "
            f"{GRAD_NORM_CUTOFF}: ratio undefined at interpolation"
        )
    ratio = float(ratios[0])
    if not np.isfinite(ratio):
        raise RatioUndefinedError(f"ratio {ratio!r} is not finite: the gradients overflow float64")
    return ratio


def _box_scale(obj) -> float:
    """Half-width of :func:`audit_sgc`'s box probes."""
    if not isinstance(obj, Objective):
        return 1.0
    if obj.data.tau:
        return 1.0 / obj.data.tau
    # finite: an Objective's Gram spectral norm, at least max_i ||x_i||^2, is
    r = math.sqrt(float(np.max(obj._row_sq)))
    return 1.0 / r if r > 0.0 else 1.0


def audit_sgc(obj, sample_count: int, rng) -> GrowthEstimate:
    """Empirical strong-form constant: max pointwise ratio over probes.

    Half the probes are uniform in a box around the origin (far-field
    behavior), half are iterates of a short SGD trajectory (the points
    convergence arguments actually consume). The box is scaled by 1/tau
    on margin data and by 1/R, R = max_i ||x_i||, on other data (so its
    margins x_i . w stay within sqrt(d) of 0 whatever the scale of the
    rows), and is the unit box for other objectives or when every row is
    zero.
    The probes are drawn first, then evaluated ``PROBES_PER_CALL`` at a
    time by :func:`empirical_sgc_ratio` (a lone probe last when the count
    is odd). Probes at interpolation (full gradient below cutoff) and
    probes whose ratio overflows (a nan ratio) are excluded and not
    counted in ``detail``; if every probe is excluded the audit fails with
    :class:`RatioUndefinedError`. Any other error of a probe propagates.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    d = obj.dim
    scale = _box_scale(obj)

    n_box = sample_count // 2
    n_traj = sample_count - n_box
    probes = [rng.uniform(-scale, scale, size=d) for _ in range(n_box)]

    eta = 1.0 / obj.L_max if (np.isfinite(obj.L_max) and obj.L_max > 0) else 1.0
    cfg = SgdConfig(eta=eta)
    w = np.zeros(d)
    for _ in range(n_traj):
        w = sgd_step(obj, w, cfg, rng)
        probes.append(w)

    best = 0.0
    used = 0
    for i in range(0, sample_count, PROBES_PER_CALL):
        for ratio in empirical_sgc_ratio(obj, np.array(probes[i:i + PROBES_PER_CALL])):
            if not np.isnan(ratio):
                best = max(best, float(ratio))
                used += 1
    if used == 0:
        raise RatioUndefinedError(
            "all probes at interpolation or overflowing: empirical ratio undefined")
    return GrowthEstimate(
        rho=max(best, 1.0),
        route="empirical_ratio",
        detail=f"max over {used}/{sample_count} probes",
    )


def grid_search_rho(
    obj,
    candidates: list[float],
    passes: int,
    seed: int = 0,
    mode: str = "convex",
    mu: float | None = None,
) -> GrowthEstimate:
    """Run the accelerated method per candidate rho and keep the best.

    Each candidate runs with eta = 1/(rho L) for ``passes`` passes on a
    derived seed. Candidates that diverge (:meth:`RunRecord.diverged`: a
    loss above 10x the initial value) or overflow outright are discarded as
    unstable; among the rest the lowest final loss wins. All candidates
    diverging is an error that reports the final losses.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    finals: dict[float, float] = {}
    stable: dict[float, float] = {}
    for idx, rho in enumerate(candidates):
        if rho <= 0:
            raise ValueError(f"candidate rho must be > 0, got {rho}")
        cfg = RunConfig(
            rho=rho,
            mode=mode,
            mu=mu,
            seed=int(child_rng(seed, idx).integers(0, 2**63 - 1)),
        )
        try:
            record = run(obj, "accel", cfg, passes)
        except RunError:  # failed in a pass: a diverging candidate
            finals[rho] = float("inf")
            continue
        finals[rho] = record.final_loss()
        if not record.diverged():
            stable[rho] = finals[rho]
    if not stable:
        raise RuntimeError(
            "all grid candidates diverged; final losses: "
            + ", ".join(f"rho={r}: {v!r}" for r, v in finals.items())
        )
    best_rho = min(stable, key=lambda r: (stable[r], r))
    return GrowthEstimate(
        rho=best_rho,
        route="grid_search",
        detail="finals " + ", ".join(f"{r}:{finals[r]:.3e}" for r in candidates),
    )
