"""Constant step-size SGD and its Nesterov-accelerated three-sequence variant.

The accelerated method couples an iterate w, an extrapolation point zeta and
an estimate point v:

    zeta_k  = alpha_k v_k + (1 - alpha_k) w_k
    w_{k+1} = zeta_k - eta g_k
    v_{k+1} = beta_k v_k + (1 - beta_k) zeta_k - gamma_k eta g_k

where g_k is ONE stochastic gradient drawn at zeta_k and reused in both the
w and v updates (drawing twice would be a different algorithm, so the step
function samples internally). The per-iteration scalars come from one of
two schedules:

  convex            gamma_k solves gamma^2 - gamma/rho = gamma_{k-1}^2,
                    beta = 1, alpha = gamma eta / (gamma eta + a_k^2) with
                    a_{k+1} = gamma_k sqrt(eta rho) and a_0 = 0.
  strongly_convex   gamma = 1/sqrt(mu eta rho), beta = 1 - sqrt(mu eta/rho),
                    alpha computed through the ratio a_k^2/b_{k+1}^2, which
                    is constant in k. The raw a_k, b_k sequences grow like
                    (1 - sqrt(mu eta/rho))^{-k/2} and overflow within a few
                    hundred iterations, so only the ratio is ever stored.

Line-search variants double a smoothness estimate until the sampled example
satisfies a sufficient-decrease condition; the estimate is monotone
non-decreasing across iterations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .numerics import as_vector, gaussian_vector, make_rng
from .objectives import Objective
from .records import MetricRow, RunRecord

__all__ = [
    "AccelSchedule",
    "AccelState",
    "LineSearchError",
    "RunConfig",
    "RunError",
    "SgdConfig",
    "accel_schedule_advance",
    "accel_step",
    "init_accel_state",
    "line_search_accel_step",
    "line_search_sgd_step",
    "make_schedule",
    "run",
    "sgd_step",
]

METHODS = ("sgd", "accel", "sgd_ls", "accel_ls")
MAX_DOUBLINGS = 64


class LineSearchError(RuntimeError):
    """Smoothness estimate doubled past the cap; objective is pathological."""


class RunError(RuntimeError):
    """A run failed: raised by :func:`run` for any exception inside a pass,
    as ``pass p: <message>``, with that exception as ``__cause__``."""


def _doublings_exceeded(estimate: float) -> LineSearchError:
    return LineSearchError(f"line search exceeded {MAX_DOUBLINGS} doublings (estimate {estimate})")


# Sampled gradients with squared norm below this are float-resolution zeros
# (e.g. a hinge margin one ulp from its kink): the sufficient-decrease test
# is then unfalsifiable in double precision and must not drive doublings.
GRAD_RESOLUTION_SQ = 1e-24


@dataclass(frozen=True)
class SgdConfig:
    """Step size eta and additive noise level sigma (E||xi||^2 = sigma^2)."""

    eta: float
    sigma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be a positive finite number, got {self.eta}")
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class AccelSchedule:
    """Scalar schedule state for the accelerated method.

    ``gamma_prev`` is the last used gamma, ``ab_ratio`` the carried value of
    a_k^2 / b_{k+1}^2, and ``gamma``/``alpha``/``beta`` the coefficients
    stamped for the current iteration k by :func:`accel_schedule_advance`
    (nan until the first advance).
    """

    mode: str
    rho: float
    eta: float
    mu: float = 0.0
    k: int = 0
    gamma_prev: float = 0.0
    ab_ratio: float = 0.0
    gamma: float = math.nan
    alpha: float = math.nan
    beta: float = math.nan


def make_schedule(
    mode: str, rho: float, eta: float, mu: float | None = None
) -> AccelSchedule:
    """Fresh schedule; advance once before the first step."""
    if mode not in ("convex", "strongly_convex"):
        raise ValueError(f"mode must be 'convex' or 'strongly_convex', got {mode!r}")
    # A certified growth constant is >= 1, but the schedule also accepts
    # smaller tuned values (grid search / line search treat rho as a knob).
    if rho <= 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be a positive finite number, got {eta}")
    if mode == "convex":
        # gamma_{-1} = 0 and a_0 = 0: the first advance yields gamma = 1/rho
        # and alpha = 1 (all three sequences start equal anyway).
        return AccelSchedule(mode=mode, rho=rho, eta=eta, mu=0.0)
    if mu is None or mu <= 0:
        raise ValueError("strongly_convex mode requires mu > 0")
    # gamma and ab_next of this mode do not depend on the carried state, and
    # ab_next is the fixed point the ratio keeps from here on (the alpha of
    # this call is discarded)
    gamma, _, _, ab = _schedule_coefficients(mode, rho, eta, mu, 0.0, 1.0)
    return AccelSchedule(
        mode=mode, rho=rho, eta=eta, mu=mu, gamma_prev=gamma, ab_ratio=ab
    )


def _sc_feasible(mu: float, eta: float, rho: float) -> bool:
    """Whether mu*eta/rho <= 1 (always in convex mode, where mu = 0)."""
    return not mu * eta / rho > 1.0 + 1e-15


def _schedule_coefficients(
    mode: str, rho: float, eta: float, mu: float, gamma_prev: float, ab_ratio: float
) -> tuple[float, float, float, float]:
    """(gamma_k, alpha_k, beta_k, next ab_ratio) from the carried state.

    Convex mode takes the positive root of
    gamma^2 - gamma/rho - gamma_prev^2 = 0, which keeps gamma strictly
    increasing with gamma_k >= k/(2 rho). It squares gamma_prev as
    gamma_prev * gamma_prev, one correctly rounded product: ``**`` on a
    float calls the C library's pow, which need not be correctly rounded
    (glibc's differs from the product on about 0.09% of doubles) and may
    round differently from one libm to another. Strongly-convex mode is
    constant in k; at the degenerate boundary mu*eta = rho (beta = 0) the
    three sequences collapse to plain gradient descent and alpha is
    defined as 1.
    """
    if mode == "convex":
        inv_rho = 1.0 / rho
        gamma = 0.5 * (inv_rho + math.sqrt(inv_rho * inv_rho + 4.0 * (gamma_prev * gamma_prev)))
        alpha = gamma * eta / (gamma * eta + ab_ratio)
        return gamma, alpha, 1.0, gamma * gamma * eta * rho
    if not _sc_feasible(mu, eta, rho):
        raise ValueError(
            f"invalid configuration: mu*eta/rho = {mu * eta / rho} exceeds 1"
        )
    q = math.sqrt(mu * eta / rho)
    gamma = 1.0 / math.sqrt(mu * eta * rho)
    beta = 1.0 - q
    ab_next = gamma * gamma * eta * rho * (1.0 - q)
    if beta > 0.0:
        gbe = gamma * beta * eta
        alpha = gbe / (gbe + ab_ratio)
    else:
        alpha = 1.0
    return gamma, alpha, beta, ab_next


def accel_schedule_advance(s: AccelSchedule) -> AccelSchedule:
    """Coefficients (gamma_k, alpha_k, beta_k) for iteration k = s.k; see
    :func:`_schedule_coefficients`."""
    gamma, alpha, beta, ab_next = _schedule_coefficients(
        s.mode, s.rho, s.eta, s.mu, s.gamma_prev, s.ab_ratio
    )
    # built without the generated __init__, whose frozen-field assignments
    # cost as much as the rest of the call; ==, repr and replace() read the
    # same fields
    nxt = object.__new__(AccelSchedule)
    fields = nxt.__dict__
    fields.update(s.__dict__)
    fields["k"] = s.k + 1
    fields["gamma_prev"] = fields["gamma"] = gamma
    fields["ab_ratio"], fields["alpha"], fields["beta"] = ab_next, alpha, beta
    return nxt


@dataclass(frozen=True)
class AccelState:
    """The three coupled sequences plus their schedule; w = zeta = v at k=0."""

    w: np.ndarray
    zeta: np.ndarray
    v: np.ndarray
    schedule: AccelSchedule


def init_accel_state(w0, schedule: AccelSchedule) -> AccelState:
    w0 = as_vector(w0)
    return AccelState(w=w0, zeta=w0.copy(), v=w0.copy(), schedule=schedule)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def _check_gradient(g: np.ndarray, i: int) -> None:
    if not np.isfinite(g).all():
        raise FloatingPointError(f"non-finite stochastic gradient at example {i}")


def _draw_gradient(obj, point: np.ndarray, rng, sigma: float) -> np.ndarray:
    i = int(rng.integers(0, obj.n))
    g = obj.grad_example(point, i)
    _check_gradient(g, i)
    if sigma > 0.0:
        g = g + gaussian_vector(rng, g.shape[0], sigma / math.sqrt(g.shape[0]))
    return g


def sgd_step(obj, w, cfg: SgdConfig, rng) -> np.ndarray:
    """One step w' = w - eta (grad f_i(w) + xi), i uniform, xi optional noise."""
    w = as_vector(w, dim=obj.dim)
    return w - cfg.eta * _draw_gradient(obj, w, rng, cfg.sigma)


def accel_step(obj, st: AccelState, rng, sigma: float = 0.0) -> AccelState:
    """One three-sequence step using the coefficients stamped on st.schedule.

    The schedule must have been advanced for this iteration. A single
    stochastic gradient is drawn at zeta_k and shared by the w and v
    updates.
    """
    sch = st.schedule
    if math.isnan(sch.alpha):
        raise ValueError("schedule not advanced: call accel_schedule_advance first")
    # difference form of the convex combinations: exact when v == w, so a
    # zero gradient leaves the state bit-identical (interpolation fixed point)
    zeta = st.w + sch.alpha * (st.v - st.w)
    g = _draw_gradient(obj, zeta, rng, sigma)
    w_next = zeta - sch.eta * g
    v_next = zeta + sch.beta * (st.v - zeta) - sch.gamma * sch.eta * g
    return AccelState(w=w_next, zeta=zeta, v=v_next, schedule=sch)


def _search_estimate(obj, point: np.ndarray, g: np.ndarray, i_loss, est: float) -> float:
    """Double ``est`` until the sampled example satisfies
    f_i(point - g/est) <= f_i(point) - ||g||^2 / (2 est)."""
    g_sq = float(g @ g)
    if g_sq <= GRAD_RESOLUTION_SQ:
        return est
    f0 = i_loss(point)
    for _ in range(MAX_DOUBLINGS + 1):
        if i_loss(point - g / est) <= f0 - g_sq / (2.0 * est) + 1e-15 * abs(f0):
            return est
        est *= 2.0
    raise _doublings_exceeded(est)


def line_search_sgd_step(obj, w, L_hat: float, rng) -> tuple[np.ndarray, float]:
    """SGD step with step size 1/L_hat, doubling L_hat until the sampled
    example passes the sufficient-decrease test. L_hat persists and never
    decreases across iterations."""
    if not (math.isfinite(L_hat) and L_hat > 0):
        raise ValueError(f"L_hat must be a positive finite number, got {L_hat}")
    w = as_vector(w, dim=obj.dim)
    i = int(rng.integers(0, obj.n))
    g = obj.grad_example(w, i)
    _check_gradient(g, i)
    L_hat = _search_estimate(obj, w, g, lambda p: obj.loss_example(p, i), L_hat)
    return w - g / L_hat, L_hat


def line_search_accel_step(obj, st: AccelState, rhoL_hat: float, rng) -> tuple[AccelState, float]:
    """Accelerated step searching over the product rho*L.

    For each candidate estimate the schedule is re-derived with
    eta = 1/rhoL_hat and rho = rhoL_hat / L, zeta recomputed, and the
    sufficient-decrease test applied at zeta on the sampled example. The
    tested step is the v-sequence step gamma*eta (the larger of the two
    gradient steps the iteration takes, and the one whose unchecked growth
    destabilizes the stochastic method); the first passing candidate is
    used. Early iterations may run with rho below 1 until the estimate
    warms past L. In strongly convex mode a candidate with mu*eta/rho > 1
    has no schedule and fails like a failed test.
    """
    if not (math.isfinite(rhoL_hat) and rhoL_hat > 0):
        raise ValueError(f"rhoL_hat must be a positive finite number, got {rhoL_hat}")
    sch = st.schedule
    i = int(rng.integers(0, obj.n))
    i_loss = lambda p: obj.loss_example(p, i)

    for _ in range(MAX_DOUBLINGS + 1):
        eta = 1.0 / rhoL_hat
        rho = rhoL_hat / obj.L
        if _sc_feasible(sch.mu, eta, rho):
            trial = accel_schedule_advance(replace(sch, eta=eta, rho=rho))
            zeta = st.w + trial.alpha * (st.v - st.w)
            g = obj.grad_example(zeta, i)
            _check_gradient(g, i)
            g_sq = float(g @ g)
            step = trial.gamma * eta
            f0 = i_loss(zeta)
            if g_sq <= GRAD_RESOLUTION_SQ or (
                i_loss(zeta - step * g) <= f0 - 0.5 * step * g_sq + 1e-15 * abs(f0)
            ):
                w_next = zeta - eta * g
                v_next = zeta + trial.beta * (st.v - zeta) - trial.gamma * eta * g
                return AccelState(w=w_next, zeta=zeta, v=v_next, schedule=trial), rhoL_hat
        rhoL_hat *= 2.0
    raise _doublings_exceeded(rhoL_hat)


# ---------------------------------------------------------------------------
# whole-pass kernels
# ---------------------------------------------------------------------------
#
# run() hands each pass on an Objective to one of two kernels, closures that
# take the pass's example indices (and noise rows, if any), update the
# iterates in preallocated buffers and return the iterate to log; given a
# line-search start, each runs its method's line-search variant. Any other
# objective steps through the single-step functions (_single_step_pass), so
# the kernels read the Objective's rows and scalar losses. One SGD kernel serves
# SGD and SGD(LS) with the single-step functions' own arithmetic, so its
# iterates are bit-identical to a loop over them on the same index stream.
# One accelerated kernel serves Acc-SGD and Acc-SGD(LS) and holds the three
# sequences in rank-one form (_RankOneIterates): the same steps in another
# operation order, one 2 x d product per step and vector work only for a
# nonzero gradient, whose log10 losses agree with the loop's within 1e-9
# decades (the tests check both). What the kernels leave out is per-step
# bookkeeping: index draws, input validation, finiteness scans (run() checks
# the iterate once per pass; a non-finite iterate stays non-finite) and
# schedule dataclasses. Kernels never write into a gradient they are handed.
# On the two hinge losses the SGD kernel's exact loop tells a zero gradient
# from the margin alone (_LossKind.margin_zero) and asks the loss table for
# s only on the active side. Where a _ZeroScreen applies (see run()), its
# cover() runs the pass instead, block by block. While it does not screen,
# on the squared hinge without a running mean, the accelerated kernel runs
# its stretches of mostly active steps as _SolvedBlocks: a Gram product on
# the guessed active columns and a forward substitution per guessed active
# set, within the same tolerance, and the exact loop where a block cannot be
# committed.


_U = 2.0**-53  # unit roundoff of float64
_PROBE = 128  # steps between looks at the gap while a kernel does not screen
_MAX_BLOCK = 4096
# Below these observed gaps between active steps a kernel does not screen.
# A skipped SGD step and a crossed Acc-SGD step each save the whole step.
# _SGD_MIN_GAP is the crossover timed when the screen was introduced.
# _ACCEL_MIN_GAP and _SOLVE_BLOCK are timed with the solved blocks in place:
# CPU time of run("accel") (and run("accel_ls") for the block), seeds 0-2
# summed, median of 9 alternating rounds, 8000 x 100 squared-hinge data,
# tau = 0.1 (fig1a) at 10 passes and tau = 0.005 (app_ls_hard) at 3 passes,
# one BLAS thread on a 2-vCPU VM. The gap at 16 / 32 / 64: 259 / 258 /
# 268 ms and 296 / 282 / 292 ms, within noise, so it stays 32. The block at
# 32 / 64 / 128: Acc-SGD 229 / 217 / 209 ms and 380 / 259 / 244 ms,
# Acc-SGD(LS) 275 / 246 / 233 ms and 510 / 352 / 337 ms; a second round of
# 64 against 128 gave 219 / 236, 248 / 224, 291 / 269 and 311 / 281 ms.
# 128 is also the most steps a block can take: cover() hands over _PROBE
# steps at a time.
_SGD_MIN_GAP = 16.0
_ACCEL_MIN_GAP = 32.0
_SOLVE_BLOCK = 128  # steps per _SolvedBlock
_MIN_SOLVED = 16  # shorter stretches run exact steps
_GUESSES = 3  # active sets a _SolvedBlock tries
# An accelerated pass with at most n / _SETTLE_SHARE nonzero gradients asks
# _ZeroScreen.settled whether the run has settled. The first check of a run
# costs one product over all rows (0.6-0.8 ms at 8000 x 100, one BLAS
# thread), so passes with many active steps, after which it all but surely
# fails, skip it. On fig1a's data (8000 x 100, tau = 0.1, program seeds
# 0-31) 16 of 32 runs settled after a pass that still had 1 to 15 nonzero
# gradients; fig1a's first pass has about 3100 and its second 8 to 36.
_SETTLE_SHARE = 64


def _leading_true(mask: np.ndarray) -> int:
    """Length of the run of True at the start of ``mask``."""
    return len(mask) if mask.all() else int(mask.argmin())


def _norms(*vectors: np.ndarray) -> list[float]:
    """The computed 2-norms sqrt(v . v) of ``vectors``: inf or nan, without
    numpy's warning, where a square overflows or an entry is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [math.sqrt(v.dot(v)) for v in vectors]


class _ZeroScreen:
    """Certificates that upcoming steps have an exactly zero gradient, and
    the one screened pass (:meth:`cover`) of the SGD kernel (SGD and
    SGD(LS)) and the accelerated kernel (Acc-SGD and Acc-SGD(LS)).

    For the squared-hinge and hinge losses, s_i = 0 exactly when the margin
    y_i x_i . p is >= 1. For a block of upcoming indices the screen gathers
    the rows and computes their margins with one product; a step is
    certified when a lower bound on its margin is >= 1.

    Dot products (Higham, *Accuracy and Stability of Numerical
    Algorithms*, §3.1): any summation order of a length-d dot product,
    fused multiply-adds included, lies within gamma_d sum_j |x_j p_j| <=
    gamma_d ||x|| ||p|| of the exact value, gamma_d = d u / (1 - d u) and
    u = 2^-53. The screen evaluates gamma at d + 4: the four extra units
    u ||x|| ||p|| (and more) cover the roundings of the bound's own
    evaluation (below) and its second-order terms, the rounding of the
    slack and of the norms, O(d^2 u^2) ||x|| ||p||, for d up to about 1e7.

    SGD and SGD(LS) (:meth:`certified_head`): the point is w, and the
    margin must be the kernel's own, y_i fl(x_i . w). The gemv and
    ``row.dot(w)`` differ by at most 2 gamma_d ||x_i|| ||w||, and the
    subtraction of the slack rounds once more, so a step is certified when
    m_i(w) - 2 gamma ||x_i|| ||w|| >= 1. A certified step leaves w
    untouched, so the kernel skips it. Since the bound holds for any
    summation order, the margins may come from the block's gathered rows
    or from one X @ w0 over all n rows. From the latter the screen keeps,
    with a copy of w0, the bounds L_i = y_i (X w0)_i - gamma ||x_i|| ||w0||
    on the exact margins at w0, and reads them at any later w (see
    :meth:`cover` and :meth:`certified_head`). The exact margin moves by at
    most ||x_i|| ||w - w0|| from w0 to w (Cauchy-Schwarz), and the kernel's
    margin lies within gamma_d ||x_i|| ||w|| of the exact one, so a step is
    certified when

        L_i - ||x_i|| (delta + gamma ||w||) >= 1,   delta >= ||w - w0||.

    At w = w0 (delta = 0) this is the test above. delta is the computed
    norm of the rounded difference w - w0 times 1 + 2 gamma. Each entry of
    that difference is within u of the exact one, relatively, and a
    computed norm, that of the difference or ||x_i||, is within
    (d/2 + 1) u (1 + O(u)) of its exact value. The factor exceeds 1 by
    2 gamma >= (2 d + 8) u, more than the (d + 7) u that these errors take
    together with the roundings of the factor and of its product and the
    two roundings of the slack's own sum and product, each at most
    u ||x_i|| (delta + gamma ||w||): their delta parts are covered, and the
    rest is second order. Left over are the subtraction in L_i, at most
    u ||x_i|| ||w0|| (1 + O(u)), and the subtraction of the slack, whose
    rounded result is >= 1 only if the exact one is >= 1 - u, with
    1 <= L_i <= ||x_i|| ||w0|| (1 + gamma): two of the four extra units.
    delta <= ||w|| + ||w0||, so nothing overflows below the norm limit.

    Acc-SGD and Acc-SGD(LS) (:meth:`certified_in_span`, :meth:`span_head`):
    the kernel holds its iterates as m, u~ and c (see
    :class:`_RankOneIterates`), and a zero-gradient step changes c alone
    (and, in Acc-SGD(LS), leaves the estimate alone). From a block's start
    at c, the k-th step of the block therefore evaluates its gradient at
    zeta_k = m - r_k u~, r_k = (1 - kappa - alpha_k) c_k, a coefficient in
    [0, c] that the kernel computes ahead. The crossed iterates are these
    span points, exactly, and a step is certified when its exact margin at
    zeta_k is >= 1; the kernel then crosses the certified head by updating
    c. One product X[blk] @ [m, u~] gives P0 and P1 within
    gamma_d ||x_i|| N_v and gamma_d ||x_i|| N_u of x_i . m and x_i . u~
    (N_v = ||m||, N_u = ||u~||), so the exact margin is at least
    y_i (P0 - r_k P1) - gamma_d S_i with S_i = ||x_i|| (N_v + r_k N_u).
    Evaluating that in floating point rounds three times: the product
    r_k P1, the difference, and the subtraction of the slack, whose rounded
    result is >= 1 only if the exact one is >= 1 - u. Each errs by at most
    u S_i (1 + O(u)), since |P0| and r_k |P1| are at most S_i (1 + gamma_d)
    and S_i is at least the margin, about 1 where it matters. So a step is
    certified when

        y_i (P0 - r_k P1) - gamma ||x_i|| (N_v + r_k N_u) >= 1.

    The exact margin at m - r u~ is affine in r, so a row whose certificate
    holds at r = 0 and at r = c, each checked as above, has an exact margin
    >= 1 at every span point with r in [0, c].

    A block without kept bounds takes one X @ [m, u~] over all n rows
    (see :meth:`span_head`), and from it the screen keeps, per row, the
    smaller of the two certificates' left-hand sides at r = 0 and r = c0
    (c0 the c of the product), L_i: the exact margin at m0 - rho u~0 is
    affine in rho, so L_i bounds it from below on the whole kept segment,
    rho in [0, c0]. It also keeps m0 and U0 = fl(c0 u~0). Later blocks,
    whether M has moved since (an active step, a solved block, a rebase or
    a fold) or not, read L_i at the two ends of their own segment, m and
    m - c u~ (v and w in convex mode): an exact margin moves by at most
    ||x_i|| times the distance moved, so a step is certified when

        L_i - ||x_i|| delta >= 1,   delta >= max(||m - m0||, ||m - c u~ - q||),

    with q = m0 - theta c0 u~0 on the kept segment. Any theta in [0, 1]
    is sound; the screen takes the least-squares fit of fl(c u~) by U0,
    clipped to [0, 1], so that a segment that has only shrunk (zero
    steps lower c and slide the far end towards m) or been folded lies
    close to its kept copy. The near distance is SGD's delta for the
    floats m and m0, (1 + 2 gamma) ||fl(m - m0)||, by the proof above. The
    far end and q are not floats: E = fl(m - fl(c u~)) is within
    u (||E|| + ||fl(c u~)||) (1 + O(u)) of m - c u~, and
    Q = fl(m0 - fl(theta U0)) within u (||Q|| + 2 ||U0||) (1 + O(u)) of q
    (U0 itself is within u of c0 u~0, entry by entry). So

        delta = (1 + 2 gamma) max(||fl(m - m0)||, ||fl(E - Q)||)
                + gamma (||E|| + ||fl(c u~)|| + ||Q|| + 2 ||U0||),

    where gamma >= 4 u covers both rounding distances with room for the
    roundings of the norms, at most (d/2 + 1) u each, and of the sum.
    L_i carries the three roundings of the check; the read rounds twice
    more: the product ||x_i|| delta, covered by delta's factor as in
    SGD's proof, and the subtraction, whose rounded result is >= 1 only if
    the exact one is >= 1 - u: the fourth extra unit. A fold sets
    u~ <- fl(c u~) and c <- 1 and leaves m in place: the far end moves by
    one rounding, theta = 1 and delta is the rounding terms alone. An M
    that overflows gives an inf or nan delta, which certifies nothing. The
    rows that L_i misses get the check above at their own span points. The
    kept bounds survive active steps; a false alarm drops them, by
    :meth:`cover`'s rule.

    Settled runs (:meth:`settled`): after a pass with few nonzero
    gradients (at most n / _SETTLE_SHARE), Acc-SGD and Acc-SGD(LS) without
    a running mean take one X @ [m, u~] at the M = [m; u~] and c that the
    next step starts from, and read L_i, the smaller of :meth:`_lower` at
    r = 0 and r = c. The run is settled when every row has

        L_i - ||x_i|| (4 gamma (N_v + c N_u) + 4 (F u + lead) c N_u
                       + 2^-900) >= 1,

    where F = 2 s for a run of s steps in all, and lead bounds t / c from
    above at every point m + t u~ where a later step takes a margin: 0 in
    convex mode (kappa = 0, alpha <= 1), and in strongly convex mode the
    one coefficient fl(fl(kappa - 1) + alpha) of every later step, if it
    is positive (kappa and alpha move only with the line search's
    estimate, which moves only at a nonzero gradient). The kernel computes
    that kappa and alpha as the next pass will, and passes an infinite
    lead where that kappa is not the current one, so that the next pass's
    rebase would move m. The check refuses F u or lead above 2^-10, and a
    point past the norm limit. L_i carries the three roundings of the
    check; the subtraction of the terminal slack rounds once more, and its
    rounded result is >= 1 only if the exact one is >= 1 - u: the fourth
    extra unit. So every exact margin on the segment m - r u~, r in
    [0, c], exceeds 1 by the terminal slack, up to a relative O(d u) from
    the rounding of the norms and of the slack's own evaluation. Nothing
    here reads the steps before the check, so a pass with nonzero
    gradients may settle the run as well as one without; the rows that
    failed the last check are read first only to refuse sooner.

    Then no later gradient is nonzero. By induction over the later steps,
    let all before one have had zero gradients. Nothing has written m: a
    zero step scales c by a computed factor in [0, 1], a solved block
    with no active step sets c to a cumulative product of such factors, a
    crossing scales c, and each pass's rebase finds the same kappa. A
    fold sets u~ <- fl(c u~) and c <- 1, so the product V = c u~ becomes
    fl(V), each entry within u |V_k| + 2^-1075 of V_k, and each later step
    makes at most two folds (one at the start of the kernel's steps(),
    which runs at least one step, and one in scale()). So
    with V0 = c u~ at the check, every later state has V_k = sigma V0_k
    (1 + theta_k) + e_k, sigma in [0, 1] common to all entries,
    |theta_k| <= (1 + u)^F - 1 <= 1.01 F u and |e_k| <= 1.01 F 2^-1075.
    Every margin that the kernel computes is taken at a point m + t u~,
    t = fl(a c'), with a in [-1, lead] and c' at most the current c: the
    exact loop's a = fl(fl(kappa - 1) + alpha), a solved block's the same
    a with c' from its cumulative product, and log_row's w, whose
    a = fl(kappa - 1) is at most the steps' a. So t u~ = -rho V with rho
    in [-1.01 lead, 1], and with E = V - sigma V0 the exact margin there
    is y_i x_i . (m - rho sigma V0) - rho y_i x_i . E. For rho >= 0 the
    first term is an exact margin on the checked segment, at
    r = rho sigma c; for rho < 0 it is at least the one at r = 0 less
    1.01 lead ||x_i|| ||V0||. The second is at most ||x_i|| ||E|| <=
    ||x_i|| (1.01 F u ||V0|| + 1.01 F sqrt(d) 2^-1075). The kernel's
    margin lies within (gamma_d + 2.02 u) ||x_i|| (||m|| + ||V||) of the
    exact one at its point: the exact loop's M.dot(row) and the block's
    X_b @ M^T give a and b within gamma_d ||x_i|| ||m|| and
    gamma_d ||x_i|| ||u~||, and a + t b rounds twice; log_row's
    fl(m + fl(t u~)) lies within u (||m|| + 2.01 |t| ||u~||) of m + t u~,
    and its gemv within gamma_d of the rest; y = +-1 multiplies exactly.
    Here |t| ||u~|| <= ||V|| <= 1.002 ||V0|| + ||e||. The terminal slack
    covers all of it: 4 gamma (gamma taken at d + 4) covers
    gamma_d + 2.02 u with the factor 1.002 and the relative errors of the
    norms, 4 (F u + lead) covers 1.01 (F u + lead), and 2^-900 covers
    1.01 F sqrt(d) 2^-1075 for F sqrt(d) below 2^170. So the kernel's
    margin y_i z is >= 1, where s_i is exactly zero: the step only scales
    c, a solved block guesses no step active and commits none, and
    log_row would log a loss of 0.0 (each max(0, 1 - y z) is 0), a zero
    gradient and no mistake (y z > 0). A settled run therefore logs the
    row (0.0, 0.0, 0.0) at this pass and every later one without
    stepping (see :func:`run`), with the bytes that stepping would write.

    The bounds assume no overflow, so a block certifies nothing unless
    ||x_i|| ||w|| (SGD) or ||x_i|| (N_v + N_u) (Acc-SGD; c <= 1) is below
    1e300 for every row (a non-finite point fails this too); a nan margin
    is never certified.
    """

    def __init__(self, obj: Objective, min_gap: float):
        data = obj.data
        self._X, self._y = data.X, data.y
        d = obj.dim + 4
        self._gamma = d * _U / (1.0 - d * _U)
        self._l2 = np.sqrt(obj._row_sq)
        self._norm_limit = 1e300 / max(float(self._l2.max()), 1.0)
        self._min_gap = min_gap
        self._gap = 0.0
        # SGD: per row, a lower bound on the exact margin at w0, the w of the
        # last full product; and whether the last read was at another w
        self._bounds, self._w0, self._moved = None, None, False
        # Acc-SGD: _bounds, per row, a lower bound on the exact margins on
        # the segment of the last full product, with its m and c u~
        self._kept_m, self._kept_u = None, None
        # the rows that failed the last settled check
        self._unsettled = np.empty(0, dtype=np.intp)

    def cover(self, n: int, steps, head) -> int:
        """Runs a pass of n steps and returns how many had a nonzero
        gradient. ``steps(start, end)`` runs the steps start..end-1
        (exactly, or as the accelerated kernel's solved blocks) and returns
        how many had a nonzero gradient; ``head(start, end)`` moves the
        iterates past the certified steps at the head of start..end-1 and
        returns their count. After a pass with few of them the
        accelerated kernel asks :meth:`settled` whether any later step can
        have one.

        While the observed gap between active steps (a running mean) is
        below ``min_gap``, a product costs more than it saves and the pass
        runs ``_PROBE`` steps at a time. Otherwise a block of 2 gap
        steps (at most ``_MAX_BLOCK``) starts with its certified head, and
        its first uncertified step runs exactly and ends it. A block
        without one suggests a gap of at least twice its length (one cut
        short by the end of the pass only keeps the estimate).

        The kept bounds of :meth:`certified_head` hold at any w, so active
        steps keep them. A false alarm drops them: the first uncertified
        step of a block runs exactly and has a zero gradient, while the
        head was read at a w that has moved since the bounds were made.
        The next block of at least n/4 steps then makes them again at the
        current w. The same holds for Acc-SGD's kept bounds (:meth:`span_head`
        reads them at any later M, and the head then ends at a step that
        fails its own span-point check too), but there the next block makes
        them again, whatever its length.
        """
        k = nonzero = 0
        while k < n:
            if self._gap < self._min_gap:
                end = min(k + _PROBE, n)
                active = steps(k, end)
                nonzero += active
            else:
                end = min(k + min(int(2.0 * self._gap), _MAX_BLOCK), n)
                stop = k + head(k, end)
                active = int(stop < end)
                if active:
                    end = stop + 1
                    moved = steps(stop, end)
                    nonzero += moved
                    if not moved and self._moved:
                        self._bounds = None  # a false alarm
            sample = (end - k) / active if active else max(2.0 * (end - k), self._gap)
            self._gap = 0.5 * (self._gap + sample)
            k = end
        return nonzero

    def certified_head(self, blk: np.ndarray, w: np.ndarray) -> int:
        """How many steps at the head of ``blk`` are certified at w.

        Reads the kept bounds L_i of all n rows if there are any, at the
        distance delta of w from the w0 they were made at. Otherwise a
        block of at least n/4 rows makes and keeps them, with a copy of w0
        = w, from one X @ w, which costs about as much as gathering that
        many rows and serves the blocks after it; a shorter block gathers
        its own rows.
        """
        norm, = _norms(w)
        if not norm < self._norm_limit:
            return 0
        gamma, l2 = self._gamma, self._l2
        if self._bounds is None:
            if 4 * len(blk) < len(self._y):
                m = self._y[blk] * (self._X[blk] @ w)
                return _leading_true(m - 2.0 * gamma * norm * l2[blk] >= 1.0)
            self._bounds = self._y * (self._X @ w) - (gamma * norm) * l2
            self._w0 = w.copy()
        e, = _norms(w - self._w0)
        delta = (1.0 + 2.0 * gamma) * e
        self._moved = delta > 0.0
        return _leading_true(self._bounds[blk] - l2[blk] * (delta + gamma * norm) >= 1.0)

    def span_head(self, blk: np.ndarray, M: np.ndarray, c: float, r: np.ndarray) -> int:
        """How many steps at the head of ``blk`` are certified at their span
        points m - r[k] u~, M = [m; u~] and 0 <= r[k] <= c.

        Reads the kept bounds if there are any, at the two ends of the
        current segment, m and m - c u~, with the slack of their distance
        from the kept segment (proof in the class docstring): one vector
        operation per block and a few of length d, where the product is
        n x d. The steps that they miss, and only those, run the check of
        :meth:`certified_in_span` at their own span points; the head ends
        at the first that fails it. Otherwise the block makes and keeps the
        bounds with one X @ [m, u~], and certifies its own steps from that
        product.
        """
        if self._bounds is None:
            n_v, n_u = _norms(*M)
            if not n_v + n_u < self._norm_limit:
                return 0
            P = self._X @ M.T
            self._bounds = self._segment(P, slice(None), n_v, n_u, c)
            self._kept_m, self._kept_u = M[0].copy(), c * M[1]
            self._moved = False
            return _leading_true(self._check(P[blk], blk, n_v, n_u, r))
        self._moved = True
        kept = self._bounds[blk] - self._l2[blk] * self._distance(M, c) >= 1.0
        miss = np.flatnonzero(~kept)
        if not len(miss):
            return len(blk)
        f = _leading_true(self.certified_in_span(blk[miss], M[0], M[1], r[miss]))
        return int(miss[f]) if f < len(miss) else len(blk)

    def _distance(self, M: np.ndarray, c: float) -> float:
        """delta of the class docstring: an upper bound on the distances of
        the ends m and m - c u~ of the segment of M and c from m0 and from
        m0 - theta c0 u~0 on the kept segment."""
        m, u = M
        kept_m, kept_u = self._kept_m, self._kept_u
        gamma = self._gamma
        # an M that overflows gives an inf or nan distance, which certifies
        # nothing, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            uu = float(kept_u.dot(kept_u))
            u_now = c * u
            end = m - u_now
            theta = min(1.0, max(0.0, float(u_now.dot(kept_u)) / uu)) if uu > 0.0 else 0.0
            near = kept_m - theta * kept_u
            e0, e1 = m - kept_m, end - near
        n0, n1, n_end, n_now, n_near = _norms(e0, e1, end, u_now, near)
        return (1.0 + 2.0 * gamma) * max(n0, n1) + gamma * (
            n_end + n_now + n_near + 2.0 * math.sqrt(uu))

    def certified_in_span(
        self, blk: np.ndarray, m: np.ndarray, u: np.ndarray, r: np.ndarray
    ) -> np.ndarray:
        """Per step k of ``blk``: certified at the span point m - r[k] u~."""
        n_v, n_u = _norms(m, u)
        if not n_v + n_u < self._norm_limit:
            return np.zeros(len(blk), dtype=bool)
        return self._check(self._X[blk] @ np.stack((m, u), axis=1), blk, n_v, n_u, r)

    def settled(self, M: np.ndarray, c: float, lead: float, steps: int) -> bool:
        """Whether no later step of an accelerated run of ``steps`` steps in
        all can have a nonzero gradient, from the state M and c that its
        next step starts from, where ``lead`` >= 0 bounds t / c from above
        at every span point m + t u~ that a later step reads: the terminal
        slack of the class docstring, read from one X @ [m, u~] at r = 0
        and r = c. The rows that failed the last check are read first, from
        a product of their own rows: while one of them still fails, the
        check refuses without the product over all rows."""
        n_v, n_u = _norms(*M)
        folds = 2.0 * steps
        if not (n_v + n_u < self._norm_limit and folds * _U <= 2.0**-10 and lead <= 2.0**-10):
            return False
        far = c * n_u
        scale = 4.0 * self._gamma * (n_v + far) + 4.0 * (folds * _U + lead) * far + 2.0**-900
        rows = self._unsettled
        if len(rows):
            lower = self._segment(self._X[rows] @ M.T, rows, n_v, n_u, c)
            fails = ~(lower - self._l2[rows] * scale >= 1.0)
            if fails.any():
                self._unsettled = rows[fails]
                return False
        lower = self._segment(self._X @ M.T, slice(None), n_v, n_u, c)
        self._unsettled = np.flatnonzero(~(lower - self._l2 * scale >= 1.0))
        return not len(self._unsettled)

    def _check(self, P: np.ndarray, rows, n_v: float, n_u: float, r) -> np.ndarray:
        """The certificate of the ``rows`` at r (per row, or one for all),
        from their products P with [m, u~] and the norms of m and u~."""
        return self._lower(P, rows, n_v, n_u, r) >= 1.0

    def _segment(self, P: np.ndarray, rows, n_v: float, n_u: float, c: float) -> np.ndarray:
        """Per row, the smaller of :meth:`_lower` at r = 0 and r = c: a
        lower bound on the exact margins on the whole segment."""
        return np.minimum(self._lower(P, rows, n_v, n_u, 0.0), self._lower(P, rows, n_v, n_u, c))

    def _lower(self, P: np.ndarray, rows, n_v: float, n_u: float, r) -> np.ndarray:
        """:meth:`_check`'s lower bound on the exact margins of the ``rows``
        at m - r u~, before its comparison with 1."""
        margin = self._y[rows] * (P[:, 0] - r * P[:, 1])
        slack = self._gamma * self._l2[rows] * (n_v + r * n_u)
        return margin - slack


class _RunningMean:
    """The iterate average, updated as wbar += (w - wbar) / count."""

    def __init__(self, w: np.ndarray):
        self.value = w.copy()
        self.count = 0
        self._t = np.empty_like(w)

    def add(self, w: np.ndarray) -> None:
        self.count += 1
        t = self._t
        np.subtract(w, self.value, t)
        np.divide(t, self.count, t)
        np.add(self.value, t, self.value)

    def add_span(self, v: np.ndarray, u: np.ndarray, steps: int, r_sum: float) -> None:
        """Adds the ``steps`` iterates v - r_k u, whose r_k sum to
        ``r_sum``: wbar = (count wbar + steps v - r_sum u) / (count + steps)."""
        value, t = self.value, self._t
        np.multiply(value, self.count, value)
        np.multiply(v, steps, t)
        np.add(value, t, value)
        np.multiply(u, r_sum, t)
        np.subtract(value, t, value)
        self.count += steps
        np.divide(value, self.count, value)


def _sgd_kernel(obj: Objective, w: np.ndarray, eta: float, mean, screen, estimate=None):
    """SGD; given a line-search start ``estimate`` L^, SGD(LS): SGD at
    eta = 1/L^ whose steps with a nonzero gradient double L^ until the
    sampled example passes the sufficient-decrease test. ``grad`` returns
    s_i x_i (s_i from ``_grad_scalar``) in a buffer that the next call
    overwrites, or None when s_i is exactly zero, which on the two hinge
    losses it tells from the margin alone (see ``_LossKind.margin_zero``).
    It leaves its margin z = x_i . p in ``z``, from which SGD(LS) takes the
    loss at w: the same call ``loss`` would make, so the same bits."""
    rows, ys, _ = obj._scalar_rows
    grad_scalar, loss_scalar = obj._grad_scalar, obj._loss_scalar
    buf = np.empty(obj.dim)
    z = 0.0

    if obj._loss_kind.margin_zero:

        def grad(p, i):
            nonlocal z
            row, y = rows[i], ys[i]
            z = float(row.dot(p))
            return np.multiply(row, grad_scalar(z, y), buf) if y * z < 1.0 else None
    else:

        def grad(p, i):
            nonlocal z
            row = rows[i]
            z = float(row.dot(p))
            s = grad_scalar(z, ys[i])
            return np.multiply(row, s, buf) if s else None

    def loss(p, i):
        return loss_scalar(float(rows[i].dot(p)), ys[i])

    t = np.empty_like(w)

    def run_pass(draw, noise):
        indices = draw.tolist()

        def steps(start: int, end: int) -> int:
            nonlocal w, t, estimate
            active = 0
            for k in range(start, end):
                i = indices[k]
                g = grad(w, i)
                if noise is not None:
                    g = noise[k] if g is None else g + noise[k]
                if g is not None:
                    active += 1
                    if estimate is None:
                        np.multiply(g, eta, t)
                        np.subtract(w, t, w)
                    else:
                        g_sq = float(g.dot(g))
                        if not math.isfinite(g_sq):
                            _check_gradient(g, i)
                        # t = w - g / estimate is both the trial point and,
                        # once accepted, the next iterate; below resolution
                        # the first is accepted untested
                        f0 = None if g_sq <= GRAD_RESOLUTION_SQ else loss_scalar(z, ys[i])
                        for _ in range(MAX_DOUBLINGS + 1):
                            np.divide(g, estimate, t)
                            np.subtract(w, t, t)
                            if f0 is None or (
                                loss(t, i) <= f0 - g_sq / (2.0 * estimate) + 1e-15 * abs(f0)
                            ):
                                break
                            estimate *= 2.0
                        else:
                            raise _doublings_exceeded(estimate)
                        w, t = t, w
                if mean is not None:
                    mean.add(w)
            return active

        if screen is None:
            steps(0, len(indices))
        else:
            screen.cover(len(indices), steps,
                         lambda start, end: screen.certified_head(draw[start:end], w))
        return w

    return run_pass


_FOLD_FLOOR = 2.0**-60  # c is folded into u~ before it falls below this


def _kappa(alpha: float, beta: float) -> float:
    """The kappa of :class:`_RankOneIterates` for the coefficients (alpha,
    beta): 0 when beta = 1 (convex mode)."""
    if beta == 1.0:
        return 0.0
    return (1.0 - beta) * (1.0 - alpha) / (1.0 - beta * (1.0 - alpha))


class _RankOneIterates:
    """Acc-SGD's three sequences as a 2 x d array M = [m; u~] and two
    scalars c and kappa:

        u = v - w = c u~,   v = m + kappa c u~,   w = m + (kappa - 1) c u~,

    and a step with coefficients (alpha, beta, gamma) evaluates its
    gradient at zeta = m + (kappa - 1 + alpha) c u~. Written out,
    :func:`accel_step` moves u to beta (1 - alpha) u - (gamma - 1) eta g and
    v to v - (1 - beta)(1 - alpha) u - gamma eta g. With
    kappa = (1 - beta)(1 - alpha) / (1 - beta (1 - alpha)) (:func:`_kappa`;
    0 in convex mode, where beta = 1) the u term of m cancels, and the step
    is

        c <- beta (1 - alpha) c,
        M -= [(gamma - kappa (gamma - 1)) eta; (gamma - 1) eta / c] (x) g:

    a scalar update when g = 0 and one rank-one update otherwise (Bottou's
    scaling trick, "Stochastic Gradient Descent Tricks", 2012). Folding sets
    u~ <- c u~ and c <- 1. It happens only where c would fall below
    ``_FOLD_FLOOR`` (convex mode's first step, alpha = 1, would set c to 0),
    which bounds the 1/c of the update by 2^60, and at the start of the
    kernel's exact steps and solved blocks. A step whose coefficients call
    for another kappa (Acc-SGD(LS) in strongly convex mode, after its
    estimate moved) first rebases m += (kappa_old - kappa) c u~, which
    leaves u and v alone.
    """

    def __init__(self, w: np.ndarray):
        self.M = np.zeros((2, len(w)))
        self.m, self.u = self.M  # row views
        self.m[:] = w
        self.c, self.kappa = 1.0, 0.0
        self._col = np.empty((2, 1))
        self._buf = np.empty_like(self.M)
        self._point = np.empty_like(w)

    def w(self) -> np.ndarray:
        """m + (kappa - 1) c u~, in a buffer that the next call overwrites."""
        point = self._point
        np.multiply(self.u, (self.kappa - 1.0) * self.c, point)
        np.add(self.m, point, point)
        return point

    def scale(self, factor: float) -> None:
        """c <- factor c, folded if that falls below the floor."""
        c = factor * self.c
        if c < _FOLD_FLOOR:
            np.multiply(self.u, c, self.u)
            c = 1.0
        self.c = c

    def fold(self) -> None:
        if self.c != 1.0:
            np.multiply(self.u, self.c, self.u)
            self.c = 1.0

    def rebase(self, kappa: float) -> None:
        if kappa != self.kappa:
            np.multiply(self.u, (self.kappa - kappa) * self.c, self._point)
            np.add(self.m, self._point, self.m)
            self.kappa = kappa

    def step(self, decay: float, gamma: float, h: float, g) -> None:
        """A step with decay = beta (1 - alpha) and gradient h g (g None:
        an exactly zero gradient)."""
        self.scale(decay)
        if g is not None:
            col = self._col
            col[0, 0] = (gamma - self.kappa * (gamma - 1.0)) * h
            col[1, 0] = (gamma - 1.0) * h / self.c
            np.multiply(col, g, self._buf)
            np.subtract(self.M, self._buf, self.M)


class _MarginOracle:
    """The gradient and loss of example i at zeta = m + t u~ for an
    :class:`Objective`: the gradient is s x_i, and s and the loss are
    scalar functions of the margin z = a + t b, where (a, b) = M x_i is made
    once per step by :meth:`start`. The trial point zeta - h x_i has the
    margin z - h ||x_i||^2."""

    def __init__(self, obj: Objective, it: _RankOneIterates):
        self._rows, self._ys, self._row_sq = obj._scalar_rows
        self._M = it.M
        self._grad, self._loss = obj._grad_scalar, obj._loss_scalar

    def start(self, i: int) -> None:
        self.g = row = self._rows[i]
        self._y, self._sq = self._ys[i], self._row_sq[i]
        self._a, self._b = self._M.dot(row).tolist()

    def grad(self, t: float) -> float:
        """s: the gradient at zeta is s g, exactly zero when s is."""
        return self._grad(self._a + t * self._b, self._y)

    def decreases(self, i: int, t: float, s: float, h: float) -> bool:
        """Example i's sufficient-decrease test at zeta for the step h s g."""
        g_sq = s * s * self._sq
        if not math.isfinite(g_sq):
            _check_gradient(s * self.g, i)
        if g_sq <= GRAD_RESOLUTION_SQ:
            return True
        z = self._a + t * self._b
        f0 = self._loss(z, self._y)
        return self._loss(z - h * s * self._sq, self._y) <= f0 - 0.5 * h * g_sq + 1e-15 * abs(f0)


class _SolvedBlock:
    """A block of Acc-SGD steps on the squared hinge as one linear system.

    On the active side of the squared hinge (y z < 1, y = +-1) a step's
    gradient scalar is linear in its margin, s = 2 (z - y), and zero on the
    other side. From the block's start, with c = c_0, step k evaluates its
    gradient at zeta_k = m + t_k u~ with t_k = (kappa - 1 + alpha_k) c_k and
    c_{k+1} = beta (1 - alpha_k) c_k, and each earlier step j moved M by
    [C0_j; C1_j] s_j x_j (:class:`_RankOneIterates`), with
    C0_j = (gamma_j - kappa (gamma_j - 1)) eta and
    C1_j = (gamma_j - 1) eta / c_{j+1}. So step k's margin is

        z_k = p_k - sum_{j<k} K_kj s_j,   K_kj = (x_k . x_j) (C0_j + t_k C1_j),

    with p_k = P[k, 0] + t_k P[k, 1] and P = X_b M^T. :meth:`commit`
    guesses the active set A = {k : y_k p_k < 1} and solves the unit
    lower-triangular system s = D (2 (p - y) - 2 K s), D the 0/1 diagonal
    of A. Since s_j = 0 off A, only the columns of K in A enter:
    z = p - K_A s_A. So K is made on the guessed active columns alone, from
    the n x |A| product X_b X_A^T, and a later guess makes only the columns
    that it adds. A guess that adds more than half the block's columns
    makes all of them instead, from the symmetric product X_b X_b^T, which
    costs less than as many gathered columns: Acc-SGD at tau_over_L guesses
    almost every step active. Timed by the method of the ``_SOLVE_BLOCK``
    comment (tau = 0.005, 3 passes): against the whole product in every
    block, Acc-SGD(LS) took 342 -> 257 and 341 -> 310 ms in two rounds
    (9 and 8 of 9 faster) and Acc-SGD 209 -> 209 and 241 -> 228 ms (4 and 7
    of 9); without the rule above, Acc-SGD took 272 ms against 197 ms with
    it. K is held as its made columns, n x |made|, with their indices idx,
    and :meth:`_solve` iterates s <- b - 2 D K s[idx] from s = b,
    b = 2 D (p - y), until s stands still, bitwise: a round costs
    n |made|. K is strictly lower triangular, so this is forward
    substitution: s_k reads s_j for j < k only and stands still from round
    k + 1 on, and n + 1 rounds settle any system whose numbers are finite
    (its active s_k within |A| + 1), whatever its coupling. Measured over
    fig1a's Acc-SGD (8000 x 100, tau = 0.1, seeds 0-7, 10 passes), its 460
    systems took at most 8 rounds (median 6); on app_ls_hard's data
    (tau = 0.005, seeds 0-3, 3 passes) Acc-SGD's 756 took at most 6
    (median 5) and Acc-SGD(LS)'s 1083 a median 10, p90 16 and at most 53.

    A step's margin reads earlier steps only, so the leading steps whose
    solved status y z < 1 agrees with the guess are the steps the exact
    loop takes, in another operation order; a guess that the solved
    statuses contradict is replaced by them, up to ``_GUESSES`` guesses in
    all, and the block commits its leading agreeing steps.
    Acc-SGD(LS) commits a step only if it also passes
    :meth:`_MarginOracle.decreases`' test at the current estimate. A block
    ends before a step that would take c below ``_FOLD_FLOOR``, which the
    exact loop folds in mid-step.

    A block with some made |K_kj| >= 1/2 is left to the exact loop. Its
    steps move each other's margins by more than their own size: its
    guesses fail within a few steps, and a diverging run (where every
    reordering changes the printed digits) keeps the exact loop's
    arithmetic. The made columns are those of active steps, the only ones
    that move a margin.
    """

    def __init__(self, obj: Objective):
        self._X, self._y, self._row_sq = obj.data.X, obj.data.y, obj._row_sq
        self._losses = obj._loss_kind.losses
        self._lower = np.tri(_SOLVE_BLOCK, k=-1)
        # c_0..c_n, and rows [1, t] and [C0, C1] of the K_kj factor, reused
        # by every block
        self._c = np.empty(_SOLVE_BLOCK + 1)
        self._T = np.ones((2, _SOLVE_BLOCK))
        self._C = np.empty((2, _SOLVE_BLOCK))

    def _columns(self, X_b, T, C, cols):
        """The columns ``cols`` (indices, or slice(None) for all) of K."""
        n = len(T)
        K = T @ C[:, cols]
        K *= self._lower[:n, :n][:, cols]
        K *= X_b @ X_b[cols].T
        return K

    @staticmethod
    def _solve(K, idx, b, two):
        """s = b - two K s[idx], iterated from s = b until s stands still
        (within len(b) + 1 rounds, the class docstring shows)."""
        s = b
        for _ in range(len(b) + 1):
            last = s
            s = K @ s[idx]
            np.subtract(b, np.multiply(s, two, s), s)  # b - two * (K @ s[idx])
            if (s == last).all():
                break
        return s

    def commit(self, it: _RankOneIterates, blk, alphas, gammas, beta, kappa, eta, test):
        """Commits the leading steps of the example indices ``blk``, with
        the coefficients ``alphas`` and ``gammas`` at (beta, kappa, eta);
        ``test`` asks for the sufficient-decrease test. Returns (steps,
        active steps) committed, or None, with ``it`` untouched, if the
        block is strongly coupled or a number it needs is not finite: the
        exact loop then runs the block, and raises or warns as it does."""
        c = self._c[: len(alphas) + 1]  # c_0..c_n
        c[0] = it.c
        np.multiply(np.subtract(1.0, alphas, c[1:]), beta, c[1:])
        np.cumprod(c, out=c)
        n = _leading_true(c[1:] >= _FOLD_FLOOR)
        if not n:
            return 0, 0
        blk, alphas = blk[:n], alphas[:n]
        with np.errstate(all="ignore"):
            X_b, y_b = self._X[blk], self._y[blk]
            T, C = self._T[:, :n], self._C[:, :n]
            t = T[1]
            np.multiply(kappa - 1.0 + alphas, c[:n], t)
            P = X_b @ it.M.T
            p = P[:, 0] + t * P[:, 1]
            g = np.asarray(gammas[:n])
            # K_kj = (x_k . x_j) (C[0, j] + t_k C[1, j]) below the diagonal
            g1 = g - 1.0
            np.multiply(g - kappa * g1, eta, C[0])
            np.divide(g1 * eta, c[1 : n + 1], C[1])
            T = T.T
            # K holds the columns idx of the K_kj that some guess made
            # active, the whole product once a guess makes all; the others
            # are 0, as are the s they would multiply
            K, idx = np.empty((n, 0)), np.empty(0, dtype=np.intp)
            made = np.zeros(n, dtype=bool)
            status = y_b * p < 1.0
            for _ in range(_GUESSES):
                guess, two = status, 2.0 * status
                new = np.flatnonzero(guess & ~made)
                if len(new):
                    whole = 2 * len(new) > n  # all of X_b @ X_b.T, a symmetric product
                    cols = self._columns(X_b, T, C, slice(None) if whole else new)
                    if not max(cols.max(), -cols.min()) < 0.5:
                        return None
                    if whole:
                        K, idx = cols, slice(None)
                        made[:] = True
                    else:
                        K, idx = np.concatenate((K, cols), axis=1), np.concatenate((idx, new))
                        made[new] = True
                s = self._solve(K, idx, two * (p - y_b), two)
                z = p - K @ s[idx]
                if not np.isfinite(z).all():
                    return None
                status = y_b * z < 1.0
                if (status == guess).all():
                    break
            steps = _leading_true(status == guess)
            if test:
                sq = self._row_sq[blk]
                h = g * eta
                g_sq = s * s * sq
                if not np.isfinite(g_sq).all():
                    return None
                f0 = self._losses(z, y_b)
                trial = self._losses(z - h * s * sq, y_b)
                ok = (g_sq <= GRAD_RESOLUTION_SQ) | (
                    trial <= f0 - 0.5 * h * g_sq + 1e-15 * np.abs(f0)
                )
                steps = min(steps, _leading_true(ok))
            active = int(np.count_nonzero(guess[:steps]))
            if active:
                update = (C[:, :steps] * s[:steps]) @ X_b[:steps]
                new = np.subtract(it.M, update, it._buf)
                if not np.isfinite(new).all():
                    return None
                it.M[:] = new
        it.c = float(c[steps])
        return steps, active


def _convex_coefficients(
    n: int, rho: float, eta: float, gamma_prev: float
) -> tuple[np.ndarray, np.ndarray]:
    """(gamma_k, alpha_k) over n >= 1 convex-mode advances from the carried
    gamma_prev: ``_schedule_coefficients``' formulas and bits. Only gamma is
    sequential, and the loop carries h = 2 gamma instead:
    h_k = 1/rho + sqrt(1/rho^2 + h_{k-1} h_{k-1}). Scaling by a power of two
    is exact (barring overflow and underflow), so h h is bitwise
    4 (gamma gamma), 0.5 h_k bitwise gamma_k, and the loop drops the
    multiplication by 4. ab_k = gamma_{k-1}^2 eta rho and alpha_k follow as
    elementwise array ops, in the same operation order."""
    inv_rho = 1.0 / rho
    inv_rho_sq, sqrt = inv_rho * inv_rho, math.sqrt
    h = 2.0 * gamma_prev
    gamma = np.array([0.5 * (h := inv_rho + sqrt(inv_rho_sq + h * h)) for _ in range(n)])
    prev = np.concatenate(([gamma_prev], gamma[:-1]))
    ge = gamma * eta
    return gamma, ge / (ge + prev * prev * eta * rho)


def _accel_kernel(obj: Objective, w: np.ndarray, sched: AccelSchedule, mean, screen, horizon: int,
                  estimate=None):
    """Acc-SGD on :class:`_RankOneIterates`; given a line-search start
    ``estimate`` L^, Acc-SGD(LS): Acc-SGD at rho = L^/L and eta = 1/L^ whose
    exact steps with a nonzero gradient may double L^ (``search``). With a
    screen, the certified steps at the head of a block are crossed by
    updating c alone (see ``_ZeroScreen.span_head``), without a fold: r_k is
    c times a cumulative product of 1 - alpha_j in convex mode and c times
    a constant times a power of beta (1 - alpha) in strongly convex mode,
    and the screen reads its bounds on the kept segment at the current M
    and c (see :class:`_ZeroScreen`). A pass returns w without folding
    either. With a screen on the squared hinge and no running mean, a
    stretch of at least ``_MIN_SOLVED`` steps that the screen hands over
    runs as :class:`_SolvedBlock`s of
    ``_SOLVE_BLOCK`` steps: each commits its leading steps that agree with
    its guessed active set (and, in Acc-SGD(LS), pass the sufficient-decrease
    test), and the exact loop takes the step that ended them, which may fold
    c or double L^, or the whole block if it is strongly coupled or not
    finite. A pass returns None instead of w where it settles the run: with
    a screen and no running mean, a pass with at most n / _SETTLE_SHARE
    nonzero gradients asks :meth:`_ZeroScreen.settled` whether a later
    step can have one, where ``horizon``, the run's step count, bounds the
    folds still to come. run() then makes no further call."""
    mode, mu, convex = sched.mode, sched.mu, sched.mode == "convex"
    rho, eta, gamma_prev, ab = sched.rho, sched.eta, sched.gamma_prev, sched.ab_ratio
    it = _RankOneIterates(w)
    oracle = _MarginOracle(obj, it)
    solver = None
    if screen is not None and mean is None and obj.kind == "squared_hinge":
        solver = _SolvedBlock(obj)
    g_noise = np.empty_like(w)
    settle = screen is not None and mean is None
    beta, kappa, powers, sc_r = 1.0, 0.0, None, None
    # Acc-SGD(LS) searches the run's first step: that sets rho and eta, and in
    # strongly convex mode uses make_schedule's ratio and skips infeasible L^
    search_first = estimate is not None

    def lead() -> float:
        """An upper bound on t / c at every later span point m + t u~: 0 in
        convex mode; in strongly convex mode the coefficient of every
        later step, as the next pass computes it, or inf if the next pass
        would rebase m (Acc-SGD(LS) after a search at a pass's last step)."""
        if convex:
            return 0.0
        _, alpha, beta_next, _ = _schedule_coefficients(mode, rho, eta, mu, 0.0, ab)
        kappa_next = _kappa(alpha, beta_next)
        return max(0.0, kappa_next - 1.0 + alpha) if kappa_next == it.kappa else math.inf

    def run_pass(draw, noise):
        nonlocal gamma_prev
        n = len(draw)
        gammas, alphas = np.empty(n), np.empty(n)
        filled = 0  # steps whose gamma and alpha are ready

        def ready(end: int) -> None:
            """gamma_j and alpha_j at (rho, eta) of the steps before ``end``
            (of all n but in convex Acc-SGD(LS)), from the state carried into
            the first step without them: ``_convex_coefficients``' bits, or
            strongly convex mode's constants (finite alpha and beta lie in
            [0, 1]) with kappa and the span powers, c = powers[j] at step j."""
            nonlocal beta, kappa, powers, sc_r, filled
            k = filled
            if k >= end:
                return
            if not convex:
                gamma, alpha, beta, _ = _schedule_coefficients(mode, rho, eta, mu, 0.0, ab)
                gammas[k:], alphas[k:], filled = gamma, alpha, n
                it.rebase(kappa := _kappa(alpha, beta))
                powers = (beta * (1.0 - alpha)) ** np.arange(_MAX_BLOCK + 1.0)
                sc_r = max(0.0, 1.0 - kappa - alpha) * powers[:-1]
                return
            # Acc-SGD never reschedules and fills the whole pass in one call:
            # filling it up to each request, as Acc-SGD(LS) must, took fig1a's
            # pass_ms_p50 from 3.00 to 3.25 ms (worse in 9 of 10 benchmark pairs)
            end = n if estimate is None else end
            gp = float(gammas[k - 1]) if k else gamma_prev
            gammas[k:end], alphas[k:end] = _convex_coefficients(end - k, rho, eta, gp)
            filled = end

        def search(k: int, i: int) -> bool:
            """Step k by :func:`line_search_accel_step`'s loop, from the state
            carried into it; the coefficients of the steps after it are
            dropped. Returns whether the gradient was nonzero."""
            nonlocal estimate, rho, eta, ab, search_first, filled
            gp = float(gammas[k - 1]) if k else gamma_prev
            ab_k = gp * gp * eta * rho if convex else ab
            oracle.start(i)
            for _ in range(MAX_DOUBLINGS + 1):
                rho, eta = estimate / obj.L, 1.0 / estimate
                if _sc_feasible(mu, eta, rho):
                    gamma, alpha, beta_k, ab = _schedule_coefficients(mode, rho, eta, mu, gp, ab_k)
                    t = (it.kappa - 1.0 + alpha) * it.c
                    s = oracle.grad(t)
                    if not s or oracle.decreases(i, t, s, gamma * eta):
                        break
                estimate *= 2.0
            else:
                raise _doublings_exceeded(estimate)
            it.rebase(_kappa(alpha, beta_k))
            it.step(beta_k * (1.0 - alpha), gamma, eta * s, oracle.g if s else None)
            if mean is not None:
                mean.add(it.w())
            gammas[k], filled, search_first = gamma, k + 1, False
            return bool(s)

        def steps(start: int, end: int) -> int:
            """The steps start..end-1, in solved blocks where they apply;
            returns how many had a gradient."""
            it.fold()
            active = 0
            if search_first:
                active += search(start, int(draw[start]))
                start += 1
            ready(end)
            while solver is not None and end - start >= _MIN_SOLVED:
                # a solved block's leading steps, then the step that ended
                # them exactly, or all of it if commit declines
                stop = min(start + _SOLVE_BLOCK, end)
                done = solver.commit(it, draw[start:stop], alphas[start:stop],
                                     gammas[start:stop], beta, kappa, eta, estimate is not None)
                if done is not None:
                    start += done[0]
                    active += done[1]
                    stop = min(start + 1, stop)
                active += exact(start, stop, end)
                start = stop
            return active + exact(start, end, end)

        def exact(start: int, stop: int, end: int) -> int:
            """The exact steps start..stop-1 of the steps before ``end``."""
            active = 0
            # indices, alpha_k and gamma_k as Python scalars, converted a chunk
            # at a time: a crossed pass runs few exact steps
            als, gs = alphas[start:stop].tolist(), gammas[start:stop].tolist()
            for k, (i, alpha, gamma) in enumerate(zip(draw[start:stop].tolist(), als, gs), start):
                oracle.start(i)
                t = (kappa - 1.0 + alpha) * it.c
                s = oracle.grad(t)
                if s:
                    active += 1
                    if estimate is not None and not oracle.decreases(i, t, s, gamma * eta):
                        search(k, i)
                        ready(end)  # rescheduled; zip reads als and gs lazily
                        als[k + 1 - start:] = alphas[k + 1:stop].tolist()
                        gs[k + 1 - start:] = gammas[k + 1:stop].tolist()
                        continue
                g, h = (oracle.g, eta * s) if s else (None, 0.0)
                if noise is not None:
                    if g is None:
                        g = noise[k]
                    else:
                        np.multiply(g, s, g_noise)
                        g = np.add(g_noise, noise[k], g_noise)
                    h = eta
                it.step(beta * (1.0 - alpha), gamma, h, g)
                if mean is not None:
                    mean.add(it.w())
            return active

        def head(start: int, end: int) -> int:
            """Crosses the certified steps at the head of start..end-1, with
            zeta_k = m - r[k] u~; returns their count, with c and the mean
            moved past them."""
            ready(end)
            c = it.c
            # r_k / c: convex mode's cumulative product (r_k = c_{k+1}), or a
            # constant times a power of beta (1 - alpha)
            rel = np.cumprod(np.subtract(1.0, alphas[start:end])) if convex else sc_r[: end - start]
            r = c * rel
            j = screen.span_head(draw[start:end], it.M, c, r)
            if j:
                if mean is not None:
                    mean.add_span(it.m, it.u, j, float(r[:j].sum()))
                it.scale(float(rel[j - 1] if convex else powers[j]))
            return j

        nonzero = steps(0, n) if screen is None else screen.cover(n, steps, head)
        gamma_prev = float(gammas[-1])
        if settle and nonzero * _SETTLE_SHARE <= n and screen.settled(it.M, it.c, lead(), horizon):
            return None
        return it.w()

    return run_pass


# What the kernels stand in for. The originals are kept in a tuple, which a
# rebinding of the module's names (a profiler's wrappers, a test's patch)
# does not reach.
_STEP_PATH = (
    "sgd_step",
    "accel_step",
    "line_search_sgd_step",
    "line_search_accel_step",
    "accel_schedule_advance",
)


def _step_path() -> tuple:
    names = globals()
    return tuple(names[f] for f in _STEP_PATH) + (Objective.grad_example, Objective.loss_example)


_ORIGINAL_STEP_PATH = _step_path()


class _PassDraws:
    """Serves the single-step functions one pass's batched draws, in the
    order they ask for them: example indices, then noise rows."""

    def __init__(self, indices, noise):
        self._indices = iter(indices)
        self._noise = iter(() if noise is None else noise)

    def integers(self, low, high):
        return next(self._indices)

    def normal(self, loc, scale, size):
        return next(self._noise)


def _single_step_pass(obj, method: str, w, eta: float, sigma: float, sched, estimate, mean):
    """A pass as a loop over the public single-step functions, on the same
    draws as the kernels. run() uses it for an objective that is not an
    :class:`Objective` (the analytic objectives of :mod:`interpsgd.problems`,
    which the kernels do not serve), and when one of the functions has been
    rebound, so that the rebinding sees every step. A non-finite point of
    the run's own state raises FloatingPointError("non-finite iterate")
    before the step that would read it, as the kernels report a diverging
    run; the single steps' ValueError stays for non-finite input that a
    caller passes in."""
    cfg = SgdConfig(eta=eta, sigma=sigma) if method == "sgd" else None
    st = None if sched is None else init_accel_state(w, sched)

    def run_pass(indices, noise):
        nonlocal w, st, estimate
        rng = _PassDraws(indices, noise)
        for _ in indices:
            state = (w,) if st is None else (st.w, st.v)
            if not all(np.isfinite(v).all() for v in state):
                raise FloatingPointError("non-finite iterate")
            if method == "sgd":
                w = sgd_step(obj, w, cfg, rng)
            elif method == "sgd_ls":
                w, estimate = line_search_sgd_step(obj, w, estimate, rng)
            else:
                if method == "accel":
                    st = replace(st, schedule=accel_schedule_advance(st.schedule))
                    st = accel_step(obj, st, rng, sigma=sigma)
                else:
                    st, estimate = line_search_accel_step(obj, st, estimate, rng)
                w = st.w
            if mean is not None:
                mean.add(w)
        return w

    return run_pass


# ---------------------------------------------------------------------------
# multi-pass driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Everything a multi-pass run needs beyond the objective itself.

    ``eta=None`` picks the method default: 1/L_max for sgd, 1/(rho L) for
    accel and accel_ls (whose strongly convex start reads it); sgd_ls steps
    by its line-search estimate and ignores eta. ``mode``/``mu`` select the
    accelerated schedule. ``w0`` defaults to the origin.
    """

    eta: float | None = None
    rho: float = 1.0
    mode: str = "convex"
    mu: float | None = None
    sigma: float = 0.0
    seed: int = 0
    averaging: bool = False
    w0: np.ndarray | None = None
    ls_init: float = 1.0

    def resolve_eta(self, obj, method: str) -> float:
        if self.eta is not None:
            return self.eta
        eta = 1.0 / obj.L_max if method == "sgd" else 1.0 / (self.rho * obj.L)
        if not (math.isfinite(eta) and eta > 0):
            raise ValueError(
                "no default step size: objective lacks smoothness constants "
                "(non-smooth kind?); supply eta explicitly"
            )
        return eta


def run(obj, method: str, config: RunConfig, passes: int) -> RunRecord:
    """Execute passes * n single-example steps, logging metrics once per pass.

    The record gets an initial row at w0 plus one row per pass. Under
    averaging, metrics are evaluated at the running mean of the iterates
    (maintained incrementally), not at the last iterate. Wall time is
    recorded on the rows but zeroed in CSV output by default; see records.

    Each pass draws its n example indices in one batch,
    ``rng.integers(0, n, size=n)``, which is the same stream as n scalar
    draws. On an :class:`Objective` a whole-pass kernel runs them: one
    serves SGD and SGD(LS), whose iterates equal those of a loop over the
    single-step functions, bit for bit; one serves Acc-SGD and Acc-SGD(LS),
    which take the same steps in rank-one form (:class:`_RankOneIterates`:
    one 2 x d product per step, vector work only for a nonzero gradient),
    in another operation order, so their log10 losses agree with the
    loop's within 1e-9 decades on non-diverging runs. With sigma > 0 the
    pass's noise follows as one (n, dim) normal draw, so noisy runs use a
    different stream than interleaved per-step draws whenever n > 1.
    Finiteness of the logged iterate is checked once per pass; a failure in
    a pass is raised as a :class:`RunError`, ``pass p: ...``.
    On the squared-hinge and hinge losses with sigma = 0, the SGD kernel
    (without averaging) skips, and the accelerated kernel crosses by a
    scalar update, the steps that a :class:`_ZeroScreen` certifies to have
    an exactly zero gradient (a zero-gradient line-search step leaves its
    estimate alone); SGD and SGD(LS) stay bit-identical. Both kernels keep
    what one product over all n rows tells, made by the first block that
    they screen (SGD's of at least n/4 steps): SGD and SGD(LS) a lower
    bound per row on the exact margin, which a later w reads with the
    slack of its distance from the product's w, through active steps, until a step that the bound missed
    turns out to have a zero gradient; Acc-SGD and Acc-SGD(LS) a lower
    bound per row on the exact margins along the segment of span points
    m - r u~, r in [0, c], of the product's M and c (from v to w in convex
    mode), which a later M reads with the slack of the distances of its
    own segment's ends from that segment, through active steps and folds,
    until a false alarm. On the squared hinge without averaging, the
    accelerated kernel runs the stretches that it does not screen in
    solved blocks (:class:`_SolvedBlock`): a block of
    128 steps guesses its active set from the margins at its start, solves
    the unit lower-triangular system that the steps' gradient scalars
    satisfy on the squared hinge's linear side, from the Gram columns of
    the guessed active steps, and commits the leading steps whose solved
    margins agree with the guess; the exact loop runs the step after them,
    and a block that is strongly coupled or not finite. Its log10 losses
    agree with the exact loop's within the same 1e-9 decades. In the steps
    that the screen does not certify, SGD and SGD(LS) on the two hinge
    losses skip a step whose margin y z is not below 1 without evaluating
    the loss table, whose s is exactly zero there
    (``_LossKind.margin_zero``), and stay bit-identical.
    An accelerated run with a screen and without averaging settles after a
    pass with few nonzero gradients (at most n / 64) if one X @ [m, u~]
    shows every margin along the segment of the iterates' span points
    above 1 by a terminal slack that covers every margin the kernel could
    still compute, and the rounding of its later folds
    (``_ZeroScreen.settled``). Every later
    gradient is then exactly zero, and each later pass logs the row that
    stepping would log, bit for bit: loss, gradient and mistake rate 0.0,
    without drawing, stepping or evaluating.
    Any other objective (those of :mod:`interpsgd.problems`), and any while
    a single-step function or ``Objective.grad_example``/``loss_example``
    is rebound (wrapped by a profiler, say), steps through the public
    single-step functions instead, on the same draws.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    if config.sigma != 0.0 and method.endswith("_ls"):
        raise ValueError("line-search methods do not support additive noise")
    if method.endswith("_ls") and not (math.isfinite(config.ls_init) and config.ls_init > 0):
        raise ValueError(f"ls_init must be a positive finite number, got {config.ls_init}")

    n = obj.n
    w = (
        np.zeros(obj.dim)
        if config.w0 is None
        else as_vector(config.w0, dim=obj.dim).copy()
    )
    rng = make_rng(config.seed)
    eta = None
    if method != "sgd_ls":  # SGD(LS) steps by 1/L_hat and never reads eta
        eta = config.resolve_eta(obj, method)
        SgdConfig(eta=eta, sigma=config.sigma)  # validates eta and sigma
    if method == "accel_ls" and not (math.isfinite(obj.L) and obj.L > 0):  # its kernel reads L
        raise ValueError(f"method accel_ls needs a smooth loss with a finite L, got L = {obj.L}")
    accel = method.startswith("accel")
    sched = make_schedule(config.mode, config.rho, eta, mu=config.mu) if accel else None

    mean = _RunningMean(w) if config.averaging else None
    estimate = config.ls_init if method.endswith("_ls") else None
    if not isinstance(obj, Objective) or _step_path() != _ORIGINAL_STEP_PATH:
        run_pass = _single_step_pass(
            obj, method, w, eta, config.sigma, sched, estimate, mean
        )
    else:
        # the screen needs exact zeros (the two hinge losses, no noise); SGD
        # and SGD(LS) skip their certified steps only while no running mean
        # needs them
        screen = None
        if obj._loss_kind.margin_zero and config.sigma == 0.0:
            if accel:
                screen = _ZeroScreen(obj, _ACCEL_MIN_GAP)
            elif mean is None:
                screen = _ZeroScreen(obj, _SGD_MIN_GAP)
        if accel:
            run_pass = _accel_kernel(obj, w, sched, mean, screen, passes * n, estimate)
        else:
            run_pass = _sgd_kernel(obj, w, eta, mean, screen, estimate)

    record = RunRecord()
    t0 = time.monotonic()

    def log_row(pass_index: int, point: np.ndarray | None) -> None:
        """The row at ``point``; at None, that of a settled run, whose
        every margin is >= 1 (see ``_ZeroScreen.settled``)."""
        if point is None:
            loss = grad_sq = mistakes = 0.0
        elif isinstance(obj, Objective):
            # loss_full, grad_full and mistake_rate from one z = X w
            z = obj.data.X @ point
            loss = float(np.mean(obj._losses(z)))
            s = obj._grad_scalars(z)
            # X is finite (Dataset checks), so s = 0 gives a zero gradient
            full = (obj.data.X.T @ s) / n if s.any() else np.zeros(obj.dim)
            grad_sq = float(full @ full)
            mistakes = float(np.mean(obj.data.y * z <= 0.0))
        else:
            loss = obj.loss_full(point)
            full = obj.grad_full(point)
            grad_sq = float(full @ full)
            mistakes = obj.mistake_rate(point) if hasattr(obj, "mistake_rate") else 0.0
        record.append(
            MetricRow(
                pass_index=pass_index,
                iteration=pass_index * n,
                train_loss=loss,
                grad_sq_norm=grad_sq,
                mistake_rate=mistakes,
                elapsed_ms=int((time.monotonic() - t0) * 1000),
            )
        )

    log_row(0, w)
    noise_std = config.sigma / math.sqrt(obj.dim)
    for p in range(1, passes + 1):
        try:
            if w is not None:  # None: settled, and no later step moves
                draw = rng.integers(0, n, size=n)
                noise = None
                if config.sigma > 0:
                    noise = rng.normal(0.0, noise_std, size=(n, obj.dim))
                w = run_pass(draw, noise)
            point = w if mean is None else mean.value
            if point is not None and not np.isfinite(point).all():
                raise FloatingPointError("non-finite iterate")
            log_row(p, point)
        except Exception as exc:
            raise RunError(f"pass {p}: {exc}") from exc
    return record
