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
    increasing with gamma_k >= k/(2 rho). Strongly-convex mode is constant
    in k; at the degenerate boundary mu*eta = rho (beta = 0) the three
    sequences collapse to plain gradient descent and alpha is defined as 1.
    """
    if mode == "convex":
        inv_rho = 1.0 / rho
        gamma = 0.5 * (inv_rho + math.sqrt(inv_rho * inv_rho + 4.0 * gamma_prev**2))
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
    if not np.all(np.isfinite(g)):
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
    if L_hat <= 0:
        raise ValueError(f"L_hat must be > 0, got {L_hat}")
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
    if rhoL_hat <= 0:
        raise ValueError(f"rhoL_hat must be > 0, got {rhoL_hat}")
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
# run() hands each pass to one of two kernels, closures that take the pass's
# example indices (and noise rows, if any), update the iterates in
# preallocated buffers and return the iterate to log; given a line-search
# start, each runs its method's line-search variant. One SGD kernel serves
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
# Where a _ZeroScreen applies (see run()), its cover() runs the pass instead,
# block by block.


_U = 2.0**-53  # unit roundoff of float64
_PROBE = 128  # steps between looks at the gap while a kernel does not screen
_MAX_BLOCK = 4096
# Below these observed gaps between active steps a kernel does not screen.
# A skipped SGD step and a crossed Acc-SGD step each save the whole step.
# _SGD_MIN_GAP is the crossover timed when the screen was introduced.
# _ACCEL_MIN_GAP is timed with the rank-one Acc-SGD kernel: CPU time of
# run("accel"), seeds 0-2 summed, median of 9 alternating rounds, 8000 x 100
# squared-hinge data, at 16 / 32 / 64: tau = 0.1 (fig1a), 10 passes,
# 550 / 551 / 569 ms; tau = 0.005 (app_ls_hard), 3 passes,
# 1064 / 1113 / 1069 ms. 16 and 32 are within noise of each other.
_SGD_MIN_GAP = 16.0
_ACCEL_MIN_GAP = 32.0


def _leading_true(mask: np.ndarray) -> int:
    """Length of the run of True at the start of ``mask``."""
    return len(mask) if mask.all() else int(mask.argmin())


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
    or from one X @ w over all n rows: the screen keeps the certificates
    of all n rows from the latter while w stands still (see :meth:`cover`
    and :meth:`certified_head`).

    Acc-SGD and Acc-SGD(LS) (:meth:`certified_in_span`): the kernel holds
    its iterates as m, u~ and c (see :class:`_RankOneIterates`), and a
    zero-gradient step changes c alone (and, in Acc-SGD(LS), leaves the
    estimate alone). From a block's start, folded to c = 1, the k-th step of
    the block therefore evaluates its gradient at zeta_k = m - r_k u~,
    r_k = (1 - kappa - alpha_k) c_k, a coefficient in [0, 1] that the
    kernel computes ahead. The crossed iterates are these span points,
    exactly, and a step is certified when its exact margin at zeta_k is
    >= 1; the kernel then crosses the certified head by updating c. One
    product X[blk] @ [m, u~] gives P0 and P1 within gamma_d ||x_i|| N_v and
    gamma_d ||x_i|| N_u of x_i . m and x_i . u~ (N_v = ||m||,
    N_u = ||u~||), so the exact margin is at least
    y_i (P0 - r_k P1) - gamma_d S_i with S_i = ||x_i|| (N_v + r_k N_u).
    Evaluating that in floating point rounds three times: the product
    r_k P1, the difference, and the subtraction of the slack, whose rounded
    result is >= 1 only if the exact one is >= 1 - u. Each errs by at most
    u S_i (1 + O(u)), since |P0| and r_k |P1| are at most S_i (1 + gamma_d)
    and S_i is at least the margin, about 1 where it matters. So a step is
    certified when

        y_i (P0 - r_k P1) - gamma ||x_i|| (N_v + r_k N_u) >= 1.

    The bounds assume no overflow, so a block certifies nothing unless
    ||x_i|| ||w|| (SGD) or ||x_i|| (N_v + N_u) (Acc-SGD) is below 1e300
    for every row (a non-finite point fails this too); a nan margin is
    never certified.
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
        self._certified = None  # per row, at the w of the last full product

    def cover(self, n: int, steps, head) -> None:
        """Runs a pass of n steps. ``steps(start, end)`` runs the exact
        steps start..end-1 and returns how many had a nonzero gradient;
        ``head(start, end)`` moves the iterates past the certified steps at
        the head of start..end-1 and returns their count.

        While the observed gap between active steps (a running mean) is
        below ``min_gap``, a product costs more than it saves and the pass
        runs ``_PROBE`` exact steps at a time. Otherwise a block of 2 gap
        steps (at most ``_MAX_BLOCK``) starts with its certified head, and
        its first uncertified step runs exactly and ends it. A block
        without one suggests a gap of at least twice its length (one cut
        short by the end of the pass only keeps the estimate).

        The kept certificates of :meth:`certified_head` are dropped
        whenever ``steps`` reports an active step. While the screen is on
        (no noise, no running mean), that is the only way SGD's or
        SGD(LS)'s w moves, so they stay valid across blocks and passes.
        """
        k = 0
        while k < n:
            moved = 0
            if self._gap < self._min_gap:
                end = min(k + _PROBE, n)
                active = moved = steps(k, end)
            else:
                end = min(k + min(int(2.0 * self._gap), _MAX_BLOCK), n)
                stop = k + head(k, end)
                active = int(stop < end)
                if active:
                    moved = steps(stop, stop + 1)
                    end = stop + 1
            if moved:
                self._certified = None
            sample = (end - k) / active if active else max(2.0 * (end - k), self._gap)
            self._gap = 0.5 * (self._gap + sample)
            k = end

    def certified_head(self, blk: np.ndarray, w: np.ndarray) -> int:
        """How many steps at the head of ``blk`` are certified at w.

        Reads the kept certificates of all n rows if there are any (w has
        not moved since they were made). Otherwise a block of at least n/4
        rows makes and keeps them with one X @ w, which costs about as much
        as gathering that many rows and serves the blocks after it; a
        shorter block gathers its own rows.
        """
        if self._certified is not None:
            return _leading_true(self._certified[blk])
        norm = math.sqrt(w.dot(w))
        if not norm < self._norm_limit:
            return 0
        scale = 2.0 * self._gamma * norm
        if 4 * len(blk) < len(self._y):
            m = self._y[blk] * (self._X[blk] @ w)
            return _leading_true(m - scale * self._l2[blk] >= 1.0)
        self._certified = self._y * (self._X @ w) - scale * self._l2 >= 1.0
        return _leading_true(self._certified[blk])

    def certified_in_span(
        self, blk: np.ndarray, m: np.ndarray, u: np.ndarray, r: np.ndarray
    ) -> np.ndarray:
        """Per step k of ``blk``: certified at the span point m - r[k] u."""
        n_v, n_u = math.sqrt(m.dot(m)), math.sqrt(u.dot(u))
        if not n_v + n_u < self._norm_limit:
            return np.zeros(len(blk), dtype=bool)
        p = self._X[blk] @ np.stack((m, u), axis=1)
        margin = self._y[blk] * (p[:, 0] - r * p[:, 1])
        slack = self._gamma * self._l2[blk] * (n_v + r * n_u)
        return margin - slack >= 1.0


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


def _sgd_kernel(obj, w: np.ndarray, eta: float, mean, screen, estimate=None):
    """SGD; given a line-search start ``estimate`` L^, SGD(LS): SGD at
    eta = 1/L^ whose steps with a nonzero gradient double L^ until the
    sampled example passes the sufficient-decrease test. For an
    :class:`Objective`, ``grad`` returns s_i x_i (s_i from ``_grad_scalar``)
    in a buffer that the next call overwrites, or None when s_i is exactly
    zero; other objectives use their ``grad_example``/``loss_example``."""
    if isinstance(obj, Objective):
        rows = list(obj.data.X)
        ys = obj.data.y.tolist()
        grad_scalar, loss_scalar = obj._grad_scalar, obj._loss_scalar
        buf = np.empty(obj.dim)

        def grad(p, i):
            row = rows[i]
            s = grad_scalar(float(row.dot(p)), ys[i])
            return np.multiply(row, s, buf) if s else None

        def loss(p, i):
            return loss_scalar(float(rows[i].dot(p)), ys[i])
    else:
        grad, loss = obj.grad_example, obj.loss_example
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
                        f0 = None if g_sq <= GRAD_RESOLUTION_SQ else loss(w, i)
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
    u~ <- c u~ and c <- 1. It happens whenever c would fall below
    ``_FOLD_FLOOR`` (convex mode's first step, alpha = 1, would set c to 0),
    which bounds the 1/c of the update by 2^60, and at the kernel's block,
    chunk and pass boundaries. A step whose coefficients call for another
    kappa (Acc-SGD(LS) in strongly convex mode, after its estimate moved)
    first rebases m += (kappa_old - kappa) c u~, which leaves u and v alone.
    """

    def __init__(self, w: np.ndarray):
        self.M = np.zeros((2, len(w)))
        self.m, self.u = self.M  # row views
        self.m[:] = w
        self.c, self.kappa = 1.0, 0.0
        self._col = np.empty((2, 1))
        self._buf = np.empty_like(self.M)
        self._point = np.empty_like(w)

    def at(self, t: float) -> np.ndarray:
        """m + t u~, in a buffer that the next call overwrites."""
        point = self._point
        np.multiply(self.u, t, point)
        np.add(self.m, point, point)
        return point

    def w(self) -> np.ndarray:
        return self.at((self.kappa - 1.0) * self.c)

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
        self._rows = list(obj.data.X)
        self._ys = obj.data.y.tolist()
        self._row_sq = obj._row_sq.tolist()
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


class _PointOracle:
    """:class:`_MarginOracle`'s methods for any other objective: :meth:`grad`
    forms zeta, which :meth:`decreases` reuses; g is the public
    ``grad_example`` there and s is 1."""

    def __init__(self, obj, it: _RankOneIterates):
        self._obj, self._it = obj, it
        self._trial = np.empty(obj.dim)

    def start(self, i: int) -> None:
        self._i = i

    def grad(self, t: float) -> float:
        self._zeta = self._it.at(t)
        self.g = self._obj.grad_example(self._zeta, self._i)
        return 1.0

    def decreases(self, i: int, t: float, s: float, h: float) -> bool:
        g_sq = float(self.g.dot(self.g))
        if not math.isfinite(g_sq):
            _check_gradient(self.g, i)
        if g_sq <= GRAD_RESOLUTION_SQ:
            return True
        f0 = self._obj.loss_example(self._zeta, i)
        np.multiply(self.g, h, self._trial)
        np.subtract(self._zeta, self._trial, self._trial)
        return self._obj.loss_example(self._trial, i) <= f0 - 0.5 * h * g_sq + 1e-15 * abs(f0)


def _zeta_oracle(obj, it: _RankOneIterates):
    return _MarginOracle(obj, it) if isinstance(obj, Objective) else _PointOracle(obj, it)


def _convex_coefficients(
    n: int, rho: float, eta: float, gamma_prev: float
) -> tuple[list, np.ndarray]:
    """(gamma_k, alpha_k) over n >= 1 convex-mode advances from the carried
    gamma_prev: ``_schedule_coefficients``' formulas and bits. Only gamma is
    sequential; ab_k = gamma_{k-1}^2 eta rho and alpha_k follow as
    elementwise array ops, in the same operation order."""
    inv_rho = 1.0 / rho
    g = gamma_prev
    gammas = [g := 0.5 * (inv_rho + math.sqrt(inv_rho * inv_rho + 4.0 * g**2)) for _ in range(n)]
    gamma = np.array(gammas)
    prev = np.concatenate(([gamma_prev], gamma[:-1]))
    ge = gamma * eta
    return gammas, ge / (ge + prev * prev * eta * rho)


def _accel_kernel(obj, w: np.ndarray, sched: AccelSchedule, mean, screen, estimate=None):
    """Acc-SGD on :class:`_RankOneIterates`; given a line-search start
    ``estimate`` L^, Acc-SGD(LS): Acc-SGD at rho = L^/L and eta = 1/L^ whose
    exact steps with a nonzero gradient may double L^ (``search``). With a
    screen, the certified steps at the head of a block are crossed by
    updating c alone (see ``_ZeroScreen.certified_in_span``): r_k is a
    cumulative product of 1 - alpha_j in convex mode and a constant times a
    power of beta (1 - alpha) in strongly convex mode."""
    mode, mu, convex = sched.mode, sched.mu, sched.mode == "convex"
    rho, eta, gamma_prev, ab = sched.rho, sched.eta, sched.gamma_prev, sched.ab_ratio
    it = _RankOneIterates(w)
    oracle = _zeta_oracle(obj, it)
    g_noise = np.empty_like(w)
    beta, kappa, powers, sc_r = 1.0, 0.0, None, None
    # Acc-SGD(LS) searches the run's first step: that sets rho and eta, and in
    # strongly convex mode uses make_schedule's ratio and skips infeasible L^
    search_first = estimate is not None

    def run_pass(draw, noise):
        nonlocal gamma_prev
        n = len(draw)
        gammas, alphas = [], np.empty(n)

        def ready(end: int) -> None:
            """gamma_j and alpha_j at (rho, eta) of the steps before ``end``
            (of all n but in convex Acc-SGD(LS)), from the state carried into
            the first step without them: ``_convex_coefficients``' bits, or
            strongly convex mode's constants (finite alpha and beta lie in
            [0, 1]) with kappa and the span powers, c = powers[j] at step j."""
            nonlocal beta, kappa, powers, sc_r
            k = len(gammas)
            if k >= end:
                return
            if not convex:
                gamma, alpha, beta, _ = _schedule_coefficients(mode, rho, eta, mu, 0.0, ab)
                gammas.extend([gamma] * (n - k))
                alphas[k:] = alpha
                it.rebase(kappa := _kappa(alpha, beta))
                powers = (beta * (1.0 - alpha)) ** np.arange(_MAX_BLOCK + 1.0)
                sc_r = max(0.0, 1.0 - kappa - alpha) * powers[:-1]
                return
            # Acc-SGD never reschedules and fills the whole pass in one call:
            # filling it up to each request, as Acc-SGD(LS) must, took fig1a's
            # pass_ms_p50 from 3.00 to 3.25 ms (worse in 9 of 10 benchmark pairs)
            end = n if estimate is None else end
            gp = gammas[-1] if k else gamma_prev
            gs, alphas[k:end] = _convex_coefficients(end - k, rho, eta, gp)
            gammas.extend(gs)

        def search(k: int, i: int) -> bool:
            """Step k by :func:`line_search_accel_step`'s loop, from the state
            carried into it; the coefficients of the steps after it are
            dropped. Returns whether the gradient was nonzero."""
            nonlocal estimate, rho, eta, ab, search_first
            gp = gammas[k - 1] if k else gamma_prev
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
            gammas[k:], search_first = [gamma], False
            return bool(s)

        def steps(start: int, end: int) -> int:
            """The exact steps start..end-1; returns how many had a gradient."""
            it.fold()
            active = 0
            if search_first:
                active += search(start, int(draw[start]))
                start += 1
            ready(end)
            # indices and alpha_k as Python scalars, converted a chunk at a
            # time: a crossed pass runs few exact steps
            als = alphas[start:end].tolist()
            for k, (i, alpha) in enumerate(zip(draw[start:end].tolist(), als), start):
                oracle.start(i)
                t = (kappa - 1.0 + alpha) * it.c
                s = oracle.grad(t)
                if s:
                    active += 1
                    if estimate is not None and not oracle.decreases(i, t, s, gammas[k] * eta):
                        search(k, i)
                        ready(end)  # rescheduled; zip reads als lazily
                        als[k + 1 - start:] = alphas[k + 1:end].tolist()
                        continue
                g, h = (oracle.g, eta * s) if s else (None, 0.0)
                if noise is not None:
                    if g is None:
                        g = noise[k]
                    else:
                        np.multiply(g, s, g_noise)
                        g = np.add(g_noise, noise[k], g_noise)
                    h = eta
                it.step(beta * (1.0 - alpha), gammas[k], h, g)
                if mean is not None:
                    mean.add(it.w())
            return active

        def head(start: int, end: int) -> int:
            """Crosses the certified steps at the head of start..end-1, with
            zeta_k = m - r[k] u~ from c = 1; returns their count, with c and
            the mean moved past them."""
            it.fold()
            ready(end)
            r = np.cumprod(np.subtract(1.0, alphas[start:end])) if convex else sc_r[: end - start]
            j = _leading_true(screen.certified_in_span(draw[start:end], it.m, it.u, r))
            if j:
                if mean is not None:
                    mean.add_span(it.m, it.u, j, float(r[:j].sum()))
                # convex mode: r_k = c_{k+1}
                it.scale(float(r[j - 1] if convex else powers[j]))
            return j

        if screen is None:
            steps(0, n)
        else:
            screen.cover(n, steps, head)
        gamma_prev = gammas[-1]
        it.fold()
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
    draws as the kernels and with the same iterates. run() uses it when one
    of them has been rebound, so that the rebinding sees every step."""
    cfg = SgdConfig(eta=eta, sigma=sigma) if method == "sgd" else None
    st = None if sched is None else init_accel_state(w, sched)

    def run_pass(indices, noise):
        nonlocal w, st, estimate
        rng = _PassDraws(indices, noise)
        for _ in indices:
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
    draws, and hands them to a whole-pass kernel: one serves SGD and
    SGD(LS), whose iterates equal those of a loop over the single-step
    functions, bit for bit; one serves Acc-SGD and Acc-SGD(LS), which take
    the same steps in rank-one form (:class:`_RankOneIterates`: one 2 x d
    product per step, vector work only for a nonzero gradient), in another
    operation order, so their log10 losses agree with the loop's within
    1e-9 decades on non-diverging runs. With sigma > 0 the pass's noise
    follows as one (n, dim) normal draw, so noisy runs use a different
    stream than interleaved per-step draws whenever n > 1. Finiteness of
    the logged iterate is checked once per pass; a failure in a pass is
    raised as a :class:`RunError`, ``pass p: ...``.
    On the squared-hinge and hinge losses with sigma = 0, the SGD kernel
    (without averaging) skips, and the accelerated kernel crosses by a
    scalar update, the steps that a :class:`_ZeroScreen` certifies to have
    an exactly zero gradient (a zero-gradient line-search step leaves its
    estimate alone); SGD and SGD(LS) stay bit-identical.
    While a single-step function or ``Objective.grad_example``/
    ``loss_example`` is rebound (wrapped by a profiler, say), each pass
    steps through the public functions instead, on the same draws.
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
    # the screen needs exact zeros (the two hinge losses, no noise); SGD and
    # SGD(LS) skip their certified steps only while no running mean needs them
    screen = None
    if (
        isinstance(obj, Objective)
        and obj.kind in ("squared_hinge", "hinge")
        and config.sigma == 0.0
    ):
        if accel:
            screen = _ZeroScreen(obj, _ACCEL_MIN_GAP)
        elif mean is None:
            screen = _ZeroScreen(obj, _SGD_MIN_GAP)
    estimate = config.ls_init if method.endswith("_ls") else None
    if _step_path() != _ORIGINAL_STEP_PATH:
        run_pass = _single_step_pass(
            obj, method, w, eta, config.sigma, sched, estimate, mean
        )
    elif accel:
        run_pass = _accel_kernel(obj, w, sched, mean, screen, estimate)
    else:
        run_pass = _sgd_kernel(obj, w, eta, mean, screen, estimate)

    record = RunRecord()
    t0 = time.monotonic()

    def log_row(pass_index: int, point: np.ndarray) -> None:
        if isinstance(obj, Objective):
            # loss_full, grad_full and mistake_rate from one z = X w
            z = obj.data.X @ point
            loss = float(np.mean(obj._losses(z)))
            s = obj._grad_scalars(z)
            # X is finite (Dataset checks), so s = 0 gives a zero gradient
            full = (obj.data.X.T @ s) / n if s.any() else np.zeros(obj.dim)
            mistakes = float(np.mean(obj.data.y * z <= 0.0))
        else:
            loss = obj.loss_full(point)
            full = obj.grad_full(point)
            mistakes = obj.mistake_rate(point) if hasattr(obj, "mistake_rate") else 0.0
        record.append(
            MetricRow(
                pass_index=pass_index,
                iteration=pass_index * n,
                train_loss=loss,
                grad_sq_norm=float(full @ full),
                mistake_rate=mistakes,
                elapsed_ms=int((time.monotonic() - t0) * 1000),
            )
        )

    log_row(0, w)
    noise_std = config.sigma / math.sqrt(obj.dim)
    for p in range(1, passes + 1):
        try:
            draw = rng.integers(0, n, size=n)
            noise = None
            if config.sigma > 0:
                noise = rng.normal(0.0, noise_std, size=(n, obj.dim))
            w = run_pass(draw, noise)
            point = w if mean is None else mean.value
            if not np.all(np.isfinite(point)):
                raise FloatingPointError("non-finite iterate")
            log_row(p, point)
        except Exception as exc:
            raise RunError(f"pass {p}: {exc}") from exc
    return record
