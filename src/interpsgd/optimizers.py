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
from dataclasses import dataclass, field, replace

import numpy as np

from .numerics import as_vector, gaussian_vector, make_rng
from .objectives import Objective
from .records import MetricRow, RunRecord

__all__ = [
    "AccelSchedule",
    "AccelState",
    "LineSearchError",
    "RunConfig",
    "SgdConfig",
    "StepReport",
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


# Sampled gradients with squared norm below this are float-resolution zeros
# (e.g. a hinge margin one ulp from its kink): the sufficient-decrease test
# is then unfalsifiable in double precision and must not drive doublings.
GRAD_RESOLUTION_SQ = 1e-24


@dataclass(frozen=True)
class SgdConfig:
    """Step size eta, additive noise level sigma (E||xi||^2 = sigma^2),
    base seed, and whether metrics are reported at the running iterate mean."""

    eta: float
    sigma: float = 0.0
    seed: int = 0
    averaging: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be a positive finite number, got {self.eta}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class StepReport:
    k: int
    loss: float
    grad_sq_norm: float
    stoch_grad_sq_norm: float


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


def _check_sc_feasible(mu: float, eta: float, rho: float) -> None:
    if mu * eta / rho > 1.0 + 1e-15:
        raise ValueError(
            f"invalid configuration: mu*eta/rho = {mu * eta / rho} exceeds 1"
        )


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
    _check_sc_feasible(mu, eta, rho)
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
    return replace(
        s,
        k=s.k + 1,
        gamma_prev=gamma,
        ab_ratio=ab_next,
        gamma=gamma,
        alpha=alpha,
        beta=beta,
    )


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


def _draw_gradient(obj, point: np.ndarray, rng, sigma: float) -> np.ndarray:
    i = int(rng.integers(0, obj.n))
    g = obj.grad_example(point, i)
    if not np.all(np.isfinite(g)):
        raise FloatingPointError(f"non-finite stochastic gradient at example {i}")
    if sigma > 0.0:
        g = g + gaussian_vector(rng, g.shape[0], sigma / math.sqrt(g.shape[0]))
    return g


def _report(obj, w: np.ndarray, g: np.ndarray, k: int, metrics: bool) -> StepReport:
    if metrics:
        loss = obj.loss_full(w)
        full = obj.grad_full(w)
        gsq = float(full @ full)
    else:
        loss = math.nan
        gsq = math.nan
    return StepReport(k=k, loss=loss, grad_sq_norm=gsq, stoch_grad_sq_norm=float(g @ g))


def sgd_step(
    obj, w, cfg: SgdConfig, rng, k: int = 0, metrics: bool = True
) -> tuple[np.ndarray, StepReport]:
    """One step w' = w - eta (grad f_i(w) + xi), i uniform, xi optional noise.

    Pass ``metrics=False`` to skip the full-objective evaluations in the
    report (they cost a dataset sweep each; the run loop only evaluates
    them once per pass).
    """
    w = as_vector(w, dim=obj.dim)
    g = _draw_gradient(obj, w, rng, cfg.sigma)
    w_next = w - cfg.eta * g
    return w_next, _report(obj, w_next, g, k, metrics)


def accel_step(
    obj, st: AccelState, rng, sigma: float = 0.0, k: int = 0, metrics: bool = True
) -> tuple[AccelState, StepReport]:
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
    st_next = AccelState(w=w_next, zeta=zeta, v=v_next, schedule=sch)
    return st_next, _report(obj, w_next, g, k, metrics)


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
    raise LineSearchError(
        f"line search exceeded {MAX_DOUBLINGS} doublings (estimate {est})"
    )


def line_search_sgd_step(
    obj, w, L_hat: float, rng, k: int = 0, metrics: bool = True
) -> tuple[np.ndarray, float, StepReport]:
    """SGD step with step size 1/L_hat, doubling L_hat until the sampled
    example passes the sufficient-decrease test. L_hat persists and never
    decreases across iterations."""
    if L_hat <= 0:
        raise ValueError(f"L_hat must be > 0, got {L_hat}")
    w = as_vector(w, dim=obj.dim)
    i = int(rng.integers(0, obj.n))
    g = obj.grad_example(w, i)
    if not np.all(np.isfinite(g)):
        raise FloatingPointError(f"non-finite stochastic gradient at example {i}")
    L_hat = _search_estimate(obj, w, g, lambda p: obj.loss_example(p, i), L_hat)
    w_next = w - g / L_hat
    return w_next, L_hat, _report(obj, w_next, g, k, metrics)


def line_search_accel_step(
    obj, st: AccelState, rhoL_hat: float, rng, k: int = 0, metrics: bool = True
) -> tuple[AccelState, float, StepReport]:
    """Accelerated step searching over the product rho*L.

    For each candidate estimate the schedule is re-derived with
    eta = 1/rhoL_hat and rho = rhoL_hat / L, zeta recomputed, and the
    sufficient-decrease test applied at zeta on the sampled example. The
    tested step is the v-sequence step gamma*eta (the larger of the two
    gradient steps the iteration takes, and the one whose unchecked growth
    destabilizes the stochastic method); the first passing candidate is
    used. Early iterations may run with rho below 1 until the estimate
    warms past L.
    """
    if rhoL_hat <= 0:
        raise ValueError(f"rhoL_hat must be > 0, got {rhoL_hat}")
    sch = st.schedule
    i = int(rng.integers(0, obj.n))
    i_loss = lambda p: obj.loss_example(p, i)

    for _ in range(MAX_DOUBLINGS + 1):
        eta = 1.0 / rhoL_hat
        rho = rhoL_hat / obj.L
        trial = accel_schedule_advance(replace(sch, eta=eta, rho=rho))
        zeta = st.w + trial.alpha * (st.v - st.w)
        g = obj.grad_example(zeta, i)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite stochastic gradient at example {i}")
        g_sq = float(g @ g)
        step = trial.gamma * eta
        f0 = i_loss(zeta)
        accepted = g_sq <= GRAD_RESOLUTION_SQ or i_loss(
            zeta - step * g
        ) <= f0 - 0.5 * step * g_sq + 1e-15 * abs(f0)
        if accepted:
            w_next = zeta - eta * g
            v_next = zeta + trial.beta * (st.v - zeta) - trial.gamma * eta * g
            st_next = AccelState(w=w_next, zeta=zeta, v=v_next, schedule=trial)
            return st_next, rhoL_hat, _report(obj, w_next, g, k, metrics)
        rhoL_hat *= 2.0
    raise LineSearchError(
        f"line search exceeded {MAX_DOUBLINGS} doublings (estimate {rhoL_hat})"
    )


# ---------------------------------------------------------------------------
# whole-pass kernels
# ---------------------------------------------------------------------------
#
# run() hands each pass to one kernel per method: a closure that takes the
# pass's example indices (and noise rows, if any), updates the iterates in
# preallocated buffers and returns the iterate to log. The arithmetic is the
# single-step functions' own, operation for operation, so the iterates are
# bit-identical to a loop over them on the same index stream (the tests
# check this). What the kernels leave out is per-step bookkeeping: index
# draws, input validation, finiteness scans (run() checks the iterate once
# per pass; a non-finite iterate stays non-finite), schedule dataclasses and
# step reports. Kernels never write into a gradient they are handed.


def _example_oracles(obj):
    """(grad, loss) per-example oracles on a point p and example index i.

    For an :class:`Objective` the gradient is s_i * x_i with the scalar from
    ``_grad_scalar``; ``grad`` returns None when s_i is exactly zero (the
    update then changes no iterate) and otherwise a buffer that the next
    call overwrites. Other objectives fall back to their public
    ``grad_example``/``loss_example``.
    """
    if not isinstance(obj, Objective):
        return obj.grad_example, obj.loss_example
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

    return grad, loss


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


def _check_gradient(g: np.ndarray, i: int) -> None:
    # only reached when g.g is not finite: g itself may still be finite
    if not np.all(np.isfinite(g)):
        raise FloatingPointError(f"non-finite stochastic gradient at example {i}")


def _sgd_kernel(obj, w: np.ndarray, eta: float, mean):
    grad, _ = _example_oracles(obj)
    t = np.empty_like(w)

    def run_pass(indices, noise):
        for k, i in enumerate(indices):
            g = grad(w, i)
            if noise is not None:
                g = noise[k] if g is None else g + noise[k]
            if g is not None:
                np.multiply(g, eta, t)
                np.subtract(w, t, w)
            if mean is not None:
                mean.add(w)
        return w

    return run_pass


def _accel_kernel(obj, w: np.ndarray, sched: AccelSchedule, mean):
    grad, _ = _example_oracles(obj)
    mode, rho, eta, mu = sched.mode, sched.rho, sched.eta, sched.mu
    gamma_prev, ab = sched.gamma_prev, sched.ab_ratio
    # strongly-convex coefficients are constant: the carried ratio is
    # already at its fixed point (see make_schedule)
    constant = None
    if mode == "strongly_convex":
        constant = _schedule_coefficients(mode, rho, eta, mu, gamma_prev, ab)
    v = w.copy()
    zeta = np.empty_like(w)
    t = np.empty_like(w)

    def run_pass(indices, noise):
        nonlocal w, zeta, gamma_prev, ab
        for k, i in enumerate(indices):
            if constant is None:
                gamma, alpha, beta, ab = _schedule_coefficients(
                    mode, rho, eta, mu, gamma_prev, ab
                )
                gamma_prev = gamma
            else:
                gamma, alpha, beta, _ = constant
            # zeta = w + alpha (v - w)
            np.subtract(v, w, t)
            np.multiply(t, alpha, t)
            np.add(w, t, zeta)
            g = grad(zeta, i)
            if noise is not None:
                g = noise[k] if g is None else g + noise[k]
            # v = zeta + beta (v - zeta) - gamma eta g;  w = zeta - eta g
            np.subtract(v, zeta, t)
            if beta != 1.0:
                np.multiply(t, beta, t)
            np.add(zeta, t, v)
            if g is None:
                w, zeta = zeta, w
            else:
                np.multiply(g, gamma * eta, t)
                np.subtract(v, t, v)
                np.multiply(g, eta, t)
                np.subtract(zeta, t, w)
            if mean is not None:
                mean.add(w)
        return w

    return run_pass


def _sgd_ls_kernel(obj, w: np.ndarray, estimate: float, mean):
    grad, loss = _example_oracles(obj)
    t = np.empty_like(w)

    def run_pass(indices, noise):
        nonlocal w, t, estimate
        for i in indices:
            g = grad(w, i)
            if g is not None:
                g_sq = float(g.dot(g))
                if not math.isfinite(g_sq):
                    _check_gradient(g, i)
                if g_sq <= GRAD_RESOLUTION_SQ:
                    np.divide(g, estimate, t)
                    np.subtract(w, t, w)
                else:
                    # t = w - g / estimate is both the trial point and,
                    # once accepted, the next iterate
                    f0 = loss(w, i)
                    for _ in range(MAX_DOUBLINGS + 1):
                        np.divide(g, estimate, t)
                        np.subtract(w, t, t)
                        if loss(t, i) <= f0 - g_sq / (2.0 * estimate) + 1e-15 * abs(f0):
                            break
                        estimate *= 2.0
                    else:
                        raise LineSearchError(
                            f"line search exceeded {MAX_DOUBLINGS} doublings "
                            f"(estimate {estimate})"
                        )
                    w, t = t, w
            if mean is not None:
                mean.add(w)
        return w

    return run_pass


def _accel_ls_kernel(obj, w: np.ndarray, sched: AccelSchedule, estimate: float, mean):
    grad, loss = _example_oracles(obj)
    mode, mu, L = sched.mode, sched.mu, obj.L
    gamma_prev, ab = sched.gamma_prev, sched.ab_ratio
    v = w.copy()
    zeta, vw, step_g, t = (np.empty_like(w) for _ in range(4))

    def run_pass(indices, noise):
        nonlocal w, zeta, gamma_prev, ab, estimate
        for i in indices:
            np.subtract(v, w, vw)
            for _ in range(MAX_DOUBLINGS + 1):
                eta = 1.0 / estimate
                gamma, alpha, beta, ab_next = _schedule_coefficients(
                    mode, estimate / L, eta, mu, gamma_prev, ab
                )
                np.multiply(vw, alpha, zeta)
                np.add(w, zeta, zeta)
                g = grad(zeta, i)
                if g is None:
                    break
                g_sq = float(g.dot(g))
                if not math.isfinite(g_sq):
                    _check_gradient(g, i)
                step = gamma * eta
                np.multiply(g, step, step_g)
                if g_sq <= GRAD_RESOLUTION_SQ:
                    break
                f0 = loss(zeta, i)
                np.subtract(zeta, step_g, t)
                if loss(t, i) <= f0 - 0.5 * step * g_sq + 1e-15 * abs(f0):
                    break
                estimate *= 2.0
            else:
                raise LineSearchError(
                    f"line search exceeded {MAX_DOUBLINGS} doublings (estimate {estimate})"
                )
            gamma_prev, ab = gamma, ab_next
            np.subtract(v, zeta, t)
            if beta != 1.0:
                np.multiply(t, beta, t)
            np.add(zeta, t, v)
            if g is None:
                w, zeta = zeta, w
            else:
                np.subtract(v, step_g, v)
                np.multiply(g, eta, t)
                np.subtract(zeta, t, w)
            if mean is not None:
                mean.add(w)
        return w

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
    cfg = SgdConfig(eta=eta, sigma=sigma)
    st = None if sched is None else init_accel_state(w, sched)

    def run_pass(indices, noise):
        nonlocal w, st, estimate
        rng = _PassDraws(indices, noise)
        for _ in indices:
            if method == "sgd":
                w, _ = sgd_step(obj, w, cfg, rng, metrics=False)
            elif method == "sgd_ls":
                w, estimate, _ = line_search_sgd_step(obj, w, estimate, rng, metrics=False)
            else:
                if method == "accel":
                    st = replace(st, schedule=accel_schedule_advance(st.schedule))
                    st, _ = accel_step(obj, st, rng, sigma=sigma, metrics=False)
                else:
                    st, estimate, _ = line_search_accel_step(obj, st, estimate, rng, metrics=False)
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
    accel. ``mode``/``mu`` select the accelerated schedule. ``w0`` defaults
    to the origin.
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
    draws, and hands them to the method's whole-pass kernel; the iterates
    equal those of a loop over the single-step functions. With sigma > 0
    the pass's noise follows as one (n, dim) normal draw, so noisy runs use
    a different stream than interleaved per-step draws whenever n > 1.
    Finiteness of the logged iterate is checked once per pass; a failure
    is raised as ``pass p: ...`` naming the pass in which it occurred.
    While a single-step function or ``Objective.grad_example``/
    ``loss_example`` is rebound (wrapped by a profiler, say), each pass
    steps through the public functions instead, on the same draws.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    if config.sigma > 0 and method.endswith("_ls"):
        raise ValueError("line-search methods do not support additive noise")
    if method.endswith("_ls") and not config.ls_init > 0:
        raise ValueError(f"ls_init must be > 0, got {config.ls_init}")

    n = obj.n
    w = (
        np.zeros(obj.dim)
        if config.w0 is None
        else as_vector(config.w0, dim=obj.dim).copy()
    )
    rng = make_rng(config.seed)
    eta = config.resolve_eta(obj, method)
    sched = None
    if method in ("accel", "accel_ls"):
        sched = make_schedule(config.mode, config.rho, eta, mu=config.mu)
    SgdConfig(eta=eta, sigma=config.sigma)  # validates eta and sigma

    mean = _RunningMean(w) if config.averaging else None
    if _step_path() != _ORIGINAL_STEP_PATH:
        run_pass = _single_step_pass(
            obj, method, w, eta, config.sigma, sched, config.ls_init, mean
        )
    elif method == "sgd":
        run_pass = _sgd_kernel(obj, w, eta, mean)
    elif method == "sgd_ls":
        run_pass = _sgd_ls_kernel(obj, w, config.ls_init, mean)
    elif method == "accel":
        run_pass = _accel_kernel(obj, w, sched, mean)
    else:
        run_pass = _accel_ls_kernel(obj, w, sched, config.ls_init, mean)

    record = RunRecord(
        config={
            "method": method,
            "eta": repr(eta),
            "rho": repr(config.rho),
            "mode": config.mode,
            "mu": repr(config.mu),
            "sigma": repr(config.sigma),
            "seed": str(config.seed),
            "averaging": str(config.averaging).lower(),
            "passes": str(passes),
            "n": str(n),
        }
    )
    t0 = time.monotonic()

    def log_row(pass_index: int, point: np.ndarray) -> None:
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
            indices = rng.integers(0, n, size=n).tolist()
            noise = None
            if config.sigma > 0:
                noise = rng.normal(0.0, noise_std, size=(n, obj.dim))
            w = run_pass(indices, noise)
            point = w if mean is None else mean.value
            if not np.all(np.isfinite(point)):
                raise FloatingPointError("non-finite iterate")
            log_row(p, point)
        except (FloatingPointError, LineSearchError, ValueError, OverflowError) as exc:
            raise type(exc)(f"pass {p}: {exc}") from exc
    return record
