import math
from dataclasses import replace

import numpy as np
import pytest

from interpsgd import optimizers
from interpsgd.data import generate_margin_data
from interpsgd.numerics import make_rng
from interpsgd.objectives import Dataset, Objective
from interpsgd.optimizers import (
    AccelState,
    LineSearchError,
    RunConfig,
    SgdConfig,
    accel_schedule_advance,
    accel_step,
    init_accel_state,
    line_search_accel_step,
    line_search_sgd_step,
    make_schedule,
    run,
    sgd_step,
)
from interpsgd.problems import PlToyObjective, QuadraticObjective
from interpsgd.records import MetricRow


def one_d_objective(x: float, y: float) -> Objective:
    """Single-example squared loss 0.5 (w x - y)^2 in one dimension."""
    return Objective("squared", Dataset(X=np.array([[x]]), y=np.array([y])))


def one_d_quadratic(curvature: float) -> QuadraticObjective:
    """f(w) = 0.5 * curvature * w^2 as a single-example objective."""
    return QuadraticObjective(np.array([[curvature]]), np.array([0.0]))


def interpolating_objective(seed=0, n=30, d=6, tau=0.2):
    data = generate_margin_data(n, d, tau, seed=seed)
    return Objective("squared_hinge", data)


class TestSgdStep:
    def test_fixed_point_at_interpolation(self):
        obj = interpolating_objective()
        w_star = obj.data.w_star
        cfg = SgdConfig(eta=0.5)
        rng = make_rng(1)
        for _ in range(20):
            w_next, rep = sgd_step(obj, w_star, cfg, rng)
            assert np.array_equal(w_next, w_star)
            assert rep.stoch_grad_sq_norm == 0.0

    def test_one_step_exact_solve_in_1d(self):
        # f(w) = 0.5 (w - y)^2 with x = 1: eta = 1 lands on y directly.
        obj = one_d_objective(1.0, 1.0)
        w_next, _ = sgd_step(obj, np.array([4.0]), SgdConfig(eta=1.0), make_rng(0))
        assert w_next[0] == pytest.approx(1.0, abs=1e-15)

    def test_three_steps_match_manual_unroll(self):
        X = np.array([[1.0], [2.0]])
        y = np.array([1.0, -1.0])
        obj = Objective("squared", Dataset(X=X, y=y))
        eta = 0.1
        seed = 123
        # the index sequence comes from an identically seeded generator
        idx_rng = make_rng(seed)
        indices = [int(idx_rng.integers(0, 2)) for _ in range(3)]
        w_manual = 0.5
        for i in indices:
            w_manual = w_manual - eta * X[i, 0] * (w_manual * X[i, 0] - y[i])
        rng = make_rng(seed)
        w = np.array([0.5])
        for k in range(3):
            w, _ = sgd_step(obj, w, SgdConfig(eta=eta), rng, k=k)
        assert w[0] == pytest.approx(w_manual, rel=1e-15)

    def test_noise_has_requested_energy(self):
        obj = interpolating_objective()
        sigma = 0.3
        cfg = SgdConfig(eta=1.0, sigma=sigma)
        rng = make_rng(5)
        sq = []
        for _ in range(4000):
            _, rep = sgd_step(obj, obj.data.w_star, cfg, rng, metrics=False)
            sq.append(rep.stoch_grad_sq_norm)  # gradient is 0 here, noise only
        assert float(np.mean(sq)) == pytest.approx(sigma**2, rel=0.1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_gradient_names_example(self):
        obj = one_d_objective(10.0, 1.0)  # z = 10 w overflows for w ~ 1e308
        with pytest.raises(FloatingPointError, match="example 0"):
            sgd_step(obj, np.array([1e308]), SgdConfig(eta=1.0), make_rng(0))


class TestScheduleAdvance:
    def test_convex_gamma_sequence_rho_one(self):
        s = make_schedule("convex", 1.0, 1.0)
        s = accel_schedule_advance(s)
        assert s.gamma == pytest.approx(1.0, rel=1e-15)
        assert s.alpha == 1.0  # a_0 = 0
        s = accel_schedule_advance(s)
        assert s.gamma == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-15)

    def test_convex_gamma_solves_quadratic(self):
        rho = 3.7
        s = make_schedule("convex", rho, 0.2)
        prev = 0.0
        for _ in range(50):
            s = accel_schedule_advance(s)
            # positive root of g^2 - g/rho - prev^2 = 0
            root = 0.5 * (1 / rho + math.sqrt(1 / rho**2 + 4 * prev**2))
            assert s.gamma == pytest.approx(root, rel=1e-14)
            prev = s.gamma

    def test_convex_first_alpha_is_one_any_rho(self):
        for rho in (1.0, 2.5, 10.0, 800.0):
            s = accel_schedule_advance(make_schedule("convex", rho, 0.01))
            assert s.alpha == 1.0

    def test_strongly_convex_degenerate_collapse(self):
        s = make_schedule("strongly_convex", 1.0, 1.0, mu=1.0)
        for _ in range(5):
            s = accel_schedule_advance(s)
            assert s.gamma == 1.0
            assert s.beta == 0.0
            assert s.alpha == 1.0

    def test_strongly_convex_constants(self):
        mu, eta, rho = 0.25, 0.5, 2.0
        s = accel_schedule_advance(make_schedule("strongly_convex", rho, eta, mu=mu))
        q = math.sqrt(mu * eta / rho)
        assert s.gamma == pytest.approx(1 / math.sqrt(mu * eta * rho), rel=1e-15)
        assert s.beta == pytest.approx(1 - q, rel=1e-15)
        # alpha via the ratio form equals q / (1 + q) after simplification
        assert s.alpha == pytest.approx(q / (1 + q), rel=1e-12)

    def test_strongly_convex_infeasible(self):
        with pytest.raises(ValueError):
            make_schedule("strongly_convex", 1.0, 3.0, mu=1.0)

    def test_strongly_convex_requires_mu(self):
        with pytest.raises(ValueError):
            make_schedule("strongly_convex", 1.0, 0.5)

    def test_gamma_recursion_residual_convex(self):
        rho = 2.7
        s = make_schedule("convex", rho, 0.3)
        prev = 0.0
        for k in range(10_000):
            s = accel_schedule_advance(s)
            res = s.gamma**2 - s.gamma / rho - prev**2
            assert abs(res) <= 1e-10 * max(1.0, s.gamma**2)
            assert s.gamma >= k / (2 * rho) - 1e-12
            prev = s.gamma

    def test_gamma_recursion_residual_strongly_convex(self):
        mu, eta, rho = 0.3, 0.1, 1.5
        s = make_schedule("strongly_convex", rho, eta, mu=mu)
        prev = s.gamma_prev
        for _ in range(10_000):
            s = accel_schedule_advance(s)
            res = s.gamma**2 - s.gamma * (1 / rho - mu * eta * prev**2) - prev**2
            assert abs(res) <= 1e-10 * max(1.0, s.gamma**2)
            prev = s.gamma

    def test_no_overflow_over_many_iterations(self):
        s = make_schedule("strongly_convex", 2.0, 0.125, mu=0.5)
        for _ in range(1_000_000):
            s = accel_schedule_advance(s)
        for value in (s.gamma, s.alpha, s.beta, s.ab_ratio):
            assert math.isfinite(value)


class TestAccelStep:
    def test_requires_advanced_schedule(self):
        obj = interpolating_objective()
        st = init_accel_state(np.zeros(obj.dim), make_schedule("convex", 1.0, 0.1))
        with pytest.raises(ValueError):
            accel_step(obj, st, make_rng(0))

    def test_fixed_point_at_interpolation(self):
        obj = interpolating_objective()
        sched = accel_schedule_advance(make_schedule("convex", 2.0, 0.1))
        st = init_accel_state(obj.data.w_star, sched)
        for _ in range(10):
            st = replace(st, schedule=accel_schedule_advance(st.schedule))
            st, _ = accel_step(obj, st, make_rng(3))
            assert np.array_equal(st.w, obj.data.w_star)
            assert np.array_equal(st.v, obj.data.w_star)

    def test_one_iteration_manual_unroll(self):
        # With alpha = beta = 1 and gamma * eta = eta: zeta = v = w0, so the
        # step is a plain gradient step in w, and v moves by gamma*eta*g.
        obj = one_d_quadratic(1.0)  # f(w) = 0.5 w^2, grad = w
        eta, gamma = 0.25, 1.0
        sched = make_schedule("convex", 1.0, eta)
        sched = replace(sched, gamma=gamma, alpha=1.0, beta=1.0)
        w0 = np.array([2.0])
        st = init_accel_state(w0, sched)
        st, _ = accel_step(obj, st, make_rng(0))
        g = w0[0]
        assert st.w[0] == pytest.approx(w0[0] - eta * g, rel=1e-15)
        assert st.v[0] == pytest.approx(w0[0] - gamma * eta * g, rel=1e-15)
        assert st.zeta[0] == w0[0]

    def test_strongly_convex_quadratic_rate_guarantee(self):
        # Deterministic limit: single example, rho = 1, every k <= 200.
        A = np.diag([0.04, 4.0])
        obj = QuadraticObjective(A, np.array([1.3, -0.7]))
        eta = 1.0 / obj.L
        sched = make_schedule("strongly_convex", 1.0, eta, mu=obj.mu)
        w0 = np.array([3.0, 2.0])
        st = init_accel_state(w0, sched)
        rng = make_rng(0)
        constant = obj.loss_full(w0) + 0.5 * obj.mu * float(
            (w0 - obj.w_star) @ (w0 - obj.w_star)
        )
        rate = 1.0 - math.sqrt(obj.mu / obj.L)
        for k in range(1, 201):
            st = replace(st, schedule=accel_schedule_advance(st.schedule))
            st, _ = accel_step(obj, st, rng, metrics=False)
            assert obj.loss_full(st.w) <= rate**k * constant * (1 + 1e-9) + 1e-300

    def test_matches_classical_nesterov_with_full_gradients(self):
        # rho = 1 and n = 1 reduce the three sequences to the classical
        # constant-momentum method x+ = y - eta grad, y+ = x+ + theta (x+ - x).
        A = np.diag([0.09, 1.0])
        obj = QuadraticObjective(A, np.array([0.2, 0.4]))
        eta = 1.0 / obj.L
        q = math.sqrt(obj.mu * eta)
        theta = (1 - q) / (1 + q)
        w0 = np.array([-1.0, 2.0])
        x = w0.copy()
        y = w0.copy()
        sched = make_schedule("strongly_convex", 1.0, eta, mu=obj.mu)
        st = init_accel_state(w0, sched)
        rng = make_rng(0)
        for _ in range(100):
            x_new = y - eta * obj.grad_full(y)
            y = x_new + theta * (x_new - x)
            x = x_new
            st = replace(st, schedule=accel_schedule_advance(st.schedule))
            st, _ = accel_step(obj, st, rng, metrics=False)
        assert np.allclose(st.w, x, atol=1e-12)


class TestLineSearch:
    def test_estimate_accepted_immediately_when_true_L_is_one(self):
        obj = one_d_quadratic(1.0)  # f = 0.5 w^2, L = 1
        w, L_hat, _ = line_search_sgd_step(obj, np.array([3.0]), 1.0, make_rng(0))
        assert L_hat == 1.0
        assert w[0] == pytest.approx(0.0, abs=1e-15)

    def test_estimate_doubles_to_true_L(self):
        obj = one_d_quadratic(4.0)  # f = 2 w^2, L = 4
        w, L_hat, _ = line_search_sgd_step(obj, np.array([1.0]), 1.0, make_rng(0))
        assert L_hat == 4.0
        assert w[0] == pytest.approx(0.0, abs=1e-15)

    def test_zero_gradient_keeps_w_and_estimate(self):
        obj = interpolating_objective()
        w, L_hat, _ = line_search_sgd_step(obj, obj.data.w_star, 1.0, make_rng(0))
        assert np.array_equal(w, obj.data.w_star)
        assert L_hat == 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pathological_objective_errors(self):
        # A vastly underestimated curvature exhausts the doubling cap.
        obj = one_d_quadratic(1e200)
        with pytest.raises(LineSearchError):
            line_search_sgd_step(obj, np.array([1.0]), 1e-12, make_rng(0))

    def test_accel_uses_doubled_estimate_in_schedule(self):
        obj = one_d_quadratic(4.0)  # f = 2 w^2, L = 4
        sched = make_schedule("convex", 1.0, 1.0)
        st = init_accel_state(np.array([1.0]), sched)
        st, rhoL, _ = line_search_accel_step(obj, st, 1.0, make_rng(0))
        assert rhoL == 4.0
        assert st.schedule.eta == pytest.approx(1.0 / 4.0)
        assert st.schedule.rho == pytest.approx(4.0 / obj.L)

    def test_accel_estimate_at_true_L_matches_first_tuned_step(self):
        # With rhoL_hat = L the first iteration has gamma*eta = eta = 1/L,
        # so the tested step and the tuned rho = 1 step coincide exactly.
        A = np.array([[2.0]])
        obj = QuadraticObjective(A, np.array([0.0]))
        sched = make_schedule("convex", 1.0, 1.0 / obj.L)
        st_ls = init_accel_state(np.array([1.5]), sched)
        st_t = init_accel_state(np.array([1.5]), sched)
        rng = make_rng(0)
        st_ls, rhoL, _ = line_search_accel_step(obj, st_ls, obj.L, rng)
        st_t = replace(st_t, schedule=accel_schedule_advance(st_t.schedule))
        st_t, _ = accel_step(obj, st_t, rng)
        assert rhoL == obj.L
        assert np.allclose(st_ls.w, st_t.w, rtol=1e-12)
        assert np.allclose(st_ls.v, st_t.v, rtol=1e-12)

    def test_accel_line_search_stays_stable_and_converges(self):
        # As gamma grows the v-step test forces the estimate up, keeping the
        # stochastic iteration stable where a fixed estimate would not.
        obj = interpolating_objective(n=60, d=10, tau=0.1)
        cfg = RunConfig(seed=3)
        record = run(obj, "accel_ls", cfg, 20)
        assert max(r.train_loss for r in record.rows) <= 10.0 * record.rows[0].train_loss
        assert record.final_loss() < 1e-3

    def test_accel_fixed_point_any_estimate(self):
        obj = interpolating_objective()
        sched = make_schedule("convex", 1.0, 1.0)
        st = init_accel_state(obj.data.w_star, sched)
        for rhoL0 in (0.25, 1.0, 64.0):
            st2, rhoL, _ = line_search_accel_step(obj, st, rhoL0, make_rng(1))
            assert np.array_equal(st2.w, obj.data.w_star)
            assert rhoL == rhoL0


class TestRun:
    def test_step_count_and_row_count(self):
        obj = interpolating_objective(n=10, d=4)
        record = run(obj, "sgd", RunConfig(eta=0.1, seed=0), 1)
        assert len(record.rows) == 2  # initial row + one per pass
        assert record.rows[0].iteration == 0
        assert record.rows[1].iteration == 10

    def test_deterministic_per_seed(self):
        obj = interpolating_objective(n=20, d=5)
        a = run(obj, "accel", RunConfig(rho=5.0, seed=3), 3)
        b = run(obj, "accel", RunConfig(rho=5.0, seed=3), 3)
        assert a.to_csv() == b.to_csv()

    @pytest.mark.parametrize("method", ["sgd", "accel", "sgd_ls", "accel_ls"])
    def test_all_methods_fix_interpolating_start(self, method):
        obj = interpolating_objective(n=15, d=4)
        cfg = RunConfig(eta=0.3, rho=2.0, seed=1, w0=obj.data.w_star)
        record = run(obj, method, cfg, 2)
        assert all(r.train_loss == 0.0 for r in record.rows)
        assert all(r.grad_sq_norm == 0.0 for r in record.rows)

    def test_averaging_reports_running_mean(self):
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, 1.0])
        obj = Objective("squared", Dataset(X=X, y=y))
        eta = 0.5
        seed = 7
        record = run(obj, "sgd", RunConfig(eta=eta, seed=seed, averaging=True), 1)
        # replicate the two steps by hand: every example is (x=1, y=1)
        w = 0.0
        iterates = []
        for _ in range(2):
            w = w - eta * (w - 1.0)
            iterates.append(w)
        wbar = float(np.mean(iterates))
        assert record.rows[1].train_loss == pytest.approx(
            0.5 * (wbar - 1.0) ** 2, rel=1e-12
        )

    def test_default_step_sizes(self):
        obj = interpolating_objective(n=12, d=4)
        cfg = RunConfig(seed=0)
        assert cfg.resolve_eta(obj, "sgd") == pytest.approx(1.0 / obj.L_max)
        assert cfg.resolve_eta(obj, "accel") == pytest.approx(1.0 / obj.L)
        cfg = RunConfig(rho=4.0, seed=0)
        assert cfg.resolve_eta(obj, "accel") == pytest.approx(1.0 / (4.0 * obj.L))

    def test_rejects_noise_with_line_search(self):
        obj = interpolating_objective(n=12, d=4)
        with pytest.raises(ValueError):
            run(obj, "sgd_ls", RunConfig(sigma=0.1), 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_propagates_pass_index_on_failure(self):
        X = np.array([[1.0], [1.0]])
        obj = Objective("squared", Dataset(X=X, y=np.array([1.0, -1.0])))
        with pytest.raises((FloatingPointError, ValueError), match="pass "):
            run(obj, "sgd", RunConfig(eta=1e100, seed=0), 8)

    def test_unknown_method(self):
        obj = interpolating_objective(n=12, d=4)
        with pytest.raises(ValueError):
            run(obj, "adam", RunConfig(eta=0.1), 1)


# ---------------------------------------------------------------------------
# run()'s whole-pass kernels against the single-step functions
# ---------------------------------------------------------------------------

# Exceptions that report the same kind of failure: a non-finite iterate or
# gradient (input validation raised ValueError for it, the gradient check
# and run()'s per-pass check FloatingPointError), a failed line search, and
# an overflowing schedule.
FAILURE_FAMILIES = ((FloatingPointError, ValueError), (LineSearchError,), (OverflowError,))


def failure_family(exc: BaseException) -> int:
    return next(k for k, family in enumerate(FAILURE_FAMILIES) if isinstance(exc, family))


class OracleFailure(Exception):
    def __init__(self, pass_index: int, cause: BaseException):
        super().__init__(f"pass {pass_index}: {cause!r}")
        self.pass_index = pass_index
        self.cause = cause


class BatchedDraws:
    """Serves single steps the draws run() makes: per pass, n indices in
    one batch and then, with noise, one (n, dim) normal batch."""

    def __init__(self, seed: int, n: int, dim: int, std: float):
        self.rng = make_rng(seed)
        self.n, self.dim, self.std = n, dim, std
        self.indices: list[int] = []
        self.noise: list[np.ndarray] = []

    def integers(self, low, high):
        assert (low, high) == (0, self.n)
        if not self.indices:
            self.indices = self.rng.integers(0, self.n, size=self.n).tolist()
            if self.std > 0:
                self.noise = list(self.rng.normal(0.0, self.std, size=(self.n, self.dim)))
        return self.indices.pop(0)

    def normal(self, loc, scale, size):
        assert (loc, scale, size) == (0.0, self.std, self.dim)
        return self.noise.pop(0)


def metric_row(obj, pass_index: int, point: np.ndarray) -> MetricRow:
    full = obj.grad_full(point)
    return MetricRow(
        pass_index=pass_index,
        iteration=pass_index * obj.n,
        train_loss=obj.loss_full(point),
        grad_sq_norm=float(full @ full),
        mistake_rate=obj.mistake_rate(point) if hasattr(obj, "mistake_rate") else 0.0,
    )


def oracle_rows(obj, method: str, cfg: RunConfig, passes: int) -> list[MetricRow]:
    """run()'s rows from a loop over the public single-step functions.

    All steps share one generator: scalar index draws from the seeded
    stream without noise, the batched draws of BatchedDraws with it.
    """
    if cfg.sigma > 0:
        rng = BatchedDraws(cfg.seed, obj.n, obj.dim, cfg.sigma / math.sqrt(obj.dim))
    else:
        rng = make_rng(cfg.seed)
    eta = cfg.resolve_eta(obj, method)
    w = np.zeros(obj.dim) if cfg.w0 is None else np.array(cfg.w0, dtype=float)
    st = None
    if method.startswith("accel"):
        st = init_accel_state(w, make_schedule(cfg.mode, cfg.rho, eta, mu=cfg.mu))
    step_cfg = SgdConfig(eta=eta, sigma=cfg.sigma)
    estimate = cfg.ls_init
    wbar = w.copy()
    steps = 0
    rows = [metric_row(obj, 0, w)]
    for p in range(1, passes + 1):
        try:
            for _ in range(obj.n):
                if method == "sgd":
                    w, _ = sgd_step(obj, w, step_cfg, rng, metrics=False)
                elif method == "sgd_ls":
                    w, estimate, _ = line_search_sgd_step(obj, w, estimate, rng, metrics=False)
                elif method == "accel":
                    st = replace(st, schedule=accel_schedule_advance(st.schedule))
                    st, _ = accel_step(obj, st, rng, sigma=cfg.sigma, metrics=False)
                else:
                    st, estimate, _ = line_search_accel_step(
                        obj, st, estimate, rng, metrics=False
                    )
                steps += 1
                if cfg.averaging:
                    wbar += ((st.w if st is not None else w) - wbar) / steps
            rows.append(metric_row(obj, p, wbar if cfg.averaging else (st.w if st else w)))
        except (FloatingPointError, LineSearchError, ValueError, OverflowError) as exc:
            raise OracleFailure(p, exc) from exc
    return rows


def kernel_rows(obj, method: str, cfg: RunConfig, passes: int) -> list[MetricRow]:
    return [replace(r, elapsed_ms=0) for r in run(obj, method, cfg, passes).rows]


def assert_same_failure(obj, method: str, cfg: RunConfig, passes: int) -> int:
    with pytest.raises(OracleFailure) as oracle:
        oracle_rows(obj, method, cfg, passes)
    with pytest.raises(Exception) as kernel:
        run(obj, method, cfg, passes)
    assert str(kernel.value).startswith(f"pass {oracle.value.pass_index}: ")
    assert failure_family(kernel.value) == failure_family(oracle.value.cause)
    return oracle.value.pass_index


KERNEL_CASES = [
    (method, kind, mode, averaging)
    for method in ("sgd", "accel", "sgd_ls", "accel_ls")
    for kind in ("squared", "squared_hinge", "logistic", "hinge")
    for mode in (("convex", "strongly_convex") if method.startswith("accel") else ("convex",))
    for averaging in (False, True)
    if not (kind == "hinge" and method.endswith("_ls"))
]


class TestKernelsMatchSingleSteps:
    @pytest.mark.parametrize("method,kind,mode,averaging", KERNEL_CASES)
    def test_rows_equal_single_step_loop(self, method, kind, mode, averaging):
        data = generate_margin_data(25, 5, 0.2, seed=len(kind))
        obj = Objective(kind, data)
        cfg = RunConfig(
            eta=0.2 if kind == "hinge" else None,
            rho=3.0,
            mode=mode,
            mu=0.01 if mode == "strongly_convex" else None,
            seed=11,
            averaging=averaging,
            w0=np.linspace(-2.0, 2.0, 5),
        )
        rows = kernel_rows(obj, method, cfg, 6)
        assert rows == oracle_rows(obj, method, cfg, 6)
        assert rows[-1].train_loss < rows[0].train_loss  # the steps did move

    @pytest.mark.parametrize("method", ["sgd", "accel", "sgd_ls", "accel_ls"])
    @pytest.mark.parametrize("mode", ["convex", "strongly_convex"])
    def test_quadratic_objective(self, method, mode):
        obj = QuadraticObjective(np.diag([0.04, 4.0]), np.array([1.3, -0.7]))
        cfg = RunConfig(
            mode=mode,
            mu=obj.mu if mode == "strongly_convex" else None,
            seed=2,
            w0=np.array([3.0, 2.0]),
        )
        assert kernel_rows(obj, method, cfg, 40) == oracle_rows(obj, method, cfg, 40)

    @pytest.mark.parametrize("method", ["sgd", "accel", "sgd_ls", "accel_ls"])
    def test_pl_toy_objective(self, method):
        obj = PlToyObjective(3)
        cfg = RunConfig(rho=2.0, seed=2, averaging=True, w0=np.array([3.0, 2.0, -1.0]))
        assert kernel_rows(obj, method, cfg, 40) == oracle_rows(obj, method, cfg, 40)

    @pytest.mark.parametrize("method", ["sgd", "accel"])
    @pytest.mark.parametrize("n", [2, 20])
    def test_noise_matches_batched_draws(self, method, n):
        data = generate_margin_data(n, 4, 0.2, seed=5)
        obj = Objective("squared_hinge", data)
        cfg = RunConfig(rho=2.0, sigma=0.3, seed=4, averaging=method == "sgd")
        rows = kernel_rows(obj, method, cfg, 5)
        assert rows == oracle_rows(obj, method, cfg, 5)
        # the noise reaches the iterates: a noise-free run ends elsewhere
        assert rows != kernel_rows(obj, method, replace(cfg, sigma=0.0), 5)

    def test_noise_stream_is_unchanged_for_one_example(self):
        # with n = 1 the index draw consumes nothing, so the batched noise
        # is the interleaved per-step stream: the unbatched loop agrees
        obj = Objective("squared", Dataset(X=np.array([[1.0, 2.0]]), y=np.array([1.0])))
        cfg = RunConfig(eta=0.1, sigma=0.5, seed=9)
        rng = make_rng(cfg.seed)
        w = np.zeros(2)
        for _ in range(4):
            w, _ = sgd_step(obj, w, SgdConfig(eta=0.1, sigma=0.5), rng, metrics=False)
        assert run(obj, "sgd", cfg, 4).rows[-1].train_loss == obj.loss_full(w)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "method,eta,ls_init,expected_pass,message",
        [
            ("sgd", 1e100, 1.0, 2, "non-finite iterate"),
            ("sgd", 10.0, 1.0, 162, "non-finite iterate"),
            ("accel", 1e100, 1.0, 2, "non-finite iterate"),
            ("accel", 3.0, 1.0, 45, "non-finite iterate"),
            ("sgd_ls", None, 1e-300, 1, "doublings"),
            ("accel_ls", None, 1e-300, 1, "non-finite stochastic gradient"),
        ],
    )
    def test_divergence_fails_in_the_same_pass(
        self, method, eta, ls_init, expected_pass, message
    ):
        # expected_pass is where the per-step checks of earlier versions
        # stopped these runs
        X = np.array([[1.0], [1.0]])
        obj = Objective("squared", Dataset(X=X, y=np.array([1.0, -1.0])))
        cfg = RunConfig(eta=eta, rho=1e-3, seed=0, ls_init=ls_init)
        assert assert_same_failure(obj, method, cfg, 300) == expected_pass
        with pytest.raises(Exception, match=message):
            run(obj, method, cfg, 300)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", ["sgd_ls", "accel_ls"])
    def test_line_search_failure_in_the_same_pass(self, method):
        obj = one_d_quadratic(1e200)
        cfg = RunConfig(seed=0, ls_init=1e-12, w0=np.array([1.0]))
        assert assert_same_failure(obj, method, cfg, 3) == 1

    @pytest.mark.parametrize(
        "method,step,sigma",
        [
            ("sgd", "sgd_step", 0.0),
            ("sgd", "sgd_step", 0.3),
            ("accel", "accel_step", 0.0),
            ("accel", "accel_step", 0.3),
            ("accel", "accel_schedule_advance", 0.0),
            ("sgd_ls", "line_search_sgd_step", 0.0),
            ("accel_ls", "line_search_accel_step", 0.0),
        ],
    )
    def test_rebound_step_sees_every_step(self, monkeypatch, method, step, sigma):
        data = generate_margin_data(15, 4, 0.2, seed=3)
        obj = Objective("logistic", data)
        cfg = RunConfig(rho=2.0, sigma=sigma, seed=7, averaging=True, w0=np.ones(4))
        expected = kernel_rows(obj, method, cfg, 3)
        original = getattr(optimizers, step)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(optimizers, step, counting)
        assert kernel_rows(obj, method, cfg, 3) == expected
        assert len(calls) == 3 * obj.n

    def test_rebound_oracle_sees_every_gradient(self, monkeypatch):
        obj = interpolating_objective(n=12, d=4)
        cfg = RunConfig(seed=1, w0=np.ones(4))
        expected = kernel_rows(obj, "sgd", cfg, 2)
        original = Objective.grad_example
        calls = []

        def counting(self, w, i):
            calls.append(i)
            return original(self, w, i)

        monkeypatch.setattr(Objective, "grad_example", counting)
        assert kernel_rows(obj, "sgd", cfg, 2) == expected
        assert len(calls) == 2 * obj.n

    def test_rejects_nonpositive_line_search_start(self):
        obj = interpolating_objective(n=12, d=4)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="ls_init"):
                run(obj, "sgd_ls", RunConfig(ls_init=bad), 1)
