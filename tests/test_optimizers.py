import functools
import math
from dataclasses import FrozenInstanceError, astuple, replace
from fractions import Fraction

import numpy as np
import pytest

from interpsgd import optimizers
from interpsgd.data import generate_margin_data
from interpsgd.numerics import make_rng
from interpsgd.objectives import Dataset, Objective
from interpsgd.optimizers import (
    AccelSchedule,
    AccelState,
    LineSearchError,
    RunConfig,
    RunError,
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
from interpsgd.records import MetricRow, compare_curves


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
        # every example's gradient is exactly 0 at w_star, whichever is sampled
        for i in range(obj.n):
            assert np.array_equal(obj.grad_example(w_star, i), np.zeros(obj.dim))
        rng = make_rng(1)
        for _ in range(20):
            w_next = sgd_step(obj, w_star, cfg, rng)
            assert np.array_equal(w_next, w_star)

    def test_one_step_exact_solve_in_1d(self):
        # f(w) = 0.5 (w - y)^2 with x = 1: eta = 1 lands on y directly.
        obj = one_d_objective(1.0, 1.0)
        w_next = sgd_step(obj, np.array([4.0]), SgdConfig(eta=1.0), make_rng(0))
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
        for _ in range(3):
            w = sgd_step(obj, w, SgdConfig(eta=eta), rng)
        assert w[0] == pytest.approx(w_manual, rel=1e-15)

    def test_noise_has_requested_energy(self):
        obj = interpolating_objective()
        sigma = 0.3
        cfg = SgdConfig(eta=1.0, sigma=sigma)
        rng = make_rng(5)
        sq = []
        for _ in range(4000):
            # the gradient is 0 at w_star and eta = 1: the step is the noise
            step = sgd_step(obj, obj.data.w_star, cfg, rng) - obj.data.w_star
            sq.append(float(step @ step))
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
        # make_schedule already carries the fixed point of ab_ratio, so every
        # advance repeats the first one's arithmetic: no count of advances
        # can overflow, and the coefficients are exactly constant in k.
        s = make_schedule("strongly_convex", 2.0, 0.125, mu=0.5)
        seen = {}
        for k in range(1, 1001):
            s = accel_schedule_advance(s)
            assert s.k == k
            if k in (1, 2, 1000):
                seen[k] = (s.gamma, s.alpha, s.beta, s.ab_ratio)
        assert seen[1] == seen[2] == seen[1000]
        assert all(math.isfinite(value) for value in seen[1])

    def test_advance_keeps_a_frozen_dataclass(self):
        s = accel_schedule_advance(make_schedule("convex", 2.0, 0.125))
        built = AccelSchedule("convex", 2.0, 0.125, 0.0, 1, s.gamma, s.ab_ratio, s.gamma, s.alpha, 1.0)
        assert s == built and repr(s) == repr(built) and hash(s) == hash(built)
        assert replace(s, eta=0.5).eta == 0.5 and replace(s) == s
        with pytest.raises(FrozenInstanceError):
            s.k = 7

    @pytest.mark.parametrize("rho", [0.5, 1.0, 10.0])
    def test_pass_coefficients_equal_the_scalar_schedule(self, rho):
        # the accel kernel's per-pass gamma_k and alpha_k, three passes with
        # the state carried between them, against _schedule_coefficients
        eta = 0.03
        gamma_prev = want_prev = want_ab = 0.0
        for n in (2000, 1, 500):
            gammas, alphas = optimizers._convex_coefficients(n, rho, eta, gamma_prev)
            want_gammas, want_alphas = [], []
            for _ in range(n):
                gamma, alpha, _, want_ab = optimizers._schedule_coefficients(
                    "convex", rho, eta, 0.0, want_prev, want_ab
                )
                want_gammas.append(gamma)
                want_alphas.append(alpha)
                want_prev = gamma
            assert list(gammas) == want_gammas
            assert alphas.tolist() == want_alphas
            gamma_prev = gammas[-1]
            assert (gamma_prev, gamma_prev * gamma_prev * eta * rho) == (want_prev, want_ab)

    def test_convex_schedule_squares_gamma_exactly(self):
        # g**2 calls the C library's pow, which is not correctly rounded: on
        # a few doubles in ten thousand it differs from the product g * g by
        # enough to move gamma. The schedule squares with the product, and
        # the pass coefficients follow it bit for bit.
        rho, eta = 1.0, 0.03
        inv_rho, sqrt = 1.0 / rho, math.sqrt

        def gamma(square):
            return 0.5 * (inv_rho + sqrt(inv_rho * inv_rho + 4.0 * square))

        doubles = np.random.default_rng(0).uniform(0.0, 1000.0, size=200_000).tolist()
        g = next((g for g in doubles if gamma(g**2) != gamma(g * g)), None)
        if g is None:
            pytest.skip("this C library's pow squares these doubles exactly")
        got, _, _, _ = optimizers._schedule_coefficients("convex", rho, eta, 0.0, g, 1.0)
        assert got == gamma(g * g) != gamma(g**2)
        gammas, _ = optimizers._convex_coefficients(1, rho, eta, g)
        assert gammas == [got]


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
            st = accel_step(obj, st, make_rng(3))
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
        st = accel_step(obj, st, make_rng(0))
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
            st = accel_step(obj, st, rng)
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
            st = accel_step(obj, st, rng)
        assert np.allclose(st.w, x, atol=1e-12)


class TestLineSearch:
    def test_estimate_accepted_immediately_when_true_L_is_one(self):
        obj = one_d_quadratic(1.0)  # f = 0.5 w^2, L = 1
        w, L_hat = line_search_sgd_step(obj, np.array([3.0]), 1.0, make_rng(0))
        assert L_hat == 1.0
        assert w[0] == pytest.approx(0.0, abs=1e-15)

    def test_estimate_doubles_to_true_L(self):
        obj = one_d_quadratic(4.0)  # f = 2 w^2, L = 4
        w, L_hat = line_search_sgd_step(obj, np.array([1.0]), 1.0, make_rng(0))
        assert L_hat == 4.0
        assert w[0] == pytest.approx(0.0, abs=1e-15)

    def test_zero_gradient_keeps_w_and_estimate(self):
        obj = interpolating_objective()
        w, L_hat = line_search_sgd_step(obj, obj.data.w_star, 1.0, make_rng(0))
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
        st, rhoL = line_search_accel_step(obj, st, 1.0, make_rng(0))
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
        st_ls, rhoL = line_search_accel_step(obj, st_ls, obj.L, rng)
        st_t = replace(st_t, schedule=accel_schedule_advance(st_t.schedule))
        st_t = accel_step(obj, st_t, rng)
        assert rhoL == obj.L
        assert np.allclose(st_ls.w, st_t.w, rtol=1e-12)
        assert np.allclose(st_ls.v, st_t.v, rtol=1e-12)

    def test_accel_line_search_stays_stable_and_converges(self):
        # As gamma grows the v-step test forces the estimate up, keeping the
        # stochastic iteration stable where a fixed estimate would not.
        obj = interpolating_objective(n=60, d=10, tau=0.1)
        cfg = RunConfig(seed=3)
        record = run(obj, "accel_ls", cfg, 20)
        assert not record.diverged()
        assert record.final_loss() < 1e-3

    def test_accel_infeasible_estimate_doubles(self):
        # strongly convex mode needs mu L / L_hat^2 <= 1: a candidate that
        # breaks it has no schedule and fails like a failed test, here at a
        # zero gradient too, and the run keeps the reference's steps
        obj = interpolating_objective()
        mu = 2.0 / obj.L
        sched = make_schedule("strongly_convex", 4.0, 1.0 / (4.0 * obj.L), mu=mu)
        st = init_accel_state(obj.data.w_star, sched)
        st2, rhoL = line_search_accel_step(obj, st, 1.0, make_rng(1))
        assert np.array_equal(st2.w, obj.data.w_star)
        # mu L / L_hat^2 is 2 at L_hat = 1 and 1/2 at L_hat = 2
        assert rhoL == 2.0 and mu * obj.L > 1.0 >= mu * obj.L / 4.0
        cfg = RunConfig(rho=4.0, mode="strongly_convex", mu=mu, seed=2, w0=np.ones(obj.dim))
        assert_within_tolerance(
            kernel_rows(obj, "accel_ls", cfg, 3), oracle_rows(obj, "accel_ls", cfg, 3)
        )

    def test_accel_fixed_point_any_estimate(self):
        obj = interpolating_objective()
        sched = make_schedule("convex", 1.0, 1.0)
        st = init_accel_state(obj.data.w_star, sched)
        for rhoL0 in (0.25, 1.0, 64.0):
            st2, rhoL = line_search_accel_step(obj, st, rhoL0, make_rng(1))
            assert np.array_equal(st2.w, obj.data.w_star)
            assert rhoL == rhoL0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_an_estimate_that_is_not_positive_and_finite(self, bad):
        # inf once returned w unchanged from the SGD step and divided by zero
        # in the accelerated one; nan failed later as a non-finite vector
        obj = interpolating_objective(n=50, d=5)
        st = init_accel_state(np.zeros(5), make_schedule("convex", 1.0, 1.0))
        with pytest.raises(ValueError, match="L_hat must be a positive finite number"):
            line_search_sgd_step(obj, np.zeros(5), bad, make_rng(0))
        with pytest.raises(ValueError, match="rhoL_hat must be a positive finite number"):
            line_search_accel_step(obj, st, bad, make_rng(0))


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

    def test_sgd_ls_needs_no_step_size(self):
        # SGD(LS) steps by its own estimate, so the hinge loss, which has no
        # L or L_max and hence no default eta, runs; accel_ls reads eta in
        # its strongly convex start and still needs one
        obj = Objective("hinge", generate_margin_data(60, 5, 0.2, seed=1))
        record = run(obj, "sgd_ls", RunConfig(), 2)
        assert record.final_loss() < record.rows[0].train_loss
        with pytest.raises(ValueError, match="no default step size"):
            run(obj, "accel_ls", RunConfig(), 1)

    def test_rejects_noise_with_line_search(self):
        obj = interpolating_objective(n=12, d=4)
        with pytest.raises(ValueError):
            run(obj, "sgd_ls", RunConfig(sigma=0.1), 1)

    @pytest.mark.parametrize("method", ["sgd", "accel"])
    def test_rejects_nan_noise_level(self, method):
        # a ValueError, not a RunError: raised before the first pass
        with pytest.raises(ValueError, match="sigma must be >= 0, got nan"):
            SgdConfig(eta=1.0, sigma=math.nan)
        obj = interpolating_objective(n=12, d=4)
        with pytest.raises(ValueError, match="sigma must be >= 0, got nan"):
            run(obj, method, RunConfig(sigma=math.nan), 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_propagates_pass_index_on_failure(self):
        X = np.array([[1.0], [1.0]])
        obj = Objective("squared", Dataset(X=X, y=np.array([1.0, -1.0])))
        with pytest.raises(RunError, match="^pass ") as err:
            run(obj, "sgd", RunConfig(eta=1e100, seed=0), 8)
        assert isinstance(err.value.__cause__, (FloatingPointError, ValueError))

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
    eta = None if method == "sgd_ls" else cfg.resolve_eta(obj, method)  # as run() reads it
    w = np.zeros(obj.dim) if cfg.w0 is None else np.array(cfg.w0, dtype=float)
    st = None
    if method.startswith("accel"):
        st = init_accel_state(w, make_schedule(cfg.mode, cfg.rho, eta, mu=cfg.mu))
    step_cfg = SgdConfig(eta=eta, sigma=cfg.sigma) if method == "sgd" else None
    estimate = cfg.ls_init
    wbar = w.copy()
    steps = 0
    rows = [metric_row(obj, 0, w)]
    for p in range(1, passes + 1):
        try:
            for _ in range(obj.n):
                if method == "sgd":
                    w = sgd_step(obj, w, step_cfg, rng)
                elif method == "sgd_ls":
                    w, estimate = line_search_sgd_step(obj, w, estimate, rng)
                elif method == "accel":
                    st = replace(st, schedule=accel_schedule_advance(st.schedule))
                    st = accel_step(obj, st, rng, sigma=cfg.sigma)
                else:
                    st, estimate = line_search_accel_step(obj, st, estimate, rng)
                steps += 1
                if cfg.averaging:
                    wbar += ((st.w if st is not None else w) - wbar) / steps
            rows.append(metric_row(obj, p, wbar if cfg.averaging else (st.w if st else w)))
        except (FloatingPointError, LineSearchError, ValueError, OverflowError) as exc:
            raise OracleFailure(p, exc) from exc
    return rows


def kernel_rows(obj, method: str, cfg: RunConfig, passes: int) -> list[MetricRow]:
    return [replace(r, elapsed_ms=0) for r in run(obj, method, cfg, passes).rows]


def pin_per_step_accel(monkeypatch) -> None:
    """Keeps the accel kernel on its exact per-step arithmetic: no observed
    gap reaches the screen's threshold, so no step is crossed in a span,
    and no stretch of steps is long enough for a solved block."""
    monkeypatch.setattr(optimizers, "_ACCEL_MIN_GAP", math.inf)
    monkeypatch.setattr(optimizers, "_MIN_SOLVED", math.inf)


def per_step_accel_rows(
    monkeypatch, obj, cfg: RunConfig, passes: int, method: str = "accel"
) -> list[MetricRow]:
    with monkeypatch.context() as patch:
        pin_per_step_accel(patch)
        return kernel_rows(obj, method, cfg, passes)


def assert_within_tolerance(rows: list[MetricRow], oracle: list[MetricRow]) -> None:
    """The benchmark's curve check, tightened: the curve rule of
    ``records.compare_curves`` with the ordinary rows within 1e-9 decades
    (0.01 if the oracle diverges), and equal iterations and mistake rates."""
    assert [r.iteration for r in rows] == [r.iteration for r in oracle]
    rule = compare_curves([r.train_loss for r in oracle], [r.train_loss for r in rows])
    tol = 0.01 if rule.reference_diverged else 1e-9
    assert rule.max_log10_delta <= tol and rule.floor_kept and rule.divergence_kept, rule
    assert [r.mistake_rate for r in rows] == [r.mistake_rate for r in oracle]


def assert_rows_match(rows: list[MetricRow], oracle: list[MetricRow], method: str) -> None:
    """SGD and SGD(LS) run the single-step arithmetic and are equal to
    their oracle; Acc-SGD and Acc-SGD(LS) run it in rank-one form and are
    within tolerance of it."""
    if method.startswith("accel"):
        assert_within_tolerance(rows, oracle)
    else:
        assert rows == oracle


def assert_same_failure(obj, method: str, cfg: RunConfig, passes: int) -> int:
    with pytest.raises(OracleFailure) as oracle:
        oracle_rows(obj, method, cfg, passes)
    with pytest.raises(RunError) as kernel:
        run(obj, method, cfg, passes)
    assert str(kernel.value).startswith(f"pass {oracle.value.pass_index}: ")
    assert failure_family(kernel.value.__cause__) == failure_family(oracle.value.cause)
    return oracle.value.pass_index


KERNEL_CASES = [
    (method, kind, mode, averaging)
    for method in ("sgd", "accel", "sgd_ls", "accel_ls")
    for kind in ("squared", "squared_hinge", "logistic", "hinge")
    for mode in (("convex", "strongly_convex") if method.startswith("accel") else ("convex",))
    for averaging in (False, True)
    if not (kind == "hinge" and method == "accel_ls")
]


class ConstantLossObjective:
    """Duck-typed objective whose every loss is 0 and whose every sampled
    gradient is ``scale`` times the ones vector: no trial point passes the
    sufficient-decrease test, whatever the estimate."""

    n, dim, L = 3, 2, 1.0

    def __init__(self, scale: float):
        self.scale = scale

    def grad_example(self, w, i):
        return np.full(self.dim, self.scale)

    def loss_example(self, w, i):
        return 0.0

    def loss_full(self, w):
        return 0.0

    def grad_full(self, w):
        return np.full(self.dim, self.scale)


def kernel_case(kind: str, mode: str, averaging: bool):
    data = generate_margin_data(25, 5, 0.2, seed=len(kind))
    cfg = RunConfig(
        eta=0.2 if kind == "hinge" else None,
        rho=3.0,
        mode=mode,
        mu=0.01 if mode == "strongly_convex" else None,
        seed=11,
        averaging=averaging,
        w0=np.linspace(-2.0, 2.0, 5),
    )
    return Objective(kind, data), cfg


class TestKernelsMatchSingleSteps:
    @pytest.mark.parametrize("method,kind,mode,averaging", KERNEL_CASES)
    def test_rows_equal_single_step_loop(self, monkeypatch, method, kind, mode, averaging):
        obj, cfg = kernel_case(kind, mode, averaging)
        if method == "accel":
            pin_per_step_accel(monkeypatch)  # span blocks: test_accel_span_rows_within_tolerance
        rows = kernel_rows(obj, method, cfg, 6)
        assert_rows_match(rows, oracle_rows(obj, method, cfg, 6), method)
        assert rows[-1].train_loss < rows[0].train_loss  # the steps did move

    @pytest.mark.parametrize(
        "method,kind,mode,averaging",
        [case for case in KERNEL_CASES if case[0] == "accel" and "hinge" in case[1]],
    )
    def test_accel_span_rows_within_tolerance(self, monkeypatch, method, kind, mode, averaging):
        obj, cfg = kernel_case(kind, mode, averaging)
        assert_within_tolerance(
            kernel_rows(obj, method, cfg, 6), per_step_accel_rows(monkeypatch, obj, cfg, 6)
        )

    @pytest.mark.parametrize("method", ["sgd", "accel"])
    @pytest.mark.parametrize("n", [2, 20])
    def test_noise_matches_batched_draws(self, method, n):
        data = generate_margin_data(n, 4, 0.2, seed=5)
        obj = Objective("squared_hinge", data)
        cfg = RunConfig(rho=2.0, sigma=0.3, seed=4, averaging=method == "sgd")
        rows = kernel_rows(obj, method, cfg, 5)
        assert_rows_match(rows, oracle_rows(obj, method, cfg, 5), method)
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
            w = sgd_step(obj, w, SgdConfig(eta=0.1, sigma=0.5), rng)
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
        # on the squared loss the kernels' own searches reach the doubling cap
        X, y = np.array([[1e6], [1e6]]), np.array([1.0, -1.0])
        obj = Objective("squared", Dataset(X=X, y=y))
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
        assert_rows_match(expected, kernel_rows(obj, method, cfg, 3), method)
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
        for method in ("sgd_ls", "accel_ls"):
            for bad in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="ls_init"):
                    run(obj, method, RunConfig(ls_init=bad), 1)

    def test_accel_line_search_needs_a_finite_smoothness_constant(self, monkeypatch):
        obj = Objective("hinge", generate_margin_data(20, 4, 0.2, seed=0))
        calls = count_scalar_gradients(monkeypatch)
        with pytest.raises(ValueError, match="accel_ls needs a smooth loss"):
            run(obj, "accel_ls", RunConfig(eta=0.1), 2)
        assert not calls  # refused before any pass


class TestPassDrawsAndFailures:
    """run() on an objective that is not an Objective steps through the
    public single-step functions, as oracle_rows does: these check the
    draws that _PassDraws serves them and how a failed pass is reported."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", ["sgd_ls", "accel_ls"])
    def test_line_search_failure_in_the_same_pass(self, method):
        obj = one_d_quadratic(1e200)
        cfg = RunConfig(seed=0, ls_init=1e-12, w0=np.array([1.0]))
        assert assert_same_failure(obj, method, cfg, 3) == 1

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
        # run() steps an analytic objective through the single steps
        assert kernel_rows(obj, method, cfg, 40) == oracle_rows(obj, method, cfg, 40)

    @pytest.mark.parametrize("method", ["sgd", "accel", "sgd_ls", "accel_ls"])
    def test_pl_toy_objective(self, method):
        obj = PlToyObjective(3)
        cfg = RunConfig(rho=2.0, seed=2, averaging=True, w0=np.array([3.0, 2.0, -1.0]))
        assert kernel_rows(obj, method, cfg, 40) == oracle_rows(obj, method, cfg, 40)

    def test_accel_line_search_hits_the_doubling_cap(self):
        obj = ConstantLossObjective(1.0)
        cfg = RunConfig(seed=0)
        assert assert_same_failure(obj, "accel_ls", cfg, 2) == 1
        with pytest.raises(RunError, match="doublings") as failure:
            run(obj, "accel_ls", cfg, 2)
        assert isinstance(failure.value.__cause__, LineSearchError)

    @pytest.mark.parametrize("method", ["sgd_ls", "accel_ls"])
    def test_gradient_below_resolution_skips_the_line_search(self, method):
        # 1e-13 per coordinate: ||g||^2 = 2e-26 is below GRAD_RESOLUTION_SQ,
        # so the unpassable test is never made and no estimate doubles
        obj = ConstantLossObjective(1e-13)
        cfg = RunConfig(seed=0)
        rows = kernel_rows(obj, method, cfg, 2)
        assert_rows_match(rows, oracle_rows(obj, method, cfg, 2), method)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_analytic_objective_fails_in_the_oracle_pass(self):
        # v overflows in pass 164 while w stays finite, so the next step's
        # zeta is not finite: the run reports its own state as a run on an
        # Objective does, not as the objective's ValueError for bad input
        obj = QuadraticObjective(np.diag([0.5, 4.0]), np.array([1.0, -1.0]))
        cfg = RunConfig(eta=10.0, w0=np.array([1.0, 1.0]))
        assert assert_same_failure(obj, "accel", cfg, 2000) == 165
        with pytest.raises(RunError, match="non-finite iterate") as failure:
            run(obj, "accel", cfg, 2000)
        assert type(failure.value.__cause__) is FloatingPointError


class TestRankOneForm:
    """The edge paths of the accelerated kernel's rank-one iterates, each
    within tolerance of the single-step loop and without a RuntimeWarning."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fold_when_c_would_underflow_within_a_pass(self):
        # mu eta / rho = 1/4: beta (1 - alpha) = 1/3, so c would fall below
        # the fold floor within 40 steps of a pass that runs as one chunk
        # (the logistic loss is not screened)
        obj = Objective("logistic", generate_margin_data(200, 5, 0.2, seed=1))
        rho = 2.0
        cfg = RunConfig(rho=rho, mode="strongly_convex", mu=0.25 * rho * rho * obj.L, seed=3,
                        w0=np.linspace(-1.0, 1.0, 5))
        sched = accel_schedule_advance(
            make_schedule(cfg.mode, rho, cfg.resolve_eta(obj, "accel"), mu=cfg.mu)
        )
        assert (sched.beta * (1.0 - sched.alpha)) ** 40 < optimizers._FOLD_FLOOR
        rows = kernel_rows(obj, "accel", cfg, 4)
        assert_within_tolerance(rows, oracle_rows(obj, "accel", cfg, 4))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["accel", "accel_ls"])
    @pytest.mark.parametrize("duck_typed", [False, True])
    def test_convex_first_step_where_alpha_is_one(self, method, duck_typed):
        # with one example, pass 1 is the step with alpha_0 = 1, which
        # would set c to 0 without the fold
        if duck_typed:
            obj = QuadraticObjective(np.diag([0.5, 2.0]), np.array([0.3, -0.2]))
        else:
            obj = Objective("squared", Dataset(X=np.array([[1.0, 2.0]]), y=np.array([1.0])))
        cfg = RunConfig(rho=2.0, seed=0, w0=np.array([1.5, -0.5]))
        rows, oracle = kernel_rows(obj, method, cfg, 3), oracle_rows(obj, method, cfg, 3)
        assert rows[1].train_loss != rows[0].train_loss
        if duck_typed:
            assert rows == oracle  # run() takes the single steps themselves
        else:
            assert_within_tolerance(rows, oracle)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_strongly_convex_line_search_rebases_after_a_doubling(self, monkeypatch):
        # ten rows of norm 10 among rows of norm 1: the first draw of one
        # doubles the estimate mid-pass, each accepted estimate gives
        # another kappa, and m is rebased before the step
        data = generate_margin_data(60, 6, 0.2, seed=0)
        X = data.X * np.where(np.arange(60) < 10, 10.0, 1.0)[:, None]
        obj = Objective("squared_hinge", Dataset(X=X, y=data.y))
        cfg = RunConfig(mode="strongly_convex", mu=1e-4, eta=0.05, seed=2,
                        w0=np.linspace(-1.0, 1.0, 6))
        original = optimizers._RankOneIterates.rebase
        changed = []

        def recording(self, kappa):
            changed.append(kappa != self.kappa)
            return original(self, kappa)

        monkeypatch.setattr(optimizers._RankOneIterates, "rebase", recording)
        rows = kernel_rows(obj, "accel_ls", cfg, 4)
        # steps 0 and 1 change kappa in any run (from the initial 0, and as
        # alpha leaves make_schedule's ratio); a doubling later in pass 1
        # changes it twice more
        assert sum(changed[: obj.n]) >= 4
        assert_within_tolerance(rows, oracle_rows(obj, "accel_ls", cfg, 4))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["convex", "strongly_convex"])
    def test_noisy_averaged_accel(self, mode):
        obj = Objective("squared_hinge", generate_margin_data(20, 4, 0.2, seed=5))
        cfg = RunConfig(rho=2.0, mode=mode, mu=0.01 if mode == "strongly_convex" else None,
                        sigma=0.3, seed=4, averaging=True)
        rows = kernel_rows(obj, "accel", cfg, 5)
        assert_within_tolerance(rows, oracle_rows(obj, "accel", cfg, 5))


# ---------------------------------------------------------------------------
# the zero-gradient screen of the SGD kernel (sgd and sgd_ls) and of the
# accelerated kernel, which accel and accel_ls share
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def screen_objective(kind: str, tau: float, seed: int) -> Objective:
    return Objective(kind, generate_margin_data(2000, 20, tau, seed=seed))


def screen_config(obj, method, tau, mode="convex", seed=0, averaging=False, w0=None):
    """The CLI's steps: tau_over_L for accel, 1/L_max for squared-hinge sgd,
    an explicit 0.5 for hinge sgd and line search for sgd_ls and accel_ls."""
    eta = None
    if method == "accel":
        eta = tau / obj.gram_lam_max
    elif method == "sgd" and obj.kind == "hinge":
        eta = 0.5
    return RunConfig(
        eta=eta,
        rho=1.0 / tau,
        mode=mode,
        mu=1e-3 if mode == "strongly_convex" else None,
        seed=seed,
        averaging=averaging,
        w0=w0,
    )


# each tau covers both losses, every screened method and accel mode, both
# averaging settings and both seeds, and each (loss, method, mode) meets all
# four averaging and seed pairs over the four taus; seed 1 starts at
# 0.9 w_star, where most margins already exceed 1, so that the screen engages
# at every tau. accel_ls needs L, so it runs on the squared hinge only, each
# of its modes with both averaging settings and both seeds over the four taus.
SCREEN_CASES = [
    (tau, kind, method, mode, (j + t) % 2 == 1, (j // 2 + t // 2) % 2)
    for t, tau in enumerate((0.2, 0.1, 0.02, 0.005))
    for j, (kind, method, mode) in enumerate(
        (kind, method, mode)
        for kind in ("squared_hinge", "hinge")
        for method, mode in (
            ("sgd", "convex"),
            ("sgd_ls", "convex"),
            ("accel", "convex"),
            ("accel", "strongly_convex"),
        )
    )
] + [
    (tau, "squared_hinge", "accel_ls", mode, (j + m) % 2 == 1, j // 2)
    for j, tau in enumerate((0.2, 0.1, 0.02, 0.005))
    for m, mode in enumerate(("convex", "strongly_convex"))
]


def near_kink_objective(kind: str, seed: int = 0, n: int = 2000, d: int = 20):
    """Data whose margins y_i x_i . w at the returned w equal 1 up to
    rounding for about one row in forty, and lie in [2, 4] for the rest."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=d)
    X = rng.normal(size=(n, d)) / math.sqrt(d)
    y = rng.choice([-1.0, 1.0], size=n)
    margins = np.where(rng.random(n) < 0.025, 1.0, rng.uniform(2.0, 4.0, size=n))
    X[:, 0] = (y * margins - X[:, 1:] @ w[1:]) / w[0]
    return Objective(kind, Dataset(X=X, y=y)), w


def count_scalar_gradients(monkeypatch) -> list:
    calls = []
    original = Objective._grad_scalar

    def counting(self, z, y):
        calls.append(1)
        return original(self, z, y)

    monkeypatch.setattr(Objective, "_grad_scalar", counting)
    return calls


def record_kept_reads(monkeypatch) -> list:
    """Per certified_head call: whether it read kept bounds."""
    reads = []
    original = optimizers._ZeroScreen.certified_head

    def recording(self, blk, w):
        reads.append(self._bounds is not None)
        return original(self, blk, w)

    monkeypatch.setattr(optimizers._ZeroScreen, "certified_head", recording)
    return reads


def record_sgd_screen(monkeypatch) -> list:
    """In call order: per certified_head call, ("head", steps in the block,
    whether it read kept bounds, whether it made them with a new product,
    whether it read them at a w other than theirs); per steps call of
    cover, ("steps", how many had a nonzero gradient)."""
    events = []
    cover, head = optimizers._ZeroScreen.cover, optimizers._ZeroScreen.certified_head

    def covering(self, n, steps, head_fn):
        def recorded(start, end):
            events.append(("steps", steps(start, end)))
            return events[-1][1]

        return cover(self, n, recorded, head_fn)

    def heading(self, blk, w):
        kept = self._bounds
        count = head(self, blk, w)
        made = self._bounds is not None and self._bounds is not kept
        events.append(("head", len(blk), kept is not None, made, kept is not None and self._moved))
        return count

    monkeypatch.setattr(optimizers._ZeroScreen, "cover", covering)
    monkeypatch.setattr(optimizers._ZeroScreen, "certified_head", heading)
    return events


def few_active_rows(near: int):
    """Margin data (n = 5000) at 2 w_star, where every margin is >= 2, but
    for rows 0-2, scaled to the margin 0.5, and the ``near`` rows after
    them, scaled to 1 + 1e-3: SGD steps on the first three move w a little,
    and the screen's bounds then certify all but the rows near the kink."""
    data = generate_margin_data(5000, 5, 0.1, seed=0)
    w0 = 2.0 * data.w_star
    X = data.X.copy()
    scaled = 1.0 + 1e-3 * (np.arange(3 + near) >= 3)
    scaled[:3] = 0.5
    X[: 3 + near] *= (scaled / (data.y * (X @ w0))[: 3 + near])[:, None]
    return Objective("squared_hinge", Dataset(X=X, y=data.y)), w0


def record_certified(monkeypatch) -> list:
    """What each certified_head call returned: the steps it certified."""
    counts = []
    original = optimizers._ZeroScreen.certified_head

    def recording(self, blk, w):
        counts.append(original(self, blk, w))
        return counts[-1]

    monkeypatch.setattr(optimizers._ZeroScreen, "certified_head", recording)
    return counts


def record_accel_screen(monkeypatch, writer=None) -> list:
    """In call order: per span_head call, ("head", steps in the block,
    whether it made kept bounds with a new product, whether it read kept
    bounds at a moved M, whether bounds are kept after it); per steps call
    of cover, ("steps", how many had a nonzero gradient); and, given
    ``writer``, a (class, method name) pair of a writer of M, the name per
    call of it that changed M."""
    events = []
    cover, head = optimizers._ZeroScreen.cover, optimizers._ZeroScreen.span_head

    def covering(self, n, steps, head_fn):
        def recorded(start, end):
            events.append(("steps", steps(start, end)))
            return events[-1][1]

        return cover(self, n, recorded, head_fn)

    def heading(self, blk, M, c, r):
        bounds = self._bounds
        count = head(self, blk, M, c, r)
        events.append(("head", len(blk), self._bounds is not None and self._bounds is not bounds,
                       bounds is not None and self._moved, self._bounds is not None))
        return count

    monkeypatch.setattr(optimizers._ZeroScreen, "cover", covering)
    monkeypatch.setattr(optimizers._ZeroScreen, "span_head", heading)
    if writer is not None:
        owner, name = writer
        write = getattr(owner, name)

        def writing(self, *args):
            it = args[0] if owner is optimizers._SolvedBlock else self
            before = it.M.copy()
            result = write(self, *args)
            if not np.array_equal(it.M, before):
                events.append(name)
            return result

        monkeypatch.setattr(owner, name, writing)
    return events


def read_after(events: list, name: str) -> bool:
    """Whether a span_head call reads kept bounds at a moved M after a
    write of ``name`` that followed the product the bounds came from."""
    wrote = False
    for event in events:
        if event == name:
            wrote = True
        elif event[0] == "head":
            if wrote and event[3]:
                return True
            if event[2] or not event[4]:  # bounds made at this M, or none kept
                wrote = False
    return False


def boundary_objective(kind: str, margin: float):
    """Two rows, y = +1 and y = -1, both with the margin ``margin`` at the
    returned w0 in the kernel's own product ``row.dot(w0)``: exactly 1.0 or
    1 - 2^-53 from the last coordinate alone, an overflowing +-inf from the
    first, and nan from +inf and -inf partial sums of the first two."""
    d, big_x = 16, 1e150
    w0 = np.full(d, 1e200)
    w0[-1] = 1.0
    x = np.zeros(d)
    if math.isnan(margin):
        x[:2] = big_x, -big_x
    elif math.isinf(margin):
        x[0] = math.copysign(big_x, margin)
    else:
        x[-1] = margin
    return Objective(kind, Dataset(X=np.array([x, -x]), y=np.array([1.0, -1.0]))), w0


def screen_case(tau, kind, method, mode, averaging, seed):
    obj = screen_objective(kind, tau, seed)
    w0 = 0.9 * obj.data.w_star if seed else None
    return obj, screen_config(obj, method, tau, mode, seed + 5, averaging, w0)


def kink_config(kind: str, mode: str, w: np.ndarray) -> RunConfig:
    """Steps that move w by about an ulp keep the margins at the kink. The
    squared hinge's gradient vanishes there, so its step only has to stay
    below 2 / L_max (L_max = 4.6e3 on near_kink_objective's data) for the
    run to stay at losses of about 1e-30 instead of diverging."""
    return RunConfig(
        eta=2e-15 if kind == "hinge" else 1e-4,
        rho=2.0,
        mode=mode,
        mu=1e-3 if mode == "strongly_convex" else None,
        seed=3,
        w0=w,
    )


def assert_stays_at_the_kink(kind: str, rows: list[MetricRow]) -> None:
    """A squared-hinge run at kink_config's step keeps losses of about
    1e-30 (they start at 5e-34): its margins stay within ulps of the kink."""
    if kind == "squared_hinge":
        assert max(r.train_loss for r in rows) <= 1e-29


class TestZeroScreen:
    @pytest.mark.parametrize("tau,kind,method,mode,averaging,seed", SCREEN_CASES)
    def test_rows_equal_single_step_loop(
        self, monkeypatch, tau, kind, method, mode, averaging, seed
    ):
        obj, cfg = screen_case(tau, kind, method, mode, averaging, seed)
        if method.startswith("accel"):
            pin_per_step_accel(monkeypatch)  # span blocks: test_accel_span_rows_within_tolerance
        rows = kernel_rows(obj, method, cfg, 3)
        assert_rows_match(rows, oracle_rows(obj, method, cfg, 3), method)

    @pytest.mark.parametrize(
        "tau,kind,method,mode,averaging,seed",
        [case for case in SCREEN_CASES if case[2].startswith("accel")],
    )
    def test_accel_span_rows_within_tolerance(
        self, monkeypatch, tau, kind, method, mode, averaging, seed
    ):
        obj, cfg = screen_case(tau, kind, method, mode, averaging, seed)
        calls = count_scalar_gradients(monkeypatch)
        rows = kernel_rows(obj, method, cfg, 3)
        if seed:
            assert len(calls) < 3 * obj.n  # the span path was at work
        assert_within_tolerance(rows, per_step_accel_rows(monkeypatch, obj, cfg, 3, method))

    @pytest.mark.parametrize(
        "kind,method,mode",
        [
            ("squared_hinge", "sgd", "convex"),
            ("squared_hinge", "sgd_ls", "convex"),
            ("squared_hinge", "accel", "convex"),
            ("squared_hinge", "accel", "strongly_convex"),
            ("hinge", "sgd", "convex"),
            ("hinge", "accel", "convex"),
        ],
    )
    def test_margins_within_ulps_of_the_kink(self, monkeypatch, kind, method, mode):
        obj, w = near_kink_objective(kind)
        X, y = obj.data.X, obj.data.y
        kernel_margin = y * np.array([row.dot(w) for row in X])
        gemv_margin = y * (X @ w)
        # the two products disagree about the kink on some rows
        assert np.any((kernel_margin < 1.0) & (gemv_margin >= 1.0))
        cfg = kink_config(kind, mode, w)
        expected = oracle_rows(obj, method, cfg, 3)
        if method == "accel":
            # the span path, with its own count of gradient calls:
            # test_accel_span_crosses_the_kink
            pin_per_step_accel(monkeypatch)
        calls = count_scalar_gradients(monkeypatch)
        rows = kernel_rows(obj, method, cfg, 3)
        assert_rows_match(rows, expected, method)
        if method != "accel":
            assert len(calls) < 0.5 * 3 * obj.n  # the screen was at work
        assert_stays_at_the_kink(kind, rows)

    @pytest.mark.parametrize(
        "kind,mode",
        [("squared_hinge", "convex"), ("squared_hinge", "strongly_convex"), ("hinge", "convex")],
    )
    def test_accel_span_crosses_the_kink(self, monkeypatch, kind, mode):
        obj, w = near_kink_objective(kind)
        cfg = kink_config(kind, mode, w)
        calls = count_scalar_gradients(monkeypatch)
        rows = kernel_rows(obj, "accel", cfg, 3)
        assert len(calls) < 0.5 * 3 * obj.n  # the screen was at work
        assert_within_tolerance(rows, per_step_accel_rows(monkeypatch, obj, cfg, 3))
        assert_stays_at_the_kink(kind, rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["convex", "strongly_convex"])
    def test_screened_crossing_matches_the_unscreened_kernel(self, monkeypatch, mode):
        # most steps at the kink are crossed; in strongly convex mode
        # mu eta / rho = 0.09 makes beta (1 - alpha) about 0.54, so c falls
        # below the fold floor inside a crossed block and is folded there
        obj, w = near_kink_objective("hinge")
        cfg = kink_config("hinge", mode, w)
        if mode == "strongly_convex":
            cfg = replace(cfg, mu=0.09 * cfg.rho / cfg.eta)
        original = optimizers._ZeroScreen.span_head
        crossed = []

        def recording(self, blk, M, c, r):
            crossed.append(original(self, blk, M, c, r))
            return crossed[-1]

        calls = count_scalar_gradients(monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(optimizers._ZeroScreen, "span_head", recording)
            rows = kernel_rows(obj, "accel", cfg, 3)
        assert len(calls) < 0.5 * 3 * obj.n  # the screen was at work
        if mode == "strongly_convex":
            sched = accel_schedule_advance(make_schedule(mode, cfg.rho, cfg.eta, mu=cfg.mu))
            decay = sched.beta * (1.0 - sched.alpha)
            assert decay ** max(crossed) < optimizers._FOLD_FLOOR  # a head folded c
        assert_within_tolerance(rows, per_step_accel_rows(monkeypatch, obj, cfg, 3))
        assert_within_tolerance(rows, oracle_rows(obj, "accel", cfg, 3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["convex", "strongly_convex"])
    def test_crossing_after_a_mid_pass_doubling(self, monkeypatch, mode):
        # from 0.9 w_star the first active steps of accel_ls double its
        # estimate from ls_init = 1, and the stretch of zero gradients that
        # follows in the same pass is crossed at the rescheduled coefficients
        obj = screen_objective("squared_hinge", 0.1, 0)
        cfg = replace(screen_config(obj, "accel_ls", 0.1, mode, seed=5, averaging=True),
                      w0=0.9 * obj.data.w_star)
        events = []
        original = (optimizers._ZeroScreen.cover, optimizers._ZeroScreen.span_head,
                    optimizers._schedule_coefficients)

        def cover(self, n, steps, head):
            events.append("pass")
            return original[0](self, n, steps, head)

        def span_head(self, blk, M, c, r):
            events.append(original[1](self, blk, M, c, r))
            return events[-1]

        def schedule_coefficients(mode, rho, eta, mu, gamma_prev, ab):
            events.append(1.0 / eta)  # an estimate, once a pass has begun
            return original[2](mode, rho, eta, mu, gamma_prev, ab)

        with monkeypatch.context() as patch:
            patch.setattr(optimizers._ZeroScreen, "cover", cover)
            patch.setattr(optimizers._ZeroScreen, "span_head", span_head)
            patch.setattr(optimizers, "_schedule_coefficients", schedule_coefficients)
            rows = kernel_rows(obj, "accel_ls", cfg, 3)
        estimate, doubled, crossed = cfg.ls_init, False, 0
        for event in events[events.index("pass"):]:
            if event == "pass":
                doubled = False
            elif isinstance(event, float):
                doubled |= event > estimate
                estimate = max(estimate, event)
            elif doubled:
                crossed += event
        assert crossed > 0
        assert_within_tolerance(rows, per_step_accel_rows(monkeypatch, obj, cfg, 3, "accel_ls"))
        assert_within_tolerance(rows, oracle_rows(obj, "accel_ls", cfg, 3))

    @pytest.mark.parametrize("method", ["sgd", "accel", "accel_ls"])
    def test_few_gradient_calls_after_interpolation(self, monkeypatch, method):
        obj = Objective("squared_hinge", generate_margin_data(2000, 100, 0.1, seed=0))
        cfg = screen_config(obj, method, 0.1, seed=1)
        calls = count_scalar_gradients(monkeypatch)
        run(obj, method, cfg, 9)
        first_nine = len(calls)
        record = run(obj, method, cfg, 10)
        assert record.rows[-1].train_loss < 1e-8
        assert len(calls) - 2 * first_nine < 0.05 * obj.n  # the tenth pass

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sgd_certifies_nothing_beyond_the_norm_limit(self, monkeypatch):
        # rows of norm 1e150 and ||w0|| = 1.5e151: the margins are finite
        # and all but a few are far above 1, so the screen engages, but its
        # bounds assume no overflow, and ||x_i|| ||w|| >= 1e300 certifies
        # nothing: every step runs in the exact loop (the Gram power
        # iteration on these rows overflows and warns)
        data = screen_objective("hinge", 0.1, 0).data
        obj = Objective("hinge", Dataset(X=1e150 * data.X, y=data.y))
        w0 = data.w_star / np.linalg.norm(data.w_star)
        w0 += 0.3 * np.random.default_rng(0).normal(size=obj.dim) / math.sqrt(obj.dim)
        w0 *= 1.5e151 / np.linalg.norm(w0)
        assert 0.0 < np.mean(obj.data.y * (obj.data.X @ w0) < 1.0) < 0.02
        cfg = screen_config(obj, "sgd", 0.1, w0=w0)
        expected = oracle_rows(obj, "sgd", cfg, 3)
        certified = record_certified(monkeypatch)
        assert kernel_rows(obj, "sgd", cfg, 3) == expected
        assert certified and not any(certified)

    @pytest.mark.parametrize("method", ["sgd", "sgd_ls"])
    def test_kept_certificates_while_w_stands_still(self, monkeypatch, method):
        # every margin at 1.01 w_star is >= 1.01: no step moves w, and from
        # the first product over all rows on, every later block of every
        # pass (n = 5000 takes two blocks a pass) reads the kept certificates
        data = generate_margin_data(5000, 5, 0.1, seed=0)
        obj = Objective("squared_hinge", data)
        cfg = RunConfig(seed=2, w0=1.01 * data.w_star)
        expected = oracle_rows(obj, method, cfg, 4)
        reads = record_kept_reads(monkeypatch)
        assert kernel_rows(obj, method, cfg, 4) == expected
        first = reads.index(True)
        assert all(reads[first:]) and len(reads) - first >= 4

    @pytest.mark.parametrize("method", ["sgd", "sgd_ls"])
    def test_active_step_after_kept_certificates(self, monkeypatch, method):
        # at 0.99 w_star a few margins are below 1: active steps move w,
        # the kept bounds are read at the moved w with the slack of its
        # distance (margins read at the old w would skip steps that are
        # active), and a false alarm drops them
        obj = screen_objective("squared_hinge", 0.1, 0)
        cfg = RunConfig(seed=5, w0=0.99 * obj.data.w_star)
        expected = oracle_rows(obj, method, cfg, 4)
        reads = record_kept_reads(monkeypatch)
        assert kernel_rows(obj, method, cfg, 4) == expected
        assert any(kept and not now for kept, now in zip(reads, reads[1:]))

    @pytest.mark.parametrize("method", ["sgd", "sgd_ls"])
    def test_kept_bounds_survive_active_steps(self, monkeypatch, method):
        # after the first product over all rows, an active step moves w,
        # and the block after it reads the kept bounds at the new w instead
        # of taking X @ w again
        obj, w0 = few_active_rows(0)
        cfg = RunConfig(seed=2, w0=w0)
        expected = oracle_rows(obj, method, cfg, 4)
        events = record_sgd_screen(monkeypatch)
        assert kernel_rows(obj, method, cfg, 4) == expected
        first = next(k for k, e in enumerate(events) if e[0] == "head" and e[3])
        survived = [
            after for before, after in zip(events[first:], events[first + 1:])
            if before[0] == "steps" and before[1] and after[0] == "head"
        ]
        assert survived and all(read and not made for _, _, read, made, _ in survived)
        products = sum(e[0] == "head" and e[3] for e in events)
        active = sum(e[1] for e in events[first:] if e[0] == "steps")
        assert products < active

    @pytest.mark.parametrize("method", ["sgd", "sgd_ls"])
    def test_false_alarm_drops_the_kept_bounds(self, monkeypatch, method):
        # the rows at 1 + 1e-3 are certified at 2 w_star, but not once w has
        # moved: drawn, such a row runs exactly with a zero gradient, which
        # drops the bounds, and the next block of at least n/4 steps takes
        # X @ w again
        obj, w0 = few_active_rows(12)
        cfg = RunConfig(seed=2, w0=w0)
        expected = oracle_rows(obj, method, cfg, 4)
        events = record_sgd_screen(monkeypatch)
        assert kernel_rows(obj, method, cfg, 4) == expected
        alarms = [
            k for k in range(len(events) - 1)
            if events[k][0] == "head" and events[k][4] and events[k + 1] == ("steps", 0)
        ]
        assert alarms
        for k in alarms:
            after = [e for e in events[k + 2:] if e[0] == "head"]
            long = next(j for j, e in enumerate(after) if 4 * e[1] >= obj.n)
            assert not any(read for _, _, read, _, _ in after[: long + 1])
            assert after[long][3]

    def test_kept_bounds_hold_in_exact_arithmetic(self):
        # bounds made at w0 and read at a w a few dozen ulps away: every row
        # they certify has an exact margin >= 1 at the float w, and the
        # kernel's own product row.dot(w) is not below 1 either. The rows'
        # exact margins at w lie within 40 ulps of 1, on both sides; without
        # the slack gamma and the distance delta the test would pass some
        # that are not.
        rng = np.random.default_rng(0)
        d, B = 3, 512
        certified = unsafe = 0
        for _ in range(4):
            w0 = rng.normal(size=d)
            w = w0 + rng.normal(size=d) * 20.0 * 2.0**-52 * np.linalg.norm(w0)
            X = rng.normal(size=(B, d))
            target = 1.0 + rng.integers(-40, 40, size=B) * 2.0**-52
            X *= (target / (X @ w))[:, None]
            obj = Objective("hinge", Dataset(X=X, y=np.ones(B)))
            screen, bare = optimizers._ZeroScreen(obj, 0.0), optimizers._ZeroScreen(obj, 0.0)
            bare._gamma = 0.0
            for sc in (screen, bare):
                sc.certified_head(np.arange(B), w0)  # the bounds, at w0
            bare._w0 = w.copy()  # delta = 0
            wf = [Fraction(x) for x in w]
            for k in range(B):
                ok, bare_ok = (sc.certified_head(np.array([k]), w) for sc in (screen, bare))
                if ok or bare_ok:
                    margin = sum(Fraction(x) * b for x, b in zip(X[k], wf))
                    if ok:
                        assert margin >= 1 and float(X[k].dot(w)) >= 1.0, k
                        certified += 1
                    unsafe += bare_ok and margin < 1
        assert certified > 0 and unsafe > 0

    @pytest.mark.parametrize(
        "case",
        [(0.2, "hinge", "accel", "strongly_convex", True, 1),
         (0.2, "squared_hinge", "accel_ls", "strongly_convex", True, 0)],
    )
    def test_kept_read_checks_only_the_rows_it_misses(self, monkeypatch, case):
        # after the kept bounds are read at the current M and c, span_head
        # checks at their span points only the rows that the read misses
        obj, cfg = screen_case(*case)
        method = case[2]
        received = []
        span_head = optimizers._ZeroScreen.span_head
        in_span = optimizers._ZeroScreen.certified_in_span
        kept = [None]

        def spying_head(self, blk, M, c, r):
            if self._bounds is not None:
                kept[0] = self._bounds - self._l2 * self._distance(M, c) >= 1.0
            try:
                return span_head(self, blk, M, c, r)
            finally:
                kept[0] = None

        def spying_check(self, blk, m, u, r):
            if kept[0] is not None:
                received.append(kept[0][blk])
            return in_span(self, blk, m, u, r)

        expected = per_step_accel_rows(monkeypatch, obj, cfg, 3, method)
        monkeypatch.setattr(optimizers._ZeroScreen, "span_head", spying_head)
        monkeypatch.setattr(optimizers._ZeroScreen, "certified_in_span", spying_check)
        rows = kernel_rows(obj, method, cfg, 3)
        assert received and not any(certs.any() for certs in received)
        assert_within_tolerance(rows, expected)

    @pytest.mark.parametrize("method", ["accel", "accel_ls"])
    @pytest.mark.parametrize("mode", ["convex", "strongly_convex"])
    def test_accel_reads_kept_bounds_while_M_stands_still(self, monkeypatch, method, mode):
        # every margin at 1.01 w_star is >= 1.01: every gradient is zero,
        # only c moves, and the first product over all rows is the only
        # one: every later block of every pass (n = 5000) reads its bounds,
        # whose slack is then the distance's rounding alone. Such a run
        # settles after pass 1 (test_accel_settles_where_M_stands_still),
        # so the check is switched off here to keep all four passes stepping.
        monkeypatch.setattr(optimizers._ZeroScreen, "settled", lambda self, *args: False)
        data = generate_margin_data(5000, 5, 0.1, seed=0)
        obj = Objective("squared_hinge", data)
        cfg = RunConfig(seed=2, mode=mode, mu=1e-3 if mode == "strongly_convex" else None,
                        w0=1.01 * data.w_star)
        expected = per_step_accel_rows(monkeypatch, obj, cfg, 4, method)
        events = record_accel_screen(monkeypatch)
        rows = kernel_rows(obj, method, cfg, 4)
        heads = [e for e in events if e[0] == "head"]
        made = next(k for k, e in enumerate(heads) if e[2])
        assert not any(e[2] for e in heads[made + 1:])
        assert all(e[3] for e in heads[made + 1:]) and len(heads) - made > 4
        assert all(e == ("steps", 0) for e in events if e[0] == "steps")
        assert_within_tolerance(rows, expected)

    @pytest.mark.parametrize("method", ["accel", "accel_ls"])
    @pytest.mark.parametrize("mode", ["convex", "strongly_convex"])
    def test_accel_settles_where_M_stands_still(self, monkeypatch, method, mode):
        # every margin at 1.01 w_star is >= 1.01: pass 1 has no nonzero
        # gradient and every margin clears the terminal slack, so the run
        # is settled after it. No later pass reads the screen, and the rows
        # are those of the stepping run.
        data = generate_margin_data(5000, 5, 0.1, seed=0)
        obj = Objective("squared_hinge", data)
        cfg = RunConfig(seed=2, mode=mode, mu=1e-3 if mode == "strongly_convex" else None,
                        w0=1.01 * data.w_star)
        stepping = stepping_rows(monkeypatch, obj, method, cfg, 4)
        checks = record_settled(monkeypatch)
        events = record_accel_screen(monkeypatch)
        rows = kernel_rows(obj, method, cfg, 4)
        assert checks == [True]
        assert rows == stepping
        assert all(astuple(r)[2:5] == (0.0, 0.0, 0.0) for r in rows[1:])
        heads = sum(e[0] == "head" for e in events)
        kernel_rows(obj, method, cfg, 1)
        assert heads and sum(e[0] == "head" for e in events) == 2 * heads  # all in pass 1

    def test_span_head_reads_kept_bounds_at_any_M_and_c(self, monkeypatch):
        # at 1.01 w_star every row is certified on its whole segment; a
        # block of n/4 steps makes the kept bounds, which later blocks read
        # without a new product at the same M with a smaller or a larger c
        # and at the folded M (a fold moves neither end). With the rows'
        # own span-point check switched off, the bounds alone certify all
        # of them there, and, with the slack of the distance, only some at
        # an m moved far from the kept segment
        data = generate_margin_data(400, 5, 0.1, seed=0)
        screen = optimizers._ZeroScreen(Objective("squared_hinge", data), 0.0)
        M = np.stack((1.01 * data.w_star, 0.01 * data.w_star))
        blk, c = np.arange(100), 0.5
        r = c * np.linspace(1.0, 0.5, 100)
        assert screen.span_head(blk, M, c, r) == 100
        kept = screen._bounds
        assert kept is not None and (kept >= 1.0).all()
        monkeypatch.setattr(optimizers._ZeroScreen, "certified_in_span",
                            lambda self, blk, m, u, r: np.zeros(len(blk), dtype=bool))
        folded = np.stack((M[0], c * M[1]))
        for M_now, c_now in ((M, 0.25), (M, 1.0), (folded, c), (folded, 1.0)):
            assert screen.span_head(blk[:10], M_now, c_now, c_now * r[:10] / c) == 10
            assert screen._bounds is kept
        far = np.stack((0.5 * data.w_star, M[1]))
        assert screen.span_head(blk[:10], far, c, r[:10]) < 10
        assert screen._bounds is kept

    @pytest.mark.parametrize("writer", ["step", "scale", "rebase", "commit"])
    def test_kept_bounds_are_read_after_each_write_to_M(self, monkeypatch, writer):
        # the kept bounds hold at any M: after each writer of M moves it, a
        # later block reads them at the new M with the slack of its
        # distance. An active step from 0.99 w_star; a fold below the
        # floor, with mu eta / rho = 0.09 at the kink; a rebase of kappa
        # after a doubling in Acc-SGD(LS)'s strongly convex mode, when a
        # flipped row of norm 10 is drawn; a solved block's commit, on
        # n = 200 rows
        owner, method, passes = optimizers._RankOneIterates, "accel", 4
        if writer == "step":
            obj = screen_objective("squared_hinge", 0.1, 0)
            cfg = replace(screen_config(obj, method, 0.1, seed=5), w0=0.99 * obj.data.w_star)
        elif writer == "scale":
            obj, w = near_kink_objective("hinge")
            cfg = kink_config("hinge", "strongly_convex", w)
            cfg, passes = replace(cfg, mu=0.09 * cfg.rho / cfg.eta), 3
        elif writer == "rebase":
            # at 1.01 w_star the three flipped rows are the only active ones
            data = screen_objective("squared_hinge", 0.1, 0).data
            X, y = data.X.copy(), data.y.copy()
            X[:3] *= 10.0
            y[:3] *= -1.0
            obj, method = Objective("squared_hinge", Dataset(X=X, y=y)), "accel_ls"
            cfg = replace(screen_config(obj, method, 0.1, "strongly_convex", seed=5),
                          w0=1.01 * data.w_star)
        else:
            obj = Objective("squared_hinge", generate_margin_data(200, 20, 0.05, seed=0))
            cfg = replace(screen_config(obj, method, 0.05, seed=5), w0=0.9 * obj.data.w_star)
            owner, passes = optimizers._SolvedBlock, 10
        expected = oracle_rows(obj, method, cfg, passes)
        events = record_accel_screen(monkeypatch, (owner, writer))
        rows = kernel_rows(obj, method, cfg, passes)
        assert read_after(events, writer)
        assert_within_tolerance(rows, expected)

    @pytest.mark.parametrize("method", ["accel", "accel_ls"])
    def test_accel_kept_bounds_survive_active_steps(self, monkeypatch, method):
        # fig1a's recipe from 2 w_star, where rows 0-2 are active: after the
        # first product over all rows, an active step moves M, and blocks
        # after it read the kept bounds at the new M instead of taking
        # X @ [m, u~] again
        obj, w0 = few_active_rows(0)
        cfg = replace(screen_config(obj, method, 0.1, seed=2), w0=w0)
        expected = per_step_accel_rows(monkeypatch, obj, cfg, 4, method)
        events = record_accel_screen(monkeypatch)
        rows = kernel_rows(obj, method, cfg, 4)
        first = next(k for k, e in enumerate(events) if e[0] == "head" and e[2])
        survived = [
            after for before, after in zip(events[first:], events[first + 1:])
            if before[0] == "steps" and before[1] and after[0] == "head"
        ]
        assert any(moved and not made for _, _, made, moved, _ in survived)
        products = sum(e[0] == "head" and e[2] for e in events)
        active = sum(e[1] for e in events[first:] if e[0] == "steps")
        assert products < active
        assert_within_tolerance(rows, expected)

    @pytest.mark.parametrize("method,kind,seed", [("accel", "hinge", 3),
                                                  ("accel_ls", "squared_hinge", 0)])
    def test_accel_false_alarm_drops_the_kept_bounds(self, monkeypatch, method, kind, seed):
        # steps that move M by about an ulp keep the rows at the kink there
        # (Acc-SGD(LS) from an estimate of 1e15): after M moves, such a row
        # is missed by the kept bounds and fails its own check, and its
        # exact step may have a zero gradient. That false alarm drops the
        # bounds, and the next block takes X @ [m, u~] again, whatever its
        # length
        obj, w = near_kink_objective(kind, seed=seed, n=400)
        cfg = replace(kink_config(kind, "convex", w), ls_init=1e15)
        expected = per_step_accel_rows(monkeypatch, obj, cfg, 6, method)
        events = record_accel_screen(monkeypatch)
        rows = kernel_rows(obj, method, cfg, 6)
        alarms = [
            k for k in range(len(events) - 1)
            if events[k][0] == "head" and events[k][3] and events[k + 1] == ("steps", 0)
        ]
        followed = 0
        for k in alarms:
            after = next((e for e in events[k + 2:] if e[0] == "head"), None)
            if after is not None:  # else the run ended first
                assert after[2] and not after[3]
                followed += 1
        assert followed
        assert_within_tolerance(rows, expected)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_span_check_certifies_nothing_past_the_norm_limit(self):
        # the slack of the span certificate assumes that no product
        # overflows, so a point with ||x_i|| (||m|| + ||u~||) >= 1e300
        # certifies no row, however large its margins; nor does a point
        # that is not finite, and neither warns. Rows of norm 1e150 put the
        # limit within reach of a finite ||m||.
        data = generate_margin_data(50, 5, 0.1, seed=0)
        obj = Objective("squared_hinge", Dataset(X=1e150 * data.X, y=data.y))
        screen = optimizers._ZeroScreen(obj, 0.0)
        direction = data.tau * data.w_star  # unit norm, margins >= 0.1
        blk, u, r = np.arange(obj.n), np.zeros(obj.dim), np.zeros(obj.n)
        assert 1e149 < screen._norm_limit < 2e150
        assert screen.certified_in_span(blk, 1e149 * direction, u, r).all()
        assert not screen.certified_in_span(blk, 2e150 * direction, u, r).any()
        assert not screen.certified_in_span(blk, direction, np.full(obj.dim, np.inf), r).any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_norms_past_the_float_range_certify_nothing_without_a_warning(self):
        # a finite point whose squared norm overflows: 1e299 times a unit
        # direction, at unit-norm rows (a norm limit of 1e300). Every check
        # takes its norms without numpy's overflow warning and certifies
        # nothing.
        data = generate_margin_data(50, 5, 0.1, seed=0)
        screen = optimizers._ZeroScreen(Objective("squared_hinge", data), 0.0)
        huge = 1e299 * (data.tau * data.w_star)
        blk, r = np.arange(data.n), np.zeros(data.n)
        assert 9e299 < screen._norm_limit <= 1e300
        assert not screen.certified_in_span(blk, huge, np.zeros(data.dim), r).any()
        assert screen.certified_head(blk, huge) == 0
        assert not screen.settled(np.stack((huge, np.zeros(data.dim))), 1.0, 0.0, 100)

    def test_a_fold_moves_no_end(self, monkeypatch):
        # a fold rewrites u~ and c but neither end of the segment: the kept
        # bounds read at the folded M, with the slack of the distance (its
        # rounding alone), certify every row here, in blocks of any length
        # and at a lower c, with the rows' own span-point check switched off
        data = generate_margin_data(400, 5, 0.1, seed=0)
        screen = optimizers._ZeroScreen(Objective("squared_hinge", data), 0.0)
        M, c = np.stack((1.01 * data.w_star, 0.01 * data.w_star)), 0.37
        blk = np.arange(100)
        assert screen.span_head(blk, M, c, c * np.linspace(1.0, 0.5, 100)) == 100
        monkeypatch.setattr(optimizers._ZeroScreen, "certified_in_span",
                            lambda self, blk, m, u, r: np.zeros(len(blk), dtype=bool))
        folded = np.stack((M[0], c * M[1]))
        delta = screen._distance(folded, 1.0)
        assert 0.0 < delta <= 8.0 * screen._gamma * np.abs(M).sum()
        assert screen.span_head(blk[:99], folded, 1.0, np.linspace(1.0, 0.0, 99)) == 99
        assert screen._moved
        everything = np.arange(400)
        assert screen.span_head(everything, folded, 1.0, np.linspace(1.0, 0.0, 400)) == 400
        assert screen.span_head(blk, folded, 0.5, np.linspace(0.5, 0.0, 100)) == 100

    @pytest.mark.parametrize("fold", [False, True])
    def test_moved_bounds_hold_in_exact_arithmetic(self, monkeypatch, fold):
        # bounds kept on the segment of M0 = [m0; u~0] and c0, read at an M a
        # few dozen ulps away, at a c below c0 (or folded: u~ = c0 u~0 and
        # c = 1). The rows' exact margins at the ends m and m - c u~ of the
        # read's segment lie from 40 ulps below 1 to 160 above. Every row
        # that the moved read certifies (its own span-point check switched
        # off) has an exact Fraction margin >= 1 at both ends and at the
        # span points between; with the distance slack zeroed some row
        # passes that does not.
        monkeypatch.setattr(optimizers._ZeroScreen, "certified_in_span",
                            lambda self, blk, m, u, r: np.zeros(len(blk), dtype=bool))
        rng = np.random.default_rng(2 if fold else 3)
        d, B, c0 = 3, 512, 0.37
        certified = unsafe = 0
        for _ in range(4):
            M0 = np.stack((rng.normal(size=d), 0.3 * rng.normal(size=d)))
            if fold:
                M, c = np.stack((M0[0], c0 * M0[1])), 1.0
            else:
                M, c = M0.copy(), 0.8 * c0
            M += rng.normal(size=M.shape) * 20.0 * 2.0**-52 * np.abs(M)
            m, u = M
            # rows whose exact margins at the two ends lie near 1
            X = rng.normal(size=(B, d))
            ulps = lambda: 1.0 + rng.integers(-40, 160, size=B) * 2.0**-52
            ends = np.stack((ulps(), ulps()))
            gram = np.array([[m @ m, m @ u], [u @ m, u @ u]])
            rhs = np.stack((ends[0], (ends[0] - ends[1]) / c)) - np.stack((X @ m, X @ u))
            X += np.linalg.solve(gram, rhs).T @ M
            obj = Objective("hinge", Dataset(X=X, y=np.ones(B)))
            screens = []
            for zeroed in (False, True):
                screen = optimizers._ZeroScreen(obj, 0.0)
                screen.span_head(np.arange(B // 4), M0, c0, c0 * np.linspace(1.0, 0.5, B // 4))
                assert screen._bounds is not None
                if zeroed:
                    screen._distance = lambda M, c: 0.0
                screens.append(screen)
            mf, uf = [Fraction(x) for x in m], [Fraction(x) for x in u]
            points = [Fraction(0), Fraction(c) / 2, Fraction(c)]
            for k in range(B):
                one = np.array([k])
                ok, bare_ok = (sc.span_head(one, M, c, np.array([c])) for sc in screens)
                if ok or bare_ok:
                    a = sum(Fraction(x) * b for x, b in zip(X[k], mf))
                    b = sum(Fraction(x) * b for x, b in zip(X[k], uf))
                    lowest = min(a - r * b for r in points)
                    if ok:
                        assert lowest >= 1, k
                        certified += 1
                    unsafe += bare_ok and lowest < 1
        assert certified > 0 and unsafe > 0

    @pytest.mark.parametrize("averaging,sigma", [(True, 0.0), (False, 0.1)])
    def test_sgd_screens_only_without_averaging_and_noise(self, monkeypatch, averaging, sigma):
        # from 0.9 w_star most margins exceed 1, where the screen would
        # engage; with a running mean or noise no screen is made, and every
        # step runs in the exact loop
        obj = Objective("squared_hinge", generate_margin_data(2000, 100, 0.1, seed=0))
        cfg = replace(screen_config(obj, "sgd", 0.1, seed=1, averaging=averaging), sigma=sigma)
        expected = oracle_rows(obj, "sgd", cfg, 2)
        screens = []
        original = optimizers._ZeroScreen.__init__

        def recording(self, obj, min_gap):
            screens.append(min_gap)
            original(self, obj, min_gap)

        monkeypatch.setattr(optimizers._ZeroScreen, "__init__", recording)
        assert kernel_rows(obj, "sgd", cfg, 2) == expected
        assert screens == []
        # the same run without them screens
        kernel_rows(obj, "sgd", replace(cfg, averaging=False, sigma=0.0), 2)
        assert screens == [optimizers._SGD_MIN_GAP]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", ["sgd", "sgd_ls"])
    @pytest.mark.parametrize("kind", ["hinge", "squared_hinge"])
    @pytest.mark.parametrize("margin", [1.0, 1.0 - 2.0**-53, math.nan, math.inf, -math.inf])
    def test_margin_test_at_its_boundary(self, method, kind, margin):
        # SGD's exact loop skips a step whose margin fails y * z < 1.0
        # without asking the loss for s; the loss's s is zero there too
        obj, w0 = boundary_objective(kind, margin)
        margins = obj.data.y * np.array([row.dot(w0) for row in obj.data.X])
        if math.isnan(margin) and not np.isnan(margins).all():
            pytest.skip("this BLAS sums the row's two overflowing terms in one accumulator")
        assert np.array_equal(margins, [margin, margin], equal_nan=True)
        cfg = RunConfig(eta=0.25, seed=0, w0=w0)
        if kind == "squared_hinge" and margin == -math.inf:
            # s is infinite: the single step raises, the kernel's iterate is
            # not finite at the end of the same pass
            assert assert_same_failure(obj, method, cfg, 4) == 1
            return
        rows, oracle = kernel_rows(obj, method, cfg, 4), oracle_rows(obj, method, cfg, 4)
        # a nan margin makes every logged loss nan, which == does not match
        assert np.array_equal(
            [astuple(r) for r in rows], [astuple(r) for r in oracle], equal_nan=True
        )
        if not math.isnan(margin):
            assert rows == oracle

    def test_accel_line_search_accepts_a_gradient_below_resolution(self, monkeypatch):
        # both margins are 1 - 2^-53: the squared hinge's gradient has
        # ||g||^2 = (2^-52)^2 = 4.9e-32, below GRAD_RESOLUTION_SQ, and the
        # accelerated kernel accepts its step without the loss test
        X, y = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0])
        obj = Objective("squared_hinge", Dataset(X=X, y=y))
        cfg = RunConfig(seed=0, w0=np.array([1.0 - 2.0**-53, -1.0 + 2.0**-53]))
        original = optimizers._MarginOracle.decreases
        g_sq = []

        def recording(self, i, t, s, h):
            g_sq.append(s * s * self._sq)
            return original(self, i, t, s, h)

        monkeypatch.setattr(optimizers._MarginOracle, "decreases", recording)
        rows = kernel_rows(obj, "accel_ls", cfg, 4)
        assert g_sq and all(0.0 < v <= optimizers.GRAD_RESOLUTION_SQ for v in g_sq)
        assert_within_tolerance(rows, oracle_rows(obj, "accel_ls", cfg, 4))

    @pytest.mark.parametrize("mode", ["convex", "strongly_convex"])
    def test_span_certificate_holds_in_exact_arithmetic(self, mode):
        # Acc-SGD crosses a block of zero-gradient steps at the span points
        # zeta_k = m - r_k u~, r_k in [0, c]. Rows whose exact margins at
        # their span points lie within 40 ulps of 1, on both sides, must be
        # certified only where the exact margin is >= 1; without its slack
        # the certificate would pass some that are not. The same holds for
        # the segment bounds that span_head keeps: rows whose exact margins
        # at r = 0 and r = c lie within 40 ulps of 1 have a kept bound >= 1
        # only where the exact margin is >= 1 at both ends and at every r_k.
        rng = np.random.default_rng(0 if mode == "convex" else 1)
        d, B, c = 3, 512, 0.37
        if mode == "convex":
            sched = make_schedule("convex", 10.0, 0.01)
            alphas = []
            for _ in range(B):
                sched = accel_schedule_advance(sched)
                alphas.append(sched.alpha)
            r = np.cumprod(np.subtract(1.0, alphas))
        else:
            alpha, beta = 0.05, 0.9
            kappa = optimizers._kappa(alpha, beta)
            r = (1.0 - kappa - alpha) * (beta * (1.0 - alpha)) ** np.arange(B)
        ulps = lambda: 1.0 + rng.integers(-40, 40, size=B) * 2.0**-52
        certified = unsafe = kept = unsafe_kept = 0
        for _ in range(4):
            v = rng.normal(size=d)
            u = 0.3 * rng.normal(size=d)
            X = rng.normal(size=(B, d))
            target = ulps()
            points = v[None, :] - r[:, None] * u[None, :]
            X *= (target / np.einsum("ij,ij->i", X, points))[:, None]
            obj = Objective("hinge", Dataset(X=X, y=np.ones(B)))
            screen = optimizers._ZeroScreen(obj, 0.0)
            ok = screen.certified_in_span(np.arange(B), v, u, r)
            screen._gamma = 0.0
            bare = screen.certified_in_span(np.arange(B), v, u, r)
            vf, uf = [Fraction(x) for x in v], [Fraction(x) for x in u]
            for k in range(B):
                if ok[k] or bare[k]:
                    rk = Fraction(r[k])
                    margin = sum(Fraction(x) * (a - rk * b) for x, a, b in zip(X[k], vf, uf))
                    if ok[k]:
                        assert margin >= 1, k
                        certified += 1
                    unsafe += bare[k] and margin < 1
            # the segment: each row's exact margins at r = 0 and r = c near
            # 1, from its part in the span of m and u~
            X = rng.normal(size=(B, d))
            ends = np.stack((ulps(), ulps()))
            gram = np.array([[v @ v, v @ u], [u @ v, u @ u]])
            rhs = np.stack((ends[0], (ends[0] - ends[1]) / c)) - np.stack((X @ v, X @ u))
            X += np.linalg.solve(gram, rhs).T @ np.stack((v, u))
            M = np.stack((v, u))
            block = c * r[: B // 4]
            obj = Objective("hinge", Dataset(X=X, y=np.ones(B)))
            segments = []
            for gamma in (None, 0.0):
                screen = optimizers._ZeroScreen(obj, 0.0)
                if gamma is not None:
                    screen._gamma = gamma
                screen.span_head(np.arange(B // 4), M, c, block)
                segments.append(screen._bounds >= 1.0)
            points = [Fraction(0), Fraction(c)] + [Fraction(rk) for rk in block]
            for k in np.flatnonzero(segments[0] | segments[1]):
                a = sum(Fraction(x) * b for x, b in zip(X[k], vf))
                b = sum(Fraction(x) * b for x, b in zip(X[k], uf))
                lowest = min(a - rk * b for rk in points)
                if segments[0][k]:
                    assert lowest >= 1, k
                    kept += 1
                unsafe_kept += segments[1][k] and lowest < 1
        assert certified > 0 and unsafe > 0
        assert kept > 0 and unsafe_kept > 0


# ---------------------------------------------------------------------------
# settled accelerated runs: a state from which no later gradient is nonzero
# ---------------------------------------------------------------------------


def record_settled(monkeypatch, events=None) -> list:
    """What each _ZeroScreen.settled call returned; given ``events``, also
    ("cover", nonzero gradients) per pass and ("settled", result) per check,
    in call order."""
    checks = []
    settled, cover = optimizers._ZeroScreen.settled, optimizers._ZeroScreen.cover

    def recording(self, *args):
        checks.append(settled(self, *args))
        if events is not None:
            events.append(("settled", checks[-1]))
        return checks[-1]

    def covering(self, *args):
        events.append(("cover", cover(self, *args)))
        return events[-1][1]

    monkeypatch.setattr(optimizers._ZeroScreen, "settled", recording)
    if events is not None:
        monkeypatch.setattr(optimizers._ZeroScreen, "cover", covering)
    return checks


def stepping_rows(monkeypatch, obj, method: str, cfg: RunConfig, passes: int) -> list[MetricRow]:
    """kernel_rows with the settled check switched off: every pass steps."""
    with monkeypatch.context() as patch:
        patch.setattr(optimizers._ZeroScreen, "settled", lambda self, *args: False)
        return kernel_rows(obj, method, cfg, passes)


@functools.lru_cache(maxsize=None)
def settling_objective() -> Objective:
    """fig1a's tau = 0.1 at 4000 x 50, where screen_config's Acc-SGD
    (tau_over_L) and Acc-SGD(LS) settle within 12 passes from w = 0 in
    both modes."""
    return Objective("squared_hinge", generate_margin_data(4000, 50, 0.1, seed=2))


def span_margins(row: np.ndarray, M: np.ndarray, ts) -> list[float]:
    """The computed x . p of a one-row matrix at the points p = m + t u~ of
    ``ts`` (times y, a margin) as the kernel takes it: a + t b from the
    exact loop's M.dot(x), and log_row's gemv at fl(w) = m + fl(t u~)."""
    a, b = M.dot(row[0]).tolist()
    return [z for t in ts for z in (a + t * b, float((row @ (M[0] + t * M[1]))[0]))]


class TestSettledRuns:
    @pytest.mark.parametrize("method", ["accel", "accel_ls"])
    @pytest.mark.parametrize("mode", ["convex", "strongly_convex"])
    def test_rows_equal_the_stepping_run(self, monkeypatch, method, mode):
        # from w = 0 the run steps until a pass has at most n / 64 nonzero
        # gradients and the check passes; the rows after it are those that
        # stepping on would log, bit for bit. The check is made after every
        # pass with at most n / 64 nonzero gradients, and only then.
        obj = settling_objective()
        cfg = screen_config(obj, method, 0.1, mode)
        stepping = stepping_rows(monkeypatch, obj, method, cfg, 12)
        events = []
        checks = record_settled(monkeypatch, events)
        rows = kernel_rows(obj, method, cfg, 12)
        assert checks[-1] and checks.count(True) == 1
        assert rows == stepping
        covers = [value for kind, value in events if kind == "cover"]
        assert covers[0] > 0 and len(covers) < 12
        few = obj.n // optimizers._SETTLE_SHARE
        for before, after in zip(events, events[1:]):
            if after[0] == "settled":
                assert before[0] == "cover" and before[1] <= few
            elif before[0] == "cover":
                assert before[1] > few

    def test_a_pass_with_nonzero_gradients_can_settle(self, monkeypatch):
        # the check reads only the state the next step starts from: on
        # this data convex Acc-SGD settles after a pass with 2 nonzero
        # gradients, and the rows are still those of the stepping run
        obj = Objective("squared_hinge", generate_margin_data(4000, 50, 0.1, seed=1))
        cfg = screen_config(obj, "accel", 0.1)
        stepping = stepping_rows(monkeypatch, obj, "accel", cfg, 12)
        events = []
        checks = record_settled(monkeypatch, events)
        rows = kernel_rows(obj, "accel", cfg, 12)
        assert checks[-1] and events[-2] == ("cover", 2)
        assert rows == stepping

    def test_a_refusal_reads_the_rows_that_failed_before(self, monkeypatch):
        # a row along w_star with margin 1/2 fails the check at M; the
        # next check at M reads that row alone and refuses, and one at 4 M,
        # where it clears 1, reads it, then all rows, and settles
        data = generate_margin_data(400, 5, 0.1, seed=0)
        M, c = np.stack((1.01 * data.w_star, 0.01 * data.w_star)), 0.5
        X = data.X.copy()
        X[7] = data.y[7] * 0.5 / 1.01 * data.w_star / (data.w_star @ data.w_star)
        screen = optimizers._ZeroScreen(Objective("squared_hinge", Dataset(X=X, y=data.y)), 0.0)
        read = []
        segment = screen._segment

        def recording(P, *args):
            read.append(len(P))
            return segment(P, *args)

        monkeypatch.setattr(screen, "_segment", recording)
        assert not screen.settled(M, c, 0.0, 4000)
        assert screen._unsettled.tolist() == [7] and read == [400]
        assert not screen.settled(M, c, 0.0, 4000)
        assert read == [400, 1]
        assert screen.settled(4.0 * M, c, 0.0, 4000)
        assert read == [400, 1, 1, 400] and len(screen._unsettled) == 0

    def test_no_settling_before_a_rebase(self, monkeypatch):
        # one row, so Acc-SGD(LS)'s search of the run's first step is the
        # last step of pass 1. Its zero gradient keeps the estimate, but
        # the search moved rho and eta from the config's, and the next
        # pass rebases m to their kappa: pass 1 is not checked (lead inf),
        # pass 2 settles
        data = generate_margin_data(2, 5, 0.1, seed=0)
        obj = Objective("squared_hinge", Dataset(X=data.X[:1], y=data.y[:1]))
        cfg = RunConfig(mode="strongly_convex", mu=1e-3, seed=0, w0=1.01 * data.w_star)
        stepping = stepping_rows(monkeypatch, obj, "accel_ls", cfg, 4)
        checks = []
        settled = optimizers._ZeroScreen.settled

        def recording(self, M, c, lead, steps):
            checks.append((lead, settled(self, M, c, lead, steps)))
            return checks[-1][1]

        monkeypatch.setattr(optimizers._ZeroScreen, "settled", recording)
        rows = kernel_rows(obj, "accel_ls", cfg, 4)
        assert checks == [(math.inf, False), (0.0, True)]
        assert rows == stepping

    def test_settled_rows_hold_in_exact_arithmetic(self):
        # rows whose exact margins at the ends m and m - c u~ of the segment
        # lie from 40 ulps below 1 to 400 above. Every row that the check
        # passes on its own has exact Fraction margins >= 1 at both ends,
        # and computed margins >= 1 at span points across [0, c], from the
        # exact loop's M.dot(row) and from X @ fl(w), and so after a fold
        # (u~ <- fl(c u~), c <- 1). With the terminal slack zeroed some row
        # passes that fails one of these.
        rng = np.random.default_rng(4)
        d, B, c, steps = 3, 512, 0.37, 100
        passed = unsafe = 0
        for _ in range(4):
            M = np.stack((rng.normal(size=d), 0.3 * rng.normal(size=d)))
            m, u = M
            folded = np.stack((m, c * u))
            X = rng.normal(size=(B, d))
            ulps = lambda: 1.0 + rng.integers(-40, 400, size=B) * 2.0**-52
            ends = np.stack((ulps(), ulps()))
            gram = np.array([[m @ m, m @ u], [u @ m, u @ u]])
            rhs = np.stack((ends[0], (ends[0] - ends[1]) / c)) - np.stack((X @ m, X @ u))
            X += np.linalg.solve(gram, rhs).T @ M
            mf, uf = [Fraction(x) for x in m], [Fraction(x) for x in u]
            for k in range(B):
                row = X[k : k + 1]
                screen = optimizers._ZeroScreen(Objective("hinge", Dataset(X=row, y=np.ones(1))), 0.0)
                ok = screen.settled(M, c, 0.0, steps)
                screen._gamma = 0.0
                bare_ok = screen.settled(M, c, 0.0, 0)
                if ok or bare_ok:
                    a = sum(Fraction(x) * v for x, v in zip(row[0], mf))
                    b = sum(Fraction(x) * v for x, v in zip(row[0], uf))
                    computed = (span_margins(row, M, -c * np.linspace(0.0, 1.0, 9))
                                + span_margins(row, folded, -np.linspace(0.0, 1.0, 9)))
                    safe = min(a, a - Fraction(c) * b) >= 1 and min(computed) >= 1.0
                    if ok:
                        assert safe, k
                        passed += 1
                    unsafe += bare_ok and not safe
        assert passed > 0 and unsafe > 0

    def test_a_row_ulps_above_the_kink_is_refused(self):
        # at M = [1.01 w_star; 0.01 w_star] and c = 0.5 every margin on the
        # segment is at least 1.005 and the run is settled, but not once one
        # row along w_star has an exact margin a few ulps above 1 at the
        # segment's far end (and 1 + 5e-3 at m): there every check of the
        # kernel still sees a zero gradient, and the check without its
        # terminal slack passes it
        data = generate_margin_data(400, 5, 0.1, seed=0)
        M, c = np.stack((1.01 * data.w_star, 0.01 * data.w_star)), 0.5
        screen = optimizers._ZeroScreen(Objective("squared_hinge", data), 0.0)
        assert screen.settled(M, c, 0.0, 4000)
        X = data.X.copy()
        X[0] = data.y[0] * (1.0 + 4 * 2.0**-52) / 1.005 * data.w_star / (data.w_star @ data.w_star)
        far = [Fraction(x) for x in M[0] - c * M[1]]
        margin = data.y[0] * sum(Fraction(x) * v for x, v in zip(X[0], far))
        assert 1 <= margin <= 1 + Fraction(2.0**-48)
        obj = Objective("squared_hinge", Dataset(X=X, y=data.y))
        screen = optimizers._ZeroScreen(obj, 0.0)
        assert not screen.settled(M, c, 0.0, 4000)
        assert min(data.y[0] * np.array(span_margins(X[:1], M, -c * np.linspace(0.0, 1.0, 9)))) >= 1.0
        screen._gamma = 0.0
        assert screen.settled(M, c, 0.0, 0)

    def test_the_slack_grows_with_the_run_and_the_lead(self):
        # the terminal slack covers the rounding of every fold still to
        # come (two per step of the run) and span points up to lead c past
        # m: a row along w_star with a margin of 1 + 1e-6 at the far end
        # of the segment clears it for a run of 4000 steps at lead 0, but
        # not for a run of 2^40 steps or at a lead of 2^-11 (slack terms
        # of about 5e-5 and 1e-4); no run of 2^43 steps and no lead above
        # 2^-10 settles at all
        data = generate_margin_data(400, 5, 0.1, seed=0)
        M, c = np.stack((1.01 * data.w_star, 0.01 * data.w_star)), 0.5
        X = data.X.copy()
        X[0] = data.y[0] * (1.0 + 1e-6) / 1.005 * data.w_star / (data.w_star @ data.w_star)
        screen = optimizers._ZeroScreen(Objective("squared_hinge", Dataset(X=X, y=data.y)), 0.0)
        assert screen.settled(M, c, 0.0, 4000)
        assert not screen.settled(M, c, 0.0, 2**40)
        assert not screen.settled(M, c, 2.0**-11, 4000)
        screen = optimizers._ZeroScreen(Objective("squared_hinge", data), 0.0)
        assert screen.settled(M, c, 0.0, 2**40)
        assert not screen.settled(M, c, 0.0, 2**43)
        assert not screen.settled(M, c, 2.0**-9, 4000)

    @pytest.mark.parametrize(
        "method,averaging,sigma",
        [("accel", True, 0.0), ("accel_ls", True, 0.0), ("accel", False, 0.1),
         ("sgd", False, 0.0), ("sgd_ls", False, 0.0)],
    )
    def test_no_check_with_averaging_noise_or_sgd(self, monkeypatch, method, averaging, sigma):
        # from 1.01 w_star every gradient is zero (the noise aside), but the
        # check needs the accelerated kernel's screen and no running mean
        data = generate_margin_data(5000, 5, 0.1, seed=0)
        obj = Objective("squared_hinge", data)
        cfg = RunConfig(rho=10.0, seed=2, averaging=averaging, sigma=sigma,
                        w0=1.01 * data.w_star)
        checks = record_settled(monkeypatch)
        rows = kernel_rows(obj, method, cfg, 3)
        assert checks == [] and len(rows) == 4


# ---------------------------------------------------------------------------
# the accelerated kernel's solved blocks: dense stretches of squared-hinge
# steps as one triangular system each
# ---------------------------------------------------------------------------


def kink_crossing_objective(seed: int = 0, n: int = 2000, d: int = 20):
    """Data whose margins y_i x_i . w at the returned w are 1 - 1e-3 for
    about half the rows and 1 + 1e-6 for the others."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=d)
    X = rng.normal(size=(n, d)) / math.sqrt(d)
    y = rng.choice([-1.0, 1.0], size=n)
    margins = np.where(rng.random(n) < 0.5, 1.0 - 1e-3, 1.0 + 1e-6)
    X[:, 0] = (y * margins - X[:, 1:] @ w[1:]) / w[0]
    return Objective("squared_hinge", Dataset(X=X, y=y)), w


def record_commits(monkeypatch) -> list:
    """Per solved block: its length, its eta and what it committed."""
    commits = []
    original = optimizers._SolvedBlock.commit

    def recording(self, it, blk, alphas, gammas, beta, kappa, eta, test):
        done = original(self, it, blk, alphas, gammas, beta, kappa, eta, test)
        commits.append((len(blk), eta, done))
        return done

    monkeypatch.setattr(optimizers._SolvedBlock, "commit", recording)
    return commits


def record_products(monkeypatch) -> list:
    """Per solved block, the columns of each product X_b @ X_b[cols].T it
    made: an index array, or slice(None) for the whole product."""
    blocks = []
    commit, columns = optimizers._SolvedBlock.commit, optimizers._SolvedBlock._columns

    def recording_commit(self, *args):
        blocks.append([])
        return commit(self, *args)

    def recording_columns(self, X_b, T, C, cols):
        blocks[-1].append(cols)
        return columns(self, X_b, T, C, cols)

    monkeypatch.setattr(optimizers._SolvedBlock, "commit", recording_commit)
    monkeypatch.setattr(optimizers._SolvedBlock, "_columns", recording_columns)
    return blocks


def record_solves(monkeypatch) -> list:
    """Per solved block, [what commit returned, its solves]: per guess,
    _solve's arguments (K, idx, b, two), its s and the rounds it took,
    counted as its products with K."""
    blocks = []
    commit, solve = optimizers._SolvedBlock.commit, optimizers._SolvedBlock._solve

    def recording_commit(self, *args):
        blocks.append([None, []])
        blocks[-1][0] = commit(self, *args)
        return blocks[-1][0]

    def recording_solve(K, idx, b, two):
        rounds = []

        class Counting(np.ndarray):
            def __matmul__(self, other):
                rounds.append(1)
                return np.asarray(self) @ other

        s = solve(K.view(Counting), idx, b, two)
        blocks[-1][1].append((K, idx, b, two, s, len(rounds)))
        return s

    monkeypatch.setattr(optimizers._SolvedBlock, "commit", recording_commit)
    monkeypatch.setattr(optimizers._SolvedBlock, "_solve", staticmethod(recording_solve))
    return blocks


def forward_substitution(K: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution of (I + 2 K) s = b, K strictly lower triangular."""
    s = np.zeros(len(b))
    for k in range(len(b)):
        s[k] = b[k] - 2.0 * (K[k, :k] @ s[:k])
    return s


def fig1a_like_objective() -> Objective:
    """fig1a's tau = 0.1 at 4000 x 50: from w = 0 Acc-SGD's pass-1 blocks
    are coupled by 2^-10 to 2^-7, as the blocks of fig1a's 8000 x 100 are."""
    return Objective("squared_hinge", generate_margin_data(4000, 50, 0.1, seed=0))


def whole(cols) -> bool:
    return isinstance(cols, slice)


def dense_config(obj, method: str, mode: str = "convex", **changes) -> RunConfig:
    return replace(screen_config(obj, method, 0.005, mode, seed=5), **changes)


class TestSolvedBlocks:
    """Against the kernel pinned to exact steps and the single-step loop,
    with fewer scalar gradients than steps: the blocks did the work."""

    def check(self, monkeypatch, obj, cfg, method, passes=3):
        expected = per_step_accel_rows(monkeypatch, obj, cfg, passes, method)
        oracle = oracle_rows(obj, method, cfg, passes)
        calls = count_scalar_gradients(monkeypatch)
        rows = kernel_rows(obj, method, cfg, passes)
        assert len(calls) < 0.5 * passes * obj.n
        assert_within_tolerance(rows, expected)
        assert_within_tolerance(rows, oracle)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["accel", "accel_ls"])
    def test_dense_data_in_convex_mode(self, monkeypatch, method):
        obj = screen_objective("squared_hinge", 0.005, 0)
        commits = record_commits(monkeypatch)
        products = record_products(monkeypatch)
        self.check(monkeypatch, obj, dense_config(obj, method), method)
        # Acc-SGD's first step, alpha = 1, would set c to 0: the exact loop
        # folds it (Acc-SGD(LS) searches it), and most blocks commit whole
        if method == "accel":
            assert commits[0][2] == (0, 0)
            # nearly every step is active: each block guesses so at once
            # and makes the whole Gram product, once
            assert all(cols == [slice(None)] for cols in products[1:])
        assert sum(done[0] == size for size, _, done in commits if done) > 0.5 * len(commits)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["convex", "strongly_convex"])
    def test_sparse_guesses_make_narrow_products(self, monkeypatch, mode):
        # Acc-SGD(LS) at its line-search step: after the first blocks most
        # guesses have under half their steps active, and K is made on
        # those columns alone; a guess that the solved statuses replace
        # adds the active columns that the first one lacked
        obj = screen_objective("squared_hinge", 0.005, 0)
        products = record_products(monkeypatch)
        self.check(monkeypatch, obj, dense_config(obj, "accel_ls", mode), "accel_ls")
        narrow = [cols for cols in products if cols and not any(map(whole, cols))]
        assert len(narrow) > 0.5 * len(products)
        added = [cols for cols in narrow if len(cols) > 1]
        assert added
        for cols in added:
            assert 0 < len(cols[0]) <= optimizers._SOLVE_BLOCK // 2
            assert len(np.unique(np.concatenate(cols))) == sum(map(len, cols))  # disjoint

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_strongly_convex_fold_inside_a_block(self, monkeypatch):
        # mu eta / rho = 1/4 makes beta (1 - alpha) = 1/3: c would fall
        # below the fold floor within 40 steps, so blocks end there and the
        # exact loop takes the folding step
        obj = screen_objective("squared_hinge", 0.005, 0)
        cfg = dense_config(obj, "accel", "strongly_convex")
        cfg = replace(cfg, mu=0.25 * cfg.rho / cfg.eta)
        sched = accel_schedule_advance(make_schedule(cfg.mode, cfg.rho, cfg.eta, mu=cfg.mu))
        assert (sched.beta * (1.0 - sched.alpha)) ** 40 < optimizers._FOLD_FLOOR
        commits = record_commits(monkeypatch)
        self.check(monkeypatch, obj, cfg, "accel")
        assert max(done[0] for _, _, done in commits if done) <= 40

    @pytest.mark.parametrize("guesses", [1, 3])
    def test_guess_fails_mid_block_at_the_kink(self, monkeypatch, guesses):
        # the active rows' steps move the margins 1e-6 above 1 across it, so
        # the active set guessed at a block's start is wrong mid-block. One
        # guess commits up to the first wrong step; more guesses mend it.
        obj, w = kink_crossing_objective()
        cfg = RunConfig(eta=1e-5, rho=2.0, seed=3, w0=w)
        monkeypatch.setattr(optimizers, "_GUESSES", guesses)
        commits = record_commits(monkeypatch)
        self.check(monkeypatch, obj, cfg, "accel")
        cut = [done[0] for size, _, done in commits if done and 0 < done[0] < size]
        assert cut if guesses == 1 else len(cut) < 0.1 * len(commits)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_line_search_doubles_inside_a_block(self, monkeypatch):
        # from ls_init = 1/64 the estimate doubles in the first pass: a
        # block ends at the step that fails its test, which doubles the
        # estimate in the exact loop, and the next block runs at the new eta
        obj = screen_objective("squared_hinge", 0.005, 0)
        cfg = dense_config(obj, "accel_ls", ls_init=1.0 / 64)
        commits = record_commits(monkeypatch)
        self.check(monkeypatch, obj, cfg, "accel_ls")
        assert any(
            done and done[0] < size and nxt < eta
            for (size, eta, done), (_, nxt, _) in zip(commits, commits[1:])
        )

    @pytest.mark.parametrize("method", ["accel", "accel_ls"])
    def test_every_system_solves_by_forward_substitution(self, monkeypatch, method):
        # K is strictly lower triangular, so s_k reads s_j for j < k only:
        # iterated from s = b, the system stands still at its solution
        # within |A| + 1 rounds, whatever its coupling. Acc-SGD on fig1a's
        # recipe and Acc-SGD(LS) at tau = 0.005 (coupled by 2^-10 to 2^-7,
        # and by more).
        if method == "accel":
            obj = fig1a_like_objective()
            cfg = screen_config(obj, method, 0.1, seed=1)
        else:
            obj = screen_objective("squared_hinge", 0.005, 0)
            cfg = dense_config(obj, method)
        blocks = record_solves(monkeypatch)
        kernel_rows(obj, method, cfg, 2)
        solves = [solve for done, block in blocks if done is not None for solve in block]
        assert solves
        for K, idx, b, two, s, rounds in solves:
            full = np.zeros((len(b), len(b)))
            full[:, idx] = K
            act = np.flatnonzero(two)
            K_AA = full[np.ix_(act, act)]
            expected = forward_substitution(K_AA, b[act])
            # within 1e-12 of the size of each row's terms: an s_k that
            # cancels to 1e-4 of them differs from it by 1e-12 relative
            terms = np.abs(b[act]) + 2.0 * np.abs(K_AA) @ np.abs(expected)
            assert (np.abs(s[act] - expected) <= 1e-12 * terms).all()
            assert not s[two == 0.0].any()
            assert rounds <= len(act) + 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_line_search_blocks_need_no_general_solve(self, monkeypatch):
        # Acc-SGD(LS) at tau = 0.005 couples its blocks by 2^-7 and more:
        # they iterate to their solution as well, with no LU solve
        def refused(a, b):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", refused)
        obj = screen_objective("squared_hinge", 0.005, 0)
        self.check(monkeypatch, obj, dense_config(obj, "accel_ls"), "accel_ls")

    def test_strongly_coupled_blocks_stay_exact(self, monkeypatch):
        # steps of eta = 1/(rho L) at rho = 10 couple the margins of a
        # block by more than their own size, and the run diverges: its
        # blocks are left to the exact loop, whose rows it keeps bit for bit.
        # The coupling is measured on the guessed active columns, and most
        # blocks guess fewer than half their steps active.
        obj = screen_objective("squared_hinge", 0.005, 0)
        cfg = RunConfig(rho=10.0, seed=5)
        expected = per_step_accel_rows(monkeypatch, obj, cfg, 2)
        commits = record_commits(monkeypatch)
        products = record_products(monkeypatch)
        assert kernel_rows(obj, "accel", cfg, 2) == expected
        assert commits and all(done in (None, (0, 0)) for _, _, done in commits)
        narrow = sum(len(cols) == 1 and not whole(cols[0]) for cols in products)
        assert narrow > 0.5 * len(products)

    @staticmethod
    def commit_uncoupled(margin: float, test: bool):
        """One block over 64 orthogonal rows, whose steps do not move each
        other's margins, from margins y_i x_i . m = ``margin`` at eta = 1:
        (what commit returned, M before, the iterates after)."""
        y = np.where(np.arange(64) % 2, 1.0, -1.0)
        obj = Objective("squared_hinge", Dataset(X=np.eye(64), y=y))
        it = optimizers._RankOneIterates(margin * y)
        before = it.M.copy()
        done = optimizers._SolvedBlock(obj).commit(
            it, np.arange(64), np.full(64, 0.01), np.full(64, 2.0), 1.0, 0.0, 1.0, test
        )
        return done, before, it

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_line_search_gradient_is_left_to_the_exact_loop(self):
        # from margins of -1e200 the margins and steps are finite, but each
        # squared gradient norm overflows: without the line search's test
        # the block commits, and with it the block declines and leaves the
        # iterates alone
        done, _, it = self.commit_uncoupled(-1e200, False)
        assert done == (64, 64) and np.isfinite(it.M).all()
        done, before, it = self.commit_uncoupled(-1e200, True)
        assert done is None
        assert np.array_equal(it.M, before) and it.c == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_update_is_left_to_the_exact_loop(self):
        # from margins of -8e307 the gradient scalars 2 (z - y) are still
        # finite, but each step sends m_i to about 3 times its margin,
        # past the largest double: the block declines and leaves the
        # iterates alone (with the line search's test, the squared
        # gradients would overflow first)
        done, before, it = self.commit_uncoupled(-8e307, False)
        assert done is None
        assert np.array_equal(it.M, before) and it.c == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("test", [False, True])
    def test_non_finite_block_is_left_to_the_exact_loop(self, test):
        # margins of rows against m = 1e308 (1, ..., 1) overflow: the block
        # declines without a warning and leaves the iterates alone, so that
        # the exact loop meets the overflow and warns or raises as it does
        obj = screen_objective("squared_hinge", 0.005, 0)
        it = optimizers._RankOneIterates(np.full(obj.dim, 1e308))
        before = it.M.copy()
        done = optimizers._SolvedBlock(obj).commit(
            it, np.arange(64), np.full(64, 0.01), [2.0] * 64, 1.0, 0.0, 1e-4, test
        )
        assert done is None
        assert np.array_equal(it.M, before) and it.c == 1.0
