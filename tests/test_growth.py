import warnings

import numpy as np
import pytest
from oracles import point_sgc_ratio

from interpsgd import growth
from interpsgd.data import generate_margin_data
from interpsgd.growth import (
    GrowthEstimate,
    RatioUndefinedError,
    audit_sgc,
    empirical_sgc_ratio,
    grid_search_rho,
    rho_sgc_margin,
    rho_wgc,
)
from interpsgd.numerics import make_rng
from interpsgd.objectives import Dataset, Objective
from interpsgd.optimizers import SgdConfig, sgd_step
from interpsgd.problems import QuadraticObjective


def margin_objective(seed=0, n=40, d=8, tau=0.2, kind="squared_hinge"):
    return Objective(kind, generate_margin_data(n, d, tau, seed=seed))


def multi_chunk_objective(kind="squared_hinge", seed=0):
    """Margin data of two whole chunks of the blocked ratio pass and 37
    rows of a third."""
    d = 64
    n = 2 * (growth.CHUNK_BYTES // (8 * d)) + 37
    return Objective(kind, generate_margin_data(n, d, 0.1, seed=seed))


def huge_row_objective():
    """Four orthogonal rows of norm 2^510: X^T X and L_max are finite, but
    the squared gradient norms overflow wherever the scalars s_i are large."""
    Q = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))[0]
    return Objective("squared_hinge", Dataset(X=Q * 2.0**510, y=np.array([1.0, -1.0, 1.0, -1.0])))


def oracle_or_nan(obj, w) -> float:
    try:
        return point_sgc_ratio(obj, w)
    except RatioUndefinedError:
        return np.nan


class TestRhoWgc:
    def test_equals_Lmax_over_L(self):
        obj = margin_objective()
        est = rho_wgc(obj)
        assert est.route == "wgc_analytic"
        assert est.rho == pytest.approx(obj.L_max / obj.L, rel=1e-12)

    def test_unit_norm_generator_rows_give_Lmax_two(self):
        obj = margin_objective(seed=4)
        est = rho_wgc(obj)
        assert obj.L_max == pytest.approx(2.0, rel=1e-12)
        assert est.rho == pytest.approx(2.0 / obj.L, rel=1e-12)

    def test_single_row_direction_gives_rho_one(self):
        # all rows identical: L = L_max exactly
        X = np.tile(np.array([[0.6, 0.8]]), (5, 1))
        data = Dataset(X=X, y=np.ones(5))
        obj = Objective("squared_hinge", data, f_star=0.0)
        est = rho_wgc(obj)
        assert est.rho == pytest.approx(1.0, rel=1e-9)

    def test_cross_checked_against_oracles(self):
        from oracles import jacobi_max_eigenvalue

        X = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0], [-1.0, 1.5]])
        data = Dataset(X=X, y=np.array([1.0, -1.0, 1.0, -1.0]))
        obj = Objective("squared_hinge", data, f_star=0.0)
        lam = jacobi_max_eigenvalue(X.T @ X)
        L = 2.0 * lam / 4
        L_max = 2.0 * max(float(r @ r) for r in X)
        assert rho_wgc(obj).rho == pytest.approx(L_max / L, rel=1e-8)

    def test_rejects_non_smooth(self):
        obj = margin_objective(kind="hinge")
        with pytest.raises(ValueError):
            rho_wgc(obj)

    def test_rejects_missing_certificate(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        obj = Objective("squared_hinge", Dataset(X=X, y=np.array([1.0, -1.0])))
        with pytest.raises(ValueError):
            rho_wgc(obj)


class TestRhoSgcMargin:
    @pytest.mark.parametrize(
        "tau,c,expected",
        [(1.0, 1, 1.0), (0.1, 8000, 8e5), (0.5, 4, 16.0)],
    )
    def test_formula(self, tau, c, expected):
        X = np.array([[1.0, 0.0], [1.0, 0.0]])  # one distinct row <= any c
        data = Dataset(
            X=X,
            y=np.array([1.0, 1.0]),
            tau=tau,
            w_star=np.array([1.0 / tau, 0.0]),
            support_size=c,
        )
        assert rho_sgc_margin(data).rho == pytest.approx(expected, rel=1e-12)

    def test_missing_metadata(self):
        data = Dataset(X=np.eye(2), y=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            rho_sgc_margin(data)


class TestEmpiricalRatio:
    def test_single_example_is_one(self):
        obj = QuadraticObjective(np.array([[2.0]]), np.array([0.0]))
        assert empirical_sgc_ratio(obj, np.array([1.5])) == pytest.approx(1.0)

    def test_two_example_hand_computation(self):
        # squared loss, 1-d: x = (1, 2), y = (1, -1), w = 0
        # g_0 = -1, g_1 = 2 -> mean sq = 2.5; full = 0.5 -> ratio = 10
        X = np.array([[1.0], [2.0]])
        obj = Objective("squared", Dataset(X=X, y=np.array([1.0, -1.0])))
        assert empirical_sgc_ratio(obj, np.zeros(1)) == pytest.approx(10.0, rel=1e-12)

    def test_jensen_lower_bound_on_random_points(self):
        obj = margin_objective(seed=2)
        rng = make_rng(3)
        for _ in range(1000):
            w = rng.normal(scale=2.0, size=obj.dim)
            try:
                assert empirical_sgc_ratio(obj, w) >= 1.0 - 1e-12
            except ValueError:
                continue  # interpolation point: ratio undefined

    @pytest.mark.parametrize("kind", ["squared", "squared_hinge", "hinge", "logistic"])
    def test_equals_the_public_oracles(self, kind):
        # one X w for both sides gives the same bits as the two public calls
        obj = margin_objective(seed=6, kind=kind)
        rng = make_rng(8)
        for _ in range(20):
            w = rng.normal(scale=3.0, size=obj.dim)
            full = obj.grad_full(w)
            expected = float(np.mean(obj.per_example_grad_sq_norms(w))) / float(full @ full)
            assert empirical_sgc_ratio(obj, w) == expected

    def test_vanishing_gradient_rejected(self):
        obj = margin_objective(seed=5)
        with pytest.raises(RatioUndefinedError, match="ratio undefined at interpolation"):
            empirical_sgc_ratio(obj, obj.data.w_star)


class TestBlockRatios:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["squared", "squared_hinge", "hinge", "logistic"])
    def test_matches_the_point_oracle_over_a_partial_last_chunk(self, kind, k):
        obj = multi_chunk_objective(kind)
        assert obj.n % (growth.CHUNK_BYTES // (8 * obj.dim)) == 37
        W = make_rng(k).normal(scale=10.0, size=(k, obj.dim))
        ratios = empirical_sgc_ratio(obj, W)
        assert ratios.shape == (k,)
        for w, ratio in zip(W, ratios):
            assert ratio == pytest.approx(point_sgc_ratio(obj, w), rel=1e-12, abs=0.0)
        assert empirical_sgc_ratio(obj, W[0]) == pytest.approx(ratios[0], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", ["squared", "squared_hinge", "hinge", "logistic"])
    def test_nan_exactly_where_the_oracle_raises_at_w_star(self, kind):
        obj = multi_chunk_objective(kind, seed=1)
        W = np.vstack([obj.data.w_star, make_rng(2).normal(size=obj.dim), obj.data.w_star])
        expected = [oracle_or_nan(obj, w) for w in W]
        ratios = empirical_sgc_ratio(obj, W)
        assert np.array_equal(np.isnan(ratios), np.isnan(expected))
        assert ratios[1] == pytest.approx(expected[1], rel=1e-12, abs=0.0)
        if kind in ("squared_hinge", "hinge"):  # a zero gradient at w_star
            assert np.isnan(ratios[0]) and np.isnan(ratios[2])

    def test_nan_exactly_where_the_oracle_raises_on_huge_rows(self):
        obj = huge_row_objective()
        W = make_rng(4).uniform(-2.0**-509, 2.0**-509, size=(12, obj.dim))
        expected = np.array([oracle_or_nan(obj, w) for w in W])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratios = empirical_sgc_ratio(obj, W)
        assert 0 < np.isnan(expected).sum() < len(W)  # both outcomes occur
        assert np.array_equal(np.isnan(ratios), np.isnan(expected))
        finite = ~np.isnan(expected)
        assert ratios[finite] == pytest.approx(expected[finite], rel=1e-12, abs=0.0)

    def test_rejects_points_of_another_dimension(self):
        obj = margin_objective()
        with pytest.raises(ValueError, match="dimension mismatch"):
            empirical_sgc_ratio(obj, np.ones((2, obj.dim + 1)))


class TestAuditSgc:
    def test_single_example_problem_gives_one(self):
        obj = QuadraticObjective(np.array([[2.0]]), np.array([0.0]))
        est = audit_sgc(obj, 50, make_rng(1))
        assert est.rho == pytest.approx(1.0)
        assert est.route == "empirical_ratio"

    def test_bounded_by_margin_constant(self):
        data = generate_margin_data(60, 10, 0.2, seed=6)
        obj = Objective("squared_hinge", data)
        est = audit_sgc(obj, 400, make_rng(2))
        assert est.rho <= rho_sgc_margin(data).rho

    def test_deterministic_per_seed(self):
        obj = margin_objective(seed=7)
        a = audit_sgc(obj, 100, make_rng(9))
        b = audit_sgc(obj, 100, make_rng(9))
        assert a.rho == b.rho

    def test_box_probes_are_invariant_to_the_scale_of_the_rows(self):
        # without a margin the box is [-1/R, 1/R]^d, R = max_i ||x_i||: the
        # ratio is scale-free, so rows scaled by 1e100 (whose squares
        # still fit) and by 1e-3 audit to the same rho
        data = generate_margin_data(80, 6, 0.2, seed=4)
        estimates = [
            audit_sgc(Objective("squared_hinge", Dataset(X=scale * data.X, y=data.y)),
                      40, make_rng(3))
            for scale in (1.0, 1e100, 1e-3)
        ]
        assert all(e.detail == "max over 40/40 probes" for e in estimates)
        for e in estimates[1:]:
            assert e.rho == pytest.approx(estimates[0].rho, rel=1e-12)

    def test_margin_data_keeps_the_tau_box(self):
        # synthetic tau-certified data draws its box probes in [-1/tau, 1/tau]
        class RecordingRng:
            def __init__(self, rng):
                self.rng, self.boxes = rng, []

            def uniform(self, low, high, size):
                self.boxes.append((low, high))
                return self.rng.uniform(low, high, size=size)

            def integers(self, low, high):
                return self.rng.integers(low, high)

        data = generate_margin_data(60, 5, 0.2, seed=2)
        rng = RecordingRng(make_rng(0))
        audit_sgc(Objective("squared_hinge", data), 6, rng)
        assert rng.boxes == [(-5.0, 5.0)] * 3

    def test_everything_at_interpolation_errors(self):
        # identically-zero objective: every probe has a vanishing gradient
        obj = QuadraticObjective(np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(RatioUndefinedError, match="interpolation"):
            audit_sgc(obj, 20, make_rng(0))

    @pytest.mark.parametrize("count", [7, 8])
    @pytest.mark.parametrize("make", [multi_chunk_objective, huge_row_objective])
    def test_pairs_agree_with_a_per_point_loop(self, monkeypatch, make, count):
        # the probes are drawn in the order they always were and go in
        # pairs, a lone one last; the oracle's raises are the probes excluded
        obj = make()
        rng = make_rng(5)
        scale = 1.0 / (obj.data.tau or np.sqrt(np.max(obj._row_sq)))
        probes = [rng.uniform(-scale, scale, size=obj.dim) for _ in range(count // 2)]
        w = np.zeros(obj.dim)
        for _ in range(count - count // 2):
            w = sgd_step(obj, w, SgdConfig(eta=1.0 / obj.L_max), rng)
            probes.append(w)
        blocks = []
        original = growth.empirical_sgc_ratio

        def recording(obj, W):
            blocks.append(np.array(W))
            return original(obj, W)

        monkeypatch.setattr(growth, "empirical_sgc_ratio", recording)
        est = audit_sgc(obj, count, make_rng(5))
        assert [len(b) for b in blocks] == [2] * (count // 2) + [1] * (count % 2)
        assert np.array_equal(np.vstack(blocks), probes)
        expected = [oracle_or_nan(obj, w) for w in probes]
        used = [r for r in expected if not np.isnan(r)]
        assert est.detail == f"max over {len(used)}/{count} probes"
        assert est.rho == pytest.approx(max(max(used), 1.0), rel=1e-12, abs=0.0)

    def test_a_failing_probe_is_not_excluded(self, monkeypatch):
        # only an undefined ratio excludes a probe: any other ValueError,
        # such as a shape mismatch, is a fault and reaches the caller
        def failing(self, z, rows=slice(None)):
            raise ValueError("operands could not be broadcast together")

        obj = margin_objective(seed=7)
        monkeypatch.setattr(Objective, "_grad_scalars", failing)
        with pytest.raises(ValueError, match="broadcast") as raised:
            audit_sgc(obj, 20, make_rng(0))
        assert not isinstance(raised.value, RatioUndefinedError)


class TestGridSearch:
    def test_single_candidate_returned(self):
        obj = margin_objective(seed=8, n=30, d=6)
        est = grid_search_rho(obj, [3.0], passes=2, seed=0)
        assert est.rho == 3.0
        assert est.route == "grid_search"

    def test_selects_stable_near_optimal_candidate(self):
        # single-example problem: the true relative-growth constant is 1
        obj = QuadraticObjective(np.diag([1.0, 3.0]), np.array([0.5, -0.5]))
        candidates = [0.5, 1.0, 2.0]
        est = grid_search_rho(obj, candidates, passes=40, seed=1)
        assert est.rho in candidates
        finals = {}
        from interpsgd.optimizers import RunConfig, run
        from interpsgd.numerics import child_rng

        for idx, rho in enumerate(candidates):
            seed = int(child_rng(1, idx).integers(0, 2**63 - 1))
            rec = run(obj, "accel", RunConfig(rho=rho, seed=seed), 40)
            if not rec.diverged():
                finals[rho] = rec.final_loss()
        assert finals[est.rho] <= 2.0 * min(finals.values()) + 1e-300

    def test_deterministic_given_seed(self):
        obj = margin_objective(seed=10, n=30, d=6)
        a = grid_search_rho(obj, [1.0, 4.0], passes=2, seed=5)
        b = grid_search_rho(obj, [1.0, 4.0], passes=2, seed=5)
        assert a.rho == b.rho and a.detail == b.detail

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_divergent_candidates_error(self):
        # eta = 1/(rho L) with rho << 1 makes the step size wildly unstable
        X = np.vstack([np.eye(2)] * 3)
        y = np.array([1.0, -1.0] * 3)
        obj = Objective("squared", Dataset(X=X, y=y))
        with pytest.raises(RuntimeError, match="diverged"):
            grid_search_rho(obj, [1e-6], passes=3, seed=0)

    def test_empty_candidates(self):
        obj = margin_objective(seed=11, n=20, d=5)
        with pytest.raises(ValueError):
            grid_search_rho(obj, [], passes=1)


class TestGrowthEstimateInvariants:
    def test_certified_routes_require_rho_at_least_one(self):
        with pytest.raises(ValueError):
            GrowthEstimate(rho=0.5, route="wgc_analytic")

    def test_grid_route_allows_tuned_values_below_one(self):
        est = GrowthEstimate(rho=0.1, route="grid_search")
        assert est.rho == 0.1

    def test_wgc_inequality_holds_on_margin_data(self):
        # E_i ||grad f_i||^2 <= 2 L_max (f - f*) at random points
        obj = margin_objective(seed=12, n=50, d=10, tau=0.15)
        rng = make_rng(13)
        for _ in range(1000):
            w = rng.normal(scale=3.0, size=obj.dim)
            lhs = float(np.mean(obj.per_example_grad_sq_norms(w)))
            rhs = 2.0 * obj.L_max * obj.loss_full(w)
            assert lhs <= rhs * (1 + 1e-9)

    def test_smooth_convex_gradient_upper_bound(self):
        # 2 L (f(w) - f*) >= ||grad f(w)||^2 for smooth convex kinds with a
        # known optimal value
        obj = margin_objective(seed=15, n=60, d=12, tau=0.15)
        rng = make_rng(16)
        for _ in range(500):
            w = rng.normal(scale=2.0, size=obj.dim)
            g = obj.grad_full(w)
            assert float(g @ g) <= 2.0 * obj.L * obj.loss_full(w) * (1 + 1e-9)

    def test_pl_route_to_strong_condition(self):
        # With a PL constant mu, the weak condition implies the strong one
        # with rho_w * L / mu: check both ingredient inequalities directly.
        A = np.diag([0.5, 2.0])
        obj = QuadraticObjective(A, np.array([0.3, -0.3]))
        rng = make_rng(14)
        for _ in range(200):
            w = rng.normal(scale=2.0, size=2)
            g = obj.grad_full(w)
            gap = obj.loss_full(w)
            # smooth convex upper bound and PL lower bound on ||grad||^2
            assert float(g @ g) <= 2.0 * obj.L * gap * (1 + 1e-9)
            assert float(g @ g) >= 2.0 * obj.mu * gap * (1 - 1e-9)
