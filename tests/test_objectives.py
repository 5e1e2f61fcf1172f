import numpy as np
import pytest

from interpsgd.data import generate_margin_data
from interpsgd.numerics import make_rng
from interpsgd.objectives import Dataset, Objective, smoothness_constants

from oracles import central_diff_grad, jacobi_max_eigenvalue


def toy_dataset():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y = np.array([1.0, -1.0, 1.0])
    return Dataset(X=X, y=y)


class TestDataset:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(X=np.eye(2), y=np.array([1.0, 0.5]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Dataset(X=np.eye(3), y=np.array([1.0, -1.0]))

    def test_arrays_frozen(self):
        data = toy_dataset()
        with pytest.raises(ValueError):
            data.X[0, 0] = 5.0

    def test_support_size_bounds_distinct_rows(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, -1.0, 1.0])
        assert Dataset(X=X, y=y, support_size=2).support_size == 2
        with pytest.raises(ValueError, match="distinct rows"):
            Dataset(X=X, y=y, support_size=1)

    def test_support_size_check_runs_only_where_it_can_fail(self, monkeypatch):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        y = np.array([1.0, -1.0, 1.0])
        calls = []
        real_unique = np.unique
        monkeypatch.setattr(
            np, "unique", lambda *a, **k: calls.append(1) or real_unique(*a, **k)
        )
        for bound in (3, 4):  # at least n: no row count can exceed it
            assert Dataset(X=X, y=y, support_size=bound).support_size == bound
        assert calls == []
        with pytest.raises(ValueError, match="3 distinct rows exceed support_size 2"):
            Dataset(X=X, y=y, support_size=2)
        assert calls == [1]

    def test_rejects_a_margin_that_is_not_positive(self):
        for tau in (0.0, -0.5):
            with pytest.raises(ValueError, match="margin tau must be positive"):
                Dataset(X=np.eye(2), y=np.array([1.0, -1.0]), tau=tau)

    def test_rejects_a_violated_margin_certificate(self):
        # y_i x_i . w_star >= 1 must hold on every row, to 1e-9
        X, y = np.eye(2), np.array([1.0, -1.0])
        for low in (1.0, 1.0 - 5e-10):
            assert Dataset(X=X, y=y, tau=0.5, w_star=np.array([2.0, -low])).tau == 0.5
        with pytest.raises(ValueError, match="min y_i x_i\\^T w_star = 0.999999998$"):
            Dataset(X=X, y=y, tau=0.5, w_star=np.array([2.0, -(1.0 - 2e-9)]))


class TestLossFull:
    def test_squared_hinge_zero_when_margins_satisfied(self):
        data = toy_dataset()
        obj = Objective("squared_hinge", data)
        w = np.array([5.0, -2.0])  # margins: 5, 2, 3, all >= 1
        assert obj.loss_full(w) == 0.0

    def test_squared_loss_at_zero_is_half(self):
        # mean of 0.5 * y_i^2 with y in {-1, +1}
        data = toy_dataset()
        obj = Objective("squared", data)
        assert obj.loss_full(np.zeros(2)) == pytest.approx(0.5, abs=1e-15)

    def test_squared_hinge_matches_per_point_sum(self):
        data = toy_dataset()
        obj = Objective("squared_hinge", data)
        w = np.array([0.5, -0.5])
        # margins: 0.5, 0.5, 0 -> losses 0.25, 0.25, 1.0
        assert obj.loss_full(w) == pytest.approx((0.25 + 0.25 + 1.0) / 3, abs=1e-15)

    def test_all_kinds_nonnegative(self):
        data = toy_dataset()
        rng = make_rng(1)
        for kind in ("squared", "squared_hinge", "hinge", "logistic"):
            obj = Objective(kind, data)
            for _ in range(20):
                assert obj.loss_full(rng.normal(size=2)) >= 0.0

    def test_dimension_mismatch(self):
        obj = Objective("squared", toy_dataset())
        with pytest.raises(ValueError):
            obj.loss_full(np.zeros(3))


class TestGradExample:
    def test_zero_at_interpolating_point(self):
        data = generate_margin_data(50, 8, 0.2, seed=1)
        obj = Objective("squared_hinge", data)
        for i in range(data.n):
            assert np.array_equal(obj.grad_example(data.w_star, i), np.zeros(8))

    @pytest.mark.parametrize("kind", ["squared", "squared_hinge", "hinge", "logistic"])
    def test_matches_central_finite_differences(self, kind):
        data = generate_margin_data(30, 6, 0.15, seed=2)
        obj = Objective(kind, data)
        rng = make_rng(5)
        h = 1e-5
        checked = 0
        while checked < 25:
            w = rng.normal(size=6)
            i = int(rng.integers(0, data.n))
            margin = data.y[i] * float(data.X[i] @ w)
            if kind in ("squared_hinge", "hinge") and abs(1.0 - margin) < 1e-3:
                continue  # keep clear of the kink
            analytic = obj.grad_example(w, i)
            numeric = central_diff_grad(lambda v: obj.loss_example(v, i), w, h=h)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale
            checked += 1

    def test_hinge_subgradient_active_piece(self):
        data = toy_dataset()
        obj = Objective("hinge", data)
        w = np.zeros(2)  # margins all 0 < 1: active everywhere
        for i in range(3):
            expected = -data.y[i] * data.X[i]
            assert np.array_equal(obj.grad_example(w, i), expected)

    def test_hinge_zero_side_at_kink(self):
        # margin exactly 1: the documented subgradient choice is 0
        X = np.array([[1.0, 0.0]])
        data = Dataset(X=X, y=np.array([1.0]))
        obj = Objective("hinge", data)
        assert np.array_equal(obj.grad_example(np.array([1.0, 0.0]), 0), np.zeros(2))

    def test_index_out_of_range(self):
        obj = Objective("squared", toy_dataset())
        with pytest.raises(IndexError):
            obj.grad_example(np.zeros(2), 3)


class TestGradFull:
    def test_zero_at_interpolating_point(self):
        data = generate_margin_data(40, 5, 0.2, seed=3)
        obj = Objective("squared_hinge", data)
        assert np.array_equal(obj.grad_full(data.w_star), np.zeros(5))

    @pytest.mark.parametrize("kind", ["squared", "squared_hinge", "hinge", "logistic"])
    def test_equals_mean_of_per_example_gradients(self, kind):
        data = generate_margin_data(30, 6, 0.15, seed=4)
        obj = Objective(kind, data)
        rng = make_rng(6)
        for _ in range(10):
            w = rng.normal(size=6)
            mean_grad = np.mean(
                [obj.grad_example(w, i) for i in range(data.n)], axis=0
            )
            full = obj.grad_full(w)
            scale = max(1.0, float(np.max(np.abs(full))))
            assert np.max(np.abs(full - mean_grad)) <= 1e-12 * scale

    def test_feature_scaling_chain_rule(self):
        # Doubling features doubles predictions: grad of squared loss at w
        # becomes 2 * X^T (2 X w - y) / n, recomputed analytically.
        X = np.array([[1.0, 2.0], [3.0, -1.0]])
        y = np.array([1.0, -1.0])
        w = np.array([0.3, -0.7])
        obj1 = Objective("squared", Dataset(X=X, y=y))
        obj2 = Objective("squared", Dataset(X=2.0 * X, y=y))
        expected = (2.0 * X).T @ ((2.0 * X) @ w - y) / 2
        assert np.allclose(obj2.grad_full(w), expected, rtol=1e-12)
        assert not np.allclose(obj1.grad_full(w), obj2.grad_full(w))


class TestScalarAndVectorForms:
    """Each kind's per-example forms, which the pass kernels use, against
    its vector forms, which the metrics rows use."""

    @staticmethod
    def objective_and_predictions(kind, n=20000, seed=0):
        rng = np.random.default_rng(seed)
        y = rng.choice([-1.0, 1.0], size=n)
        margins = rng.normal(0.0, 4.0, size=n)
        margins[::10] = 1.0  # exactly at the hinge kink
        margins[1::10] = 0.0
        margins[2::10] = rng.normal(0.0, 100.0, size=len(margins[2::10]))
        obj = Objective(kind, Dataset(X=np.ones((n, 1)), y=y))
        return obj, y * margins

    @pytest.mark.parametrize("kind", ["squared", "squared_hinge", "hinge", "logistic"])
    def test_losses_equal(self, kind):
        obj, z = self.objective_and_predictions(kind)
        scalar = [obj._loss_scalar(zi, yi) for zi, yi in zip(z.tolist(), obj.data.y.tolist())]
        assert np.array_equal(obj._losses(z), scalar)

    @pytest.mark.parametrize("kind", ["squared", "squared_hinge", "hinge"])
    def test_gradient_scalars_equal(self, kind):
        obj, z = self.objective_and_predictions(kind)
        scalar = [obj._grad_scalar(zi, yi) for zi, yi in zip(z.tolist(), obj.data.y.tolist())]
        assert np.array_equal(obj._grad_scalars(z), scalar)

    def test_logistic_gradient_scalars_within_two_ulps(self):
        # math.exp and np.exp may round differently; unifying the two forms
        # would change the bytes of logistic runs
        obj, z = self.objective_and_predictions("logistic")
        scalar = np.array(
            [obj._grad_scalar(zi, yi) for zi, yi in zip(z.tolist(), obj.data.y.tolist())]
        )
        vector = obj._grad_scalars(z)
        assert np.array_equal(np.sign(vector), np.sign(scalar))
        ulps = np.abs(vector - scalar) / np.spacing(np.maximum(np.abs(vector), np.abs(scalar)))
        assert ulps.max() <= 2.0


class TestSmoothnessConstants:
    def test_unit_rows_squared(self):
        data = generate_margin_data(40, 6, 0.2, seed=5)
        _, L_max = smoothness_constants("squared", data)
        assert L_max == pytest.approx(1.0, rel=1e-12)

    def test_unit_rows_squared_hinge(self):
        data = generate_margin_data(40, 6, 0.2, seed=5)
        _, L_max = smoothness_constants("squared_hinge", data)
        assert L_max == pytest.approx(2.0, rel=1e-12)

    def test_toy_matrix_matches_eigensolver_oracle(self):
        X = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.0], [-1.0, 1.5]])
        data = Dataset(X=X, y=np.array([1.0, -1.0, 1.0, -1.0]))
        lam = jacobi_max_eigenvalue(X.T @ X)
        for kind, kappa in (("squared", 1.0), ("squared_hinge", 2.0), ("logistic", 0.25)):
            L, L_max = smoothness_constants(kind, data)
            assert L == pytest.approx(kappa * lam / 4, rel=1e-8)
            row_max = max(float(r @ r) for r in X)
            assert L_max == pytest.approx(kappa * row_max, rel=1e-12)

    def test_hinge_unsupported(self):
        with pytest.raises(ValueError):
            smoothness_constants("hinge", toy_dataset())

    def test_L_never_exceeds_L_max(self):
        for seed in range(5):
            data = generate_margin_data(30, 10, 0.1, seed=seed)
            for kind in ("squared", "squared_hinge", "logistic"):
                L, L_max = smoothness_constants(kind, data)
                assert L <= L_max * (1 + 1e-12)


class TestObjectiveProperties:
    def test_interpolation_certificate_sets_f_star(self):
        data = generate_margin_data(30, 5, 0.2, seed=6)
        assert Objective("squared_hinge", data).f_star == 0.0
        assert Objective("hinge", data).f_star == 0.0
        # squared loss does not interpolate margin data
        assert Objective("squared", data).f_star is None

    def test_descent_lemma_consistency(self):
        data = generate_margin_data(100, 10, 0.1, seed=7)
        rng = make_rng(8)
        for kind in ("squared", "squared_hinge", "logistic"):
            obj = Objective(kind, data)
            for _ in range(1000):
                w = rng.normal(scale=2.0, size=10)
                v = rng.normal(scale=2.0, size=10)
                lhs = obj.loss_full(v)
                diff = v - w
                rhs = (
                    obj.loss_full(w)
                    + float(obj.grad_full(w) @ diff)
                    + 0.5 * obj.L * float(diff @ diff)
                )
                assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))

    def test_per_example_smoothness(self):
        data = generate_margin_data(50, 8, 0.15, seed=9)
        rng = make_rng(10)
        for kind in ("squared", "squared_hinge", "logistic"):
            obj = Objective(kind, data)
            for _ in range(200):
                w = rng.normal(scale=2.0, size=8)
                v = rng.normal(scale=2.0, size=8)
                i = int(rng.integers(0, data.n))
                dg = obj.grad_example(w, i) - obj.grad_example(v, i)
                assert np.linalg.norm(dg) <= obj.L_max * np.linalg.norm(w - v) * (
                    1 + 1e-9
                )

    def test_per_example_grad_sq_norms_match_direct(self):
        data = generate_margin_data(20, 4, 0.2, seed=11)
        obj = Objective("squared_hinge", data)
        w = make_rng(12).normal(size=4)
        direct = np.array(
            [float(obj.grad_example(w, i) @ obj.grad_example(w, i)) for i in range(20)]
        )
        assert np.allclose(obj.per_example_grad_sq_norms(w), direct, rtol=1e-12)

    def test_mistake_rate_counts_nonpositive_margins(self):
        data = toy_dataset()
        obj = Objective("squared_hinge", data)
        assert obj.mistake_rate(np.zeros(2)) == 1.0  # all margins exactly 0
        assert obj.mistake_rate(np.array([5.0, -2.0])) == 0.0
