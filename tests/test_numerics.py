import numpy as np
import pytest

from interpsgd.numerics import (
    PowerIterationError,
    as_matrix,
    as_vector,
    child_rng,
    gaussian_vector,
    make_rng,
    spectral_norm_gram,
)

from interpsgd.data import generate_margin_data

from oracles import (
    jacobi_max_eigenvalue,
    matrix_free_spectral_norm_gram,
    wide_tiny_gap_matrix,
)


class TestSpectralNormGram:
    def test_identity(self):
        assert spectral_norm_gram(np.eye(3)) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal(self):
        # Gram of diag(2, 1) is diag(4, 1)
        assert spectral_norm_gram(np.diag([2.0, 1.0])) == pytest.approx(4.0, rel=1e-9)

    def test_matches_jacobi_oracle_on_seeded_matrix(self):
        X = make_rng(7).normal(size=(5, 3))
        lam = spectral_norm_gram(X, tol=1e-12)
        oracle = jacobi_max_eigenvalue(X.T @ X)
        assert lam == pytest.approx(oracle, rel=1e-8)

    def test_rayleigh_lower_bound(self):
        # lam_max dominates every Rayleigh quotient ||Xv||^2 / ||v||^2
        rng = make_rng(3)
        X = rng.normal(size=(20, 6))
        lam = spectral_norm_gram(X, tol=1e-12)
        for _ in range(100):
            v = rng.normal(size=6)
            q = float(np.sum((X @ v) ** 2) / (v @ v))
            assert lam >= q - 1e-9 * lam

    def test_row_permutation_invariance(self):
        rng = make_rng(11)
        X = rng.normal(size=(30, 4))
        lam = spectral_norm_gram(X, tol=1e-12)
        perm = rng.permutation(30)
        lam_p = spectral_norm_gram(X[perm], tol=1e-12)
        assert lam_p == pytest.approx(lam, rel=1e-9)

    @pytest.mark.parametrize("shape", [(4, 3), (2, 5)])  # d <= n and d > n
    def test_zero_matrix(self, shape):
        assert spectral_norm_gram(np.zeros(shape)) == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(3, 2), (2, 5)])  # d <= n and d > n
    def test_overflowing_gram_raises_instead_of_returning_nan(self, shape):
        X = np.random.default_rng(4).normal(size=shape) * 1e200
        with pytest.raises(PowerIterationError, match="overflows float64"):
            spectral_norm_gram(X)

    @pytest.mark.filterwarnings("error")  # the overflow is handled, not warned about
    @pytest.mark.parametrize("X", [np.diag([1e100, 2e100, 1.0]),
                                   np.array([[1e100, 0.0, 0.0], [0.0, 2e100, 0.0]])])
    def test_overflowing_iterate_norm_falls_back_to_the_smaller_gram(self, X):
        # ||X^T X v||^2 overflows although X^T X (or X X^T) holds 4e200
        assert spectral_norm_gram(X) == pytest.approx(4e200, rel=1e-12)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            spectral_norm_gram(np.eye(2), tol=0.0)

    def test_rejects_nan_tol(self):
        with pytest.raises(ValueError, match="tol"):
            spectral_norm_gram(np.eye(2), tol=float("nan"))

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_max_iter_below_one(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            spectral_norm_gram(np.eye(2), max_iter=max_iter)


class TestGramPhase:
    """After min(n, d) // 2 matrix-free iterations the loop hands the smaller
    Gram matrix to an exact symmetric eigensolver."""

    def test_converging_before_the_switch_is_bit_identical(self):
        X = generate_margin_data(400, 40, 0.4, seed=0).X
        # max_iter = d // 2 leaves no room for a Gram iteration
        lam = spectral_norm_gram(X, max_iter=X.shape[1] // 2)
        assert lam == matrix_free_spectral_norm_gram(X)

    def test_tiny_gap_continues_on_the_gram_matrix(self):
        X = generate_margin_data(2000, 40, 0.005, seed=0).X
        with pytest.raises(RuntimeError, match="did not converge"):
            matrix_free_spectral_norm_gram(X, max_iter=X.shape[1] // 2)
        tol = 1e-10
        lam = spectral_norm_gram(X, tol=tol)
        assert lam == np.linalg.eigvalsh(X.T @ X)[-1]
        assert abs(lam - jacobi_max_eigenvalue(X.T @ X)) <= tol * lam
        assert abs(lam - matrix_free_spectral_norm_gram(X, tol=tol)) <= tol * lam

    def test_gap_too_small_for_the_power_iteration(self):
        # seed 21: the matrix-free loop does not converge in 10,000 iterations
        X = generate_margin_data(2000, 40, 0.005, seed=21).X
        with pytest.raises(RuntimeError, match="did not converge"):
            matrix_free_spectral_norm_gram(X)
        tol = 1e-10
        lam = spectral_norm_gram(X, tol=tol)
        assert abs(lam - jacobi_max_eigenvalue(X.T @ X)) <= tol * lam

    def test_max_iter_below_the_switch_returns_the_eigensolver_value(self):
        X = generate_margin_data(2000, 40, 0.005, seed=0).X
        lam = spectral_norm_gram(X, max_iter=5)  # the switch is at d // 2 = 20
        assert lam == np.linalg.eigvalsh(X.T @ X)[-1]
        assert lam == spectral_norm_gram(X)

    def test_wide_matrix_switches_to_the_row_gram_matrix(self):
        X = generate_margin_data(50, 100, 0.1, seed=0).X
        with pytest.raises(RuntimeError, match="did not converge"):
            matrix_free_spectral_norm_gram(X, max_iter=X.shape[0] // 2)
        tol = 1e-10
        lam = spectral_norm_gram(X, tol=tol)
        assert lam == np.linalg.eigvalsh(X @ X.T)[-1]
        assert abs(lam - matrix_free_spectral_norm_gram(X, tol=tol)) <= tol * lam

    def test_wide_tiny_gap_matrix(self):
        X = wide_tiny_gap_matrix()
        with pytest.raises(RuntimeError, match="did not converge"):
            matrix_free_spectral_norm_gram(X)
        tol = 1e-10
        lam = spectral_norm_gram(X, tol=tol)
        assert abs(lam - jacobi_max_eigenvalue(X @ X.T)) <= tol * lam


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).normal(size=100)
        b = make_rng(42).normal(size=100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).normal(size=10)
        b = make_rng(2).normal(size=10)
        assert not np.array_equal(a, b)

    def test_child_streams_deterministic_and_distinct(self):
        a = child_rng(5, 0).normal(size=8)
        b = child_rng(5, 0).normal(size=8)
        c = child_rng(5, 1).normal(size=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_child_rejects_negative_index(self):
        with pytest.raises(ValueError):
            child_rng(0, -1)


class TestGaussianVector:
    def test_zero_std_gives_zero_vector(self):
        v = gaussian_vector(make_rng(0), 4, 0.0)
        assert np.array_equal(v, np.zeros(4))

    def test_moments_match_law_of_large_numbers(self):
        v = gaussian_vector(make_rng(9), 100_000, 1.0)
        assert abs(float(np.mean(v))) < 0.02
        assert abs(float(np.var(v)) - 1.0) < 0.02

    def test_deterministic_per_seed(self):
        a = gaussian_vector(make_rng(13), 50, 0.7)
        b = gaussian_vector(make_rng(13), 50, 0.7)
        assert np.array_equal(a, b)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gaussian_vector(make_rng(0), 0, 1.0)
        with pytest.raises(ValueError):
            gaussian_vector(make_rng(0), 3, -0.1)


class TestCoercions:
    def test_as_vector_checks_dim_and_finiteness(self):
        assert as_vector([1.0, 2.0], dim=2).dtype == np.float64
        with pytest.raises(ValueError):
            as_vector([1.0, 2.0], dim=3)
        with pytest.raises(ValueError):
            as_vector([1.0, np.nan])
        with pytest.raises(ValueError):
            as_vector([[1.0, 2.0]])

    def test_as_matrix_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            as_matrix([[np.inf, 1.0]])
