import math

import numpy as np
import pytest

from interpsgd import data as data_module
from interpsgd.data import (
    LibsvmFormatError,
    RbfConfig,
    default_rbf_config,
    generate_margin_data,
    load_libsvm,
    normalize_rows,
    rbf_features,
    save_libsvm,
    subsample,
)
from interpsgd.numerics import make_rng
from interpsgd.objectives import Dataset, Objective

import oracles


class TestGenerateMarginData:
    def test_margin_certificate_exact(self):
        data = generate_margin_data(100, 12, 0.15, seed=0)
        margins = data.y * (data.X @ data.w_star)
        assert float(np.min(margins)) >= 1.0
        # scaled-separator form of the same certificate
        assert float(np.min(data.y * (data.X @ (data.tau * data.w_star)))) >= data.tau

    def test_rows_unit_norm_and_separator_scaled(self):
        data = generate_margin_data(80, 10, 0.2, seed=1)
        norms = np.linalg.norm(data.X, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        assert np.linalg.norm(data.w_star) == pytest.approx(1.0 / 0.2, rel=1e-12)
        assert data.support_size == 80

    def test_interpolation_of_squared_hinge(self):
        data = generate_margin_data(60, 8, 0.1, seed=2)
        obj = Objective("squared_hinge", data)
        assert obj.loss_full(data.w_star) == 0.0
        for i in range(data.n):
            assert np.array_equal(obj.grad_example(data.w_star, i), np.zeros(8))

    @pytest.mark.parametrize("tau", [0.1, 0.05, 0.01, 0.005])
    def test_reference_sizes_generate(self, tau):
        data = generate_margin_data(8000, 100, tau, seed=3)
        assert data.n == 8000 and data.dim == 100
        assert float(np.min(data.y * (data.X @ data.w_star))) >= 1.0

    def test_deterministic_per_seed(self):
        a = generate_margin_data(50, 6, 0.2, seed=9)
        b = generate_margin_data(50, 6, 0.2, seed=9)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_infeasible_margin_errors(self):
        # tau = 0.9 in dimension 100 leaves essentially no sphere mass
        with pytest.raises(RuntimeError, match="tau"):
            generate_margin_data(10, 100, 0.9, seed=0)

    def test_balance_flag(self):
        data = generate_margin_data(400, 10, 0.1, seed=4, balance=True)
        assert abs(float(np.sum(data.y))) < 0.05 * 400

    def test_unreachable_balance_raises_before_drawing(self, monkeypatch):
        # odd n <= 19: every label sum has |sum| >= 1 >= 0.05 n
        calls = []
        monkeypatch.setattr(data_module, "_unit_sphere", lambda *args: calls.append(args))
        for n in (3, 15, 19):
            with pytest.raises(ValueError, match="class-balanced"):
                generate_margin_data(n, 4, 0.2, seed=0, balance=True)
        assert calls == []
        monkeypatch.undo()
        data = generate_margin_data(21, 4, 0.2, seed=0, balance=True)
        assert abs(float(np.sum(data.y))) < 0.05 * 21

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            generate_margin_data(1, 5, 0.1)
        with pytest.raises(ValueError):
            generate_margin_data(10, 1, 0.1)
        with pytest.raises(ValueError):
            generate_margin_data(10, 5, 1.5)


class TestRbfFeatures:
    def test_row_equal_to_center_maps_to_one(self):
        centers = np.array([[1.0, 0.0], [0.0, 2.0]])
        cfg = RbfConfig(centers=centers, bandwidth=1.0)
        feats = rbf_features(np.array([[1.0, 0.0]]), cfg)
        assert feats[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_large_bandwidth_limit(self):
        rng = make_rng(5)
        X = rng.normal(size=(10, 3))
        cfg = RbfConfig(centers=X[:4], bandwidth=1e6)
        feats = rbf_features(X, cfg)
        assert np.max(np.abs(feats - 1.0)) <= 1e-6

    def test_two_point_hand_computation(self):
        centers = np.array([[1.0, 0.0], [0.0, 2.0]])
        cfg = RbfConfig(centers=centers, bandwidth=1.0)
        feats = rbf_features(np.array([[0.0, 0.0]]), cfg)
        assert feats[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert feats[0, 1] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_values_in_unit_interval_and_shape(self):
        rng = make_rng(6)
        X = rng.normal(size=(30, 4))
        cfg = default_rbf_config(X, make_rng(7), m=8)
        feats = rbf_features(X, cfg)
        assert feats.shape == (30, 8)
        assert np.all(feats > 0.0) and np.all(feats <= 1.0)

    def test_median_heuristic_bandwidth(self):
        rng = make_rng(8)
        X = rng.normal(size=(20, 3))
        cfg = default_rbf_config(X, make_rng(9), m=6)
        diffs = cfg.centers[:, None, :] - cfg.centers[None, :, :]
        dists = np.sqrt((diffs**2).sum(-1))
        expected = float(np.median(dists[np.triu_indices(6, k=1)]))
        assert cfg.bandwidth == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            RbfConfig(centers=np.eye(2), bandwidth=0.0)


class TestLibsvm:
    def test_two_line_toy_file(self, tmp_path):
        path = tmp_path / "toy.txt"
        path.write_text("+1 1:0.5 3:-2.0\n-1 2:1.25\n", encoding="utf-8")
        data = load_libsvm(path)
        assert data.n == 2 and data.dim == 3
        assert np.allclose(data.X, [[0.5, 0.0, -2.0], [0.0, 1.25, 0.0]])
        assert np.array_equal(data.y, [1.0, -1.0])

    def test_label_mapping_by_sorted_order(self, tmp_path):
        path = tmp_path / "labels12.txt"
        path.write_text("2 1:1.0\n1 1:2.0\n2 2:0.5\n", encoding="utf-8")
        data = load_libsvm(path)
        assert np.array_equal(data.y, [1.0, -1.0, 1.0])

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "comments.txt"
        path.write_text(
            "# header comment\n\n+1 1:1.0\n# mid comment\n-1 1:-1.0\n",
            encoding="utf-8",
        )
        assert load_libsvm(path).n == 2

    def test_round_trip(self, tmp_path):
        data = generate_margin_data(25, 6, 0.2, seed=10)
        path = tmp_path / "round.txt"
        save_libsvm(data, path)
        back = load_libsvm(path)
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.y, data.y)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("+1 1:1.0\n-1 nonsense\n", encoding="utf-8")
        with pytest.raises(LibsvmFormatError, match="line 2"):
            load_libsvm(path)

    def test_unmappable_labels_listed(self, tmp_path):
        path = tmp_path / "multi.txt"
        path.write_text("1 1:1.0\n2 1:1.0\n3 1:1.0\n", encoding="utf-8")
        with pytest.raises(LibsvmFormatError, match=r"\[1.0, 2.0, 3.0\]"):
            load_libsvm(path)


def _edge_values_dataset() -> Dataset:
    """Exact zeros, -0.0, subnormals, exponent-form reprs and a row of
    zeros only, which is written as a label-only line."""
    X = make_rng(17).normal(size=(12, 9))
    X[::3, 2] = 0.0
    X[1, :4] = [-0.0, 5e-324, -2.2250738585072014e-308, 1e-05]
    X[2, 5:] = [1e16, -1.5e-07, 123456789.0, 0.1]
    X[4] = 0.0
    X[7, ::2] = -0.0
    y = np.where(np.arange(12) % 3 == 0, -1.0, 1.0)
    return Dataset(X=X, y=y)


def _outcome(load, path):
    """What a loader gives: the arrays, or the exception's type and text."""
    try:
        data = load(path)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return data.X, data.y


def _assert_same_outcome(path):
    got = _outcome(load_libsvm, path)
    want = _outcome(oracles.load_libsvm, path)
    if isinstance(want[0], np.ndarray):
        assert isinstance(got[0], np.ndarray), got
        assert got[0].shape == want[0].shape
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # -0.0 stays -0.0: compare the bits, not just the values
        assert got[0].tobytes() == want[0].tobytes()
    else:
        assert got == want


class TestIngestMatchesOracles:
    """The streaming LIBSVM reader/writer and the in-place RBF map give the
    same bytes, arrays and errors as the per-element versions in oracles."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: generate_margin_data(40, 7, 0.2, seed=0),
            lambda: generate_margin_data(300, 54, 0.1, seed=5),
            _edge_values_dataset,
        ],
        ids=["margin", "margin_wide", "edge_values"],
    )
    def test_save_bytes_and_parsed_arrays(self, tmp_path, make):
        data = make()
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        save_libsvm(data, new)
        oracles.save_libsvm(data, old)
        assert new.read_bytes() == old.read_bytes()
        _assert_same_outcome(new)
        assert np.array_equal(load_libsvm(new).X, data.X)

    def test_label_only_line_is_a_zero_row(self, tmp_path):
        path = tmp_path / "edge.txt"
        save_libsvm(_edge_values_dataset(), path)
        assert path.read_text(encoding="utf-8").splitlines()[4] == "+1"
        assert not np.any(load_libsvm(path).X[4])

    @pytest.mark.parametrize(
        "text",
        [
            "# header\n\n+1 1:0.5 3:-2.0\n  # indented comment\n-1 2:1.25\n\n",
            "+1 1:0.5 3:-2.0\r\n-1 2:1.25\r\n",
            "+1\t1:0.5  3:-2.0   \n  -1 2:1.25\t\n",
            "+1 3:-2.0 1:0.5\n-1 2:1.25 2:-4.0\n",
            "2 1:1e-05 2:-0.0\n1 1:5e-324 2:1E+3\n",
            "1.0 1:1_0 2:.5\n-1.0 01:+2 2:-inf\n",
            "+1 1:nan\n-1 1:1\n",
            "+1\n-1\n",
            "+1 1:1\n-1 99999999999999999999:1\n",
            "# nothing but comments\n\n",
            "+1 1:1\n0 1:2\n-1 1:3\n",
            "+1 1:1\n+1 2:2\n",
        ],
        ids=[
            "comments_and_blanks", "crlf", "tabs_and_runs_of_spaces",
            "unordered_and_repeated", "exponents_and_signed_zero",
            "python_numeric_forms", "nan", "label_only",
            "index_beyond_int64", "no_examples", "three_labels", "one_label",
        ],
    )
    def test_text_inputs(self, tmp_path, text):
        path = tmp_path / "in.txt"
        path.write_bytes(text.encode("utf-8"))
        _assert_same_outcome(path)

    def test_repeated_index_keeps_the_last_value(self, tmp_path):
        path = tmp_path / "repeat.txt"
        path.write_text("+1 2:1.0 1:7.0 2:3.0\n-1 1:1.0\n", encoding="utf-8")
        data = load_libsvm(path)
        assert np.array_equal(data.X, [[7.0, 3.0], [1.0, 0.0]])
        _assert_same_outcome(path)

    @pytest.mark.parametrize(
        "line",
        [
            "-1 2:0.5 1:2:3",
            "-1 2:0.5 4",
            "-1 2:0.5 1:",
            "-1 2:0.5 :1",
            "-1 2:0.5 0:1.0",
            "-1 2:0.5 a:1",
            "-1 2:0.5 1:x",
            "x 1:1.0",
            "-1 2:0.5 -99999999999999999999:1",
            "-1 1:x 0:1",
            "-1 0:1 1:x",
            "-1:1 1:1",
            "-1 2:0.5 1:2:3 4",
            "-1 2:0.5 1: :2",
            ":#x 1:1",
        ],
    )
    def test_malformed_line_raises_the_oracle_error(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"+1 1:1.0\n{line}\n-1 3:oops\n", encoding="utf-8")
        with pytest.raises(LibsvmFormatError, match="^line 2: ") as err:
            load_libsvm(path)
        with pytest.raises(LibsvmFormatError) as want:
            oracles.load_libsvm(path)
        assert str(err.value) == str(want.value)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rbf_features_equal(self, seed):
        X = make_rng(seed).normal(size=(400, 12))
        cfg = default_rbf_config(X, make_rng(seed + 100), m=50)
        assert np.array_equal(rbf_features(X, cfg), oracles.rbf_features(X, cfg))
        # a row equal to a center maps to exactly 1 in both
        Z = np.vstack([cfg.centers[:3], X[:5] * 1e3])
        assert np.array_equal(rbf_features(Z, cfg), oracles.rbf_features(Z, cfg))


class TestSubsample:
    def test_full_size_is_permutation(self):
        data = generate_margin_data(30, 5, 0.2, seed=11)
        sub = subsample(data, 30, seed=1)
        assert sorted(map(tuple, sub.X)) == sorted(map(tuple, data.X))

    def test_deterministic(self):
        data = generate_margin_data(30, 5, 0.2, seed=12)
        a = subsample(data, 10, seed=2)
        b = subsample(data, 10, seed=2)
        assert np.array_equal(a.X, b.X)

    def test_margin_preserved(self):
        data = generate_margin_data(50, 8, 0.15, seed=13)
        sub = subsample(data, 20, seed=3)
        assert sub.tau == data.tau
        assert float(np.min(sub.y * (sub.X @ sub.w_star))) >= 1.0
        assert sub.support_size == 20

    def test_oversample_rejected(self):
        data = generate_margin_data(10, 4, 0.2, seed=14)
        with pytest.raises(ValueError):
            subsample(data, 11, seed=0)


class TestNormalizeRows:
    def test_already_unit_rows_unchanged_with_certificate(self):
        data = generate_margin_data(20, 5, 0.2, seed=15)
        out = normalize_rows(data)
        assert out is data  # certificate kept

    def test_three_four_five(self):
        data = Dataset(X=np.array([[3.0, 4.0]]), y=np.array([1.0]))
        out = normalize_rows(data)
        assert np.allclose(out.X, [[0.6, 0.8]], rtol=1e-15)

    def test_all_rows_unit_after(self):
        rng = make_rng(16)
        X = rng.normal(size=(15, 4)) * 3.0
        data = Dataset(X=X, y=np.where(rng.normal(size=15) > 0, 1.0, -1.0))
        out = normalize_rows(data)
        assert np.max(np.abs(np.linalg.norm(out.X, axis=1) - 1.0)) <= 1e-12
        assert out.tau is None  # certificate dropped

    def test_zero_row_reports_index(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        data = Dataset(X=X, y=np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="index 1"):
            normalize_rows(data)
