import math
import os
import re
import time
import tracemalloc

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

    def test_infeasible_margin_errors(self, monkeypatch):
        # tau = 0.9 in dimension 100 keeps a share 1.8e-37 of the sphere,
        # far over the draw budget: refused before any draw
        draws = []
        monkeypatch.setattr(data_module, "_unit_sphere", lambda *args: draws.append(args))
        message = (
            "tau = 0.9 keeps a share 1.76e-37 of the unit sphere in d = 100: n = 10 rows "
            "would take about 5.67e+39 normal draws, more than the budget of 1e+09"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_margin_data(10, 100, 0.9, seed=0)
        assert draws == []

    def test_band_within_the_budget_draws_past_any_run_of_rejections(self, monkeypatch):
        # a band the budget admits is drawn however long its runs of
        # rejected rows: a sampler that rejects the first 1,000,192 rows
        # (3907 batches of 256) and then keeps every row
        direction = np.array([1.0, 0.0])
        batches = []

        def sampler(rng, count, d):
            if count == 1:
                return direction[None, :].copy()
            batches.append(count)
            kept = sum(batches[:-1]) > 1_000_000
            rows = np.zeros((count, d))
            rows[:, 0 if kept else 1] = 1.0
            rows[1::2, 0] *= -1.0
            return rows

        monkeypatch.setattr(data_module, "_unit_sphere", sampler)
        data = generate_margin_data(4, 2, 0.5, seed=0)
        assert sum(batches[:-1]) == 3907 * 256 and len(batches) == 3908
        assert np.array_equal(data.X, [[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        assert np.array_equal(data.y, [1.0, -1.0, 1.0, -1.0])

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

    @pytest.mark.parametrize("d,tau", [(2, 0.5), (3, 0.3), (5, 0.6), (20, 0.2), (100, 0.1)])
    def test_band_acceptance_matches_the_kept_share(self, d, tau):
        # the share of unit-sphere draws that the band keeps, over 2e5 draws
        # of the generator's own sampler: within 5 standard errors; d = 2
        # and d = 3 have the closed forms 1 - (2/pi) asin(tau) and 1 - tau
        share = data_module._band_acceptance(d, tau)
        pts = data_module._unit_sphere(make_rng(d), 200_000, d)
        kept = float(np.mean(np.abs(pts[:, 0]) >= tau))
        assert abs(kept - share) <= 5.0 * math.sqrt(share * (1.0 - share) / len(pts))
        exact = {2: 1.0 - 2.0 / math.pi * math.asin(tau), 3: 1.0 - tau}.get(d)
        if exact is not None:
            assert share == pytest.approx(exact, rel=1e-12)

    def test_band_acceptance_far_in_the_tails(self):
        # far below what sampling can see: the 3000 x 1500 band of the
        # refused run, a normal tail at large d (t sqrt(d) is standard
        # normal), and a margin whose square underflows
        assert data_module._band_acceptance(1500, 0.1) == pytest.approx(1.0412e-4, rel=1e-4)
        assert data_module._band_acceptance(10**6, 1e-3) == pytest.approx(
            math.erfc(1.0 / math.sqrt(2.0)), rel=1e-5)
        assert data_module._band_acceptance(10**6, 0.1) == 0.0
        assert data_module._band_acceptance(100, 1e-200) == 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            generate_margin_data(1, 5, 0.1)
        with pytest.raises(ValueError):
            generate_margin_data(10, 1, 0.1)
        with pytest.raises(ValueError):
            generate_margin_data(10, 5, 1.5)


def _margin_outcome(generate, *args, **kwargs):
    """The bytes of X, y and w_star, or the type and message raised."""
    try:
        data = generate(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return data.X.shape, data.X.tobytes(), data.y.tobytes(), data.w_star.tobytes()


class TestMarginDataMatchesOracle:
    @pytest.mark.parametrize(
        "n, d, tau",
        [(8000, 100, 0.1), (8000, 100, 0.05), (8000, 100, 0.01), (8000, 100, 0.005),
         (20000, 54, 0.1)],
    )
    def test_reference_sizes(self, n, d, tau):
        assert _margin_outcome(generate_margin_data, n, d, tau, seed=0) == _margin_outcome(
            oracles.generate_margin_data, n, d, tau, seed=0
        )

    @pytest.mark.parametrize("n, d, tau", [(300, 5, 0.3), (50, 3, 0.01), (5000, 2, 0.5)])
    def test_small_shapes_every_seed_and_balance(self, n, d, tau):
        for seed in range(10):
            for balance in (False, True):
                got = _margin_outcome(generate_margin_data, n, d, tau, seed=seed, balance=balance)
                want = _margin_outcome(
                    oracles.generate_margin_data, n, d, tau, seed=seed, balance=balance
                )
                assert got == want, (seed, balance)

    def test_raised_errors(self):
        # the oracle has no draw budget, so the refused band is checked
        # against the generator's own refusal
        for args in [(15, 4, 0.2), (1, 5, 0.1), (10, 5, 1.5)]:
            got = _margin_outcome(generate_margin_data, *args, seed=0, balance=True)
            assert isinstance(got[0], type) and got == _margin_outcome(
                oracles.generate_margin_data, *args, seed=0, balance=True
            )
        got = _margin_outcome(generate_margin_data, 10, 100, 0.9, seed=0, balance=True)
        assert got[0] is ValueError and "budget" in got[1]

    def test_peak_memory_is_the_output_plus_one_batch(self):
        n, d = 8000, 100
        generate_margin_data(n, d, 0.1, seed=1)  # warm-up: imports and caches
        tracemalloc.start()
        try:
            generate_margin_data(n, d, 0.1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * d * 8, peak / (n * d * 8)


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


def _dense_rows_around_zero_rows() -> Dataset:
    """Dense rows, one holding 1e16 and one 5e-324, next to a row of
    zeros and a row of -0.0 (both written as label-only lines)."""
    X = make_rng(18).normal(size=(7, 5))
    X[1, 2] = 1e16
    X[2] = 0.0
    X[3] = -0.0
    X[4, 0] = 5e-324
    X[5, 4] = -5e-324
    y = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
    return Dataset(X=X, y=y)


def _single_column() -> Dataset:
    X = make_rng(19).normal(size=(6, 1))
    X[2] = 0.0
    X[4] = -0.0
    return Dataset(X=X, y=np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0]))


SAVED_DATASETS = [
    lambda: generate_margin_data(40, 7, 0.2, seed=0),
    lambda: generate_margin_data(300, 54, 0.1, seed=5),
    _edge_values_dataset,
    _dense_rows_around_zero_rows,
    _single_column,
]
SAVED_IDS = ["margin", "margin_wide", "edge_values", "dense_around_zero_rows", "single_column"]


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
    """The streaming LIBSVM reader/writer, the in-place RBF map and the
    row-by-row bandwidth give the same bytes, arrays, errors and bits as the
    per-element versions in oracles."""

    @pytest.mark.parametrize("make", SAVED_DATASETS, ids=SAVED_IDS)
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
            "+1 1:0.5 3:-2.0\n-1 1:1.25 3:4.0\n+1 1:2 3:1e-3\n",
            "+1 3:-2.0 1:0.5 2:7\n-1 3:4.0 1:1.25 2:8\n+1 3:1 1:2 2:9\n",
            "+1 1:5 2:6\n+1:1 5 2:6\n-1 1:1\n",
            "+1 1:1 2:2 3:3\n-1 2:5\n+1 1:1 2:2 3:3\n+1 1:4 2:5 3:6\n-1\n+1 3:7 1:8\n",
            "+1 2:1 1:7 2:3\n-1 2:4 1:5 2:6\n+1 1:1\n-1 2:2 2:9\n+1 2:1 1:7 2:3\n",
        ],
        ids=[
            "comments_and_blanks", "crlf", "tabs_and_runs_of_spaces",
            "unordered_and_repeated", "exponents_and_signed_zero",
            "python_numeric_forms", "nan", "label_only",
            "index_beyond_int64", "no_examples", "three_labels", "one_label",
            "shared_non_contiguous", "shared_reordered",
            "swapped_separators_after_same_indices", "dense_and_sparse_rows",
            "repeated_indices_in_runs_and_lone_rows",
        ],
    )
    def test_text_inputs(self, tmp_path, text):
        path = tmp_path / "in.txt"
        path.write_bytes(text.encode("utf-8"))
        _assert_same_outcome(path)

    def test_covtype_shaped_sparse_file(self, tmp_path):
        """54 columns, about 12 nonzeros a row: 10 continuous columns with
        a zero now and then, and one of 4 and one of 40 indicator columns
        that neighbouring rows often share, so runs of rows with the same
        indices alternate with rows that share them with no neighbour."""
        rng = make_rng(19)
        lines, pair = [], (11, 15)
        for i in range(400):
            if rng.random() < 0.3:
                pair = (11 + int(rng.integers(4)), 15 + int(rng.integers(40)))
            x = rng.normal(size=10)
            x[rng.random(10) < 0.05] = 0.0
            tokens = [f"{j}:{v!r}" for j, v in enumerate(x.tolist(), 1) if v != 0.0]
            label = "+1" if i % 3 else "-1"
            lines.append(" ".join([label, *tokens, f"{pair[0]}:1", f"{pair[1]}:1"]))
        path = tmp_path / "covtype_shaped.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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

    @pytest.mark.parametrize("m", [1, 2, 7, 300])
    def test_rbf_bandwidth_equal(self, m):
        X = generate_margin_data(600, 54, 0.1, seed=m).X
        cfg = default_rbf_config(X, make_rng(m), m=m)
        assert cfg.bandwidth == oracles.median_heuristic_bandwidth(cfg.centers)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rbf_features_equal(self, seed):
        X = make_rng(seed).normal(size=(400, 12))
        cfg = default_rbf_config(X, make_rng(seed + 100), m=50)
        assert np.array_equal(rbf_features(X, cfg), oracles.rbf_features(X, cfg))
        # a row equal to a center maps to exactly 1 in both
        Z = np.vstack([cfg.centers[:3], X[:5] * 1e3])
        assert np.array_equal(rbf_features(Z, cfg), oracles.rbf_features(Z, cfg))


def _sparse_runs_text(rng) -> str:
    """Runs of rows that share their indices, long enough to cross the
    seams of small parts, between rows that share them with no neighbour."""
    lines = []
    for block in range(12):
        cols = sorted(rng.choice(9, size=1 + block % 4, replace=False) + 1)
        for _ in range(int(rng.integers(1, 9))):
            vals = rng.normal(size=len(cols)).tolist()
            label = "+1" if rng.random() < 0.5 else "-1"
            lines.append(" ".join([label, *(f"{j}:{v!r}" for j, v in zip(cols, vals))]))
    return "\n".join(lines) + "\n"


def _lone_rows_text(rng) -> str:
    """Every row carries other indices than the rows next to it."""
    lines = []
    for i in range(60):
        cols = sorted(rng.choice(12, size=1 + i % 5, replace=False) + 1)
        if i % 2:
            cols.append(13)
        tokens = [f"{j}:{rng.normal()!r}" for j in cols]
        lines.append(" ".join(["+1" if i % 3 else "-1", *tokens]))
    return "\n".join(lines) + "\n"


class TestSplitIngest:
    """With the part size patched small and four usable CPUs, tiny files are
    read and written in parts, by forked children, and still give the
    oracles' bytes, arrays and errors; no child is left behind."""

    @pytest.fixture(autouse=True)
    def small_parts(self, monkeypatch):
        monkeypatch.setattr(data_module, "_PART_BYTES", 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        self.counts = []
        split = data_module._in_parts

        def counting(part, count):
            self.counts.append(count)
            return split(part, count)

        monkeypatch.setattr(data_module, "_in_parts", counting)
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def _split_matches_oracle(self, path, parts=4):
        _assert_same_outcome(path)
        assert max(self.counts) == parts

    @pytest.mark.parametrize("make", SAVED_DATASETS, ids=SAVED_IDS)
    def test_save_bytes_and_parsed_arrays(self, tmp_path, make):
        data = make()
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        save_libsvm(data, new)
        oracles.save_libsvm(data, old)
        assert new.read_bytes() == old.read_bytes()
        assert self.counts == [4]
        self._split_matches_oracle(new)

    @pytest.mark.parametrize("make", [_sparse_runs_text, _lone_rows_text],
                             ids=["runs_across_seams", "lone_rows"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_files(self, tmp_path, make, seed):
        path = tmp_path / "sparse.txt"
        path.write_text(make(make_rng(seed)), encoding="utf-8")
        self._split_matches_oracle(path)

    def test_runs_merge_at_seams(self, tmp_path):
        """One run of dense rows split four ways is still the buffer itself."""
        path = tmp_path / "dense.txt"
        save_libsvm(generate_margin_data(40, 7, 0.2, seed=1), path)
        X = load_libsvm(path).X
        assert max(self.counts) == 4 and X.base is not None and not X.flags.owndata

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\r\r\n\n"],
                             ids=["crlf", "lone_cr", "mixed"])
    def test_line_endings(self, tmp_path, newline):
        text = _sparse_runs_text(make_rng(3)).replace("\n", newline)
        path = tmp_path / "endings.txt"
        path.write_bytes(text.encode("utf-8"))
        _assert_same_outcome(path)
        bad = text.splitlines(keepends=True)
        bad[-3] = "-1 2:oops" + newline
        path.write_bytes("".join(bad).encode("utf-8"))
        _assert_same_outcome(path)

    def test_comments_and_blank_lines_at_seams(self, tmp_path):
        rows = _sparse_runs_text(make_rng(4)).splitlines()
        fill = ["# a comment", "", "   ", "\t# indented comment"]
        lines = [line for i, row in enumerate(rows) for line in (fill[i % 4], row)]
        path = tmp_path / "comments.txt"
        path.write_text("\n".join(lines) + "\n\n# trailing\n", encoding="utf-8")
        self._split_matches_oracle(path)

    @pytest.mark.parametrize("text", ["+1 1:1\n", "-1 " + " ".join(f"{j}:{j}.5" for j in range(1, 40))],
                             ids=["short", "long"])
    def test_one_row_file(self, tmp_path, text):
        path = tmp_path / "one.txt"
        path.write_text(text, encoding="utf-8")
        _assert_same_outcome(path)

    @pytest.mark.parametrize("where", [0.3, 0.6, 0.95])
    def test_bad_line_in_a_later_part(self, tmp_path, where):
        lines = _lone_rows_text(make_rng(5)).splitlines()
        at = int(len(lines) * where)
        lines[at] = "-1 3:0.5 x:1"
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(LibsvmFormatError, match=f"^line {at + 1}: ") as err:
            load_libsvm(path)
        assert max(self.counts) == 4
        with pytest.raises(LibsvmFormatError) as want:
            oracles.load_libsvm(path)
        assert str(err.value) == str(want.value)

    def test_first_bad_line_wins(self, tmp_path):
        lines = _lone_rows_text(make_rng(6)).splitlines()
        lines[20], lines[50] = "-1 1:1 0:2", "+1 :x"
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(LibsvmFormatError, match="^line 21: index 0 is not 1-based$"):
            load_libsvm(path)
        self._split_matches_oracle(path)

    def test_not_utf8(self, tmp_path):
        """A later part that is not UTF-8 sends the file through one pass,
        which meets the same error in the same order as the oracle."""
        lines = _lone_rows_text(make_rng(7)).encode("utf-8").splitlines()
        lines[45] = b"+1 1:\xff"
        path = tmp_path / "latin.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        _assert_same_outcome(path)
        with pytest.raises(UnicodeDecodeError):
            load_libsvm(path)
        lines[10] = b"+1 1:x"
        path.write_bytes(b"\n".join(lines) + b"\n")
        _assert_same_outcome(path)

    def test_failed_children_leave_the_result_unchanged(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def dying(real):
            def part(*args):
                if os.getpid() != parent:
                    os._exit(1)
                return real(*args)
            return part

        monkeypatch.setattr(data_module, "_parse_part", dying(data_module._parse_part))
        monkeypatch.setattr(data_module, "_write_rows", dying(data_module._write_rows))
        data = generate_margin_data(60, 7, 0.2, seed=2)
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        save_libsvm(data, new)
        oracles.save_libsvm(data, old)
        assert new.read_bytes() == old.read_bytes()
        self._split_matches_oracle(new)
        lines = old.read_text(encoding="utf-8").splitlines()
        lines[50] = "+1 1:1 2"
        old.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(LibsvmFormatError, match="^line 51: "):
            load_libsvm(old)

    def test_an_error_here_kills_and_reaps_the_children(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def part(lines):
            if os.getpid() != parent:
                time.sleep(60)  # ended by the parent's kill
            raise RuntimeError("part 0 failed")

        monkeypatch.setattr(data_module, "_parse_part", part)
        path = tmp_path / "sparse.txt"
        path.write_text(_lone_rows_text(make_rng(9)), encoding="utf-8")
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="part 0 failed"):
            load_libsvm(path)
        assert max(self.counts) == 4 and time.monotonic() - started < 30

    def test_a_failed_fork_runs_the_parts_here(self, tmp_path, monkeypatch):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        data = generate_margin_data(40, 7, 0.2, seed=3)
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        save_libsvm(data, new)
        oracles.save_libsvm(data, old)
        assert new.read_bytes() == old.read_bytes()
        self._split_matches_oracle(new)

    def test_without_fork_one_part_runs_here(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        path = tmp_path / "sparse.txt"
        path.write_text(_sparse_runs_text(make_rng(8)), encoding="utf-8")
        self._split_matches_oracle(path, parts=1)


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
