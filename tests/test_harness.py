import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from interpsgd.data import default_rbf_config, generate_margin_data, load_libsvm, save_libsvm
from interpsgd.harness import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    audit_report,
    build_dataset,
    fit_rate,
    parse_config_text,
    perceptron_check,
    reproduce_figure,
    run_experiment,
)
from interpsgd.numerics import make_rng
from interpsgd.objectives import Objective
from interpsgd.optimizers import RunConfig, run
from interpsgd.problems import QuadraticObjective
from interpsgd.records import CSV_HEADER, MetricRow, RunRecord, compare_curves


def synthetic_record(losses, start_iteration=0, step=1):
    rec = RunRecord()
    for j, loss in enumerate(losses):
        rec.append(
            MetricRow(
                pass_index=j,
                iteration=start_iteration + j * step,
                train_loss=loss,
                grad_sq_norm=0.0,
                mistake_rate=0.0,
            )
        )
    return rec


def small_config(tmp_path, **overrides):
    values = {
        "dataset": "synthetic",
        "n": "60",
        "d": "8",
        "tau": "0.15",
        "methods": "sgd,accel",
        "step_rule_accel": "tau_over_L",
        "rho_rule": "one_over_tau",
        "passes": "3",
        "seed": "2",
        "out": str(tmp_path / "out"),
    }
    values.update(overrides)
    return ExperimentConfig.from_mapping(values)


class TestConfigParsing:
    def test_parse_and_defaults(self):
        text = "# comment\ndataset = synthetic\nn = 40\n\npasses = 2\n"
        values = parse_config_text(text)
        cfg = ExperimentConfig.from_mapping(values)
        assert cfg.n == 40 and cfg.passes == 2
        assert cfg.loss == "squared_hinge"  # default

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("bogus = 1\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just some text\n")

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping({"methods": "sgd,adam"})

    def test_libsvm_requires_path(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping({"dataset": "libsvm"})

    def test_grid_rule_requires_grid(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping({"rho_rule": "grid"})

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping({"passes": "three"})

    @pytest.mark.parametrize("tau", ["0", "1", "1.5", "-0.2"])
    def test_synthetic_tau_must_lie_in_unit_interval(self, tau):
        with pytest.raises(ConfigError, match=r"tau must be in \(0, 1\) for synthetic data"):
            ExperimentConfig.from_mapping({"tau": tau})
        libsvm = {"tau": tau, "dataset": "libsvm", "libsvm_path": "data.txt"}
        if float(tau) < 0:  # a LIBSVM margin may be 0 ("none") but not negative
            with pytest.raises(ConfigError, match="tau must be >= 0 and finite for libsvm data"):
                ExperimentConfig.from_mapping(libsvm)
        else:
            assert ExperimentConfig.from_mapping(libsvm).tau == float(tau)

    def test_readme_table_matches_the_key_table(self):
        # rows such as `n`, `d`, `tau` list several keys with one default
        # each (", "-separated); a lone default applies to every key in the
        # row, and "–" stands for an unset (empty) default
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| (`.*?) \| (.*?) \| .* \|$", readme, re.M)
        listed = []
        for key_cell, default_cell in rows:
            keys = re.findall(r"`([^`]+)`", key_cell)
            defaults = [v.strip("`").replace("–", "") for v in default_cell.split(", ")]
            listed.extend(zip(keys, defaults * len(keys) if len(defaults) == 1 else defaults,
                              strict=True))
        assert listed == [(key.name, key.default) for key in CONFIG_KEYS]


class TestRunExperiment:
    def test_writes_one_csv_per_method_and_echo(self, tmp_path):
        cfg = small_config(tmp_path)
        records = run_experiment(cfg)
        assert len(records) == 2
        assert (tmp_path / "out" / "sgd.csv").exists()
        assert (tmp_path / "out" / "accel.csv").exists()
        echo = (tmp_path / "out" / "config.txt").read_text()
        assert "resolved_rho" in echo and "tau = 0.15" in echo
        header = (tmp_path / "out" / "sgd.csv").read_text().splitlines()[0]
        assert header == CSV_HEADER

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = small_config(tmp_path)
        run_experiment(cfg)
        first = {
            name: (tmp_path / "out" / name).read_bytes()
            for name in ("sgd.csv", "accel.csv", "config.txt")
        }
        run_experiment(cfg)
        for name, blob in first.items():
            assert (tmp_path / "out" / name).read_bytes() == blob

    def test_accelerated_beats_sgd_on_margin_data(self, tmp_path):
        # the schedule needs a few thousand iterations to outgrow plain SGD
        cfg = small_config(tmp_path, n="400", d="30", tau="0.1", passes="30")
        records = run_experiment(cfg)
        sgd, accel = records
        assert accel.final_loss() < sgd.final_loss()

    def test_grid_rho_rule(self, tmp_path):
        cfg = small_config(
            tmp_path,
            methods="accel",
            rho_rule="grid",
            rho_grid="2.0,8.0",
            grid_passes="2",
        )
        records = run_experiment(cfg)
        assert len(records) == 1

    def test_explicit_step_rule_requires_eta(self, tmp_path):
        cfg = small_config(tmp_path, methods="sgd", step_rule_sgd="explicit")
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_c_over_tau_sq_rho_rule_resolves_to_n_over_tau_squared(self, tmp_path):
        # synthetic data's support size c is n
        run_experiment(small_config(tmp_path, methods="accel", rho_rule="c_over_tau_sq"))
        echo = (tmp_path / "out" / "config.txt").read_text().splitlines()
        assert f"resolved_rho = {60 / 0.15**2!r}" in echo


def libsvm_config(tmp_path, **overrides):
    """small_config over a 50 x 6 LIBSVM file whose rows are not unit-norm."""
    path = tmp_path / "data.txt"
    save_libsvm(generate_margin_data(50, 6, 0.2, seed=4), path)
    loaded = load_libsvm(path)
    scaled = loaded.X * np.linspace(0.5, 3.0, loaded.n)[:, None]
    save_libsvm(type(loaded)(X=scaled, y=loaded.y), path)
    return small_config(tmp_path, dataset="libsvm", libsvm_path=str(path), **overrides)


class TestLibsvmFeatureOptions:
    def test_normalize_scales_rows_to_unit_norm(self, tmp_path):
        cfg = libsvm_config(tmp_path, normalize="true")
        raw = load_libsvm(cfg.libsvm_path).X
        X = build_dataset(cfg).X
        norms = np.linalg.norm(raw, axis=1)
        assert np.all(np.abs(norms - 1.0) > 1e-3)
        np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, rtol=1e-12)
        np.testing.assert_array_equal(X, raw / norms[:, None])

    def test_rbf_bandwidth_replaces_the_median_heuristic(self, tmp_path):
        # same centers, so exp(-D / (2 h^2)) and exp(-D / (2 b^2)) share D
        cfg = libsvm_config(tmp_path, rbf="true", rbf_centers="5")
        h = default_rbf_config(load_libsvm(cfg.libsvm_path).X, make_rng(cfg.seed + 1),
                               m=5).bandwidth
        X_h = build_dataset(cfg).X
        X_b = build_dataset(libsvm_config(tmp_path, rbf="true", rbf_centers="5",
                                          rbf_bandwidth="0.5")).X
        assert X_b.shape == X_h.shape == (50, 5)
        assert h != 0.5
        np.testing.assert_allclose(np.log(X_b) * 0.5**2, np.log(X_h) * h**2,
                                   rtol=1e-12, atol=1e-14)


class TestDivergenceRule:
    @pytest.mark.parametrize(
        "losses,diverged",
        [
            ([1.0, 10.0, 0.5], False),
            ([1.0, 10.5, 0.5], True),  # any row counts, not only the last
            ([1.0, 0.5, math.inf], True),
            ([1.0, math.nan, 0.5], True),
            ([0.0, 0.0], False),
        ],
    )
    def test_ten_times_the_initial_loss(self, losses, diverged):
        assert synthetic_record(losses).diverged() is diverged


class TestCurveRule:
    def test_a_row_just_above_the_floor_has_left_it(self):
        # its log10 loss prints as -10.0, like the floor's own
        rule = compare_curves([1.0, 1e-10], [1.0, math.nextafter(1e-10, 1.0)])
        assert not rule.floor_kept and rule.max_log10_delta == 0.0

    def test_a_nan_reference_row_diverges(self):
        rule = compare_curves([1.0, math.nan, 0.5], [1.0, math.nan, 0.5])
        assert rule.reference_diverged and rule.divergence_kept

    @pytest.mark.parametrize("late,kept", [(10.5, True), (math.nan, True), (9.5, False)])
    def test_diverging_rows_stay_past_the_curves_own_bound(self, late, kept):
        rule = compare_curves([1.0, 20.0, 0.5], [1.01, late, 0.5])
        assert rule.reference_diverged and rule.divergence_kept is kept
        assert rule.max_log10_delta == pytest.approx(math.log10(1.01))

    @pytest.mark.parametrize("loss", [math.nan, math.inf])
    def test_a_non_finite_delta_reads_inf(self, loss):
        rule = compare_curves([1.0, 0.5, 1e-12], [1.0, loss, 1e-12])
        assert rule.max_log10_delta == math.inf and rule.floor_kept

    def test_unequal_lengths_raise(self):
        with pytest.raises(ValueError, match="3 and 2 rows"):
            compare_curves([1.0, 0.5, 0.25], [1.0, 0.5])


class TestFitRate:
    def test_exact_geometric_sequence(self):
        q = 0.8
        rec = synthetic_record([2.0 * q**k for k in range(60)])
        fit = fit_rate(rec, "linear")
        assert fit.slope == pytest.approx(math.log(q), abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_quadratic_power_law(self):
        rec = synthetic_record([3.0 / k**2 for k in range(1, 80)], start_iteration=1)
        fit = fit_rate(rec, "polynomial")
        assert fit.slope == pytest.approx(-2.0, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_floor_clipped_tail_excluded(self):
        losses = [2.0 * 0.5**k for k in range(40)] + [0.0] * 10
        rec = synthetic_record(losses)
        fit = fit_rate(rec, "linear")
        assert fit.slope == pytest.approx(math.log(0.5), abs=1e-9)

    def test_insufficient_rows(self):
        rec = synthetic_record([1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="insufficient"):
            fit_rate(rec, "linear")

    def test_unknown_regime(self):
        rec = synthetic_record([1.0] * 20)
        with pytest.raises(ValueError):
            fit_rate(rec, "cubic")

    def test_accel_run_reaches_theoretical_linear_rate(self):
        # strongly-convex quadratic under interpolation: the fitted slope is
        # at least half the exponent ln(1 - sqrt(mu / (rho^2 L)))
        A = np.diag([0.09, 1.0])
        obj = QuadraticObjective(A, np.array([0.5, -0.5]))
        cfg = RunConfig(
            eta=1.0 / obj.L,
            rho=1.0,
            mode="strongly_convex",
            mu=obj.mu,
            seed=0,
            w0=np.array([2.0, 2.0]),
        )
        record = run(obj, "accel", cfg, 60)
        fit = fit_rate(record, "linear")
        theoretical = math.log(1.0 - math.sqrt(obj.mu / obj.L))
        assert fit.slope <= 0.5 * theoretical


class TestPerceptronCheck:
    def test_passes_on_reference_setup(self):
        report = perceptron_check(0.1, 60, 8, 20, seed=1)
        assert report.ok, report.violations
        assert -1.6 <= report.sgd_slope <= -0.6
        assert report.accel_slope <= -1.5

    def test_initial_row_loss_exactly_one(self):
        report = perceptron_check(0.1, 50, 6, 15, seed=2)
        first = report.sgd_avg_record.rows[0]
        assert first.train_loss == 1.0
        assert first.mistake_rate == 1.0

    def test_mistake_rate_dominated_by_loss_everywhere(self):
        report = perceptron_check(0.15, 40, 6, 15, seed=3)
        for rec in (report.sgd_avg_record, report.accel_record):
            for row in rec.rows:
                assert row.mistake_rate <= row.train_loss + 1e-12

    def test_seed_averaged_bound(self):
        report = perceptron_check(0.1, 50, 6, 15, seed=4)
        for row in report.sgd_avg_record.rows:
            if row.iteration >= 1:
                assert row.train_loss <= 10.0 * 8.0 / (0.1**2 * row.iteration)

    def test_summary_lines_mention_outcome(self):
        report = perceptron_check(0.1, 40, 6, 15, seed=5)
        text = "\n".join(report.summary_lines())
        assert "PASS" in text or "FAIL" in text


class TestReproduceFigure:
    def test_fig1a_curves_and_manifest(self, tmp_path):
        out = tmp_path / "fig1a"
        written = reproduce_figure(
            "fig1a", out_dir=str(out), n=200, d=20, passes=3, seed=1
        )
        assert len(written) == 2
        manifest = (out / "manifest.txt").read_text()
        assert "SGD\tsgd.csv" in manifest
        assert "Acc-SGD\tacc_sgd.csv" in manifest

    def test_app_ls_four_curves_per_setting(self, tmp_path):
        out = tmp_path / "appls"
        written = reproduce_figure(
            "app_ls", out_dir=str(out), n=80, d=10, passes=2, seed=0
        )
        assert len(written) == 16  # 4 variants x 4 margins
        manifest = (out / "manifest.txt").read_text()
        for label in ("SGD(T)", "SGD(LS)", "Acc-SGD(T)", "Acc-SGD(LS)"):
            assert manifest.count(label) >= 4

    @pytest.mark.parametrize("figure", ["fig1b", "fig2_protein", "app_ls"])
    def test_manifest_lists_every_curve_in_order(self, tmp_path, figure):
        path = tmp_path / "toy_libsvm.txt"
        save_libsvm(generate_margin_data(120, 10, 0.2, seed=6), path)
        out = tmp_path / figure
        written = reproduce_figure(
            figure, paths={"protein": str(path)}, out_dir=str(out),
            n=60, d=8, passes=1, seed=3,
        )
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        if figure == "app_ls":
            expected = (
                "SGD(T) tau=0.1\ttau0.1_sgd_t.csv\n"
                "SGD(LS) tau=0.1\ttau0.1_sgd_ls.csv\n"
                "Acc-SGD(T) tau=0.1\ttau0.1_acc_sgd_t.csv\n"
                "Acc-SGD(LS) tau=0.1\ttau0.1_acc_sgd_ls.csv\n"
                "SGD(T) tau=0.05\ttau0.05_sgd_t.csv\n"
                "SGD(LS) tau=0.05\ttau0.05_sgd_ls.csv\n"
                "Acc-SGD(T) tau=0.05\ttau0.05_acc_sgd_t.csv\n"
                "Acc-SGD(LS) tau=0.05\ttau0.05_acc_sgd_ls.csv\n"
                "SGD(T) tau=0.01\ttau0.01_sgd_t.csv\n"
                "SGD(LS) tau=0.01\ttau0.01_sgd_ls.csv\n"
                "Acc-SGD(T) tau=0.01\ttau0.01_acc_sgd_t.csv\n"
                "Acc-SGD(LS) tau=0.01\ttau0.01_acc_sgd_ls.csv\n"
                "SGD(T) tau=0.005\ttau0.005_sgd_t.csv\n"
                "SGD(LS) tau=0.005\ttau0.005_sgd_ls.csv\n"
                "Acc-SGD(T) tau=0.005\ttau0.005_acc_sgd_t.csv\n"
                "Acc-SGD(LS) tau=0.005\ttau0.005_acc_sgd_ls.csv\n"
            )
        else:
            expected = "SGD\tsgd.csv\nAcc-SGD\tacc_sgd.csv\n"
        assert manifest == expected
        files = [line.split("\t")[1] for line in expected.splitlines()]
        assert written == [str(out / name) for name in files]
        assert sorted(os.listdir(out)) == sorted(files + ["manifest.txt"])

    def test_fig2_missing_file_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            reproduce_figure("fig2_protein", out_dir=str(tmp_path))

    def test_fig2_pipeline_on_synthetic_libsvm_file(self, tmp_path):
        data = generate_margin_data(120, 10, 0.2, seed=6)
        path = tmp_path / "toy_libsvm.txt"
        save_libsvm(data, path)
        out = tmp_path / "fig2"
        written = reproduce_figure(
            "fig2_protein",
            paths={"protein": str(path)},
            out_dir=str(out),
            n=100,
            passes=2,
            seed=0,
        )
        assert len(written) == 2
        assert (out / "manifest.txt").exists()

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(ConfigError):
            reproduce_figure("fig9z", out_dir=str(tmp_path))


class TestAuditReport:
    def test_lines_cover_routes(self, tmp_path):
        cfg = small_config(tmp_path, audit_samples="60")
        lines = audit_report(cfg)
        text = "\n".join(lines)
        assert "wgc_analytic" in text
        assert "sgc_margin" in text
        assert "empirical_ratio" in text

    def test_deterministic(self, tmp_path):
        cfg = small_config(tmp_path, audit_samples="40")
        assert audit_report(cfg) == audit_report(cfg)
