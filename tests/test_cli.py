import itertools
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from interpsgd import growth, optimizers
from interpsgd.cli import main
from interpsgd.data import generate_margin_data, save_libsvm
from interpsgd.harness import reproduce_figure
from interpsgd.objectives import Dataset
from interpsgd.records import RunRecord

from oracles import wide_tiny_gap_matrix


def write_config(tmp_path, out_name="out", **overrides):
    values = {
        "dataset": "synthetic",
        "n": "60",
        "d": "8",
        "tau": "0.15",
        "methods": "sgd,accel",
        "step_rule_accel": "tau_over_L",
        "passes": "2",
        "seed": "3",
        "out": str(tmp_path / out_name),
    }
    values.update(overrides)
    path = tmp_path / f"{out_name}.cfg"
    path.write_text(
        "".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8"
    )
    return path


class TestRunCommand:
    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "final train_loss" in out
        assert (tmp_path / "out" / "sgd.csv").exists()

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = write_config(tmp_path, out_name="flagged")
        override = tmp_path / "override_out"
        assert main(["run", "--config", str(cfg), "--out", str(override)]) == 0
        assert (override / "sgd.csv").exists()

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_key_is_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 1\n", encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 1

    def test_missing_dataset_file_is_runtime_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            dataset="libsvm",
            libsvm_path=str(tmp_path / "ghost.txt"),
        )
        assert main(["run", "--config", str(cfg)]) == 2
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--loss", "foo"],
            ["--rho-rule", "explicit", "--rho", "-1"],
            ["--rho-rule", "explicit", "--rho", "0"],
            ["--mode", "strongly_convex"],
            ["--mode", "strongly_convex", "--mu", "0"],
            ["--methods", "sgd,accel,sgd"],  # both sgd runs would write sgd.csv
        ],
    )
    def test_bad_value_is_config_error_before_any_output(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        argv = ["run", "--n", "60", "--d", "8", "--passes", "1", "--out", str(out), *flags]
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--loss", "hinge"],
            ["--loss", "hinge", "--methods", "sgd", "--step-rule-accel", "tau_over_L"],
            ["--loss", "hinge", "--methods", "accel", "--step-rule-sgd", "tau_over_L"],
            ["--loss", "hinge", "--methods", "sgd", "--step-rule-sgd", "one_over_rhoL"],
            ["--loss", "hinge", "--methods", "accel_ls", "--step-rule-accel", "tau_over_L"],
            ["--loss", "hinge", "--step-rule-sgd", "tau_over_L",
             "--step-rule-accel", "tau_over_L", "--rho-rule", "grid", "--rho-grid", "1,2"],
        ],
    )
    def test_hinge_without_smoothness_is_config_error(self, tmp_path, capsys, flags):
        # every one of these reads the hinge loss's nan L or L_max
        out = tmp_path / "out"
        argv = ["run", "--n", "60", "--d", "8", "--passes", "1", "--out", str(out), *flags]
        assert main(argv) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--step-rule-sgd", "tau_over_L", "--step-rule-accel", "tau_over_L"],
            ["--step-rule-sgd", "explicit", "--eta-sgd", "0.5",
             "--step-rule-accel", "explicit", "--eta-accel", "0.01"],
            # SGD(LS) reads neither eta, L nor L_max
            ["--methods", "sgd_ls"],
        ],
    )
    def test_hinge_with_its_step_rules_runs(self, tmp_path, flags):
        out = tmp_path / "out"
        argv = ["run", "--loss", "hinge", "--n", "60", "--d", "8", "--passes", "2",
                "--out", str(out), *flags]
        assert main(argv) == 0
        methods = flags[flags.index("--methods") + 1] if "--methods" in flags else "sgd,accel"
        csvs = [f"{method}.csv" for method in methods.split(",")]
        assert sorted(os.listdir(out)) == sorted(["config.txt", *csvs])

    @pytest.mark.parametrize(
        "flags,message",
        [
            ([], "rho_rule one_over_tau requires a margin tau"),
            (["--rho-rule", "explicit", "--step-rule-accel", "tau_over_L"],
             "step rule tau_over_L requires a margin tau"),
        ],
    )
    def test_margin_rule_without_margin_writes_nothing(self, tmp_path, capsys, flags, message):
        # LIBSVM data carries no margin, so tau = 0 leaves these rules none;
        # every step size is resolved before the first run
        path = tmp_path / "toy.txt"
        save_libsvm(generate_margin_data(40, 5, 0.2, seed=2), path)
        out = tmp_path / "out"
        argv = ["run", "--dataset", "libsvm", "--libsvm-path", str(path), "--tau", "0",
                "--passes", "2", "--out", str(out), *flags]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_warning_turned_error_is_runtime_error(self, tmp_path, capsys):
        # under -W error the diverging run's overflow warning becomes an
        # exception inside a pass: exit 2 with one line, no traceback
        argv = ["run", "--n", "200", "--d", "5", "--passes", "3", "--methods", "sgd",
                "--step-rule-sgd", "explicit", "--eta-sgd", "50", "--out", str(tmp_path / "o")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "runtime error: method 'sgd': pass 2: overflow encountered in square\n"
        assert not (tmp_path / "o").exists()

    def test_warning_turned_error_discards_grid_candidate(self, tmp_path, capsys):
        # the overflowing grid candidates fail in a pass and are skipped as
        # diverging; the stable one runs
        out = tmp_path / "out"
        argv = ["run", "--n", "200", "--d", "10", "--passes", "3", "--methods", "accel",
                "--rho-rule", "grid", "--rho-grid", "0.01,16,64", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert sorted(os.listdir(out)) == ["accel.csv", "config.txt"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["reproduce", "fig1a", "--passes", "0", "--n", "50", "--d", "5"],
            ["reproduce", "fig1b", "--n", "-5"],
            ["reproduce", "fig1a", "--d", "1", "--n", "50", "--passes", "1"],
            ["reproduce", "fig1a", "--seed", "x", "--n", "50", "--d", "5"],
            ["run", "--tau", "nan"],
            ["run", "--n", "60", "--d", "8", "--sigma", "-1"],
            ["run", "--n", "60", "--d", "8", "--sigma", "nan"],
            # a sum of 15 labels is odd, so never below 5% of 15
            ["run", "--balance", "true", "--n", "15", "--d", "4", "--passes", "1"],
        ],
    )
    def test_bad_size_or_level_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--audit-samples", "0"],
            ["--rho-rule", "grid", "--rho-grid", "1,2", "--grid-passes", "0"],
            ["--dataset", "libsvm", "--rbf", "true", "--rbf-centers", "0"],
            ["--dataset", "libsvm", "--rbf", "true", "--rbf-bandwidth", "-1"],
            ["--dataset", "libsvm", "--n-sub", "0"],
            ["--step-rule-sgd", "explicit", "--eta-sgd", "-1"],
            ["--methods", "sgd_ls", "--ls-init", "-1"],
            ["--rho-rule", "grid", "--rho-grid", "1,nan"],
        ],
    )
    def test_value_out_of_range_is_config_error(self, tmp_path, capsys, flags):
        # the bound is part of the key's parser, checked before any data is
        # read; only audit-rho reads --audit-samples
        if "libsvm" in flags:
            path = tmp_path / "toy.txt"
            save_libsvm(generate_margin_data(40, 5, 0.2, seed=2), path)
            flags = [*flags, "--libsvm-path", str(path), "--tau", "0", "--rho-rule", "explicit"]
        command = "audit-rho" if "--audit-samples" in flags else "run"
        out = tmp_path / "out"
        argv = [command, "--n", "60", "--d", "8", "--passes", "1", "--out", str(out), *flags]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["reproduce", "fig1a", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["perceptron", "--tau", "0.1", "--n", "50", "--d", "5", "--passes", "10",
              "--seed", "-1"], "seed must be >= 0, got -1"),
            (["audit-rho", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["run", "--rho-rule", "explicit", "--rho", "inf", "--methods", "accel"],
             "rho_rule = explicit requires a finite rho, got inf"),
            (["run", "--dataset", "libsvm", "--libsvm-path", "FILE", "--step-rule-accel",
              "tau_over_L", "--tau", "-0.5"],
             "tau must be >= 0 and finite for libsvm data, got -0.5"),
            (["run", "--dataset", "libsvm", "--libsvm-path", "FILE", "--step-rule-accel",
              "tau_over_L", "--tau", "inf"],
             "tau must be >= 0 and finite for libsvm data, got inf"),
        ],
    )
    def test_value_the_run_cannot_use_is_config_error(self, tmp_path, capsys, argv, message):
        # each of these used to reach the run and fail there as a runtime error
        path = tmp_path / "toy.txt"
        save_libsvm(generate_margin_data(40, 5, 0.2, seed=2), path)
        out = tmp_path / "out"
        argv = [str(path) if a == "FILE" else a for a in argv]
        if argv[0] != "perceptron":  # the one subcommand without --out
            argv += ["--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--tau", "1.5", "--n", "50", "--d", "5", "--passes", "2"],
            ["run", "--tau", "0", "--n", "50", "--d", "5", "--passes", "2"],
            ["run", "--tau", "-0.1", "--n", "50", "--d", "5", "--passes", "2"],
        ],
    )
    def test_synthetic_tau_outside_unit_interval_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        tau = argv[argv.index("--tau") + 1]
        assert capsys.readouterr().err == (
            f"config error: tau must be in (0, 1) for synthetic data, got {float(tau)!r}\n"
        )
        assert not out.exists()

    def test_libsvm_tau_zero_stays_valid(self, tmp_path):
        # tau = 0 means "no margin" for LIBSVM data, which has none of its own
        path = tmp_path / "toy.txt"
        save_libsvm(generate_margin_data(40, 5, 0.2, seed=2), path)
        out = tmp_path / "out"
        argv = ["run", "--dataset", "libsvm", "--libsvm-path", str(path), "--tau", "0",
                "--rho-rule", "explicit", "--passes", "2", "--out", str(out)]
        assert main(argv) == 0
        assert sorted(os.listdir(out)) == ["accel.csv", "config.txt", "sgd.csv"]

    def test_divergence_warns_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--step-rule-sgd", "explicit", "--eta-sgd", "5", "--methods", "sgd",
                "--n", "200", "--d", "5", "--passes", "3", "--out", str(out)]
        assert main(argv) == 0
        lines = (out / "sgd.csv").read_text().splitlines()
        first, last = (float(line.split(",")[2]) for line in (lines[1], lines[-1]))
        assert last > 1e70
        assert capsys.readouterr().err == f"warning: sgd diverged (loss {first!r} -> {last!r})\n"

    def test_converging_run_does_not_warn(self, tmp_path, capsys):
        assert main(["run", "--config", str(write_config(tmp_path))]) == 0
        assert capsys.readouterr().err == ""

    def test_failed_write_adds_no_file(self, tmp_path, monkeypatch):
        # out exists with a file of its own; the second CSV's write fails
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("kept\n")
        write_csv = RunRecord.write_csv
        calls = []

        def failing_write_csv(record, path, wall_clock=False):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            write_csv(record, path, wall_clock=wall_clock)

        monkeypatch.setattr(RunRecord, "write_csv", failing_write_csv)
        cfg = write_config(tmp_path, out_name="out")
        assert main(["run", "--config", str(cfg)]) == 2
        assert len(calls) == 2
        assert os.listdir(out) == ["keep.txt"]
        assert sorted(os.listdir(tmp_path)) == ["out", "out.cfg"]

    def test_tiny_gap_seed_runs(self, tmp_path):
        # seed 83 at the default n = 8000, d = 100: the Gram matrix's top two
        # eigenvalues nearly coincide, so power iteration alone cannot settle
        # gram_lam_max in 10,000 iterations
        argv = ["run", "--methods", "sgd", "--tau", "0.005", "--passes", "1",
                "--seed", "83", "--out", str(tmp_path / "gap")]
        assert main(argv) == 0
        assert (tmp_path / "gap" / "sgd.csv").exists()

    def test_wall_clock_flag_keeps_csv_parseable(self, tmp_path):
        cfg = write_config(tmp_path, out_name="wall")
        assert main(["run", "--config", str(cfg), "--wall-clock"]) == 0
        lines = (tmp_path / "wall" / "sgd.csv").read_text().splitlines()
        assert len(lines) >= 3
        for line in lines[1:]:
            assert int(line.rsplit(",", 1)[1]) >= 0

    @pytest.mark.parametrize("flag", [True, False])
    def test_each_csv_written_once(self, tmp_path, monkeypatch, flag):
        # a clock that advances 250 ms per reading makes every elapsed time
        # positive, so a CSV written without them shows up as zeros
        ticks = itertools.count()
        monkeypatch.setattr(
            optimizers, "time", SimpleNamespace(monotonic=lambda: 0.25 * next(ticks))
        )
        writes = []
        write_csv = RunRecord.write_csv

        def counting_write_csv(record, path, wall_clock=False):
            writes.append((os.path.basename(path), wall_clock))
            write_csv(record, path, wall_clock=wall_clock)

        monkeypatch.setattr(RunRecord, "write_csv", counting_write_csv)
        cfg = write_config(tmp_path, out_name="wall")
        argv = ["run", "--config", str(cfg)] + (["--wall-clock"] if flag else [])
        assert main(argv) == 0
        assert sorted(writes) == [("accel.csv", flag), ("sgd.csv", flag)]
        for name in ("sgd.csv", "accel.csv"):
            lines = (tmp_path / "wall" / name).read_text().splitlines()
            elapsed = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
            assert len(elapsed) == 3
            if flag:
                assert 0 < elapsed[0] < elapsed[1] < elapsed[2]
            else:
                assert elapsed == [0, 0, 0]


class TestReproduceCommand:
    def test_fig1a_small(self, tmp_path):
        out = tmp_path / "fig"
        code = main(
            [
                "reproduce",
                "fig1a",
                "--out",
                str(out),
                "--n",
                "120",
                "--d",
                "10",
                "--passes",
                "2",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert (out / "manifest.txt").exists()

    def test_fig2_without_file_is_runtime_error(self, tmp_path):
        code = main(["reproduce", "fig2_covtype", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_unknown_figure_is_config_error(self, tmp_path):
        code = main(["reproduce", "fig99", "--out", str(tmp_path / "x")])
        assert code == 1

    @pytest.mark.parametrize("figure,flag,key", [("fig2_covtype", "--covtype", "covtype"),
                                                 ("fig2_protein", "--protein", "protein")])
    def test_fig2_file_flag_matches_the_library_call(self, tmp_path, figure, flag, key):
        path = tmp_path / "data.txt"
        save_libsvm(generate_margin_data(60, 5, 0.2, seed=6), path)
        argv = ["reproduce", figure, flag, str(path), "--n", "40", "--passes", "2",
                "--seed", "3", "--out", str(tmp_path / "cli")]
        assert main(argv) == 0
        reproduce_figure(figure, paths={key: str(path)}, out_dir=str(tmp_path / "lib"),
                         n=40, passes=2, seed=3)
        names = sorted(os.listdir(tmp_path / "lib"))
        assert names == ["acc_sgd.csv", "manifest.txt", "sgd.csv"]
        assert sorted(os.listdir(tmp_path / "cli")) == names
        for name in names:
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


class TestPerceptronCommand:
    def test_reference_run_passes(self, capsys):
        code = main(
            ["perceptron", "--tau", "0.1", "--n", "60", "--d", "8",
             "--passes", "20", "--seed", "1"]
        )
        assert code == 0
        assert "checks = PASS" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--passes", "2"], "passes must be >= 10 for the slope fits, got 2"),
            (["--passes", "0"], "passes must be >= 1, got 0"),
            (["--passes", "two"], "passes: expected an integer, got 'two'"),
            (["--passes", "20", "--tau", "nan"], "tau must be a number, got nan"),
            (["--passes", "20", "--n", "1"], "n must be >= 2, got 1"),
            (["--passes", "20", "--tau", "1.5"],
             "tau must be in (0, 1) for synthetic data, got 1.5"),
        ],
    )
    def test_bad_value_is_config_error(self, capsys, flags, message):
        argv = ["perceptron", "--tau", "0.1", "--n", "200", "--d", "5", *flags]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_exit_code_three_on_violation(self, monkeypatch, capsys):
        # force a violation through the report to pin the exit-code contract
        import interpsgd.cli as cli_mod
        from interpsgd.harness import PerceptronReport
        from interpsgd.records import RunRecord

        def fake_check(tau, n, d, passes, seed=0):
            return PerceptronReport(
                ok=False,
                violations=["sgd fitted slope 0.0 outside (-1.6, -0.6)"],
                sgd_avg_record=RunRecord(),
                accel_record=RunRecord(),
                sgd_slope=0.0,
                accel_slope=-2.0,
                tau=tau,
                n=n,
            )

        monkeypatch.setattr(cli_mod, "perceptron_check", fake_check)
        code = main(
            ["perceptron", "--tau", "0.1", "--n", "10", "--d", "4",
             "--passes", "5", "--seed", "0"]
        )
        assert code == 3
        assert "violation" in capsys.readouterr().out


class TestAuditAndSpectral:
    def test_audit_rho(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out_name="audit", audit_samples="40")
        assert main(["audit-rho", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "wgc_analytic" in out and "empirical_ratio" in out

    def test_spectral(self, tmp_path, capsys):
        data = generate_margin_data(30, 6, 0.2, seed=7)
        path = tmp_path / "spec.txt"
        save_libsvm(data, path)
        assert main(["spectral", "--libsvm", str(path)]) == 0
        out = capsys.readouterr().out
        assert "lambda_max" in out

    def test_warning_is_one_line_without_source_location(self, tmp_path, capsys):
        # the grid candidate rho = 0.01 overflows on its way to divergence
        argv = ["run", "--n", "200", "--d", "10", "--passes", "3", "--methods", "accel",
                "--rho-rule", "grid", "--rho-grid", "0.01,16,64", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "warning: RuntimeWarning: overflow encountered in matmul\n" in err
        assert all(line.startswith("warning: RuntimeWarning: ") for line in err.splitlines())
        assert ".py:" not in err

    def test_spectral_missing_file(self, tmp_path):
        assert main(["spectral", "--libsvm", str(tmp_path / "none.txt")]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectral", "--libsvm", "FILE"],
            ["audit-rho", "--dataset", "libsvm", "--libsvm-path", "FILE"],
            ["run", "--dataset", "libsvm", "--libsvm-path", "FILE", "--methods", "sgd",
             "--step-rule-sgd", "explicit", "--eta-sgd", "0.1", "--out", "OUT"],
        ],
    )
    def test_overflowing_gram_is_runtime_error(self, tmp_path, capsys, argv):
        # finite entries near 1e200 whose X^T X overflows float64
        path = tmp_path / "huge.txt"
        path.write_text("1 1:1e200 2:3e200\n-1 1:-2e200 2:1e200\n1 1:5e199 2:-1e200\n",
                        encoding="utf-8")
        out = tmp_path / "out"
        argv = [{"FILE": str(path), "OUT": str(out)}.get(a, a) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "runtime error: the Gram matrix of X overflows float64")
        assert not out.exists()

    def test_warning_outside_a_run_is_runtime_error(self, monkeypatch, capsys):
        # under -W error a warning in the growth probes leaves audit-rho,
        # outside any run: exit 2 with one line, no traceback
        def warning_probe(obj, w):
            warnings.warn("probe warning", RuntimeWarning)
            return 1.0

        monkeypatch.setattr(growth, "empirical_sgc_ratio", warning_probe)
        argv = ["audit-rho", "--n", "50", "--d", "5", "--audit-samples", "4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "runtime error: probe warning\n"

    def test_overflowing_growth_probes_are_excluded(self, tmp_path, capsys):
        # rows scaled by 1e100: the squared gradient norms of the two box
        # probes overflow, so only the two trajectory probes are counted
        data = generate_margin_data(200, 10, 0.1, seed=0)
        path = tmp_path / "huge.txt"
        save_libsvm(Dataset(X=data.X * 1e100, y=data.y), path)
        argv = ["audit-rho", "--dataset", "libsvm", "--libsvm-path", str(path),
                "--audit-samples", "4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        line = captured.out.splitlines()[-1]
        assert line.startswith("rho[empirical_ratio] = ")
        assert line.endswith("  (max over 2/4 probes)")
        assert np.isfinite(float(line.split(" = ")[1].split()[0]))

    @pytest.mark.parametrize("as_error", [False, True])
    def test_overflowing_power_iterate_prints_no_warning(self, tmp_path, capsys, as_error):
        # rows of norm 1e150: the iterate's norm overflows, X^T X does not
        X = np.random.default_rng(5).normal(size=(200, 10))
        X *= 1e150 / np.linalg.norm(X, axis=1, keepdims=True)
        path = tmp_path / "huge.txt"
        save_libsvm(Dataset(X=X, y=np.where(X[:, 0] >= 0.0, 1.0, -1.0)), path)
        with warnings.catch_warnings():
            if as_error:
                warnings.simplefilter("error")
            assert main(["spectral", "--libsvm", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lam = float(captured.out.splitlines()[1].split(" = ")[1])
        assert lam == pytest.approx(np.linalg.eigvalsh(X.T @ X)[-1], rel=1e-10)

    def test_wide_tiny_gap_file(self, tmp_path, capsys):
        # more features than rows, and a gap power iteration cannot resolve
        X = wide_tiny_gap_matrix()
        path = tmp_path / "wide.txt"
        save_libsvm(Dataset(X=X, y=np.where(X[:, 0] >= 0.0, 1.0, -1.0)), path)
        assert main(["spectral", "--libsvm", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lam = float(captured.out.splitlines()[1].split(" = ")[1])
        assert lam == pytest.approx(np.linalg.eigvalsh(X @ X.T)[-1], rel=1e-10)
        out = tmp_path / "out"
        argv = ["run", "--dataset", "libsvm", "--libsvm-path", str(path), "--tau", "0.1",
                "--step-rule-accel", "tau_over_L", "--passes", "3", "--out", str(out)]
        assert main(argv) == 0
        assert sorted(os.listdir(out)) == ["accel.csv", "config.txt", "sgd.csv"]

    def test_audit_grid_rule_adds_a_grid_search_line(self, tmp_path, capsys):
        argv = ["audit-rho", "--n", "60", "--d", "8", "--tau", "0.15", "--audit-samples", "20",
                "--rho-rule", "grid", "--rho-grid", "2,8", "--grid-passes", "2"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("rho[grid_search] = ")
        assert sum(line.startswith("rho[grid_search]") for line in lines) == 1

    def test_deterministic_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out_name="det", audit_samples="30")
        main(["audit-rho", "--config", str(cfg)])
        first = capsys.readouterr().out
        main(["audit-rho", "--config", str(cfg)])
        second = capsys.readouterr().out
        assert first == second
