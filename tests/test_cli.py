import itertools
import os
from types import SimpleNamespace

import numpy as np
import pytest

from interpsgd import optimizers
from interpsgd.cli import main
from interpsgd.data import generate_margin_data, save_libsvm
from interpsgd.records import RunRecord


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


class TestPerceptronCommand:
    def test_reference_run_passes(self, capsys):
        code = main(
            ["perceptron", "--tau", "0.1", "--n", "60", "--d", "8",
             "--passes", "20", "--seed", "1"]
        )
        assert code == 0
        assert "checks = PASS" in capsys.readouterr().out

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

    def test_spectral_missing_file(self, tmp_path):
        assert main(["spectral", "--libsvm", str(tmp_path / "none.txt")]) == 2

    def test_deterministic_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, out_name="det", audit_samples="30")
        main(["audit-rho", "--config", str(cfg)])
        first = capsys.readouterr().out
        main(["audit-rho", "--config", str(cfg)])
        second = capsys.readouterr().out
        assert first == second
