import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"
spec = importlib.util.spec_from_file_location("output_hashes", TOOL)
output_hashes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_hashes)

CURVE = ["2.0", "0.5", "25.0", "1e-12"]


def result(curve=CURVE, columns=True) -> dict:
    """One argv's entry as ``hash_argv`` writes it, with one CSV; an entry
    of an older tool has no ``train_loss`` columns."""
    entry = {"argv": ["run"], "exit": 0, "stdout": "0" * 64, "stderr": "1" * 64,
             "stderr_text": "", "files": {"out/acc_sgd.csv": "|".join(curve)}}
    if columns:
        entry["train_loss"] = {"out/acc_sgd.csv": list(curve)}
    return entry


def test_identical_results_compare_equal(capsys):
    old = {"a": result(), "b": result(["1.0"])}
    assert output_hashes.compare(old, {"a": result(), "b": result(["1.0"])}) == 0
    assert capsys.readouterr().out == "2 of 2 argvs identical\n"


@pytest.mark.parametrize(
    "curve,verdict",
    [
        (["2.0", "0.5000000000001", "25.0", "1e-12"],
         "above 1e-10 max |Δ log10 loss| = 8.7e-14, floor kept, "
         "old curve diverged, divergence kept"),
        (["2.0", "0.5", "25.0", "2e-10"], "FLOOR LEFT"),
        (["2.0", "0.5", "19.0", "1e-12"], "DIVERGENCE LOST"),
        (["2.0", "0.5", "25.0"], "curves of 4 and 3 rows"),
    ],
)
def test_a_differing_csv_gets_the_rule_verdict(capsys, curve, verdict):
    assert output_hashes.compare({"a": result(), "b": result()},
                                 {"a": result(), "b": result(curve)}) == 1
    out = capsys.readouterr().out
    assert "b: files differ\n" in out and verdict in out
    assert out.endswith("1 of 2 argvs identical\n")


def test_an_older_json_compares_hashes_without_a_verdict(capsys):
    old = {"a": result(columns=False)}
    new = {"a": result(["2.0", "0.5", "25.0", "2e-10"], columns=False)}
    assert output_hashes.compare(old, new) == 1
    out = capsys.readouterr().out
    assert "file out/acc_sgd.csv" in out and "floor" not in out


def test_a_differing_stdout_prints_the_lines_that_differ(capsys):
    old, new = result(), result()
    tail = "\nsgd: final train_loss 0.0\n"
    old["stdout_text"] = "accel: final train_loss 1.3887915640533117e-22" + tail
    new["stdout_text"] = "accel: final train_loss 1.388793319409095e-22" + tail
    new["stdout"] = "2" * 64
    assert output_hashes.compare({"a": old}, {"a": new}) == 1
    assert capsys.readouterr().out == (
        "a: stdout differ\n"
        "  old: accel: final train_loss 1.3887915640533117e-22\n"
        "  new: accel: final train_loss 1.388793319409095e-22\n"
        "0 of 1 argvs identical\n"
    )
    # an older JSON stores no stdout text: the hashes still compare
    del old["stdout_text"]
    assert output_hashes.compare({"a": old}, {"a": new}) == 1
    assert capsys.readouterr().out == "a: stdout differ\n0 of 1 argvs identical\n"
