"""Tests of the benchmark's own code: span arithmetic, statistics,
correctness checks, seeding and the BENCHMARK.json contract."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from bench import compare, make_reference, metrics, spans, workloads
from interpsgd import data, optimizers
from interpsgd.objectives import Objective
from interpsgd.records import MetricRow, RunRecord

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_the_time_children_cover():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9] (fine span)
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = tracer.enter("root")
    a = tracer.enter("a")
    a1 = tracer.enter("a1")
    tracer.exit(a1)
    tracer.exit(a)
    b = tracer.enter("b", fine=True)
    tracer.exit(b)
    tracer.exit(root)

    by_name = {s["name"]: s for s in tracer.spans}
    assert set(by_name) == {"root", "a", "a1"}  # the fine span is aggregated only
    assert by_name["root"]["self"] == 10 - (4 - 1) - (9 - 5)
    assert by_name["a"]["self"] == (4 - 1) - (3 - 2)
    assert by_name["a1"]["self"] == 1
    assert by_name["a1"]["parent"] == by_name["a"]["id"]
    assert tracer.agg[("b", "root")] == [1, 4, 4]
    assert tracer.self_time("root") == 3
    assert tracer.total_outside(frozenset({"a", "a1"})) == 3


def test_instrument_counts_calls_and_restores_the_originals():
    original_step = optimizers.sgd_step
    original_grad = Objective.grad_example
    obj = Objective("squared_hinge", data.generate_margin_data(20, 3, 0.1, seed=1))
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, spans.TARGETS)
    try:
        optimizers.run(obj, "sgd", optimizers.RunConfig(), passes=2)
    finally:
        restore()
    assert optimizers.sgd_step is original_step
    assert Objective.grad_example is original_grad
    assert tracer.count("optimizers.sgd_step") == 40
    assert tracer.count("objectives.Objective.grad_example") == 40
    assert tracer.count("optimizers.accel_step") == 0
    assert [s["name"] for s in tracer.spans][0] == "optimizers.run"


@pytest.mark.parametrize("n", [11, 12, 50, 1000])
def test_tail_leaves_ten_samples_beyond(n):
    values = list(np.random.default_rng(n).permutation(n).astype(float))
    value, percentile, count = metrics.tail(values)
    assert count == n
    assert sum(v > value for v in values) == metrics.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - metrics.TAIL_BEYOND) / n)


def _curve_csv(losses):
    record = RunRecord()
    for p, loss in enumerate(losses):
        record.append(MetricRow(p, 100 * p, loss, loss, 0.0))
    return record.to_csv()


def test_curve_check_rejects_a_perturbed_curve():
    losses = [1.0, 1e-3, 1e-6, 0.0]
    text = _curve_csv(losses)
    ref = {"c.csv": {"log10_loss": [math.log10(max(x, 1e-300)) for x in losses]}}
    assert workloads.check_curves({"c.csv": text}, ref) == []
    perturbed = _curve_csv([1.0, 1.1e-3, 1e-6, 0.0])
    assert workloads.check_curves({"c.csv": perturbed}, ref)
    # below the interpolation criterion only the side of it matters
    assert workloads.check_curves({"c.csv": _curve_csv([1.0, 1e-3, 1e-6, 1e-12])}, ref) == []
    assert workloads.check_curves({"c.csv": _curve_csv([1.0, 1e-3, 1e-6, 1e-9])}, ref)


def _fig1a_outputs(sgd, acc):
    csvs = {"sgd.csv": _curve_csv(sgd), "acc_sgd.csv": _curve_csv(acc)}
    ref = {"csv": {n: {"log10_loss": [r["log10_loss"] for r in workloads.parse_curve(t)]}
                   for n, t in csvs.items()}}
    return {"exit_code": 0, "csv": csvs}, ref


def test_fig1a_check_wants_acc_sgd_two_decades_below_sgd_or_at_zero():
    assert workloads.check_fig1a(*_fig1a_outputs([1.0, 1e-5], [1.0, 1e-8])) == []
    assert workloads.check_fig1a(*_fig1a_outputs([1.0, 0.0], [1.0, 0.0])) == []
    assert workloads.check_fig1a(*_fig1a_outputs([1.0, 1e-5], [1.0, 1e-6]))
    assert workloads.check_fig1a(*_fig1a_outputs([1.0, 1e-5], [1.0, 20.0, 1e-9]))


def test_ingest_check_rejects_one_flipped_libsvm_byte(tmp_path):
    generated = data.generate_margin_data(40, 5, 0.1, seed=3)
    path = tmp_path / "d.libsvm"
    data.save_libsvm(generated, path)
    ref = {"libsvm_sha256": workloads.sha256_file(path), "L": 2.0, "L_max": 3.0}

    def outputs():
        return {
            "exit_code": 0,
            "libsvm_sha256": workloads.sha256_file(path),
            "generated": generated,
            "parsed": data.load_libsvm(path),
            "constants": {"L": 2.0, "L_max": 3.0},
            "rhos": [1.5],
        }

    assert workloads.check_ingest_audit(outputs(), ref) == []
    raw = bytearray(path.read_bytes())
    at = raw.index(b":") + 4  # a digit of the first feature value
    raw[at] = ord("7") if raw[at] != ord("7") else ord("3")
    path.write_bytes(bytes(raw))
    problems = workloads.check_ingest_audit(outputs(), ref)
    assert any("SHA-256" in p for p in problems)
    assert any("parsed X, y differ" in p for p in problems)


def test_seed_argument_changes_the_generated_input():
    reference = workloads.load_reference()
    g0, g1 = workloads.program_seeds(0, reference), workloads.program_seeds(1, reference)
    assert set(g0).isdisjoint(g1)
    assert workloads.program_seeds(0, reference) == g0
    a, b = workloads.ingest_data(g0[0]), workloads.ingest_data(g1[0])
    assert not np.array_equal(a.X, b.X)
    assert np.array_equal(a.X, workloads.ingest_data(g0[0]).X)


def test_seed_groups_cover_the_reference_and_mix_cheap_with_costly_seeds():
    reference = workloads.load_reference()
    seeds = [s for g in reference["groups"] for s in g]
    assert sorted(seeds) == sorted(int(s) for s in reference["seeds"])
    assert reference["groups"] == make_reference.seed_groups(
        reference["seeds"], reference["balance_setup_s"])
    costs = {s: (float(s + 1), 1.0) for s in range(6)}
    assert make_reference.balanced_groups(costs, 3) == [[0, 5], [1, 4], [2, 3]]
    # the second cost breaks the first cost's tie: {0, 3} and {1, 2} both sum to 5
    costs = {0: (1.0, 1.0), 1: (2.0, 2.0), 2: (3.0, 1.0), 3: (4.0, 2.0)}
    assert make_reference.balanced_groups(costs, 2) == [[0, 3], [1, 2]]


def test_every_workload_reason_is_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    recorded = {w["name"]: w["why"] for w in spec["workloads"]}
    assert set(recorded) == set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        assert recorded[name] == workload.why
        assert 0 < len(workload.why) <= 200 and "\n" not in workload.why


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "improved"
    same = list(reversed(parent))
    assert compare.verdict(parent, same, "lower", 0.1)["verdict"] == "no worse within bound"
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] == "worse than bound"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"
    result = compare.verdict(parent, faster, "lower", 0.1)
    assert result["change_wins"] == 10 and result["parent_wins"] == 0
