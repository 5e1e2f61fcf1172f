"""Summary statistics, the end-to-end metrics of a run's ops, and the
per-layer metrics of its traced ops."""

from __future__ import annotations

import resource
import statistics
import time

from . import spans

TAIL_BEYOND = 10  # samples a tail percentile must leave above it

# Time of calibration_loop on the machine the bounds were set on (2-vCPU
# Intel Xeon VM, Python 3.11) in its fast phase; it defines the unit of the
# scaled timings (seconds on that machine in that phase). The machine's
# speed alternates between phases in which this loop takes 13.5 and 20 ms,
# for seconds to minutes at a time; the timings are scaled by the loop's
# speed around each op so that such phases do not read as changes of the
# program. bench/README.md gives the runs that made this necessary.
CALIBRATION_REF_S = 0.0135
CALIBRATION_REPEATS = 9


def calibration_loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i
    return total


def calibrate() -> float:
    """Median time of calibration_loop, in seconds."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest order statistic with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count); the percentile is the share of
    samples at or below the value. With too few samples, the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_mean(ops: list, attr: str, scaled: bool = True) -> float:
    """Mean of one timing over the ops.

    A run is whole cycles through a group of seeds balanced on cost (one op
    per seed and cycle; one cycle unless ``--seconds`` leaves room for
    more), so the mean weighs every seed of the group equally and does not
    depend on which group the run drew.
    """
    return statistics.fmean(getattr(op, attr) * (op.scale if scaled else 1.0) for op in ops)


def end_to_end(ops: list, scaled: bool = True) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics over untraced ops, plus explanatory lines.

    ``scaled`` applies each op's calibration scale to its timings.
    """
    timed = [op for op in ops if op.timed]
    if not timed:
        return {}, ["no op completed its timing"]

    def scale(op):
        return op.scale if scaled else 1.0

    by_curve: dict[str, list[float]] = {}
    for op in timed:
        for curve, samples in op.pass_ms.items():
            by_curve.setdefault(curve, []).extend(v * scale(op) for v in samples)
    tail_ms, tail_pct, tail_n = tail([v for samples in by_curve.values() for v in samples])
    steps = sum(op.steps for op in timed)
    # Steps inside run() are timed there: the median over ops of each op's
    # rate. ingest_audit makes its 100 steps per op outside run(), in about
    # 3 ms of a 7 s op; a window that short reads 24 to 43 us per step on
    # the same input from one op to the next as the machine changes speed,
    # and the calibration loop follows that only in part, so there the rate
    # is per second of op wall time.
    rates = [op.steps / (op.step_time_s * scale(op)) for op in timed if op.step_time_s > 0]
    if rates:
        steps_per_s = statistics.median(rates)
        steps_note = f"per second inside run(), median over {len(rates)} ops"
    else:
        steps_per_s = steps / sum(op.wall_s * scale(op) for op in timed)
        steps_note = f"per second of op wall time, pooled over {len(timed)} ops"
    values = {
        "wall_s": op_mean(timed, "wall_s", scaled),
        "setup_s": op_mean(timed, "setup_s", scaled),
        "steps_per_s": steps_per_s,
        # The methods of an op differ in pass time; a median pooled over
        # them would sit in the gap between two methods' clusters.
        "pass_ms_p50": statistics.fmean(statistics.median(v) for v in by_curve.values()),
        "pass_ms_tail": tail_ms,
        "time_to_target_s": op_mean(timed, "target_s", scaled),
        "cpu_s": op_mean(timed, "cpu_s", scaled),
        "peak_rss_mb": peak_rss_mb(),
    }
    scales = [op.scale for op in timed]
    notes = [
        f"ops timed: {len(timed)}",
        f"steps_per_s: {steps} steps {steps_note}",
        f"pass_ms_p50: mean over {len(by_curve)} curves of each one's median pass time",
        f"pass_ms_tail: p{tail_pct:.1f} of {tail_n} pass samples",
        f"calibration scale per op: {min(scales):.3f} to {max(scales):.3f}",
    ]
    if any(op.outputs.get("target_pass") for op in timed):
        notes.append("target reached at pass: "
                     + ", ".join(str(op.outputs.get("target_pass")) for op in timed))
    return values, notes


def _per_call(total: float, count: int, scale: float) -> float:
    return total / count * scale if count else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layers(op) -> dict[str, float]:
    """Per-layer metrics of one traced op."""
    t = op.tracer
    steps = sum(t.count(f"optimizers.{f}") for f in spans.STEP_FUNCTIONS)
    grads = t.count("objectives.Objective.grad_example")
    losses = t.count("objectives.Objective.loss_example")
    as_vector = t.count("numerics.as_vector")
    advances = t.count("optimizers.accel_schedule_advance")
    save_s, load_s = t.total("data.save_libsvm"), t.total("data.load_libsvm")
    save_mb = t.counters.get("save_libsvm_bytes", 0.0) / 1e6
    load_mb = t.counters.get("load_libsvm_bytes", 0.0) / 1e6
    full = [f"objectives.Objective.{m}" for m in spans.FULL_EVALS]
    harness = ["harness.run_experiment", "harness.reproduce_figure", "harness.audit_report",
               "harness.ExperimentConfig.from_mapping"]
    probes = t.count("growth.empirical_sgc_ratio")
    values = {
        "optimizers.steps": steps,
        "data.generate_s": t.total("data.generate_margin_data"),
        "data.save_libsvm_s": save_s,
        "data.save_libsvm_mb": save_mb,
        "data.save_libsvm_mb_per_s": _ratio(save_mb, save_s),
        "data.load_libsvm_s": load_s,
        "data.load_libsvm_mb": load_mb,
        "data.load_libsvm_mb_per_s": _ratio(load_mb, load_s),
        "data.rbf_s": t.total("data.default_rbf_config") + t.total("data.rbf_features"),
        "objectives.dataset_init_s": t.total("objectives.Dataset.__init__"),
        "objectives.dataset_init_calls": t.count("objectives.Dataset.__init__"),
        "objectives.objective_init_s": t.total("objectives.Objective.__init__"),
        "numerics.spectral_norm_gram_s": t.total("numerics.spectral_norm_gram"),
        "objectives.grad_example_calls": grads,
        "objectives.grad_example_calls_per_step": _ratio(grads, steps),
        "objectives.grad_example_self_us": _per_call(
            t.self_time("objectives.Objective.grad_example"), grads, 1e6),
        "objectives.zero_grads": t.counters.get("zero_grads", 0.0),
        "objectives.zero_grad_share": _ratio(t.counters.get("zero_grads", 0.0), grads),
        "objectives.loss_example_calls": losses,
        "objectives.loss_example_calls_per_step": _ratio(losses, steps),
        "objectives.full_eval_calls": sum(t.count(n) for n in full),
        "objectives.full_eval_self_ms": sum(t.self_time(n) for n in full) * 1e3,
        "numerics.as_vector_calls": as_vector,
        "numerics.as_vector_calls_per_step": _ratio(as_vector, steps),
        **{
            f"optimizers.step_self_us.{m}": _per_call(
                t.self_time(f"optimizers.{f}"), t.count(f"optimizers.{f}"), 1e6)
            for m, f in zip(("sgd", "accel", "sgd_ls", "accel_ls"), spans.STEP_FUNCTIONS)
        },
        "optimizers.schedule_advance_calls_per_step": _ratio(advances, steps),
        "optimizers.schedule_advance_us": _per_call(
            t.total("optimizers.accel_schedule_advance"), advances, 1e6),
        "optimizers.run_self_s": t.self_time("optimizers.run"),
        "growth.audit_sgc_s": t.total("growth.audit_sgc"),
        "growth.probes": probes,
        "growth.probe_ms": _per_call(t.total("growth.empirical_sgc_ratio"), probes, 1e3),
        "records.write_csv_s": t.total("records.RunRecord.write_csv"),
        "records.csv_count": op.csv_count,
        "records.csv_bytes_identical": op.csv_identical,
        "harness.self_s": sum(t.self_time(n) for n in harness),
        "cli.self_s": t.self_time("cli.main"),
        "trace.step_path_share": _ratio(t.total_outside(spans.STEP_PATH), op.wall_s),
    }
    return {k: float(v) for k, v in values.items()}


def per_layer(traced: list, untraced: list) -> tuple[dict[str, float], list[str]]:
    """Median over traced ops of each layer metric, and the tracing overhead."""
    rows = [layers(op) for op in traced if op.timed]
    walls = [op.wall_s for op in untraced if op.timed]
    if not rows or not walls:
        return {}, ["need at least one traced and one untraced op"]
    values = {k: statistics.median([r[k] for r in rows]) for k in rows[0]}
    plain = op_mean([op for op in untraced if op.timed], "wall_s")
    values["trace.overhead_share"] = (
        op_mean([op for op in traced if op.timed], "wall_s") - plain
    ) / plain
    notes = [f"traced ops: {len(rows)}, untraced ops: {len(walls)}"]
    return values, notes
