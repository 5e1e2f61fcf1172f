"""The benchmark's workloads: one operation (op) each, its correctness
checks against the committed reference, and its end-to-end timings.

Every op drives the public CLI (``interpsgd.cli.main``) in this process,
plus, for ``ingest_audit``, the public data functions that make its input
file. Outputs are checked after the op's clock has stopped.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from interpsgd import cli, data

from . import spans

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

FIG1A_PASSES = 10
APP_LS_PASSES = 3
INGEST_N, INGEST_D, INGEST_TAU = 20000, 54, 0.1
# An ingest_audit pass sample is the mean of this many consecutive audit
# probes (one full-batch pass each, about 15 ms): single probes are short
# enough that a sub-second slow spell of the machine fills a run's tail,
# while a block lasts about as long as a fig1a or app_ls_hard pass.
PROBES_PER_SAMPLE = 10

# A logged log10 loss may differ from the reference by this many decades
# (reordered arithmetic is allowed); rows the reference has at or below the
# paper's interpolation criterion only need to be at or below it too.
LOG10_TOL = 0.01
INTERPOLATED = 1e-10
# L and L_max come from a power iteration stopped at a 1e-10 residual.
CONSTANT_REL_TOL = 1e-8


@dataclass
class Op:
    """What one op measured and what its checks found."""

    seed: int
    traced: bool
    scale: float = 1.0  # CALIBRATION_REF_S over the calibration time around the op
    wall_s: float = math.nan
    cpu_s: float = math.nan
    setup_s: float = math.nan
    target_s: float = math.nan
    steps: int = 0
    step_time_s: float = 0.0
    pass_ms: dict[str, list[float]] = field(default_factory=dict)  # by curve
    csv_count: int = 0
    csv_identical: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    tracer: spans.Tracer | None = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def timed(self) -> bool:
        return all(math.isfinite(v) for v in (self.wall_s, self.setup_s, self.target_s))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    execute: Callable[[dict], None]  # program work only; ctx -> None
    collect: Callable[[dict, spans.Tracer], dict]  # reads outputs after timing
    check: Callable[[dict, dict], list[str]]  # outputs, reference -> problems
    probes: tuple[str, ...]
    # (method, loss) for the first logged row that counts as the target;
    # None: the target is the growth audit's estimate.
    target: tuple[str, float] | None


# ---------------------------------------------------------------------------
# program calls
# ---------------------------------------------------------------------------


def _cli(ctx: dict, argv: list[str]) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        ctx["exit_code"] = cli.main(argv)
    ctx["stdout"] = buf.getvalue()


def _execute_fig1a(ctx: dict) -> None:
    _cli(ctx, ["reproduce", "fig1a", "--out", ctx["out"], "--n", "8000", "--d", "100",
               "--passes", str(FIG1A_PASSES), "--seed", str(ctx["data_seed"])])


def _execute_app_ls_hard(ctx: dict) -> None:
    _cli(ctx, ["run", "--methods", "sgd,accel,sgd_ls,accel_ls", "--tau", "0.005",
               "--n", "8000", "--d", "100", "--step-rule-accel", "tau_over_L",
               "--passes", str(APP_LS_PASSES), "--seed", str(ctx["data_seed"]),
               "--out", ctx["out"]])


def ingest_data(seed: int):
    """The margin data ``ingest_audit`` writes, for one program seed."""
    return data.generate_margin_data(INGEST_N, INGEST_D, INGEST_TAU, seed=seed)


def _execute_ingest_audit(ctx: dict) -> None:
    generated = ingest_data(ctx["data_seed"])
    path = os.path.join(ctx["out"], "margin.libsvm")
    data.save_libsvm(generated, path)
    ctx["generated"] = generated
    ctx["libsvm_path"] = path
    _cli(ctx, ["audit-rho", "--dataset", "libsvm", "--libsvm-path", path, "--rbf", "true",
               "--seed", str(ctx["data_seed"])])


# ---------------------------------------------------------------------------
# outputs and checks
# ---------------------------------------------------------------------------


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def parse_curve(text: str) -> list[dict[str, float]]:
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _collect_curves(ctx: dict, tracer: spans.Tracer) -> dict:
    csvs = {}
    for name in sorted(os.listdir(ctx["out"])):
        if name.endswith(".csv"):
            csvs[name] = Path(ctx["out"], name).read_text(encoding="utf-8")
    return {"exit_code": ctx.get("exit_code"), "csv": csvs}


def _collect_ingest(ctx: dict, tracer: spans.Tracer) -> dict:
    parsed = [r for name, _, _, _, r in tracer.results if name == "data.load_libsvm"]
    constants = {}
    rhos = []
    for line in ctx.get("stdout", "").splitlines():
        key, sep, value = line.partition(" = ")
        if key in ("L", "L_max"):
            constants[key] = float(value)
        elif key.startswith("rho["):
            rhos.append(float(value.split()[0]))
    return {
        "exit_code": ctx.get("exit_code"),
        "libsvm_sha256": sha256_file(ctx["libsvm_path"]),
        "generated": ctx["generated"],
        "parsed": parsed[-1] if parsed else None,
        "constants": constants,
        "rhos": rhos,
    }


def check_curves(csvs: dict[str, str], reference: dict[str, dict]) -> list[str]:
    """Every reference curve exists, is finite and matches the reference's
    log10 losses within LOG10_TOL decades."""
    problems = []
    floor = math.log10(INTERPOLATED)
    for name, ref in reference.items():
        if name not in csvs:
            problems.append(f"{name}: missing")
            continue
        rows = parse_curve(csvs[name])
        if len(rows) != len(ref["log10_loss"]):
            problems.append(f"{name}: {len(rows)} rows, reference has {len(ref['log10_loss'])}")
            continue
        for row, want in zip(rows, ref["log10_loss"]):
            got = row["log10_loss"]
            if not all(math.isfinite(v) for v in row.values()):
                problems.append(f"{name}: non-finite value at pass {row['pass']:.0f}")
                break
            ok = got <= floor if want <= floor else abs(got - want) <= LOG10_TOL
            if not ok:
                problems.append(
                    f"{name}: log10_loss {got!r} at pass {row['pass']:.0f}, reference {want!r}"
                )
                break
    return problems


def _exit_problem(outputs: dict) -> list[str]:
    code = outputs.get("exit_code")
    return [] if code == 0 else [f"exit code {code}"]


def check_fig1a(outputs: dict, reference: dict) -> list[str]:
    problems = _exit_problem(outputs) + check_curves(outputs["csv"], reference["csv"])
    if problems:
        return problems
    sgd = parse_curve(outputs["csv"]["sgd.csv"])
    acc = parse_curve(outputs["csv"]["acc_sgd.csv"])
    # Exactly zero loss cannot be undercut: on some seeds plain SGD also
    # interpolates exactly (program seed 30: both curves reach 0 at pass 4).
    if acc[-1]["train_loss"] > 0.0 and acc[-1]["log10_loss"] > sgd[-1]["log10_loss"] - 2.0:
        problems.append(
            f"Acc-SGD log10 loss {acc[-1]['log10_loss']!r} is neither 0 nor 2 decades "
            f"below SGD's {sgd[-1]['log10_loss']!r} at the last pass"
        )
    if max(r["train_loss"] for r in acc) > 10.0 * acc[0]["train_loss"]:
        problems.append("Acc-SGD loss exceeded 10x its initial value")
    return problems


def check_app_ls_hard(outputs: dict, reference: dict) -> list[str]:
    problems = _exit_problem(outputs) + check_curves(outputs["csv"], reference["csv"])
    if problems:
        return problems
    for name, text in outputs["csv"].items():
        rows = parse_curve(text)
        if not rows[-1]["train_loss"] < rows[0]["train_loss"]:
            problems.append(f"{name}: final loss is not below the initial loss")
    return problems


def check_ingest_audit(outputs: dict, reference: dict) -> list[str]:
    problems = _exit_problem(outputs)
    if outputs["libsvm_sha256"] != reference["libsvm_sha256"]:
        problems.append("LIBSVM file differs from the reference (SHA-256)")
    gen, parsed = outputs["generated"], outputs["parsed"]
    if parsed is None:
        problems.append("the LIBSVM file was never parsed")
    elif not (np.array_equal(parsed.X, gen.X) and np.array_equal(parsed.y, gen.y)):
        problems.append("parsed X, y differ from the generated arrays")
    for key in ("L", "L_max"):
        got = outputs["constants"].get(key)
        want = reference[key]
        if got is None or not abs(got - want) <= CONSTANT_REL_TOL * abs(want):
            problems.append(f"{key} = {got!r}, reference {want!r}")
    if not outputs["rhos"]:
        problems.append("no rho estimate printed")
    elif min(outputs["rhos"]) < 1.0:
        problems.append(f"rho {min(outputs['rhos'])!r} < 1")
    return problems


def reference_of(workload: Workload, outputs: dict) -> dict:
    """The committed reference entry for one op's outputs."""
    if workload.name == "ingest_audit":
        return {
            "libsvm_sha256": outputs["libsvm_sha256"],
            "L": outputs["constants"]["L"],
            "L_max": outputs["constants"]["L_max"],
        }
    return {
        "csv": {
            name: {
                "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "log10_loss": [r["log10_loss"] for r in parse_curve(text)],
            }
            for name, text in outputs["csv"].items()
        }
    }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "fig1a",
            "paper headline at n=8000, d=100, tau=0.1: SGD vs Acc-SGD, mostly zero-gradient "
            "steps, so it isolates the fixed cost of each optimizer step",
            _execute_fig1a, _collect_curves, check_fig1a,
            probes=("objectives.Objective.__init__", "optimizers.run"),
            target=("accel", INTERPOLATED),
        ),
        Workload(
            "app_ls_hard",
            "tuned and line-search SGD/Acc-SGD at tau=0.005 via run: mostly active steps, "
            "extra loss_example calls and per-candidate schedules",
            _execute_app_ls_hard, _collect_curves, check_app_ls_hard,
            probes=("objectives.Objective.__init__", "optimizers.run"),
            target=("accel_ls", 0.1),
        ),
        Workload(
            "ingest_audit",
            "write and parse 20000x54 LIBSVM, RBF map to 300 features, power iteration and "
            "200-probe growth audit: n*d work with almost no per-example steps",
            _execute_ingest_audit, _collect_ingest, check_ingest_audit,
            probes=(
                "objectives.Objective.__init__", "data.load_libsvm", "growth.audit_sgc",
                "growth.empirical_sgc_ratio", "optimizers.sgd_step",
            ),
            target=None,
        ),
    ]
}


# ---------------------------------------------------------------------------
# one op
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def program_seeds(seed: int, reference: dict) -> list[int]:
    """The program seeds a run with benchmark seed ``seed`` cycles through.

    They are one group of the seeds the committed reference covers, so every
    op's outputs can be checked. The groups are balanced on the two costs
    that vary most between seeds (see make_reference.py), so runs with
    different seeds do comparable work.
    """
    groups = reference["groups"]
    return groups[seed % len(groups)]


_STEP_SPANS = frozenset("optimizers." + f for f in spans.STEP_FUNCTIONS)


def _timings(op: Op, workload: Workload, tracer: spans.Tracer, t0: float) -> None:
    inits = [s for s in tracer.spans if s["name"] == "objectives.Objective.__init__"]
    if inits:
        op.setup_s = inits[0]["end"] - t0
    runs = [(args[1], span, rec) for name, span, args, _, rec in tracer.results
            if name == "optimizers.run"]
    for _, span, rec in runs:
        op.steps += rec.rows[-1].iteration
        op.step_time_s += span["end"] - span["start"]
    # single steps made outside run(), such as the growth audit's trajectory;
    # counted, but too short to time (see metrics.end_to_end)
    for (name, parent), (count, _, _) in tracer.agg.items():
        if name in _STEP_SPANS and parent != "optimizers.run":
            op.steps += count
    if runs:
        for method, _, rec in runs:
            op.pass_ms[method] = [float(b.elapsed_ms - a.elapsed_ms)
                                  for a, b in zip(rec.rows, rec.rows[1:])]
    else:
        probes = [(s["end"] - s["start"]) * 1e3 for s in tracer.spans
                  if s["name"] == "growth.empirical_sgc_ratio"]
        op.pass_ms["audit_probes"] = [statistics.fmean(probes[i:i + PROBES_PER_SAMPLE])
                                      for i in range(0, len(probes), PROBES_PER_SAMPLE)]
    if workload.target is None:
        audits = [s for s in tracer.spans if s["name"] == "growth.audit_sgc"]
        if audits:
            op.target_s = audits[-1]["end"] - t0
        return
    method, loss = workload.target
    for m, _, rec in runs:
        if m != method:
            continue
        hit = next((r for r in rec.rows[1:] if r.train_loss <= loss), None)
        if hit is None:
            op.problems.append(f"{method} never reached train_loss <= {loss!r}")
        else:
            op.outputs["target_pass"] = hit.pass_index
            op.target_s = op.setup_s + hit.elapsed_ms / 1e3


def run_op(workload: Workload, program_seed: int, reference: dict, workdir: Path,
           traced: bool, check: bool = True) -> Op:
    """Run one op on ``program_seed`` with full tracing or only the
    workload's probes, then check its outputs against the reference."""
    op = Op(seed=program_seed, traced=traced)
    tracer = spans.Tracer()
    op.tracer = tracer
    targets = spans.TARGETS if traced else spans.probe_targets(list(workload.probes))
    out = workdir / "op"
    out.mkdir(parents=True, exist_ok=True)
    ctx = {"data_seed": program_seed, "out": str(out)}
    restore = spans.instrument(tracer, targets)
    try:
        cpu0 = time.process_time()
        frame = tracer.enter("bench.op")
        try:
            workload.execute(ctx)
        finally:
            tracer.exit(frame)
        op.cpu_s = time.process_time() - cpu0
        op.wall_s = tracer.spans[0]["end"] - tracer.spans[0]["start"]
        op.outputs = workload.collect(ctx, tracer)
    except Exception:
        op.problems.append("raised: " + traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc()
        return op
    finally:
        restore()
        shutil.rmtree(out)
    _timings(op, workload, tracer, tracer.spans[0]["start"])
    if check:
        ref = reference["seeds"][str(program_seed)][workload.name]
        op.problems.extend(workload.check(op.outputs, ref))
        for name, text in op.outputs.get("csv", {}).items():
            op.csv_count += 1
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            op.csv_identical += digest == ref["csv"].get(name, {}).get("sha256")
        # drop the arrays and records so a long run keeps a flat footprint
        op.outputs = {"target_pass": op.outputs.get("target_pass")}
        tracer.results.clear()
    return op
