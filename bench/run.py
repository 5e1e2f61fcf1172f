"""Benchmark of interpsgd: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload fig1a --seed 0 --seconds 30 --trace 0

Closed loop: one client in this process runs one op at a time, cycling
through the run's group of program seeds. A run is whole cycles: after the
first, another cycle starts only if one as long as the last would end
within ``--seconds``. With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` each program seed runs once untraced
and once traced, and it holds the per-layer metrics and the tracing
overhead. The lines
before it give the environment stamp and how each metric was formed.
``--results FILE`` also appends the result set as one JSON line, for
``bench/compare.py``. Every op's outputs are checked against
``bench/reference.json``; a failed check counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

# One BLAS thread: the per-step loop gains nothing from more, and idle
# OpenBLAS threads spin on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def environment(seed: int) -> dict:
    """Git SHA, CPU, Python, numpy and BLAS of this run, and its seed."""
    import ctypes
    import glob
    import platform

    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="append the result set to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "interpsgd" / "__init__.py").is_file():
        print(f"interpsgd sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench import metrics, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {workload.name}: {workload.why}")
    group = workloads.program_seeds(args.seed, reference)
    # --trace 1 runs every program seed once untraced, then once traced.
    cycle = [(s, traced) for s in group for traced in ((False, True) if args.trace else (False,))]
    print(f"# program seeds {group}")

    workdir = OUT / f"work-{os.getpid()}"
    ops = []
    start = time.perf_counter()
    try:
        before = metrics.calibrate()
        cycle_s = 0.0
        while not ops or time.perf_counter() + cycle_s <= start + args.seconds:
            cycle_start = time.perf_counter()
            for program_seed, traced in cycle:
                op = workloads.run_op(workload, program_seed, reference, workdir, traced)
                after = metrics.calibrate()
                op.scale = metrics.CALIBRATION_REF_S / ((before + after) / 2)
                before = after
                for problem in op.problems:
                    print(f"op {len(ops)} (seed {program_seed}) failed: {problem}",
                          file=sys.stderr)
                ops.append(op)
            cycle_s = time.perf_counter() - cycle_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# {len(ops) // len(cycle)} cycle(s) of {len(cycle)} ops in "
          f"{time.perf_counter() - start:.1f} s")
    failed = sum(op.failed for op in ops)
    untraced = [op for op in ops if not op.traced]
    if args.trace:
        values, notes = metrics.per_layer([op for op in ops if op.traced], untraced)
        units = _units("per_layer")
        path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed,
            "ops": [dict(op=i, **op.tracer.export()) for i, op in enumerate(ops) if op.traced],
        }))
        notes.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        values, notes = metrics.end_to_end(untraced)
        units = _units("end_to_end")
        raw, _ = metrics.end_to_end(untraced, scaled=False)
        notes.append("unscaled: " + ", ".join(f"{k} = {v!r}" for k, v in raw.items()))
    for note in notes:
        print("# " + note)
    for name in units:
        if name in values:
            print(f"{name} = {values[name]!r} {units[name]}")
    # Reported here and through "failed"/"attempted", not as a metric: it is
    # 0 on a correct program, and a metric with a zero median has no spread.
    print(f"failed_share = {failed / len(ops)!r} share ({failed} of {len(ops)} ops)")
    missing = [name for name in units if name not in values]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 1

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    if args.results:
        with open(args.results, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": workload.name, "trace": args.trace, "env": env,
                                 "unscaled": {} if args.trace else raw, **result}) + "\n")
    print(json.dumps(result))
    return 0


def _units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
