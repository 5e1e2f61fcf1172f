"""SHA-256 hashes of everything the CLI writes, for before/after comparisons.

Runs a fixed set of argvs through ``python -m interpsgd.cli`` and records,
per argv, the exit code and the SHA-256 of stdout, stderr and every file
the run wrote, and each CSV's ``train_loss`` column as written. A change
that should leave outputs alone is checked by hashing the parent tree and
the changed tree and comparing the two files:

    python tools/output_hashes.py --threads 1 --repo ../parent parent.json
    python tools/output_hashes.py --threads 1 change.json
    python tools/output_hashes.py --compare parent.json change.json

``--threads N`` sets ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` to N
for every argv and records N in the JSON; without it the children inherit
the environment and the JSON records the count as not set. Outputs depend
on the BLAS thread count (see README's Reproducibility section), so
``--compare`` prints the count of both sides first (unless neither JSON
records one) and says when they differ.

The small set (96 argvs, about a minute) covers every subcommand at
200x10 scale, fig2 on a toy LIBSVM file, 23 ``run`` variants, two Acc-SGD
runs that settle (500x50 at 20 passes, and 200x10 at 30 passes in strongly
convex mode), ``--help``,
config errors (a margin band over the draw budget through ``run`` and
``reproduce fig1a`` among them), ``perceptron`` with too few passes or τ
above 1, a diverging run, the hinge combinations, ``spectral`` and ``run``
on a wide 20x200 file
whose top two singular values are 1 and 1 - 1e-9, ``spectral`` on a
200x10 file whose rows have norm 1e150, and ``spectral`` and ``audit-rho``
on a sparse 120x12 file (zeros omitted, indices unordered, a comment line
and a label-only row), whose lines the reader places one by one, and
``spectral`` and a 20-probe ``audit-rho`` on a dense 20000x54 file (about
24 MB), which the reader splits into parts on a machine with more than one
CPU and whose growth ratios take 17 chunks of rows. ``--full`` adds
``reproduce fig1a..fig1d`` at n = 8000, d = 100, 30 passes with seeds 0-3,
``reproduce app_ls`` at its defaults, and Acc-SGD and Acc-SGD(LS) at the
same scale and tau = 0.1 in strongly convex mode and with averaging, both
converging to interpolation, and ``run`` on a margin band within the draw
budget that rejects more than a million rows in a row (about 15 s; 20
argvs, 116 in all).

Each argv runs in a fresh temporary directory with ``COLUMNS=80`` and
relative paths, so outputs do not depend on where either tree lives; the
tree's ``src`` directory and the temporary directory are replaced by
``<src>`` and ``<tmp>`` in stdout and stderr before hashing. Input files
(config files and five LIBSVM files) are written by this script with
numpy alone, so both trees read the same bytes.

``--compare`` lists the argvs that differ, and reads each differing CSV
by the curve rule of this tree's ``records.compare_curves``, which the
tests' ``assert_within_tolerance`` also applies: the largest |Δ log10
loss| over the rows whose old loss is above 1e-10 (inf where it is nan),
which measures a change meant to move curves only in their last digits;
whether every row at or below 1e-10 stayed there; and whether the old
curve diverged (a loss above 10x its first), in which case its rows past
that factor need only stay past 10x the new curve's first loss. For a
differing stdout it prints the old and new lines that differ (a ``run``
argv prints each curve's ``final train_loss``, so a curve that moves in
its last digits moves these lines too). A JSON written by an older
version of this script has no ``train_loss`` columns or stdout text: its
hashes still compare, but its CSVs get no verdict, its stdout no lines
and its thread count reads as unrecorded.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
from interpsgd.records import compare_curves  # noqa: E402

SMALL = ["--n", "200", "--d", "10", "--passes", "3"]
RUN = ["run", *SMALL, "--out", "out"]
LIBSVM = ["--dataset", "libsvm", "--libsvm-path", "toy.txt"]
FIG1A = ["reproduce", "fig1a", "--out", "out"]
HINGE = ["run", "--n", "60", "--d", "8", "--passes", "1", "--out", "out", "--loss", "hinge"]

EXP_CFG = (
    "dataset = synthetic\nn = 120\nd = 10\ntau = 0.1\n"
    "methods = sgd,accel,sgd_ls,accel_ls\nstep_rule_accel = tau_over_L\n"
    "passes = 2\nseed = 6\nout = run_out\n"
)


def small_argvs() -> dict[str, list[str]]:
    argvs = {
        "crit12_run": ["run", "--config", "exp.cfg"],
        "crit12_reproduce": ["reproduce", "fig1a", "--out", "fig_out",
                             "--n", "120", "--d", "10", "--passes", "2", "--seed", "1"],
        "crit12_perceptron": ["perceptron", "--tau", "0.1", "--n", "50", "--d", "6",
                              "--passes", "15", "--seed", "1"],
        "crit12_audit": ["audit-rho", "--config", "exp.cfg"],
        "crit12_spectral": ["spectral", "--libsvm", "toy.txt"],
        "perceptron_passes2": ["perceptron", "--tau", "0.1", "--n", "200", "--d", "5",
                               "--passes", "2"],
        "perceptron_tau_above_one": ["perceptron", "--tau", "1.5", "--n", "50", "--d", "5",
                                     "--passes", "10"],
        "run_diverging_sgd": ["run", "--step-rule-sgd", "explicit", "--eta-sgd", "5",
                              "--methods", "sgd", "--n", "200", "--d", "5", "--passes", "3",
                              "--out", "out"],
    }
    for fig in ("fig1a", "fig1b", "fig1c", "fig1d", "app_ls"):
        for seed in ("0", "5"):
            argvs[f"{fig}_seed{seed}"] = ["reproduce", fig, "--out", "out", *SMALL,
                                          "--seed", seed]
    for fig, flag in (("fig2_covtype", "--covtype"), ("fig2_protein", "--protein")):
        argvs[fig] = ["reproduce", fig, flag, "toy.txt", "--passes", "3", "--out", "out"]
        argvs[f"{fig}_sub"] = [*argvs[fig], "--n", "100"]
    argvs["fig2_no_file"] = ["reproduce", "fig2_covtype", "--out", "out"]
    argvs["unknown_figure"] = ["reproduce", "fig99", "--out", "out"]
    runs = {
        "libsvm_n_sub": [*LIBSVM, "--n-sub", "100"],
        "libsvm_normalize": [*LIBSVM, "--normalize", "true"],
        "libsvm_rbf": [*LIBSVM, "--rbf", "true", "--rbf-centers", "20"],
        "libsvm_rbf_bandwidth": [*LIBSVM, "--rbf", "true", "--rbf-centers", "20",
                                 "--rbf-bandwidth", "0.5"],
        "libsvm_missing": ["--dataset", "libsvm", "--libsvm-path", "missing.txt"],
        "libsvm_tau0": [*LIBSVM, "--tau", "0"],
        "libsvm_tau0_tau_over_L": [*LIBSVM, "--tau", "0", "--rho-rule", "explicit",
                                   "--step-rule-accel", "tau_over_L"],
        "grid": ["--methods", "accel", "--rho-rule", "grid", "--rho-grid", "0.01,16,64"],
        "c_over_tau_sq": ["--rho-rule", "c_over_tau_sq"],
        "explicit_rho": ["--rho-rule", "explicit", "--rho", "3"],
        "explicit_eta": ["--step-rule-sgd", "explicit", "--eta-sgd", "0.5",
                         "--step-rule-accel", "explicit", "--eta-accel", "0.01"],
        "swapped_rules": ["--step-rule-sgd", "tau_over_L", "--step-rule-accel",
                          "one_over_Lmax"],
        "strongly_convex": ["--mode", "strongly_convex", "--mu", "0.01"],
        "strongly_convex_accel_ls": ["--methods", "accel_ls", "--mode", "strongly_convex",
                                     "--mu", "0.01"],
        "averaging": ["--averaging", "true"],
        "averaging_ls": ["--averaging", "true", "--methods", "sgd_ls,accel_ls"],
        "sigma": ["--sigma", "0.1"],
        "logistic_ls": ["--loss", "logistic", "--methods", "sgd_ls,accel_ls"],
        "squared_all": ["--loss", "squared", "--methods", "sgd,accel,sgd_ls,accel_ls"],
        "hinge_tau_over_L": ["--loss", "hinge", "--step-rule-sgd", "tau_over_L",
                             "--step-rule-accel", "tau_over_L"],
        "dense_accel": ["--tau", "0.005", "--methods", "accel,accel_ls",
                        "--step-rule-accel", "tau_over_L"],
        "dense_accel_strongly_convex": ["--tau", "0.005", "--methods", "accel,accel_ls",
                                        "--step-rule-accel", "tau_over_L",
                                        "--mode", "strongly_convex", "--mu", "0.01"],
    }
    argvs.update({f"run_{name}": [*RUN, *flags] for name, flags in runs.items()})
    # L = 1.037 on this data, so mu = 1 is feasible at L but not at the
    # line search's first estimate, ls_init = 1
    argvs["run_strongly_convex_ls_from_below_mu"] = [
        "run", "--methods", "accel,accel_ls", "--mode", "strongly_convex", "--mu", "1.0",
        "--n", "200", "--d", "2", "--passes", "2", "--out", "out"]
    # Acc-SGD runs that settle: every later gradient is certified zero, and
    # the passes after that log their rows without stepping (one curve of
    # the first, both of the second)
    settles = ["run", "--tau", "0.1", "--methods", "accel,accel_ls",
               "--step-rule-accel", "tau_over_L", "--out", "out"]
    argvs["run_settles"] = [*settles, "--n", "500", "--d", "50", "--passes", "20"]
    argvs["run_settles_strongly_convex"] = [*settles, "--n", "200", "--d", "10",
                                            "--passes", "30", "--mode", "strongly_convex",
                                            "--mu", "0.001"]
    argvs["audit"] = ["audit-rho", *SMALL]
    argvs["audit_grid"] = ["audit-rho", *SMALL, "--rho-rule", "grid",
                           "--rho-grid", "0.01,16", "--grid-passes", "3"]
    argvs["spectral_wide"] = ["spectral", "--libsvm", "wide.txt"]
    argvs["run_wide"] = ["run", "--dataset", "libsvm", "--libsvm-path", "wide.txt",
                         "--tau", "0.1", "--step-rule-accel", "tau_over_L", "--passes", "3",
                         "--out", "out"]
    argvs["spectral_huge"] = ["spectral", "--libsvm", "huge.txt"]
    argvs["spectral_sparse"] = ["spectral", "--libsvm", "sparse.txt"]
    argvs["audit_sparse"] = ["audit-rho", "--dataset", "libsvm", "--libsvm-path", "sparse.txt"]
    argvs["spectral_big"] = ["spectral", "--libsvm", "big.txt"]
    # 20000 rows of 54 features span 17 chunks of the growth ratio's pass
    argvs["audit_big"] = ["audit-rho", "--dataset", "libsvm", "--libsvm-path", "big.txt",
                          "--audit-samples", "20"]
    argvs["help"] = ["--help"]
    for sub in ("run", "reproduce", "perceptron", "audit-rho", "spectral"):
        argvs[f"help_{sub}"] = [sub, "--help"]
    errors = {
        "missing_config": ["run", "--config", "nope.cfg"],
        "unknown_key": ["run", "--config", "bad.cfg"],
        "unknown_flag": ["run", "--bogus", "1"],
        "unknown_method": [*RUN, "--methods", "sgd,adam"],
        "libsvm_without_path": [*RUN, "--dataset", "libsvm"],
        "grid_without_grid": [*RUN, "--rho-rule", "grid"],
        "bad_number": [*RUN, "--passes", "three"],
        "bad_dataset": [*RUN, "--dataset", "foo"],
        "bad_mode": [*RUN, "--mode", "bogus"],
        "explicit_without_eta": [*RUN, "--methods", "sgd", "--step-rule-sgd", "explicit"],
        "bad_loss": [*RUN, "--loss", "foo"],
        "rho_negative": [*RUN, "--rho-rule", "explicit", "--rho", "-1"],
        "rho_zero": [*RUN, "--rho-rule", "explicit", "--rho", "0"],
        "sc_without_mu": [*RUN, "--mode", "strongly_convex"],
        "sc_mu_zero": [*RUN, "--mode", "strongly_convex", "--mu", "0"],
        "passes_zero": [*FIG1A, "--passes", "0", "--n", "50", "--d", "5"],
        "n_negative": ["reproduce", "fig1b", "--out", "out", "--n", "-5"],
        "d_one": [*FIG1A, "--d", "1", "--n", "50", "--passes", "1"],
        "seed_text": [*FIG1A, "--seed", "x", "--n", "50", "--d", "5"],
        "tau_nan": ["run", "--out", "out", "--tau", "nan"],
        "tau_above_one": ["run", "--tau", "1.5", "--n", "50", "--d", "5", "--passes", "2",
                          "--out", "out"],
        "sigma_negative": [*RUN, "--sigma", "-1"],
        "sigma_nan": [*RUN, "--sigma", "nan"],
        # a band that keeps 1.04e-4 of the sphere: over the draw budget
        "band_over_budget": ["run", "--n", "3000", "--d", "1500", "--tau", "0.1",
                             "--out", "out"],
        "band_over_budget_fig1a": ["reproduce", "fig1a", "--n", "3000", "--d", "1500",
                                   "--out", "out"],
    }
    argvs.update({f"error_{name}": argv for name, argv in errors.items()})
    hinge = {
        "defaults": [],
        "sgd_default_accel_rule": ["--methods", "sgd", "--step-rule-accel", "tau_over_L"],
        "accel_default_rule": ["--methods", "accel", "--step-rule-sgd", "tau_over_L"],
        "sgd_one_over_rhoL": ["--methods", "sgd", "--step-rule-sgd", "one_over_rhoL"],
        "sgd_ls": ["--methods", "sgd_ls"],
        "accel_ls": ["--methods", "accel_ls", "--step-rule-accel", "tau_over_L"],
        "grid": ["--step-rule-sgd", "tau_over_L", "--step-rule-accel", "tau_over_L",
                 "--rho-rule", "grid", "--rho-grid", "1,2"],
    }
    argvs.update({f"hinge_{name}": [*HINGE, *flags] for name, flags in hinge.items()})
    return argvs


def full_argvs() -> dict[str, list[str]]:
    argvs = {}
    for fig in ("fig1a", "fig1b", "fig1c", "fig1d"):
        for seed in range(4):
            argvs[f"full_{fig}_seed{seed}"] = [
                "reproduce", fig, "--n", "8000", "--d", "100", "--passes", "30",
                "--seed", str(seed), "--out", "out",
            ]
    argvs["full_app_ls"] = ["reproduce", "app_ls", "--out", "out"]
    accel = ["run", "--n", "8000", "--d", "100", "--tau", "0.1", "--passes", "30",
             "--methods", "accel,accel_ls", "--step-rule-accel", "tau_over_L", "--out", "out"]
    argvs["full_accel_strongly_convex"] = [*accel, "--mode", "strongly_convex", "--mu", "0.001"]
    argvs["full_accel_averaging"] = [*accel, "--averaging", "true"]
    # a band that keeps 2.0e-7 of the sphere, within the draw budget: about
    # 5e8 normals, with runs of more than a million rejected rows
    argvs["full_band_in_budget"] = ["run", "--n", "2", "--d", "50", "--tau", "0.6535",
                                    "--passes", "1", "--out", "out"]
    return argvs


def write_libsvm(path: Path, X: np.ndarray, rng: np.random.Generator) -> None:
    """Dense LIBSVM rows of X, labelled by the sign of a random direction."""
    y = np.where(X @ rng.normal(size=X.shape[1]) >= 0.0, 1, -1)
    lines = [f"{label} " + " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(row.tolist()))
             for label, row in zip(y.tolist(), X)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_sparse_libsvm(path: Path, rng: np.random.Generator) -> None:
    """Sparse LIBSVM rows after a comment line: about half of each row's
    entries are zero and omitted, the rest are written in shuffled index
    order, and one row of zeros is a label-only line."""
    X = rng.normal(size=(120, 12))
    X[rng.random(X.shape) < 0.5] = 0.0
    X[7] = 0.0
    y = np.where(X @ rng.normal(size=X.shape[1]) >= 0.0, 1, -1)
    lines = ["# sparse rows: zeros omitted, indices unordered"]
    for label, row in zip(y.tolist(), X):
        values = row.tolist()
        cols = rng.permutation(np.flatnonzero(row)).tolist()
        lines.append(" ".join([f"{label}", *(f"{j + 1}:{values[j]!r}" for j in cols)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(directory: Path, argv: list[str]) -> set[str]:
    """The input files an argv may read; returns their names. The large
    big.txt is written only for the argvs that name it."""
    (directory / "exp.cfg").write_text(EXP_CFG, encoding="utf-8")
    (directory / "bad.cfg").write_text("nonsense = 1\n", encoding="utf-8")
    rng = np.random.default_rng(8)
    write_libsvm(directory / "toy.txt", rng.normal(size=(150, 8)), rng)
    # wide: singular values 1, 1 - 1e-9, then 0.5 down to 0.1
    rng = np.random.default_rng(9)
    U = np.linalg.qr(rng.normal(size=(20, 20)))[0]
    V = np.linalg.qr(rng.normal(size=(200, 20)))[0]
    s = np.concatenate([[1.0, 1.0 - 1e-9], np.linspace(0.5, 0.1, 18)])
    write_libsvm(directory / "wide.txt", (U * s) @ V.T, rng)
    # huge: rows of norm 1e150, whose Gram matrix is still finite
    X = rng.normal(size=(200, 10))
    X *= 1e150 / np.linalg.norm(X, axis=1, keepdims=True)
    write_libsvm(directory / "huge.txt", X, rng)
    write_sparse_libsvm(directory / "sparse.txt", np.random.default_rng(10))
    names = {"exp.cfg", "bad.cfg", "toy.txt", "wide.txt", "huge.txt", "sparse.txt"}
    if "big.txt" in argv:
        rng = np.random.default_rng(11)
        write_libsvm(directory / "big.txt", rng.normal(size=(20000, 54)), rng)
        names.add("big.txt")
    return names


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def train_loss_column(blob: bytes) -> list[str] | None:
    """The CSV's ``train_loss`` column as written, or None if it has none."""
    rows = list(csv.reader(blob.decode(errors="replace").splitlines()))
    if not rows or "train_loss" not in rows[0]:
        return None
    j = rows[0].index("train_loss")
    return [row[j] if j < len(row) else "" for row in rows[1:]]


def verdict(old: list[str], new: list[str]) -> str:
    """Two ``train_loss`` columns read by ``records.compare_curves``."""
    try:
        rule = compare_curves([float(x) for x in old], [float(x) for x in new])
    except ValueError as exc:  # an unparsable row, or row counts that differ
        return str(exc)
    diverged = ("diverged, " + ("divergence kept" if rule.divergence_kept else "DIVERGENCE LOST")
                if rule.reference_diverged else "did not diverge")
    return (f"above 1e-10 max |Δ log10 loss| = {rule.max_log10_delta:.1e}, "
            f"{'floor kept' if rule.floor_kept else 'FLOOR LEFT'}, old curve {diverged}")


def hash_argv(src: Path, argv: list[str], threads: int | None = None) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_inputs(Path(tmp), argv)
        env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(src))
        if threads is not None:
            env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        proc = subprocess.run([sys.executable, "-m", "interpsgd.cli", *argv], cwd=tmp,
                              env=env, capture_output=True)

        def clean(blob: bytes) -> bytes:
            return blob.replace(str(src).encode(), b"<src>").replace(tmp.encode(), b"<tmp>")

        files, train_loss = {}, {}
        for path in sorted(Path(tmp).rglob("*")):
            rel = path.relative_to(tmp).as_posix()
            if path.is_file() and rel not in inputs:
                blob = path.read_bytes()
                files[rel] = sha256(blob)
                column = train_loss_column(blob) if rel.endswith(".csv") else None
                if column is not None:
                    train_loss[rel] = column
        stdout, stderr = clean(proc.stdout), clean(proc.stderr)
        return {
            "argv": argv,
            "exit": proc.returncode,
            "stdout": sha256(stdout),
            "stderr": sha256(stderr),
            "stdout_text": stdout.decode(errors="replace"),
            "stderr_text": stderr.decode(errors="replace"),
            "files": files,
            "train_loss": train_loss,
        }


def changed_lines(old: str, new: str) -> list[str]:
    """The lines of ``old`` and ``new`` that differ, as ``  old: ...`` and
    ``  new: ...``, in the order of a diff without context."""
    lines = difflib.unified_diff(old.splitlines(), new.splitlines(), lineterm="", n=0)
    return [f"  {'old' if line[0] == '-' else 'new'}: {line[1:]}" for line in lines
            if line[:1] in "-+" and not line.startswith(("---", "+++"))]


# a JSON written by an older version of this script holds the entries alone
UNRECORDED = "unrecorded"


def unpack(data: dict) -> tuple[int | str | None, dict]:
    """(BLAS thread count, entries per argv) of a written JSON: the count
    is None if it was written without ``--threads``, and ``UNRECORDED`` if
    it was written by an older version of this script."""
    if "argvs" in data and "blas_threads" in data:
        return data["blas_threads"], data["argvs"]
    return UNRECORDED, data


def compare(old: dict, new: dict) -> int:
    """Print the BLAS thread counts of both sides (unless neither JSON
    records one) and every argv whose entry differs; returns the count of
    those argvs."""
    (old_threads, old), (new_threads, new) = unpack(old), unpack(new)
    if (old_threads, new_threads) != (UNRECORDED, UNRECORDED):
        count = lambda n: "not set" if n is None else str(n)
        print(f"BLAS threads: old {count(old_threads)}, new {count(new_threads)}"
              + ("" if old_threads == new_threads else " (they differ)"))
    differing = 0
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            print(f"{name}: only in {'new' if a is None else 'old'}")
            differing += 1
            continue
        fields = [k for k in ("exit", "stdout", "stderr", "files") if a[k] != b[k]]
        if fields:
            differing += 1
            print(f"{name}: {', '.join(fields)} differ")
            if "stdout" in fields and "stdout_text" in a and "stdout_text" in b:
                for line in changed_lines(a["stdout_text"], b["stdout_text"]):
                    print(line)
            if "stderr" in fields:
                print("  old stderr:\n    " + a["stderr_text"].rstrip().replace("\n", "\n    "))
                print("  new stderr:\n    " + b["stderr_text"].rstrip().replace("\n", "\n    "))
            if "files" in fields:
                for f in sorted(a["files"].keys() | b["files"].keys()):
                    if a["files"].get(f) != b["files"].get(f):
                        line = (f"  file {f}: {a['files'].get(f, '-')[:12]} -> "
                                f"{b['files'].get(f, '-')[:12]}")
                        old_col = a.get("train_loss", {}).get(f)
                        new_col = b.get("train_loss", {}).get(f)
                        if old_col is not None and new_col is not None:
                            line += "; " + verdict(old_col, new_col)
                        print(line)
    total = len(old.keys() | new.keys())
    print(f"{total - differing} of {total} argvs identical")
    return differing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="JSON file to write")
    parser.add_argument("--repo", default=str(REPO), help="tree to hash (default: this one)")
    parser.add_argument("--full", action="store_true", help="add the 20 full-scale argvs")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two JSON files instead of hashing")
    parser.add_argument("--threads", type=int, metavar="N",
                        help="set OPENBLAS_NUM_THREADS and OMP_NUM_THREADS to N for every "
                             "argv, and record N (default: the environment's, recorded as "
                             "not set)")
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    if args.compare:
        old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        return 1 if compare(old, new) else 0
    if not args.out:
        parser.error("an output JSON file is required")
    argvs = small_argvs()
    if args.full:
        argvs.update(full_argvs())
    src = Path(args.repo).resolve() / "src"
    results = {name: hash_argv(src, a, args.threads) for name, a in argvs.items()}
    written = {"blas_threads": args.threads, "argvs": results}
    Path(args.out).write_text(json.dumps(written, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    threads = "" if args.threads is None else f" at {args.threads} BLAS thread(s)"
    print(f"hashed {len(results)} argvs from {src}{threads} into {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
