"""Command-line interface.

Subcommands: ``run`` (config-driven experiment), ``reproduce`` (named
figure pipelines), ``perceptron`` (mistake-bound check), ``audit-rho``
(growth-constant estimates), ``spectral`` (Gram spectral norm of a LIBSVM
file). Every config key doubles as a flag and flags win over the file.

Exit codes: 0 success, 1 config error, 2 runtime error, 3 assertion or
acceptance failure. Output is byte-reproducible for a fixed seed; pass
``--wall-clock`` to ``run`` to record real elapsed times in its CSVs at
the cost of reproducibility (``reproduce`` always writes them as 0).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import os
import sys
import warnings

import numpy as np

from .data import load_libsvm
from .harness import (
    CONFIG_KEYS,
    FIGURES,
    ConfigError,
    ExperimentConfig,
    audit_report,
    parse_config_text,
    perceptron_check,
    reproduce_figure,
    run_experiment,
)
from .numerics import spectral_norm_gram
from .objectives import kappa

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_ASSERTION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise ConfigError(message)


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    for key in CONFIG_KEYS:
        sub.add_argument("--" + key.name.replace("_", "-"), help=key.help)


def _merged_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file (where the subcommand takes ``--config``) overlaid
    with every config-key flag the subcommand has and was given."""
    values: dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                values.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    for key in CONFIG_KEYS:
        flag_value = getattr(args, key.name, None)
        if flag_value is not None:
            values[key.name] = flag_value
    return ExperimentConfig.from_mapping(values)


def _build_parser() -> _Parser:
    parser = _Parser(prog="interpsgd", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run a configured experiment")
    _add_config_flags(p_run)
    p_run.add_argument("--wall-clock", action="store_true",
                       help="record real elapsed ms in CSVs (not reproducible)")

    p_rep = subs.add_parser("reproduce", help="emit a named figure's curves")
    p_rep.add_argument("figure", choices=FIGURES)
    p_rep.add_argument("--covtype", help="CovType LIBSVM file (fig2_covtype)")
    p_rep.add_argument("--protein", help="Protein LIBSVM file (fig2_protein)")
    p_rep.add_argument("--out", required=True, help="output directory")
    for name in ("n", "d", "passes", "seed"):
        p_rep.add_argument("--" + name)

    p_per = subs.add_parser("perceptron", help="mistake-bound check")
    for name in ("tau", "n", "d", "passes"):
        p_per.add_argument("--" + name, required=True)
    p_per.add_argument("--seed")

    p_aud = subs.add_parser("audit-rho", help="growth-constant estimates")
    _add_config_flags(p_aud)

    p_spec = subs.add_parser("spectral", help="Gram spectral norm of a file")
    p_spec.add_argument("--libsvm", required=True, help="LIBSVM text file")

    return parser


def _cmd_run(args) -> int:
    cfg = _merged_config(args)
    records = run_experiment(cfg, wall_clock=args.wall_clock)
    for method, record in zip(cfg.methods, records):
        print(f"{method}: final train_loss = {record.final_loss()!r}")
    print(f"wrote {len(records)} CSV file(s) to {cfg.out}")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    paths = {}
    if args.covtype:
        paths["covtype"] = args.covtype
    if args.protein:
        paths["protein"] = args.protein
    cfg = _merged_config(args)
    written = reproduce_figure(args.figure, paths=paths, out_dir=cfg.out,
                               n=cfg.n, d=cfg.d, passes=cfg.passes, seed=cfg.seed)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_perceptron(args) -> int:
    # the config's own checks, synthetic tau in (0, 1) among them
    cfg = _merged_config(args)
    report = perceptron_check(cfg.tau, cfg.n, cfg.d, cfg.passes, cfg.seed)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_ASSERTION


def _cmd_audit(args) -> int:
    cfg = _merged_config(args)
    for line in audit_report(cfg):
        print(line)
    return EXIT_OK


def _cmd_spectral(args) -> int:
    data = load_libsvm(args.libsvm)
    lam = spectral_norm_gram(data.X)
    print(f"n = {data.n}  d = {data.dim}")
    print(f"lambda_max(X^T X) = {lam!r}")
    for kind in ("squared", "squared_hinge"):
        print(f"L[{kind}] = {kappa(kind) * lam / data.n!r}")
    return EXIT_OK


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def _one_blas_thread() -> None:
    """Pins numpy's OpenBLAS to one thread unless the environment sets a
    count: the per-step products of ``run`` and ``reproduce`` are too small
    to share, and an idle second thread spins. The other subcommands keep
    numpy's default. ``audit-rho``'s RBF map and Gram products take less
    wall time on two threads and its growth audit about the same, so
    neither count is clearly faster there (README). Does nothing where the
    library is not found."""
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        try:
            set_threads = ctypes.CDLL(lib).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def main(argv: list[str] | None = None) -> int:
    # one line per warning, without the source path and line number that
    # would tie stderr's bytes to the layout of the code
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        return _main(argv)


def _main(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("run", "reproduce"):
            _one_blas_thread()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "reproduce":
            return _cmd_reproduce(args)
        if args.command == "perceptron":
            return _cmd_perceptron(args)
        if args.command == "audit-rho":
            return _cmd_audit(args)
        return _cmd_spectral(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # RunError is a RuntimeError, LibsvmFormatError a ValueError and a
    # missing file an OSError; Warning covers those that ``python -W error``
    # turns into exceptions outside a run
    except (FloatingPointError, RuntimeError, ValueError, OSError, Warning) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
