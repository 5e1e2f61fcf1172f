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
import sys

from .data import LibsvmFormatError, load_libsvm
from .harness import (
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

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_ASSERTION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise ConfigError(message)


# Flags mirroring config-file keys; dest names match the keys exactly.
_CONFIG_FLAGS: list[tuple[str, str]] = [
    ("--dataset", "synthetic | libsvm"),
    ("--n", "synthetic sample size"),
    ("--d", "synthetic dimension"),
    ("--tau", "synthetic margin in (0, 1)"),
    ("--balance", "redraw until classes balance (true/false)"),
    ("--libsvm-path", "path to a LIBSVM text file"),
    ("--n-sub", "subsample size for libsvm data"),
    ("--normalize", "row-normalize libsvm features (true/false)"),
    ("--rbf", "map features through a Gaussian kernel (true/false)"),
    ("--rbf-centers", "number of RBF centers"),
    ("--rbf-bandwidth", "RBF bandwidth (default: median heuristic)"),
    ("--loss", "squared | squared_hinge | hinge | logistic"),
    ("--mu", "strong-convexity constant when known"),
    ("--methods", "comma list from sgd,accel,sgd_ls,accel_ls"),
    ("--step-rule-sgd", "one_over_Lmax | tau_over_L | one_over_rhoL | explicit"),
    ("--step-rule-accel", "one_over_Lmax | tau_over_L | one_over_rhoL | explicit"),
    ("--eta-sgd", "explicit step size for sgd"),
    ("--eta-accel", "explicit step size for accel"),
    ("--mode", "convex | strongly_convex schedule"),
    ("--rho-rule", "one_over_tau | c_over_tau_sq | explicit | grid"),
    ("--rho", "explicit rho"),
    ("--rho-grid", "comma list of grid candidates"),
    ("--grid-passes", "passes per grid candidate"),
    ("--audit-samples", "probe count for audit-rho"),
    ("--ls-init", "initial line-search estimate"),
    ("--passes", "effective passes over the data"),
    ("--seed", "base seed"),
    ("--sigma", "additive gradient noise level"),
    ("--averaging", "report metrics at the running iterate mean"),
    ("--out", "output directory"),
]


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    for flag, help_text in _CONFIG_FLAGS:
        sub.add_argument(flag, help=help_text)


def _merged_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                values.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    for flag, _ in _CONFIG_FLAGS:
        key = flag.lstrip("-").replace("-", "_")
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
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
    p_rep.add_argument("--n", type=int, default=8000)
    p_rep.add_argument("--d", type=int, default=100)
    p_rep.add_argument("--passes", type=int, default=30)
    p_rep.add_argument("--seed", type=int, default=0)

    p_per = subs.add_parser("perceptron", help="mistake-bound check")
    p_per.add_argument("--tau", type=float, required=True)
    p_per.add_argument("--n", type=int, required=True)
    p_per.add_argument("--d", type=int, required=True)
    p_per.add_argument("--passes", type=int, required=True)
    p_per.add_argument("--seed", type=int, default=0)

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
    written = reproduce_figure(
        args.figure,
        paths=paths,
        out_dir=args.out,
        n=args.n,
        d=args.d,
        passes=args.passes,
        seed=args.seed,
    )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_perceptron(args) -> int:
    report = perceptron_check(args.tau, args.n, args.d, args.passes, seed=args.seed)
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
    print(f"L[squared] = {lam / data.n!r}")
    print(f"L[squared_hinge] = {2.0 * lam / data.n!r}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
    except (
        FileNotFoundError,
        LibsvmFormatError,
        FloatingPointError,
        RuntimeError,
        ValueError,
        OSError,
    ) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
