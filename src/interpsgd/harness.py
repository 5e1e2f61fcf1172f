"""Experiment harness: config handling, end-to-end pipelines, rate fits,
perceptron mistake-bound checks, and CSV emission.

Config files are flat ``key = value`` text (one pair per line, ``#`` lines
ignored); every key is also a CLI flag and flags win. The keys, their
defaults, parsers, checks and help texts are one table, :data:`CONFIG_KEYS`;
the README lists the same keys. Output per method is one CSV (dialect in
:mod:`interpsgd.records`) plus a ``config.txt`` echo; figure pipelines add
a ``manifest.txt`` mapping curve labels to CSV filenames. All pipelines
are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .data import (
    balance_reachable,
    default_rbf_config,
    generate_margin_data,
    load_libsvm,
    normalize_rows,
    rbf_features,
    subsample,
)
from .growth import audit_sgc, grid_search_rho, rho_sgc_margin, rho_wgc
from .numerics import make_rng
from .objectives import LOSS_KINDS, Dataset, Objective
from .optimizers import METHODS, RunConfig, RunError, run
from .records import LOSS_FLOOR, MetricRow, RunRecord

__all__ = [
    "CONFIG_KEYS",
    "ConfigError",
    "ExperimentConfig",
    "FIGURES",
    "PerceptronReport",
    "RateFit",
    "fit_rate",
    "parse_config_text",
    "perceptron_check",
    "reproduce_figure",
    "run_experiment",
]


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


STEP_RULES = ("one_over_Lmax", "tau_over_L", "one_over_rhoL", "explicit")
RHO_RULES = ("one_over_tau", "c_over_tau_sq", "explicit", "grid")


def _text(key: str, value: str) -> str:
    return value


def _parse_bool(key: str, value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _optional(parse):
    """An empty value means "not set" (None)."""
    return lambda key, value: parse(key, value) if value else None


def _parse_methods(key: str, value: str) -> tuple[str, ...]:
    methods = tuple(m.strip() for m in value.split(",") if m.strip())
    if not methods:
        raise ConfigError("at least one method is required")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; expected one of {METHODS}")
        if m in methods[:i]:  # both runs would write <out>/<method>.csv
            raise ConfigError(f"method {m!r} listed twice")
    return methods


def _one_of(choices: tuple[str, ...], message: str = "must be one of {choices}"):
    def parse(key, value):
        if value not in choices:
            raise ConfigError(f"{key} " + message.format(choices=choices, value=value))
        return value

    return parse


def _float_where(ok: Callable[[float], bool], requirement: str):
    def parse(key, value):
        number = _parse_float(key, value)
        if not ok(number):
            raise ConfigError(f"{key} must be {requirement}, got {number!r}")
        return number

    return parse


def _at_least(low: int):
    def parse(key, value):
        number = _parse_int(key, value)
        if number < low:
            raise ConfigError(f"{key} must be >= {low}, got {number}")
        return number

    return parse


_positive = _float_where(lambda x: 0.0 < x < math.inf, "positive and finite")


def _positives(key: str, value: str) -> tuple[float, ...]:
    return tuple(_positive(key, tok) for tok in value.split(",") if tok.strip())


class ConfigKey(NamedTuple):
    name: str
    default: str  # as written in a config file; "" means not set
    parse: Callable[[str, str], object]  # (key, text) -> checked typed value
    help: str


# Every config key, in CLI flag order. The defaults, the key check of
# parse_config_text, ExperimentConfig's attributes and checks, and the CLI
# flags (``n_sub`` becomes ``--n-sub``) all come from this table.
CONFIG_KEYS = (
    ConfigKey("dataset", "synthetic",
              _one_of(("synthetic", "libsvm"), "must be synthetic or libsvm, got {value!r}"),
              "synthetic | libsvm"),
    ConfigKey("n", "8000", _at_least(2), "synthetic sample size"),
    ConfigKey("d", "100", _at_least(2), "synthetic dimension"),
    ConfigKey("tau", "0.1", _float_where(lambda x: not math.isnan(x), "a number"),
              "synthetic margin in (0, 1)"),
    ConfigKey("balance", "false", _parse_bool, "redraw until classes balance (true/false)"),
    ConfigKey("libsvm_path", "", _text, "path to a LIBSVM text file"),
    ConfigKey("n_sub", "", _optional(_at_least(1)), "subsample size for libsvm data"),
    ConfigKey("normalize", "false", _parse_bool, "row-normalize libsvm features (true/false)"),
    ConfigKey("rbf", "false", _parse_bool, "map features through a Gaussian kernel (true/false)"),
    ConfigKey("rbf_centers", "300", _at_least(1), "number of RBF centers"),
    ConfigKey("rbf_bandwidth", "", _optional(_positive),
              "RBF bandwidth (default: median heuristic)"),
    ConfigKey("loss", "squared_hinge", _one_of(LOSS_KINDS), " | ".join(LOSS_KINDS)),
    ConfigKey("mu", "", _optional(_parse_float), "strong-convexity constant when known"),
    ConfigKey("methods", "sgd,accel", _parse_methods, "comma list from " + ",".join(METHODS)),
    ConfigKey("step_rule_sgd", "one_over_Lmax", _one_of(STEP_RULES), " | ".join(STEP_RULES)),
    ConfigKey("step_rule_accel", "one_over_rhoL", _one_of(STEP_RULES), " | ".join(STEP_RULES)),
    ConfigKey("eta_sgd", "", _optional(_positive), "explicit step size for sgd"),
    ConfigKey("eta_accel", "", _optional(_positive), "explicit step size for accel"),
    ConfigKey("mode", "convex",
              _one_of(("convex", "strongly_convex"), "must be convex or strongly_convex"),
              "convex | strongly_convex schedule"),
    ConfigKey("rho_rule", "one_over_tau", _one_of(RHO_RULES), " | ".join(RHO_RULES)),
    ConfigKey("rho", "1.0", _parse_float, "explicit rho"),
    ConfigKey("rho_grid", "", _positives, "comma list of grid candidates"),
    ConfigKey("grid_passes", "5", _at_least(1), "passes per grid candidate"),
    ConfigKey("audit_samples", "200", _at_least(1), "probe count for audit-rho"),
    ConfigKey("ls_init", "1.0", _positive, "initial line-search estimate"),
    ConfigKey("passes", "30", _at_least(1), "effective passes over the data"),
    ConfigKey("seed", "0", _at_least(0), "base seed"),
    ConfigKey("sigma", "0.0", _float_where(lambda x: x >= 0.0, ">= 0"),
              "additive gradient noise level"),
    ConfigKey("averaging", "false", _parse_bool, "report metrics at the running iterate mean"),
    ConfigKey("out", "results", _text, "output directory"),
)

_DEFAULTS = {key.name: key.default for key in CONFIG_KEYS}


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key = value lines; ``#`` comment lines and blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


class ExperimentConfig:
    """Typed view of a merged config mapping: one read-only attribute per
    :data:`CONFIG_KEYS` entry (``cfg.n``, ``cfg.methods``, ...) plus ``raw``,
    the merged key -> text mapping. Build it with :meth:`from_mapping`."""

    def __init__(self, values: dict[str, object], raw: dict[str, str]):
        self.__dict__.update(values, raw=raw)

    def __setattr__(self, name, value):
        raise AttributeError("ExperimentConfig is read-only")

    @staticmethod
    def from_mapping(values: dict[str, str]) -> "ExperimentConfig":
        """Defaults overlaid with ``values``, parsed and checked key by key,
        then across keys; raises ConfigError before any work is done."""
        merged = dict(_DEFAULTS)
        for key, val in values.items():
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = val
        typed = {key.name: key.parse(key.name, merged[key.name]) for key in CONFIG_KEYS}
        cfg = ExperimentConfig(typed, merged)
        if cfg.dataset == "libsvm" and not cfg.libsvm_path:
            raise ConfigError("libsvm dataset requires libsvm_path")
        if cfg.dataset == "synthetic" and not 0.0 < cfg.tau < 1.0:
            raise ConfigError(f"tau must be in (0, 1) for synthetic data, got {cfg.tau!r}")
        if cfg.dataset == "libsvm" and not 0.0 <= cfg.tau < math.inf:
            raise ConfigError(f"tau must be >= 0 and finite for libsvm data, got {cfg.tau!r}")
        if cfg.dataset == "synthetic" and cfg.balance and not balance_reachable(cfg.n):
            raise ConfigError(
                f"balance = true: no labeling of n = {cfg.n} points is class-balanced"
            )
        if cfg.rho_rule == "grid" and not cfg.rho_grid:
            raise ConfigError("rho_rule = grid requires rho_grid")
        if cfg.rho_rule == "grid" and cfg.loss == "hinge":
            raise ConfigError(
                "rho_rule = grid runs Acc-SGD at eta = 1/(rho L), "
                "which the non-smooth hinge loss lacks"
            )
        if cfg.rho_rule == "explicit" and not cfg.rho > 0:
            raise ConfigError(f"rho_rule = explicit requires rho > 0, got {cfg.rho!r}")
        if cfg.rho_rule == "explicit" and cfg.rho == math.inf:
            raise ConfigError("rho_rule = explicit requires a finite rho, got inf")
        if cfg.mode == "strongly_convex" and not (cfg.mu is not None and cfg.mu > 0):
            raise ConfigError("mode = strongly_convex requires mu > 0")
        return cfg


def _margin_data(n: int, d: int, tau: float, seed: int, balance: bool = False) -> Dataset:
    """``generate_margin_data``, whose every ValueError (a bad n, d or tau,
    an unreachable balance, a band over the draw budget) is raised before
    any draw and is a ConfigError here."""
    try:
        return generate_margin_data(n, d, tau, seed=seed, balance=balance)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset == "synthetic":
        return _margin_data(cfg.n, cfg.d, cfg.tau, cfg.seed, cfg.balance)
    data = load_libsvm(cfg.libsvm_path)
    if cfg.n_sub is not None and cfg.n_sub < data.n:
        data = subsample(data, cfg.n_sub, seed=cfg.seed)
    if cfg.normalize:
        data = normalize_rows(data)
    if cfg.rbf:
        rbf_cfg = default_rbf_config(
            data.X, make_rng(cfg.seed + 1), m=cfg.rbf_centers
        )
        if cfg.rbf_bandwidth is not None:
            rbf_cfg = type(rbf_cfg)(
                centers=rbf_cfg.centers, bandwidth=cfg.rbf_bandwidth
            )
        data = Dataset(X=rbf_features(data.X, rbf_cfg), y=data.y)
    return data


def build_objective(cfg: ExperimentConfig) -> Objective:
    return Objective(cfg.loss, build_dataset(cfg), mu=cfg.mu)


def _margin(obj: Objective, tau, needed_by: str) -> float:
    """The data set's own margin, else ``tau``."""
    tau = obj.data.tau if obj.data.tau is not None else tau
    if not tau:
        raise ConfigError(f"{needed_by} requires a margin tau")
    return tau


def _grid_search(cfg: ExperimentConfig, obj: Objective):
    return grid_search_rho(
        obj, list(cfg.rho_grid), cfg.grid_passes, seed=cfg.seed, mode=cfg.mode, mu=cfg.mu
    )


def resolve_rho(cfg: ExperimentConfig, obj: Objective) -> float:
    if cfg.rho_rule == "one_over_tau":
        return 1.0 / _margin(obj, cfg.tau, "rho_rule one_over_tau")
    if cfg.rho_rule == "c_over_tau_sq":
        return rho_sgc_margin(obj.data).rho
    if cfg.rho_rule == "explicit":
        return cfg.rho
    return _grid_search(cfg, obj).rho


def _tau_over_L(obj: Objective, tau, rho: float) -> float:
    # L here is the unnormalized Gram spectral norm: the mean-scaled constant
    # would make eta * L_max exceed 2 at realistic n, and the run diverges
    tau = _margin(obj, tau, "step rule tau_over_L")
    return tau / obj.gram_lam_max


class _EtaRule(NamedTuple):
    eta: Callable[[Objective, float | None, float], float]  # (obj, tau, rho) -> eta
    smooth: bool  # reads L or L_max, which the non-smooth hinge loss lacks


# The constant step-size rules. "explicit" takes eta from the config and
# "line_search" leaves it to the method; one_over_rho_gram is fig2's only.
_ETA_RULES = {
    "one_over_Lmax": _EtaRule(lambda obj, tau, rho: 1.0 / obj.L_max, True),
    "tau_over_L": _EtaRule(_tau_over_L, False),
    "one_over_rhoL": _EtaRule(lambda obj, tau, rho: 1.0 / (rho * obj.L), True),
    "one_over_rho_gram": _EtaRule(lambda obj, tau, rho: 1.0 / (rho * obj.gram_lam_max), False),
}


def _curves(specs, obj, tau, rho, seed, explicit, **options) -> list[tuple]:
    """(label, filename, method, objective, RunConfig) per spec (label,
    filename, method, step rule, seed offset) on one data set, with label and
    filename formatted with tau and eta resolved before any run."""
    curves = []
    for label, filename, method, rule, offset in specs:
        if rule in _ETA_RULES:
            eta = _ETA_RULES[rule].eta(obj, tau, rho)
        elif rule == "explicit":
            eta = explicit.get(method)
            if eta is None:
                raise ConfigError(f"step rule explicit requires eta for method {method}")
        else:
            eta = None  # line search owns the step size
        config = RunConfig(eta=eta, rho=rho, seed=seed + offset, **options)
        curves.append((label.format(tau=tau), filename.format(tau=tau), method, obj, config))
    return curves


def _run_curves(curves, passes: int, out_dir, texts, wall_clock=False) -> list[RunRecord]:
    """Run every curve, then write their CSVs and ``texts``: a failed run
    writes nothing. A curve that diverged (:meth:`RunRecord.diverged`) is
    still written, with a warning on stderr."""
    records = []
    for _, _, method, obj, config in curves:
        try:
            records.append(run(obj, method, config, passes))
        except Exception as exc:
            raise RunError(f"method {method!r}: {exc}") from exc
    _write_curves(out_dir, curves, records, texts, wall_clock)
    for (label, *_), record in zip(curves, records):
        if record.diverged():
            losses = record.losses()
            print(f"warning: {label} diverged (loss {losses[0]!r} -> {max(losses)!r})",
                  file=sys.stderr)
    return records


def _write_curves(out_dir, curves, records: list[RunRecord], texts, wall_clock) -> None:
    """Each curve's CSV and each (filename, text) of ``texts`` go to a
    temporary directory beside ``out_dir``, then into ``out_dir`` by one
    ``os.replace`` each once all are written: a failed write adds no file
    to ``out_dir``."""
    parent, name = os.path.split(os.path.abspath(out_dir))
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f".{name}-", dir=parent)
    try:
        for (_, filename, *_), record in zip(curves, records):
            record.write_csv(os.path.join(tmp, filename), wall_clock=wall_clock)
        for filename, text in texts:
            with open(os.path.join(tmp, filename), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        os.makedirs(out_dir, exist_ok=True)
        for name in os.listdir(tmp):
            os.replace(os.path.join(tmp, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _method_rule(cfg: ExperimentConfig, method: str) -> str:
    if method.endswith("_ls"):
        return "line_search"
    return cfg.step_rule_sgd if method == "sgd" else cfg.step_rule_accel


def _check_smoothness_needs(cfg: ExperimentConfig) -> None:
    """The non-smooth hinge loss has no L or L_max: refuse the methods and
    step rules that read them before any data is built."""
    if cfg.loss != "hinge":
        return
    for method in cfg.methods:
        if method == "accel_ls":  # its kernel reads L
            raise ConfigError(f"method {method} needs a smooth loss, not hinge")
        rule = _method_rule(cfg, method)
        if rule in _ETA_RULES and _ETA_RULES[rule].smooth:
            raise ConfigError(
                f"step rule {rule} of method {method} needs smoothness constants, "
                "which the hinge loss lacks; use tau_over_L or explicit"
            )


def run_experiment(cfg: ExperimentConfig, wall_clock: bool = False) -> list[RunRecord]:
    """Dataset -> objective -> constants -> rho -> one run per method.

    Writes ``<out>/<method>.csv`` per method plus ``<out>/config.txt``
    once every method has run, so a config error or failed run writes no
    file; fully deterministic for a fixed seed (method i runs on seed + i)
    unless ``wall_clock`` puts the measured elapsed times into the CSVs.
    """
    _check_smoothness_needs(cfg)
    obj = build_objective(cfg)
    rho = resolve_rho(cfg, obj)
    specs = [(method, f"{method}.csv", method, _method_rule(cfg, method), idx)
             for idx, method in enumerate(cfg.methods)]
    curves = _curves(
        specs, obj, cfg.tau, rho, cfg.seed, {"sgd": cfg.eta_sgd, "accel": cfg.eta_accel},
        mode=cfg.mode, mu=cfg.mu, sigma=cfg.sigma, averaging=cfg.averaging, ls_init=cfg.ls_init,
    )
    echo = "".join(f"{key} = {cfg.raw[key]}\n" for key in sorted(cfg.raw))
    echo += f"resolved_rho = {rho!r}\n"
    return _run_curves(curves, cfg.passes, cfg.out, [("config.txt", echo)], wall_clock)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    regime: str
    slope: float
    r_squared: float
    window: tuple[int, int]


# fewest rows a rate fit takes; the polynomial fit skips the row at
# iteration 0, so it needs at least this many passes
MIN_FIT_ROWS = 10


def fit_rate(record: RunRecord, regime: str) -> RateFit:
    """Least-squares decay rate of a loss curve.

    linear regime: ln(loss) against iteration (exponential decay; the slope
    is ln of the per-iteration contraction factor). polynomial regime:
    ln(loss) against ln(iteration) (the slope is the power). Rows at or
    below the loss floor are dropped (floor-clipped tail), as is the first
    10% of the remaining rows (transient).
    """
    if regime not in ("linear", "polynomial"):
        raise ValueError(f"regime must be linear or polynomial, got {regime!r}")
    usable = [
        r
        for r in record.rows
        if r.train_loss >= LOSS_FLOOR and (regime == "linear" or r.iteration >= 1)
    ]
    if len(usable) < MIN_FIT_ROWS:
        raise ValueError(
            f"insufficient rows above the loss floor: {len(usable)} < {MIN_FIT_ROWS}"
        )
    usable = usable[int(0.10 * len(usable)) :]
    y = np.log([r.train_loss for r in usable])
    if regime == "linear":
        x = np.array([float(r.iteration) for r in usable])
    else:
        x = np.log([float(r.iteration) for r in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        r_sq = 1.0 if ss_res <= 1e-20 else 0.0
    else:
        r_sq = max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(
        regime=regime,
        slope=float(slope),
        r_squared=r_sq,
        window=(usable[0].pass_index, usable[-1].pass_index),
    )


# ---------------------------------------------------------------------------
# perceptron mistake-bound check
# ---------------------------------------------------------------------------


PERCEPTRON_SEEDS = 10
PERCEPTRON_SLACK = 10.0
SGD_SLOPE_WINDOW = (-1.6, -0.6)
ACCEL_SLOPE_MAX = -1.5


@dataclass
class PerceptronReport:
    ok: bool
    violations: list[str]
    sgd_avg_record: RunRecord
    accel_record: RunRecord
    sgd_slope: float
    accel_slope: float
    tau: float
    n: int

    def summary_lines(self) -> list[str]:
        lines = [
            f"tau = {self.tau!r}  n = {self.n}",
            f"sgd polynomial slope = {self.sgd_slope!r}",
            f"accel polynomial slope = {self.accel_slope!r}",
            f"checks = {'PASS' if self.ok else 'FAIL'}",
        ]
        lines.extend(f"violation: {v}" for v in self.violations)
        return lines


def _domination_violation(who: str, record: RunRecord) -> list[str]:
    """The first row whose mistake rate exceeds its loss, as a violation."""
    for row in record.rows:
        if row.mistake_rate > row.train_loss + 1e-12:
            return [f"{who}: mistake_rate {row.mistake_rate!r} > train_loss "
                    f"{row.train_loss!r} at iteration {row.iteration}"]
    return []


def perceptron_check(
    tau: float, n: int, d: int, passes: int, seed: int = 0
) -> PerceptronReport:
    """Stochastic perceptron on the squared-hinge surrogate.

    Runs the plain variant (eta = 1/4, w0 = 0, iterate averaging, the
    setting whose loss bound is 8 / (tau^2 k) after k iterations) over 10
    seeds and the accelerated variant (rho = 1/tau, eta = tau/lam_max(X^T X),
    the tau_over_L rule) once.
    Checks, at every logged row: mistake rate <= train loss (the squared
    hinge dominates the 0-1 indicator pointwise), and for the seed-averaged
    plain curve, loss at iteration k within a slack factor of 10 of
    8 / (tau^2 k). Decay-rate sanity: plain fitted slope in [-1.6, -0.6],
    accelerated fitted slope <= -1.5. Violations are reported with the
    first offending iteration rather than raised. Fewer passes than the
    slope fits need (:data:`MIN_FIT_ROWS`) is a ConfigError.
    """
    if passes < MIN_FIT_ROWS:
        raise ConfigError(f"passes must be >= {MIN_FIT_ROWS} for the slope fits, got {passes}")
    obj = _synthetic_objective(tau, n, d, seed)
    violations: list[str] = []

    seed_records = []
    for s in range(PERCEPTRON_SEEDS):
        rec = run(obj, "sgd", RunConfig(eta=0.25, seed=seed + s, averaging=True), passes)
        seed_records.append(rec)
        violations.extend(_domination_violation(f"seed {seed + s}", rec))

    avg_record = RunRecord()
    for rows in zip(*(rec.rows for rec in seed_records)):
        avg_record.append(
            MetricRow(
                pass_index=rows[0].pass_index,
                iteration=rows[0].iteration,
                train_loss=float(np.mean([r.train_loss for r in rows])),
                grad_sq_norm=float(np.mean([r.grad_sq_norm for r in rows])),
                mistake_rate=float(np.mean([r.mistake_rate for r in rows])),
            )
        )

    for row in avg_record.rows:
        if row.iteration < 1:
            continue
        bound = PERCEPTRON_SLACK * 8.0 / (tau**2 * row.iteration)
        if row.train_loss > bound:
            violations.append(
                f"seed-averaged loss {row.train_loss!r} exceeds "
                f"{PERCEPTRON_SLACK}*8/(tau^2 k) = {bound!r} at iteration {row.iteration}"
            )
            break

    rho = 1.0 / tau
    accel_cfg = RunConfig(
        eta=_ETA_RULES["tau_over_L"].eta(obj, tau, rho), rho=rho, mode="convex", seed=seed
    )
    accel_record = run(obj, "accel", accel_cfg, passes)
    violations.extend(_domination_violation("accel", accel_record))

    sgd_slope = fit_rate(avg_record, "polynomial").slope
    accel_slope = fit_rate(accel_record, "polynomial").slope
    if not SGD_SLOPE_WINDOW[0] <= sgd_slope <= SGD_SLOPE_WINDOW[1]:
        violations.append(
            f"sgd fitted slope {sgd_slope!r} outside {SGD_SLOPE_WINDOW}"
        )
    if accel_slope > ACCEL_SLOPE_MAX:
        violations.append(
            f"accel fitted slope {accel_slope!r} above {ACCEL_SLOPE_MAX}"
        )

    return PerceptronReport(
        ok=not violations,
        violations=violations,
        sgd_avg_record=avg_record,
        accel_record=accel_record,
        sgd_slope=sgd_slope,
        accel_slope=accel_slope,
        tau=tau,
        n=n,
    )


# ---------------------------------------------------------------------------
# figure reproduction
# ---------------------------------------------------------------------------


_FIG1_TAU = {"fig1a": 0.1, "fig1b": 0.05, "fig1c": 0.01, "fig1d": 0.005}
_FIG2_RHO = {"fig2_covtype": 1.0, "fig2_protein": 0.1}
_APP_LS_TAUS = (0.1, 0.05, 0.01, 0.005)
FIGURES = (*_FIG1_TAU, *_FIG2_RHO, "app_ls")

# Curve specs (see _curves) in manifest order. fig1 and app_ls run at
# rho = 1/tau, fig2 at its preset rho.
_SGD_CURVE = ("SGD", "sgd.csv", "sgd", "one_over_Lmax", 0)
_FIG1_CURVES = (_SGD_CURVE, ("Acc-SGD", "acc_sgd.csv", "accel", "tau_over_L", 1))
_FIG2_CURVES = (_SGD_CURVE, ("Acc-SGD", "acc_sgd.csv", "accel", "one_over_rho_gram", 1))
_APP_LS_CURVES = (
    ("SGD(T) tau={tau}", "tau{tau}_sgd_t.csv", "sgd", "one_over_Lmax", 0),
    ("SGD(LS) tau={tau}", "tau{tau}_sgd_ls.csv", "sgd_ls", "line_search", 1),
    ("Acc-SGD(T) tau={tau}", "tau{tau}_acc_sgd_t.csv", "accel", "tau_over_L", 2),
    ("Acc-SGD(LS) tau={tau}", "tau{tau}_acc_sgd_ls.csv", "accel_ls", "line_search", 3),
)


def _synthetic_objective(tau: float, n: int, d: int, seed: int) -> Objective:
    return Objective("squared_hinge", _margin_data(n, d, tau, seed))


def _figure_settings(name, paths, n, d, seed):
    """(curve specs, objective, tau, rho, base seed) for each data set of a
    figure."""
    if name in _FIG1_TAU:
        tau = _FIG1_TAU[name]
        yield _FIG1_CURVES, _synthetic_objective(tau, n, d, seed), tau, 1.0 / tau, seed
    elif name in _FIG2_RHO:
        path = paths.get("covtype" if name == "fig2_covtype" else "protein")
        if not path or not os.path.exists(path):
            raise FileNotFoundError(f"dataset file not found: {path!r}")
        data = build_dataset(ExperimentConfig.from_mapping(
            {"dataset": "libsvm", "libsvm_path": path, "n_sub": str(n), "rbf": "true",
             "seed": str(seed)}
        ))
        yield _FIG2_CURVES, Objective("squared_hinge", data), None, _FIG2_RHO[name], seed
    else:
        for t_idx, tau in enumerate(_APP_LS_TAUS):
            obj = _synthetic_objective(tau, n, d, seed + t_idx)
            yield _APP_LS_CURVES, obj, tau, 1.0 / tau, seed + 10 * t_idx


def reproduce_figure(
    name: str,
    paths: dict[str, str] | None = None,
    out_dir: str = "results",
    n: int = 8000,
    d: int = 100,
    passes: int = 30,
    seed: int = 0,
) -> list[str]:
    """Emit the CSV curves (plus manifest.txt) for a named experiment.

    fig1a-fig1d: synthetic margin data at tau 0.1/0.05/0.01/0.005, curves
    SGD (eta = 1/L_max) and Acc-SGD (rho = 1/tau, eta = tau/L). fig2_*:
    RBF-featurized LIBSVM data (file supplied via ``paths``), rho preset to
    1.0 (covtype) / 0.1 (protein). app_ls: the four tuned/line-search
    variants per synthetic tau. Returns the written CSV paths.
    """
    if name not in FIGURES:
        raise ConfigError(f"unknown figure {name!r}; expected one of {FIGURES}")
    curves = [
        curve
        for specs, obj, tau, rho, base in _figure_settings(name, paths or {}, n, d, seed)
        for curve in _curves(specs, obj, tau, rho, base, {})
    ]
    manifest = "".join(f"{label}\t{filename}\n" for label, filename, *_ in curves)
    _run_curves(curves, passes, out_dir, [("manifest.txt", manifest)])
    return [os.path.join(out_dir, filename) for _, filename, *_ in curves]


def audit_report(cfg: ExperimentConfig) -> list[str]:
    """Growth-constant audit lines for the configured objective."""
    obj = build_objective(cfg)
    lines = [f"loss = {cfg.loss}  n = {obj.n}  d = {obj.dim}"]
    lines.append(f"L = {obj.L!r}")
    lines.append(f"L_max = {obj.L_max!r}")
    if obj.smooth and (obj.data.has_margin_certificate or obj.f_star == 0.0):
        est = rho_wgc(obj)
        lines.append(f"rho[{est.route}] = {est.rho!r}  ({est.detail})")
    if obj.data.tau is not None and obj.data.support_size is not None:
        est = rho_sgc_margin(obj.data)
        lines.append(f"rho[{est.route}] = {est.rho!r}  ({est.detail})")
    est = audit_sgc(obj, cfg.audit_samples, make_rng(cfg.seed))
    lines.append(f"rho[{est.route}] = {est.rho!r}  ({est.detail})")
    if cfg.rho_rule == "grid":
        est = _grid_search(cfg, obj)
        lines.append(f"rho[{est.route}] = {est.rho!r}  ({est.detail})")
    return lines
