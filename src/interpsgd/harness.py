"""Experiment harness: config handling, end-to-end pipelines, rate fits,
perceptron mistake-bound checks, and CSV emission.

Config files are flat ``key = value`` text (one pair per line, ``#`` lines
ignored); every key is also a CLI flag and flags win. The full key set is
documented in the README. Output per method is one CSV (dialect in
:mod:`interpsgd.records`) plus a ``config.txt`` echo; figure pipelines add
a ``manifest.txt`` mapping curve labels to CSV filenames. All pipelines
are deterministic for a fixed seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .data import (
    default_rbf_config,
    generate_margin_data,
    load_libsvm,
    normalize_rows,
    rbf_features,
    subsample,
)
from .growth import audit_sgc, grid_search_rho, rho_sgc_margin, rho_wgc
from .numerics import make_rng
from .objectives import Dataset, Objective
from .optimizers import METHODS, RunConfig, run
from .records import LOSS_FLOOR, MetricRow, RunRecord

__all__ = [
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

_DEFAULTS = {
    "dataset": "synthetic",
    "n": "8000",
    "d": "100",
    "tau": "0.1",
    "balance": "false",
    "libsvm_path": "",
    "n_sub": "",
    "normalize": "false",
    "rbf": "false",
    "rbf_centers": "300",
    "rbf_bandwidth": "",
    "loss": "squared_hinge",
    "mu": "",
    "methods": "sgd,accel",
    "step_rule_sgd": "one_over_Lmax",
    "step_rule_accel": "one_over_rhoL",
    "eta_sgd": "",
    "eta_accel": "",
    "mode": "convex",
    "rho_rule": "one_over_tau",
    "rho": "1.0",
    "rho_grid": "",
    "grid_passes": "5",
    "audit_samples": "200",
    "ls_init": "1.0",
    "passes": "30",
    "seed": "0",
    "sigma": "0.0",
    "averaging": "false",
    "out": "results",
}


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


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of a merged config mapping."""

    dataset: str = "synthetic"
    n: int = 8000
    d: int = 100
    tau: float = 0.1
    balance: bool = False
    libsvm_path: str = ""
    n_sub: int | None = None
    normalize: bool = False
    rbf: bool = False
    rbf_centers: int = 300
    rbf_bandwidth: float | None = None
    loss: str = "squared_hinge"
    mu: float | None = None
    methods: tuple[str, ...] = ("sgd", "accel")
    step_rule_sgd: str = "one_over_Lmax"
    step_rule_accel: str = "one_over_rhoL"
    eta_sgd: float | None = None
    eta_accel: float | None = None
    mode: str = "convex"
    rho_rule: str = "one_over_tau"
    rho: float = 1.0
    rho_grid: tuple[float, ...] = ()
    grid_passes: int = 5
    audit_samples: int = 200
    ls_init: float = 1.0
    passes: int = 30
    seed: int = 0
    sigma: float = 0.0
    averaging: bool = False
    out: str = "results"
    raw: dict[str, str] = field(default_factory=dict)

    @staticmethod
    def from_mapping(values: dict[str, str]) -> "ExperimentConfig":
        merged = dict(_DEFAULTS)
        for key, val in values.items():
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = val

        methods = tuple(m.strip() for m in merged["methods"].split(",") if m.strip())
        if not methods:
            raise ConfigError("at least one method is required")
        for m in methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; expected one of {METHODS}")
        if merged["dataset"] not in ("synthetic", "libsvm"):
            raise ConfigError(f"dataset must be synthetic or libsvm, got {merged['dataset']!r}")
        if merged["dataset"] == "libsvm" and not merged["libsvm_path"]:
            raise ConfigError("libsvm dataset requires libsvm_path")
        if merged["rho_rule"] not in RHO_RULES:
            raise ConfigError(f"rho_rule must be one of {RHO_RULES}")
        if merged["rho_rule"] == "grid" and not merged["rho_grid"]:
            raise ConfigError("rho_rule = grid requires rho_grid")
        for rule_key in ("step_rule_sgd", "step_rule_accel"):
            if merged[rule_key] not in STEP_RULES:
                raise ConfigError(f"{rule_key} must be one of {STEP_RULES}")
        if merged["mode"] not in ("convex", "strongly_convex"):
            raise ConfigError("mode must be convex or strongly_convex")

        passes = _parse_int("passes", merged["passes"])
        if passes < 1:
            raise ConfigError(f"passes must be >= 1, got {passes}")

        grid = tuple(
            _parse_float("rho_grid", tok)
            for tok in merged["rho_grid"].split(",")
            if tok.strip()
        )
        return ExperimentConfig(
            dataset=merged["dataset"],
            n=_parse_int("n", merged["n"]),
            d=_parse_int("d", merged["d"]),
            tau=_parse_float("tau", merged["tau"]),
            balance=_parse_bool("balance", merged["balance"]),
            libsvm_path=merged["libsvm_path"],
            n_sub=_parse_int("n_sub", merged["n_sub"]) if merged["n_sub"] else None,
            normalize=_parse_bool("normalize", merged["normalize"]),
            rbf=_parse_bool("rbf", merged["rbf"]),
            rbf_centers=_parse_int("rbf_centers", merged["rbf_centers"]),
            rbf_bandwidth=(
                _parse_float("rbf_bandwidth", merged["rbf_bandwidth"])
                if merged["rbf_bandwidth"]
                else None
            ),
            loss=merged["loss"],
            mu=_parse_float("mu", merged["mu"]) if merged["mu"] else None,
            methods=methods,
            step_rule_sgd=merged["step_rule_sgd"],
            step_rule_accel=merged["step_rule_accel"],
            eta_sgd=_parse_float("eta_sgd", merged["eta_sgd"]) if merged["eta_sgd"] else None,
            eta_accel=(
                _parse_float("eta_accel", merged["eta_accel"])
                if merged["eta_accel"]
                else None
            ),
            mode=merged["mode"],
            rho_rule=merged["rho_rule"],
            rho=_parse_float("rho", merged["rho"]),
            rho_grid=grid,
            grid_passes=_parse_int("grid_passes", merged["grid_passes"]),
            audit_samples=_parse_int("audit_samples", merged["audit_samples"]),
            ls_init=_parse_float("ls_init", merged["ls_init"]),
            passes=passes,
            seed=_parse_int("seed", merged["seed"]),
            sigma=_parse_float("sigma", merged["sigma"]),
            averaging=_parse_bool("averaging", merged["averaging"]),
            out=merged["out"],
            raw=merged,
        )


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset == "synthetic":
        return generate_margin_data(
            cfg.n, cfg.d, cfg.tau, seed=cfg.seed, balance=cfg.balance
        )
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


def resolve_rho(cfg: ExperimentConfig, obj: Objective) -> float:
    if cfg.rho_rule == "one_over_tau":
        tau = obj.data.tau if obj.data.tau is not None else cfg.tau
        if not tau:
            raise ConfigError("rho_rule one_over_tau requires a margin tau")
        return 1.0 / tau
    if cfg.rho_rule == "c_over_tau_sq":
        return rho_sgc_margin(obj.data).rho
    if cfg.rho_rule == "explicit":
        return cfg.rho
    return grid_search_rho(
        obj, list(cfg.rho_grid), cfg.grid_passes, seed=cfg.seed, mode=cfg.mode, mu=cfg.mu
    ).rho


def _resolve_eta(cfg: ExperimentConfig, obj: Objective, method: str, rho: float) -> float | None:
    rule = cfg.step_rule_sgd if method in ("sgd", "sgd_ls") else cfg.step_rule_accel
    explicit = cfg.eta_sgd if method in ("sgd", "sgd_ls") else cfg.eta_accel
    if method.endswith("_ls"):
        return None  # line search owns the step size
    if rule == "one_over_Lmax":
        return 1.0 / obj.L_max
    if rule == "tau_over_L":
        # The experimental rule: L here is the unnormalized Gram spectral
        # norm (the mean-scaled constant would make eta * L_max exceed 2 at
        # realistic n, and the run provably diverges).
        tau = obj.data.tau if obj.data.tau is not None else cfg.tau
        if not tau:
            raise ConfigError("step rule tau_over_L requires a margin tau")
        return tau / obj.gram_lam_max
    if rule == "one_over_rhoL":
        return 1.0 / (rho * obj.L)
    if explicit is None:
        raise ConfigError(f"step rule explicit requires eta for method {method}")
    return explicit


def run_experiment(cfg: ExperimentConfig, wall_clock: bool = False) -> list[RunRecord]:
    """Dataset -> objective -> constants -> rho -> one run per method.

    Writes ``<out>/<method>.csv`` per method plus ``<out>/config.txt``;
    fully deterministic for a fixed seed (method i runs on seed + i) unless
    ``wall_clock`` puts the measured elapsed times into the CSVs.
    """
    obj = build_objective(cfg)
    rho = resolve_rho(cfg, obj)
    records = []
    os.makedirs(cfg.out, exist_ok=True)
    for idx, method in enumerate(cfg.methods):
        run_cfg = RunConfig(
            eta=_resolve_eta(cfg, obj, method, rho),
            rho=rho,
            mode=cfg.mode,
            mu=cfg.mu,
            sigma=cfg.sigma,
            seed=cfg.seed + idx,
            averaging=cfg.averaging,
            ls_init=cfg.ls_init,
        )
        try:
            record = run(obj, method, run_cfg, cfg.passes)
        except Exception as exc:
            raise type(exc)(f"method {method!r}: {exc}") from exc
        record.config.update({"label": method, "rho_rule": cfg.rho_rule})
        record.write_csv(os.path.join(cfg.out, f"{method}.csv"), wall_clock=wall_clock)
        records.append(record)
    with open(os.path.join(cfg.out, "config.txt"), "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(cfg.raw):
            fh.write(f"{key} = {cfg.raw[key]}\n")
        fh.write(f"resolved_rho = {rho!r}\n")
    return records


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    regime: str
    slope: float
    r_squared: float
    window: tuple[int, int]


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
    if len(usable) < 10:
        raise ValueError(
            f"insufficient rows above the loss floor: {len(usable)} < 10"
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


def perceptron_check(
    tau: float, n: int, d: int, passes: int, seed: int = 0
) -> PerceptronReport:
    """Stochastic perceptron on the squared-hinge surrogate.

    Runs the plain variant (eta = 1/4, w0 = 0, iterate averaging, the
    setting whose loss bound is 8 / (tau^2 k) after k iterations) over 10
    seeds and the accelerated variant (rho = 1/tau, eta = 1/(rho L)) once.
    Checks, at every logged row: mistake rate <= train loss (the squared
    hinge dominates the 0-1 indicator pointwise), and for the seed-averaged
    plain curve, loss at iteration k within a slack factor of 10 of
    8 / (tau^2 k). Decay-rate sanity: plain fitted slope in [-1.6, -0.6],
    accelerated fitted slope <= -1.5. Violations are reported with the
    first offending iteration rather than raised.
    """
    data = generate_margin_data(n, d, tau, seed=seed)
    obj = Objective("squared_hinge", data)
    violations: list[str] = []

    seed_records = []
    for s in range(PERCEPTRON_SEEDS):
        cfg = RunConfig(eta=0.25, seed=seed + s, averaging=True)
        rec = run(obj, "sgd", cfg, passes)
        seed_records.append(rec)
        for row in rec.rows:
            if row.mistake_rate > row.train_loss + 1e-12:
                violations.append(
                    f"seed {seed + s}: mistake_rate {row.mistake_rate!r} > "
                    f"train_loss {row.train_loss!r} at iteration {row.iteration}"
                )
                break

    avg_record = RunRecord(
        config={
            "label": "perceptron_sgd_avg",
            "tau": repr(tau),
            "n": str(n),
            "d": str(d),
            "passes": str(passes),
            "seeds": str(PERCEPTRON_SEEDS),
            "eta": repr(0.25),
        }
    )
    for ridx in range(len(seed_records[0].rows)):
        rows = [rec.rows[ridx] for rec in seed_records]
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
        eta=tau / obj.gram_lam_max, rho=rho, mode="convex", seed=seed
    )
    accel_record = run(obj, "accel", accel_cfg, passes)
    accel_record.config["label"] = "perceptron_accel"
    for row in accel_record.rows:
        if row.mistake_rate > row.train_loss + 1e-12:
            violations.append(
                f"accel: mistake_rate {row.mistake_rate!r} > train_loss "
                f"{row.train_loss!r} at iteration {row.iteration}"
            )
            break

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


FIGURES = (
    "fig1a",
    "fig1b",
    "fig1c",
    "fig1d",
    "fig2_covtype",
    "fig2_protein",
    "app_ls",
)

_FIG1_TAU = {"fig1a": 0.1, "fig1b": 0.05, "fig1c": 0.01, "fig1d": 0.005}
_FIG2_RHO = {"fig2_covtype": 1.0, "fig2_protein": 0.1}
_APP_LS_TAUS = (0.1, 0.05, 0.01, 0.005)


def _write_curves(out_dir, curves: list[tuple[str, str, RunRecord]]) -> list[str]:
    """curves: (label, filename, record). Returns written CSV paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for label, filename, record in curves:
        record.config["label"] = label
        path = os.path.join(out_dir, filename)
        record.write_csv(path)
        paths.append(path)
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8", newline="\n") as fh:
        for label, filename, _ in curves:
            fh.write(f"{label}\t{filename}\n")
    return paths


def _synthetic_objective(tau: float, n: int, d: int, seed: int) -> Objective:
    return Objective("squared_hinge", generate_margin_data(n, d, tau, seed=seed))


def _fig2_objective(path, n_sub: int, seed: int) -> Objective:
    if not path or not os.path.exists(path or ""):
        raise FileNotFoundError(f"dataset file not found: {path!r}")
    data = load_libsvm(path)
    if n_sub < data.n:
        data = subsample(data, n_sub, seed=seed)
    rbf_cfg = default_rbf_config(data.X, make_rng(seed + 1))
    feats = Dataset(X=rbf_features(data.X, rbf_cfg), y=data.y)
    return Objective("squared_hinge", feats)


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
    paths = paths or {}
    if name not in FIGURES:
        raise ConfigError(f"unknown figure {name!r}; expected one of {FIGURES}")

    if name in _FIG1_TAU:
        tau = _FIG1_TAU[name]
        obj = _synthetic_objective(tau, n, d, seed)
        curves = [
            (
                "SGD",
                "sgd.csv",
                run(obj, "sgd", RunConfig(eta=1.0 / obj.L_max, seed=seed), passes),
            ),
            (
                "Acc-SGD",
                "acc_sgd.csv",
                run(
                    obj,
                    "accel",
                    RunConfig(
                        eta=tau / obj.gram_lam_max, rho=1.0 / tau, seed=seed + 1
                    ),
                    passes,
                ),
            ),
        ]
        return _write_curves(out_dir, curves)

    if name in _FIG2_RHO:
        key = "covtype" if name == "fig2_covtype" else "protein"
        obj = _fig2_objective(paths.get(key), n, seed)
        rho = _FIG2_RHO[name]
        curves = [
            (
                "SGD",
                "sgd.csv",
                run(obj, "sgd", RunConfig(eta=1.0 / obj.L_max, seed=seed), passes),
            ),
            (
                "Acc-SGD",
                "acc_sgd.csv",
                run(
                    obj,
                    "accel",
                    RunConfig(
                        eta=1.0 / (rho * obj.gram_lam_max), rho=rho, seed=seed + 1
                    ),
                    passes,
                ),
            ),
        ]
        return _write_curves(out_dir, curves)

    # app_ls: tuned and line-search variants on each synthetic margin.
    curves = []
    for t_idx, tau in enumerate(_APP_LS_TAUS):
        obj = _synthetic_objective(tau, n, d, seed + t_idx)
        rho = 1.0 / tau
        stem = f"tau{tau}"
        base = seed + 10 * t_idx
        curves.extend(
            [
                (
                    f"SGD(T) tau={tau}",
                    f"{stem}_sgd_t.csv",
                    run(obj, "sgd", RunConfig(eta=1.0 / obj.L_max, seed=base), passes),
                ),
                (
                    f"SGD(LS) tau={tau}",
                    f"{stem}_sgd_ls.csv",
                    run(obj, "sgd_ls", RunConfig(seed=base + 1), passes),
                ),
                (
                    f"Acc-SGD(T) tau={tau}",
                    f"{stem}_acc_sgd_t.csv",
                    run(
                        obj,
                        "accel",
                        RunConfig(
                            eta=tau / obj.gram_lam_max, rho=rho, seed=base + 2
                        ),
                        passes,
                    ),
                ),
                (
                    f"Acc-SGD(LS) tau={tau}",
                    f"{stem}_acc_sgd_ls.csv",
                    run(obj, "accel_ls", RunConfig(seed=base + 3), passes),
                ),
            ]
        )
    return _write_curves(out_dir, curves)


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
    if cfg.rho_rule == "grid" and cfg.rho_grid:
        est = grid_search_rho(
            obj,
            list(cfg.rho_grid),
            cfg.grid_passes,
            seed=cfg.seed,
            mode=cfg.mode,
            mu=cfg.mu,
        )
        lines.append(f"rho[{est.route}] = {est.rho!r}  ({est.detail})")
    return lines
