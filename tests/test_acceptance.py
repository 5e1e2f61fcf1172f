"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from interpsgd.cli import main
from interpsgd.data import generate_margin_data, save_libsvm
from interpsgd.growth import audit_sgc, empirical_sgc_ratio, rho_sgc_margin
from interpsgd.harness import fit_rate, perceptron_check
from interpsgd.numerics import make_rng, spectral_norm_gram
from interpsgd.objectives import Dataset, Objective
from interpsgd.optimizers import (
    RunConfig,
    SgdConfig,
    accel_schedule_advance,
    accel_step,
    init_accel_state,
    make_schedule,
    run,
    sgd_step,
)
from interpsgd.problems import PlToyObjective, QuadraticObjective

from oracles import central_diff_grad, jacobi_max_eigenvalue

FIGURE_SEED = 11
FULL_N, FULL_D = 8000, 100


def report(criterion: str, passed: bool) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {criterion}")
    assert passed, criterion


@pytest.fixture(scope="module")
def figure1_runs():
    """Shared full-scale runs: per tau, SGD for 30 passes and the
    accelerated method for 50 (sliced at 30 where needed). Curve wall
    times are recorded for the runtime criterion."""
    out = {}
    for tau in (0.1, 0.05):
        data = generate_margin_data(FULL_N, FULL_D, tau, seed=FIGURE_SEED)
        obj = Objective("squared_hinge", data)
        t0 = time.monotonic()
        sgd_rec = run(obj, "sgd", RunConfig(eta=1.0 / obj.L_max, seed=1), 30)
        t_sgd = time.monotonic() - t0
        t0 = time.monotonic()
        acc_rec = run(
            obj,
            "accel",
            RunConfig(eta=tau / obj.gram_lam_max, rho=1.0 / tau, seed=2),
            50,
        )
        t_acc = time.monotonic() - t0
        out[tau] = {
            "sgd": sgd_rec,
            "accel": acc_rec,
            "t_sgd": t_sgd,
            "t_acc_30": t_acc * 30.0 / 50.0,
        }
    return out


def test_criterion_01_figure1_separation_and_stability(figure1_runs):
    ok = True
    for tau, bundle in figure1_runs.items():
        sgd_log10 = bundle["sgd"].rows[30].log10_loss
        acc_log10 = bundle["accel"].rows[30].log10_loss
        ok &= sgd_log10 - acc_log10 >= 2.0
        initial = bundle["accel"].rows[0].train_loss
        ok &= max(r.train_loss for r in bundle["accel"].rows) <= 10.0 * initial
        ok &= bundle["t_sgd"] < 60.0 and bundle["t_acc_30"] < 60.0
    # the tau = 0.1 accelerated curve sits strictly below SGD once past the
    # first five passes
    bundle = figure1_runs[0.1]
    for p in range(6, 31):
        ok &= bundle["accel"].rows[p].log10_loss < bundle["sgd"].rows[p].log10_loss
    report("criterion 1: accelerated curve >= 2 decades below SGD, stable, < 60 s", ok)


def test_criterion_02_interpolation_reached(figure1_runs):
    ok = all(
        bundle["accel"].rows[50].train_loss < 1e-10
        for bundle in figure1_runs.values()
    )
    report("criterion 2: accelerated train loss < 1e-10 within 50 passes", ok)


def test_sgd_curves_monotone_after_smoothing(figure1_runs):
    # harness invariant: the SGD curve, averaged over 5-pass windows, is
    # non-increasing on synthetic data with tau >= 0.05 (raw rows may jitter)
    for bundle in figure1_runs.values():
        losses = [r.train_loss for r in bundle["sgd"].rows]
        smoothed = [
            float(np.mean(losses[i : i + 5])) for i in range(len(losses) - 4)
        ]
        for a, b in zip(smoothed, smoothed[1:]):
            assert b <= a * (1 + 1e-9)


def test_criterion_03_strongly_convex_rate_bound():
    A = np.diag([0.04, 4.0])
    obj = QuadraticObjective(A, np.array([1.3, -0.7]))
    eta, rho = 1.0 / obj.L, 1.0
    w0 = np.array([3.0, 2.0])
    constant = obj.loss_full(w0) + 0.5 * obj.mu * float(
        (w0 - obj.w_star) @ (w0 - obj.w_star)
    )
    rate = 1.0 - math.sqrt(obj.mu / (rho**2 * obj.L))
    st = init_accel_state(w0, make_schedule("strongly_convex", rho, eta, mu=obj.mu))
    rng = make_rng(0)
    ok = True
    for k in range(1, 501):
        st = replace(st, schedule=accel_schedule_advance(st.schedule))
        st = accel_step(obj, st, rng)
        ok &= obj.loss_full(st.w) <= rate**k * constant * (1 + 1e-9) + 1e-300
    report("criterion 3: strongly-convex rate bound at every k <= 500", ok)


def test_criterion_04_convex_rate_bound_flat_direction():
    A = np.diag([2.0, 0.5, 0.0])
    obj = QuadraticObjective(A, np.array([0.4, -1.1, 0.0]))
    rho, eta = 1.0, 1.0 / obj.L
    w0 = np.array([3.0, 2.0, 2.0])
    nearest = np.array([0.4, -1.1, 2.0])  # projection onto the minimizer set
    d_sq = float((w0 - nearest) @ (w0 - nearest))
    st = init_accel_state(w0, make_schedule("convex", rho, eta))
    rng = make_rng(0)
    ok = True
    for k in range(1, 501):
        st = replace(st, schedule=accel_schedule_advance(st.schedule))
        st = accel_step(obj, st, rng)
        if k >= 10:
            ok &= obj.loss_full(st.w) <= 2.0 * rho**2 * obj.L * d_sq / k**2
    report("criterion 4: convex 1/k^2 rate bound for 10 <= k <= 500", ok)


def test_criterion_05_nonconvex_and_pl_bounds():
    obj = PlToyObjective(2)
    # grid certificate for the gradient-dominance constant used below
    xs = np.linspace(-20.0, 20.0, 200_001)
    lhs = (2.0 * xs + 3.0 * np.sin(2.0 * xs)) ** 2
    rhs = 2.0 * obj.mu * (xs**2 + 3.0 * np.sin(xs) ** 2)
    assert np.all(lhs >= rhs - 1e-12)

    rho, eta = 1.0, 1.0 / obj.L
    w = np.array([2.5, -1.7])
    f0 = obj.loss_full(w)
    cfg = SgdConfig(eta=eta)
    rng = make_rng(0)
    grad_sq = [float(obj.grad_full(w) @ obj.grad_full(w))]
    ok = True
    for k in range(1, 301):
        w = sgd_step(obj, w, cfg, rng)
        g = obj.grad_full(w)
        grad_sq.append(float(g @ g))
        ok &= min(grad_sq[:k]) <= (2.0 * rho * obj.L / k) * f0 + 1e-12
        ok &= obj.loss_full(w) <= (1.0 - obj.mu / (rho * obj.L)) ** k * f0 * (
            1 + 1e-12
        ) + 1e-300
    report("criterion 5: non-convex min-gradient and PL linear bounds, k <= 300", ok)


def test_criterion_06_wgc_inequality_audit():
    data = generate_margin_data(400, 40, 0.1, seed=2)
    obj = Objective("squared_hinge", data)
    rng = make_rng(7)
    points = [rng.normal(scale=3.0, size=40) for _ in range(1000)]
    w = np.zeros(40)
    cfg = SgdConfig(eta=1.0 / obj.L_max)
    for _ in range(10):
        for _ in range(data.n):
            w = sgd_step(obj, w, cfg, rng)
        points.append(w.copy())
    ok = True
    for p in points:
        lhs = float(np.mean(obj.per_example_grad_sq_norms(p)))
        rhs = 2.0 * obj.L_max * (obj.loss_full(p) - 0.0)
        ok &= lhs <= rhs * (1 + 1e-9)
    report("criterion 6: weak-growth inequality at 1000 points + trajectory", ok)


def test_criterion_07_audited_rho_below_margin_constant():
    ok = True
    for i, tau in enumerate((0.1, 0.1, 0.05, 0.05, 0.1)):
        data = generate_margin_data(300, 30, tau, seed=20 + i)
        obj = Objective("squared_hinge", data)
        audited = audit_sgc(obj, 2000, make_rng(50 + i)).rho
        ok &= audited <= rho_sgc_margin(data).rho
    report("criterion 7: audited growth ratio <= c / tau^2 on 5 datasets", ok)


def test_criterion_08_perceptron_mistake_bound():
    rep = perceptron_check(0.1, 100, 10, 30, seed=3)
    ok = rep.ok
    # re-assert the individual clauses explicitly
    for row in rep.sgd_avg_record.rows:
        if row.iteration >= 1:
            ok &= row.train_loss <= 10.0 * 8.0 / (0.1**2 * row.iteration)
        ok &= row.mistake_rate <= row.train_loss + 1e-12
    ok &= -1.6 <= rep.sgd_slope <= -0.6
    ok &= rep.accel_slope <= -1.5
    report("criterion 8: perceptron loss bound, surrogate domination, slopes", ok)


def test_criterion_09_additive_noise_plateau():
    A = np.diag([1.0, 4.0])
    obj = QuadraticObjective(A, np.array([0.5, -0.25]))
    rho, eta = 1.0, 1.0 / obj.L
    ok = True
    for sigma in (0.01, 0.1):
        finals = []
        for s in range(20):
            st = init_accel_state(
                np.array([2.0, 1.0]),
                make_schedule("strongly_convex", rho, eta, mu=obj.mu),
            )
            rng = make_rng(100 + s)
            for _ in range(2000):
                st = replace(st, schedule=accel_schedule_advance(st.schedule))
                st = accel_step(obj, st, rng, sigma=sigma)
            finals.append(obj.loss_full(st.w))
        bound = 2.0 * sigma**2 * math.sqrt(eta) / math.sqrt(rho * obj.mu)
        ok &= float(np.mean(finals)) <= bound
    report("criterion 9: noise-injected plateau within 2 sigma^2 sqrt(eta/rho mu)", ok)


def test_criterion_10_oracle_equivalence():
    rng = make_rng(42)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 9))
        X = rng.normal(size=(n, d))
        lam = spectral_norm_gram(X, tol=1e-12, max_iter=200_000)
        oracle = jacobi_max_eigenvalue(X.T @ X)
        ok &= abs(lam - oracle) <= 1e-8 * max(oracle, 1e-300)

    data = generate_margin_data(40, 8, 0.15, seed=1)
    for kind in ("squared", "squared_hinge", "hinge", "logistic"):
        obj = Objective(kind, data)
        checked = 0
        while checked < 100:
            w = rng.normal(size=8)
            i = int(rng.integers(0, data.n))
            margin = data.y[i] * float(data.X[i] @ w)
            if kind in ("squared_hinge", "hinge") and abs(1.0 - margin) < 1e-3:
                continue
            analytic = obj.grad_example(w, i)
            numeric = central_diff_grad(lambda v: obj.loss_example(v, i), w)
            scale = max(1.0, float(np.max(np.abs(analytic))))
            ok &= float(np.max(np.abs(analytic - numeric))) <= 1e-6 * scale
            checked += 1
    report("criterion 10: power iteration vs eigensolver, gradients vs differences", ok)


def test_criterion_11_schedule_algebra():
    ok = True
    rho = 2.7
    s = make_schedule("convex", rho, 0.3)
    prev = 0.0
    for k in range(10_000):
        s = accel_schedule_advance(s)
        res = s.gamma**2 - s.gamma / rho - prev**2
        ok &= abs(res) <= 1e-10 * max(1.0, s.gamma**2)
        ok &= s.gamma >= k / (2.0 * rho) - 1e-12
        prev = s.gamma

    mu, eta, rho = 0.3, 0.1, 1.5
    s = make_schedule("strongly_convex", rho, eta, mu=mu)
    prev = s.gamma_prev
    for _ in range(10_000):
        s = accel_schedule_advance(s)
        res = s.gamma**2 - s.gamma * (1.0 / rho - mu * eta * prev**2) - prev**2
        ok &= abs(res) <= 1e-10 * max(1.0, s.gamma**2)
        prev = s.gamma

    s = make_schedule("strongly_convex", 2.0, 0.125, mu=0.5)
    for _ in range(1_000_000):
        s = accel_schedule_advance(s)
    ok &= all(
        math.isfinite(v) for v in (s.gamma, s.alpha, s.beta, s.ab_ratio)
    )
    report("criterion 11: gamma-recursion residuals, growth, no overflow", ok)


def test_criterion_12_cli_byte_determinism(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "dataset = synthetic\nn = 120\nd = 10\ntau = 0.1\n"
        "methods = sgd,accel,sgd_ls,accel_ls\nstep_rule_accel = tau_over_L\n"
        "passes = 2\nseed = 6\n"
        f"out = {tmp_path / 'run_out'}\n",
        encoding="utf-8",
    )
    libsvm_path = tmp_path / "toy.txt"
    save_libsvm(generate_margin_data(40, 6, 0.2, seed=8), libsvm_path)

    pipelines = [
        ("run", ["run", "--config", str(cfg_path)], tmp_path / "run_out"),
        (
            "reproduce",
            ["reproduce", "fig1a", "--out", str(tmp_path / "fig_out"),
             "--n", "120", "--d", "10", "--passes", "2", "--seed", "1"],
            tmp_path / "fig_out",
        ),
        (
            "perceptron",
            ["perceptron", "--tau", "0.1", "--n", "50", "--d", "6",
             "--passes", "15", "--seed", "1"],
            None,
        ),
        ("audit-rho", ["audit-rho", "--config", str(cfg_path)], None),
        ("spectral", ["spectral", "--libsvm", str(libsvm_path)], None),
    ]
    ok = True
    for name, argv, out_dir in pipelines:
        assert main(argv) == 0, name
        stdout_first = capsys.readouterr().out
        files_first = {}
        if out_dir is not None:
            files_first = {
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            }
        assert main(argv) == 0, name
        stdout_second = capsys.readouterr().out
        ok &= stdout_first == stdout_second
        if out_dir is not None:
            for p in sorted(out_dir.iterdir()):
                ok &= files_first[p.name] == p.read_bytes()
    report("criterion 12: every CLI pipeline byte-identical across invocations", ok)
