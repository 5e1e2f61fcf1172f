"""Spans around calls into the interpsgd layers, installed from outside.

A :class:`Tracer` records one span per call of each instrumented function:
its name, start, end and parent. Coarse spans (one per call of a layer
entry point) are kept in full; fine spans (called once or more per
optimizer step) are only aggregated as (count, total, self) per
(name, parent name), so a run of hundreds of thousands of steps fits in
memory. Self time is a span's duration minus the time its child spans
cover; calls are single-threaded and nested, so children never overlap.

:func:`instrument` wraps module functions and class methods of the
installed package and returns a function that puts the originals back.
A target that no longer exists is skipped, and a function nobody calls
simply reports a count of 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "interpsgd"


@dataclass(frozen=True)
class Target:
    """One public function or method to wrap.

    ``attr`` is a dotted path inside ``module`` (``"Objective.grad_example"``).
    ``fine`` marks per-step calls, which are aggregated rather than kept.
    ``hook(tracer, args, kwargs, result, span)`` runs after each call.
    """

    name: str
    module: str
    attr: str
    fine: bool = False
    hook: Callable | None = None


class Tracer:
    """Span recorder for one operation; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []  # coarse spans, in start order
        self.agg: dict[tuple[str, str | None], list] = {}  # -> [count, total, self]
        self.counters: dict[str, float] = {}
        self.results: list[tuple[str, dict, tuple, dict, object]] = []
        self._stack: list[list] = []  # frames: [name, span dict | None, start, child time]

    def enter(self, name: str, fine: bool = False) -> list:
        start = self.clock()
        span = None
        if not fine:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": None if parent is None else parent["id"],
                "start": start,
                "end": None,
                "self": None,
            }
            self.spans.append(span)
        frame = [name, span, start, 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        duration = end - frame[2]
        self_time = duration - frame[3]
        parent_name = None
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_name = parent[0]
        entry = self.agg.get((frame[0], parent_name))
        if entry is None:
            entry = self.agg[(frame[0], parent_name)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_time
        if frame[1] is not None:
            frame[1]["end"] = end
            frame[1]["self"] = self_time

    def count(self, name: str) -> int:
        return sum(v[0] for (n, _), v in self.agg.items() if n == name)

    def total(self, name: str) -> float:
        return sum(v[1] for (n, _), v in self.agg.items() if n == name)

    def self_time(self, name: str) -> float:
        return sum(v[2] for (n, _), v in self.agg.items() if n == name)

    def total_outside(self, names: frozenset[str]) -> float:
        """Time of spans in ``names`` whose parent is not itself in ``names``:
        the wall time that set of functions covers, counted once."""
        return sum(
            v[1] for (n, parent), v in self.agg.items() if n in names and parent not in names
        )

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [
                {"name": n, "parent": p, "count": v[0], "total_s": v[1], "self_s": v[2]}
                for (n, p), v in sorted(self.agg.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
            ],
            "counters": self.counters,
        }


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    name, fine, hook = target.name, target.fine, target.hook

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name, fine)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if hook is not None:
            hook(tracer, args, kwargs, result, frame[1])
        return result

    return wrapper


def _resolve(target: Target):
    """(owner, attribute) for a target, or None when it no longer exists."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def instrument(tracer: Tracer, targets: list[Target]) -> Callable[[], None]:
    """Wrap every target for ``tracer``; returns the undo function.

    A module-level function is rebound in every module of the package that
    imported it by name, so calls between layers are seen too.
    """
    patched: list[tuple[object, str, object]] = []
    try:
        for target in targets:
            found = _resolve(target)
            if found is None:
                continue
            owner, attr = found
            raw = inspect.getattr_static(owner, attr)
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = _wrap(tracer, target, fn)
            if inspect.isclass(owner):
                patched.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        patched.append((mod, key, value))
                        setattr(mod, key, wrapper)
    except BaseException:
        _restore(patched)
        raise
    return functools.partial(_restore, patched)


def _restore(patched: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
    patched.clear()


# ---------------------------------------------------------------------------
# the layer entry points of interpsgd
# ---------------------------------------------------------------------------


def _keep_result(tracer, args, kwargs, result, span):
    tracer.results.append((span["name"], span, args, kwargs, result))


def _count_zero_grad(tracer, args, kwargs, result, span):
    if not result.any():
        tracer.add("zero_grads", 1)


def _file_bytes(counter: str, path_arg: int, keep: bool = False):
    def hook(tracer, args, kwargs, result, span):
        path = args[path_arg] if len(args) > path_arg else kwargs["path"]
        tracer.add(counter, os.path.getsize(path))
        if keep:
            _keep_result(tracer, args, kwargs, result, span)

    return hook


def _t(name: str, fine: bool = False, hook=None) -> Target:
    layer, _, attr = name.partition(".")
    return Target(name, f"{PACKAGE}.{layer}", attr, fine, hook)


STEP_FUNCTIONS = ("sgd_step", "accel_step", "line_search_sgd_step", "line_search_accel_step")
FULL_EVALS = ("loss_full", "grad_full", "mistake_rate", "per_example_grad_sq_norms")

TARGETS: list[Target] = [
    _t("cli.main"),
    _t("harness.run_experiment"),
    _t("harness.reproduce_figure"),
    _t("harness.audit_report"),
    _t("harness.ExperimentConfig.from_mapping"),
    _t("data.generate_margin_data"),
    _t("data.save_libsvm", hook=_file_bytes("save_libsvm_bytes", 1)),
    _t("data.load_libsvm", hook=_file_bytes("load_libsvm_bytes", 0, keep=True)),
    _t("data.default_rbf_config"),
    _t("data.rbf_features"),
    _t("objectives.Dataset.__init__"),
    _t("objectives.Objective.__init__"),
    *[_t(f"objectives.Objective.{m}") for m in FULL_EVALS],
    _t("objectives.Objective.grad_example", fine=True, hook=_count_zero_grad),
    _t("objectives.Objective.loss_example", fine=True),
    _t("numerics.spectral_norm_gram"),
    _t("numerics.as_vector", fine=True),
    _t("optimizers.run", hook=_keep_result),
    *[_t(f"optimizers.{f}", fine=True) for f in STEP_FUNCTIONS],
    _t("optimizers.accel_schedule_advance", fine=True),
    _t("growth.audit_sgc"),
    _t("growth.empirical_sgc_ratio"),
    _t("records.RunRecord.write_csv"),
]

TARGETS_BY_NAME = {t.name: t for t in TARGETS}

# Per-step calls: the steps themselves, the schedule and the per-example oracles.
STEP_PATH = frozenset(
    [f"optimizers.{f}" for f in STEP_FUNCTIONS]
    + ["optimizers.accel_schedule_advance"]
    + ["objectives.Objective.grad_example", "objectives.Objective.loss_example"]
)


def probe_targets(names: list[str]) -> list[Target]:
    """The few coarse targets an untraced run needs for its end-to-end
    metrics; each is called a bounded number of times per pass."""
    return [TARGETS_BY_NAME[n] for n in names]
