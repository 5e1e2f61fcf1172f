"""Regenerate bench/reference.json: one op of every workload per program seed.

    python3 bench/make_reference.py

Run it on an otherwise idle machine, and only when a change to the program
is meant to change its outputs: the committed file is what every benchmark
op is checked against. It also deals the seeds into the groups a run cycles
through, so that runs with different seeds do comparable work. Two costs
vary between seeds: the set-up time of the ``app_ls_hard`` op (its power
iteration, 0.8 to 5.4 s depending on the seed; no other time varies as
much) and the pass at which ``fig1a``'s Acc-SGD first logs a loss at or
below 1e-10 (2 to 8), which sets that workload's ``time_to_target_s``.
Every group has the same number of seeds and near-equal sums of both.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 32
GROUPS = 8  # divides SEEDS; a run's --seed picks one group


def target_pass(fig1a_entry: dict) -> int:
    """First logged pass at which the reference Acc-SGD loss of one seed is
    at or below the interpolation criterion."""
    from bench import workloads

    log10_losses = fig1a_entry["csv"]["acc_sgd.csv"]["log10_loss"]
    floor = math.log10(workloads.INTERPOLATED)
    return next(p for p, v in enumerate(log10_losses) if p > 0 and v <= floor)


def _spread(groups: list[list[int]], costs: dict[int, tuple[float, ...]]) -> tuple[float, ...]:
    """For each cost, the range of the group sums over their mean, widest first."""
    ranges = []
    for k in range(len(next(iter(costs.values())))):
        sums = [sum(costs[s][k] for s in g) for g in groups]
        ranges.append((max(sums) - min(sums)) * len(sums) / sum(sums))
    return tuple(sorted(ranges, reverse=True))


def balanced_groups(costs: dict[int, tuple[float, ...]], count: int = GROUPS) -> list[list[int]]:
    """Split the seeds into ``count`` equal-sized groups with near-equal sums
    of every cost: deal costliest first (by the first cost) into the cheapest
    group with room, then swap seeds between groups while a swap narrows the
    widest range of group sums."""
    size = len(costs) // count
    groups: list[list[int]] = [[] for _ in range(count)]
    sums = [0.0] * count
    for seed in sorted(costs, key=lambda s: (-costs[s][0], s)):
        k = min((i for i in range(count) if len(groups[i]) < size), key=lambda i: (sums[i], i))
        groups[k].append(seed)
        sums[k] += costs[seed][0]
    best = _spread(groups, costs)
    improved = True
    while improved:
        improved = False
        for a, b in itertools.combinations(range(count), 2):
            for i, j in itertools.product(range(size), repeat=2):
                groups[a][i], groups[b][j] = groups[b][j], groups[a][i]
                spread = _spread(groups, costs)
                if spread < best:
                    best, improved = spread, True
                else:
                    groups[a][i], groups[b][j] = groups[b][j], groups[a][i]
    return sorted(sorted(g) for g in groups)


def seed_groups(seeds: dict[str, dict], setup_s: dict[str, float]) -> list[list[int]]:
    """The groups of the reference's seeds, from its ``app_ls_hard`` set-up
    times and its ``fig1a`` curves."""
    return balanced_groups(
        {int(s): (setup_s[s], float(target_pass(seeds[s]["fig1a"]))) for s in seeds}
    )


def main() -> int:
    from bench import workloads

    seeds, costs = {}, {}
    workdir = ROOT / "bench" / "out" / "reference"
    for s in range(SEEDS):
        entry = {}
        for workload in workloads.WORKLOADS.values():
            op = workloads.run_op(workload, s, {}, workdir, traced=False, check=False)
            if op.problems:
                print(f"seed {s} {workload.name}: {op.problems}", file=sys.stderr)
                return 1
            entry[workload.name] = workloads.reference_of(workload, op.outputs)
            problems = workload.check(op.outputs, entry[workload.name])
            if problems:
                print(f"seed {s} {workload.name}: {problems}", file=sys.stderr)
                return 1
            if workload.name == "app_ls_hard":
                costs[str(s)] = round(op.setup_s, 3)
            print(f"seed {s} {workload.name}: wall {op.wall_s:.2f} s, setup {op.setup_s:.2f} s, "
                  f"target at pass {op.outputs.get('target_pass')}", flush=True)
        seeds[str(s)] = entry
    shutil.rmtree(workdir)
    reference = {
        "groups": seed_groups(seeds, costs),
        "balance_setup_s": costs,
        "seeds": seeds,
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
