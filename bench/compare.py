"""Compare two result sets written by ``bench/run.py --results FILE``.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

For each workload and end-to-end metric it prints each side's median and
quartiles, the pair wins (run i of one side against run i of the other,
ties counting for neither) and a verdict:

  improved               the change wins at least 9/10 of the pairs and the
                         medians differ by more than the parent's IQR
  worse than bound       the change's median is worse than the parent's by
                         more than the metric's bound
  unresolved             the parent's own spread (IQR / median) is wider
                         than the bound, and not every run of the change
                         reads better than every run of the parent
  no worse within bound  otherwise
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.metrics import quartiles  # noqa: E402

WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Statistics and verdict for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    change_wins = sum(sign * (c - p) > 0 for p, c in pairs)
    parent_wins = sum(sign * (c - p) < 0 for p, c in pairs)
    gain = sign * (cm - pm)  # > 0: the change's median is better
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    if pairs and change_wins >= WIN_SHARE * len(pairs) and gain > p3 - p1:
        label = "improved"
    elif spread > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
        label = "unresolved"
    elif -gain > bound * abs(pm):
        label = "worse than bound"
    else:
        label = "no worse within bound"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "change_wins": change_wins,
        "parent_wins": parent_wins,
        "pairs": len(pairs),
        "verdict": label,
    }


def load(path: str) -> dict[str, list[dict]]:
    """End-to-end result lines of a result set, by workload, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                entry = json.loads(line)
                if entry["trace"] == 0:
                    runs.setdefault(entry["workload"], []).append(entry)
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    for label, runs in (("parent", parent), ("change", change)):
        shas = sorted({r["env"]["git_sha"] for rs in runs.values() for r in rs})
        print(f"{label}: {args.parent if label == 'parent' else args.change} git {', '.join(shas)}")
    fmt = "{:<14} {:<18} {:>38} {:>38} {:>9}  {}"
    print(fmt.format("workload", "metric", "parent Q1/median/Q3", "change Q1/median/Q3",
                     "wins c:p", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in parent[workload]]
            b = [r["metrics"][name]["value"] for r in change[workload]]
            v = verdict(a, b, metric["better"], metric["bound"])
            print(fmt.format(
                workload, name,
                "/".join(f"{x:.6g}" for x in v["parent"]),
                "/".join(f"{x:.6g}" for x in v["change"]),
                f"{v['change_wins']}:{v['parent_wins']}/{v['pairs']}",
                v["verdict"],
            ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
