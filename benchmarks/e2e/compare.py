"""Compare two sets of end-to-end runs: a parent (A) and a change (B).

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

Both files hold ``run.py --out`` records. Runs pair up by workload and
seed, so both sides must run the same seeds, alternating which side
runs first. Traced records are ignored. For every (workload, end-to-end
metric) pair this prints each side's median and quartiles and a verdict:

``win``
    B beats A in at least 9/10 of the pairs (ties count for neither),
    over at least 10 pairs, and the medians differ by more than A's
    interquartile range.
``unresolved``
    the run-to-run spread (interquartile range over median, the larger
    of the two sides) is wider than the metric's bound, and not every B
    run beats every A run.
``regression``
    B's median is worse than A's by more than the bound.
``ok``
    none of the above: within the bound.

Bounds and directions come from BENCHMARK.json. Exits 1 when any pair
regresses, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS_FOR_WIN = 10
WIN_SHARE = 0.9


def load(path: str) -> Dict[Tuple[str, int], Dict[str, float]]:
    """``(workload, seed) -> {metric: value}`` of the untraced records."""
    runs = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            key = (record["workload"], record["seed"])
            if key in runs:
                raise ValueError(f"{path}: seed {key[1]} of {key[0]} twice")
            runs[key] = {
                name: metric["value"]
                for name, metric in record["result"]["metrics"].items()
            }
    return runs


def _spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median)


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> dict:
    """Judge paired samples ``a[i]``/``b[i]`` of one metric."""
    if len(a) != len(b) or len(a) < 2:
        raise ValueError("need at least two pairs of equal length")
    sign = 1.0 if better == "higher" else -1.0
    med_a, q1_a, q3_a, spread_a = _spread(a)
    med_b, q1_b, q3_b, spread_b = _spread(b)
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    change = (med_b - med_a) / abs(med_a)
    worse = -sign * change
    spread = max(spread_a, spread_b)
    if better == "higher":
        every_b_better = min(b) > max(a)
    else:
        every_b_better = max(b) < min(a)
    if (
        len(a) >= MIN_PAIRS_FOR_WIN
        and wins >= WIN_SHARE * len(a)
        and sign * (med_b - med_a) > q3_a - q1_a
    ):
        status = "win"
    elif spread > bound and not every_b_better:
        status = "unresolved"
    elif worse > bound:
        status = "regression"
    else:
        status = "ok"
    return {
        "pairs": len(a),
        "a": (med_a, q1_a, q3_a),
        "b": (med_b, q1_b, q3_b),
        "wins": wins,
        "change": change,
        "spread": spread,
        "status": status,
    }


def compare(runs_a, runs_b, spec) -> List[dict]:
    paired = defaultdict(list)
    for key in sorted(set(runs_a) & set(runs_b)):
        paired[key[0]].append(key)
    rows = []
    for workload, keys in sorted(paired.items()):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [runs_a[key][name] for key in keys],
                [runs_b[key][name] for key in keys],
                metric["better"],
                metric["bound"],
            )
            row.update(workload=workload, metric=name, bound=metric["bound"])
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="run.py --out records of commit A")
    parser.add_argument("change", help="run.py --out records of commit B")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(load(args.parent), load(args.change), spec)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print("error: no workload has two seeds run on both sides",
              file=sys.stderr)
        return 2
    print(f"{'workload':<12} {'metric':<17} {'pairs':>5} "
          f"{'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
          f"{'change':>8} {'spread':>7} {'bound':>6} {'B wins':>6}  verdict")
    for row in rows:
        a = "{:.4g} [{:.4g}, {:.4g}]".format(*row["a"])
        b = "{:.4g} [{:.4g}, {:.4g}]".format(*row["b"])
        print(
            f"{row['workload']:<12} {row['metric']:<17} {row['pairs']:>5} "
            f"{a:>30} {b:>30} {row['change']:>+8.1%} {row['spread']:>7.1%} "
            f"{row['bound']:>6.0%} {row['wins']:>6}  {row['status']}"
        )
    if min(row["pairs"] for row in rows) < MIN_PAIRS_FOR_WIN:
        print(f"note: fewer than {MIN_PAIRS_FOR_WIN} pairs on some "
              "workload; no win can be claimed there")
    return 1 if any(row["status"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
