"""Compare two suite results files under the bounds in ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py results/seed-a.json results/seed-b.json

For every pair of workload and end-to-end metric of ``BENCHMARK.json``,
or workload-specific timing (bound :data:`TIMES_BOUND`), B is judged
against A:

* ``worse`` / ``better`` — the median moved by more than the bound;
* ``unresolved`` — either side's interquartile range is wider than the
  bound (a move past the bound in the better direction still counts as
  ``better`` when every run of B beats every run of A);
* ``same`` — otherwise.

A move past the bound in the worse direction is ``worse`` whatever the
spread: that is the rule that rejects a change.  Exits 1 on any
``worse``, when B's ``fail_frac`` is higher than A's, when a workload or
metric of A is missing from B, or when an exact solver work count (CEGIS
iterations, SMT checks and pivots on the deterministic workloads)
differs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from summary import spread

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: bound of every workload-specific timing (a suite file's ``times``:
#: seconds, lower is better), the bound the end-to-end timings have
TIMES_BOUND = 0.10


def change(a_median: float, b_median: float, better: str) -> float:
    """Relative move of B against A, positive when B is worse."""
    if a_median == 0:
        return 0.0 if b_median == 0 else math.inf
    delta = (b_median - a_median) / abs(a_median)
    return delta if better == "lower" else -delta


def _every_run_better(a: dict, b: dict, better: str) -> bool:
    if better == "lower":
        return max(b["values"]) < min(a["values"])
    return min(b["values"]) > max(a["values"])


def verdict(a: dict, b: dict, metric: dict) -> str:
    """``a`` and ``b`` are metric summaries (median, q1, q3, values)."""
    bound = metric["bound"]
    moved = change(a["median"], b["median"], metric["better"])
    if moved > bound:
        return "worse"
    wide = spread(a) > bound or spread(b) > bound
    if moved < -bound and (
        not wide or _every_run_better(a, b, metric["better"])
    ):
        return "better"
    return "unresolved" if wide else "same"


def compare(a: dict, b: dict, metrics: list) -> tuple[list, list]:
    """Rows ``(workload, metric, a, b, move, verdict)``, and problems:
    what fails the comparison by itself (a missing workload or metric, a
    higher fail_frac, an exact count that differs)."""
    rows = []
    problems = []
    for workload, a_w in a["workloads"].items():
        b_w = b["workloads"].get(workload)
        if b_w is None:
            problems.append(f"{workload}: missing from B")
            continue
        if b_w["fail_frac"] > a_w["fail_frac"]:
            problems.append(f"{workload}: fail_frac rose from "
                            f"{a_w['fail_frac']} to {b_w['fail_frac']}")
        gated = [("end_to_end", m) for m in metrics] + [
            ("times", {"name": name, "better": "lower", "bound": TIMES_BOUND})
            for name in a_w["times"]
        ]
        for section, metric in gated:
            name = metric["name"]
            sa = a_w[section].get(name)
            sb = b_w.get(section, {}).get(name)
            if sa is None or sb is None:
                side = "A" if sa is None else "B"
                problems.append(f"{workload} {name}: missing from {side}")
                continue
            rows.append((
                workload, name, sa["median"], sb["median"],
                change(sa["median"], sb["median"], metric["better"]),
                verdict(sa, sb, metric),
            ))
        for name, values in a_w["counts"].items():
            b_values = b_w.get("counts", {}).get(name)
            if b_values != values:
                problems.append(f"{workload} {name}: {values} in A, "
                                f"{b_values} in B; exact counts must match")
    return rows, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="results file of the reference side")
    parser.add_argument("b", help="results file of the side under test")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    with open(args.a, encoding="utf-8") as f:
        a = json.load(f)
    with open(args.b, encoding="utf-8") as f:
        b = json.load(f)
    rows, problems = compare(a, b, metrics)
    print(f"{'workload':10s} {'metric':16s} {'A median':>10s} "
          f"{'B median':>10s} {'move':>8s}  verdict")
    for workload, name, ma, mb, moved, result in rows:
        print(f"{workload:10s} {name:16s} {ma:10.4f} {mb:10.4f} "
              f"{moved:+8.2%}  {result}")
    for problem in problems:
        print(f"FAILED {problem}")
    worse = any(row[-1] == "worse" for row in rows)
    return 1 if worse or problems else 0


if __name__ == "__main__":
    sys.exit(main())
