"""Compare two benchmark results: ``compare.py PARENT.json CHANGE.json``.

Both files come from ``run.py --repeat N --out FILE`` (N >= 2, so each
side has a spread).  For every (workload, end-to-end metric) the
bounds of ``/BENCHMARK.json`` are applied and one row is printed with
both medians, the ratio change/parent with its base, and a verdict:

``ok``          the change's median is not worse than the parent's by
                more than the metric's bound
``regressed``   it is
``unresolved``  the run-to-run spread of either side (distance between
                its quartiles over its median) is wider than the bound,
                so this pair of results cannot tell

Exit code 1 when any row regressed or any run was incorrect.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(entry: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    if "q1" not in entry:
        raise SystemExit("each side needs at least two runs (--repeat N)")
    return (entry["q3"] - entry["q1"]) / entry["median"]


def verdict(metric: dict, parent: dict, change: dict) -> str:
    """Apply the metric's bound to the two sides' medians."""
    worse = (change["median"] - parent["median"]) / parent["median"]
    if metric["better"] == "higher":
        worse = -worse
    if max(spread(parent), spread(change)) > metric["bound"]:
        return "unresolved"
    return "regressed" if worse > metric["bound"] else "ok"


def compare(spec: dict, parent: dict, change: dict) -> list[tuple]:
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        if workload not in parent["summary"]:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = parent["summary"][workload][name]
            after = change["summary"][workload][name]
            outcome = verdict(metric, before, after)
            rows.append((workload, metric, before, after, outcome))
    return rows


def incorrect_runs(result: dict) -> list[str]:
    return [
        f"{run['workload']} (seed {run['seed']}): "
        f"correct={run['correct']} failed={run['failed']}"
        for run in result["runs"]
        if not run["correct"] or run["failed"]
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    parent, change = results
    rows = compare(spec, parent, change)
    print(
        f"{'workload':20s} {'metric':18s} {'parent':>12s} {'change':>12s} "
        f"{'ratio (base: parent)':>28s} {'bound':>6s} {'spread':>7s}  verdict"
    )
    for workload, metric, before, after, outcome in rows:
        name = metric["name"]
        ratio = after["median"] / before["median"]
        base = f"{ratio:.3f} x {before['median']:.6g} {before['unit']}"
        widest = max(spread(before), spread(after))
        print(
            f"{workload:20s} {name:18s} {before['median']:12.6g} "
            f"{after['median']:12.6g} {base:>28s} {metric['bound']:6.2f} "
            f"{widest:7.3f}  {outcome}"
        )
    problems = incorrect_runs(parent) + incorrect_runs(change)
    for problem in problems:
        print("incorrect run:", problem)
    regressed = any(row[-1] == "regressed" for row in rows)
    return 1 if regressed or problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
