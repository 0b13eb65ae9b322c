"""A/B two checkouts with ``benchmarks/e2e`` and log the result.

The README's procedure for a change that claims a gain, as one
command, outside the benchmark contract (nothing under
``benchmarks/e2e/`` or in ``/BENCHMARK.json`` is read for anything but
its numbers and bounds)::

    python3 benchmarks/ab_e2e.py --parent /root/scratch/parent --change . \\
        --seed 1 --pairs 10 --note "PR 17" --out benchmarks/BENCH_e2e.json

For every workload it runs ``--pairs`` alternating pairs (parent,
change, change, parent, ...) of ``run.py --workload W --seed S --trace
0``, each in its own process started in the checkout it measures, then
one traced run per side for the per-layer metrics.  Two entries -- the
parent's and the change's -- are **appended** to the log: commit, seed,
per-workload medians and quartiles of the gated metrics with every
run's value, the per-kind p50 latencies, the traced per-layer metrics,
digests, and (on the change's entry) ``compare.py``'s verdict against
the parent plus the pair score of the README's rule.  The log is
append-only: one file, the whole trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.compare import verdict  # noqa: E402
from benchmarks.e2e.harness import summarize  # noqa: E402


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    work = checkout / "benchmarks" / "e2e" / ".work"  # git-ignored
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as scratch:
        out = Path(scratch) / "run.json"
        command = [
            sys.executable, "benchmarks/e2e/run.py",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out", str(out),
        ]
        done = subprocess.run(
            command, cwd=checkout, stdout=subprocess.PIPE, text=True
        )
        if done.returncode or not out.exists():
            sys.stdout.write(done.stdout)
            raise SystemExit(f"{checkout}: {workload} failed")
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


def commit_of(checkout: Path) -> str:
    head = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip()
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip()
    return head + (" + working tree" if dirty else "")


def kinds_p50(runs: list[dict]) -> dict:
    """Median over the runs of each op kind's p50 latency (ms)."""
    per_kind: dict[str, list[float]] = {}
    for run in runs:
        by_kind = run["details"].get("latency", {}).get("by_kind", {})
        for kind, entry in by_kind.items():
            per_kind.setdefault(kind, []).append(entry["p50_ms"])
    return {
        kind: round(statistics.median(values), 4)
        for kind, values in sorted(per_kind.items())
    }


def entry_for(side: str, checkout: Path, args, runs: dict, traced: dict,
              started: str) -> dict:
    workloads = {}
    for workload, side_runs in runs.items():
        summary = summarize(side_runs)[workload]
        details = side_runs[0]["details"]
        workloads[workload] = {
            "end_to_end": summary,
            "attempted": sum(run["attempted"] for run in side_runs),
            "failed": sum(run["failed"] for run in side_runs),
            "correct": all(run["correct"] for run in side_runs),
            "p50_ms_by_kind": kinds_p50(side_runs),
            "digests": {
                key: details[key]
                for key in ("graph_digest", "result_digest")
                if key in details
            },
            "per_layer": {
                name: metric["value"]
                for name, metric in traced[workload]["metrics"].items()
            },
        }
    return {
        "commit": commit_of(checkout),
        "side": side,
        "note": args.note,
        "measured": started,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "workloads": workloads,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--note", default="")
    parser.add_argument("--out", type=Path,
                        default=ROOT / "benchmarks" / "BENCH_e2e.json")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs = {side: {name: [] for name in names} for side in sides}
    traced = {side: {} for side in sides}
    for name in names:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(sides[side], name, args.seed, args.seconds, 0)
                runs[side][name].append(run)
                value = run["metrics"]["throughput_ops_s"]["value"]
                print(f"{name} pair {pair} {side}: {value:.1f} ops/s "
                      f"correct={run['correct']}", flush=True)
        for side in sides:
            traced[side][name] = run_once(
                sides[side], name, args.seed, args.seconds, 1
            )
    entries = {
        side: entry_for(side, sides[side], args, runs[side], traced[side],
                        started)
        for side in sides
    }
    # compare.py's verdict and the README's pair rule, change vs parent.
    comparison = {}
    for name in names:
        rows = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            before = entries["parent"]["workloads"][name]["end_to_end"][key]
            after = entries["change"]["workloads"][name]["end_to_end"][key]
            better = [
                (a > b) if metric["better"] == "higher" else (a < b)
                for b, a in zip(before["values"], after["values"])
                if a != b
            ]
            rows[key] = {
                "verdict": verdict(metric, before, after),
                "ratio_change_over_parent": round(
                    after["median"] / before["median"], 4
                ),
                "pairs_won": f"{sum(better)}/{len(better)}",
                "median_gap_over_parent_iqr": round(
                    abs(after["median"] - before["median"])
                    / max(before["q3"] - before["q1"], 1e-12), 2
                ),
            }
        comparison[name] = rows
    entries["change"]["vs_previous_entry"] = comparison
    log = []
    if args.out.exists():
        with open(args.out, encoding="utf-8") as handle:
            log = json.load(handle)
    log.extend([entries["parent"], entries["change"]])
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(log, handle, indent=1)
        handle.write("\n")
    for name, rows in comparison.items():
        for key, row in rows.items():
            print(f"{name:20s} {key:18s} x{row['ratio_change_over_parent']:<7} "
                  f"won {row['pairs_won']:6s} {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
