"""``python -m repro.fuzz``: the differential conformance fuzzer.

Typical invocations::

    python -m repro.fuzz --seed 0 --cases 200        # the CI smoke run
    python -m repro.fuzz --seed 7 --cases 5000 -v    # a longer hunt
    python -m repro.fuzz --replay tests/fuzz_corpus  # corpus regression
    python -m repro.fuzz --crash 3                   # WAL crash injection
    python -m repro.fuzz --views 4 --cases 200       # view-maintenance oracle

Every failing case is greedily shrunk and written as a replayable JSON
bundle under ``tests/fuzz_corpus/`` (``--corpus`` to redirect,
``--no-shrink`` to keep the original).  Exit status is 0 iff every case
passed.  Same seed => same cases, byte for byte.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential conformance fuzzer for the Cypher "
        "update semantics (planner on/off x compiled/interpreted x "
        "merge semantics, with store-invariant oracles).",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="case-stream seed (default 0)"
    )
    parser.add_argument(
        "--cases",
        type=int,
        default=200,
        help="number of cases to run (default 200)",
    )
    parser.add_argument(
        "--start",
        type=int,
        default=0,
        help="first case index (resume a long run)",
    )
    parser.add_argument(
        "--corpus",
        type=Path,
        default=None,
        help="directory for shrunk failure bundles "
        "(default tests/fuzz_corpus)",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="write failing cases without minimising them",
    )
    parser.add_argument(
        "--shrink-budget",
        type=int,
        default=400,
        help="max candidate evaluations per shrink (default 400)",
    )
    parser.add_argument(
        "--max-failures",
        type=int,
        default=5,
        help="stop after this many distinct failures (default 5)",
    )
    parser.add_argument(
        "--replay",
        type=Path,
        default=None,
        metavar="DIR",
        help="replay every bundle in DIR instead of generating cases",
    )
    parser.add_argument(
        "--crash",
        type=int,
        default=None,
        metavar="SCENARIOS",
        help="run this many WAL crash-injection scenarios instead of "
        "differential cases (kills recovery at every record boundary "
        "plus torn/corrupt tails)",
    )
    parser.add_argument(
        "--statements",
        type=int,
        default=20,
        help="statements per crash scenario (default 20)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="also run each case through the morsel-parallel scheduler "
        "with N workers and require exact agreement with the serial "
        "runs (default 0 = serial only)",
    )
    parser.add_argument(
        "--views",
        type=int,
        default=0,
        metavar="N",
        help="register N deterministic read queries per case as "
        "maintained views and, after every statement, require each "
        "maintained result to equal a full re-execution of its query "
        "across the engine surfaces (default 0 = off)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print one line per case",
    )
    return parser


def run_crash(args: argparse.Namespace) -> int:
    import tempfile

    from repro.testing.crash import (
        run_checkpoint_crash_scenario,
        run_crash_scenario,
        run_delta_crash_scenario,
        scenario_statements,
    )

    started = time.perf_counter()
    failed = 0
    kill_points = 0
    for seed in range(args.seed, args.seed + args.crash):
        statements = scenario_statements(seed, args.statements)
        with tempfile.TemporaryDirectory() as scratch:
            report = run_crash_scenario(
                seed, scratch, statements=statements
            )
        with tempfile.TemporaryDirectory() as scratch:
            checkpoint_report = run_checkpoint_crash_scenario(
                seed, scratch, statements=statements
            )
        with tempfile.TemporaryDirectory() as scratch:
            delta_report = run_delta_crash_scenario(
                seed, scratch, statements=statements
            )
        reports = (report, checkpoint_report, delta_report)
        kill_points += sum(each.kill_points for each in reports)
        ok = all(each.ok for each in reports)
        status = "ok" if ok else "FAIL"
        if args.verbose or not ok:
            print(
                f"[{status}] crash seed {seed}: "
                f"{report.records_written} records, "
                f"{report.kill_points} WAL + "
                f"{checkpoint_report.kill_points} checkpoint + "
                f"{delta_report.kill_points} delta kill points"
            )
        if not ok:
            failed += 1
            failures = [line for each in reports for line in each.failures]
            for failure in failures[:5]:
                print(f"    {failure}")
    elapsed = time.perf_counter() - started
    print(
        f"{args.crash - failed}/{args.crash} crash scenarios passed "
        f"({kill_points} kill points) in {elapsed:.1f}s"
    )
    return 1 if failed else 0


def run_replay(directory: Path, *, verbose: bool) -> int:
    from repro.testing.corpus import iter_bundles, replay_bundle

    bundles = iter_bundles(directory)
    if not bundles:
        print(f"no bundles under {directory}")
        return 0
    failed = 0
    for path in bundles:
        result = replay_bundle(path)
        status = "ok" if result.ok else "FAIL"
        if verbose or not result.ok:
            print(f"[{status}] {path}")
        if not result.ok:
            failed += 1
            for failure in result.failures[:5]:
                print(f"    {failure}")
    print(f"replayed {len(bundles)} bundle(s), {failed} failing")
    return 1 if failed else 0


def run_fuzz(args: argparse.Namespace) -> int:
    from repro.testing.corpus import DEFAULT_CORPUS, write_bundle
    from repro.testing.differential import run_case, run_views_case
    from repro.testing.generator import case_for, with_views
    from repro.testing.shrinker import shrink

    corpus = args.corpus if args.corpus is not None else DEFAULT_CORPUS

    def execute(one):
        if one.views:
            return run_views_case(one, workers=args.workers)
        return run_case(one, workers=args.workers)

    started = time.perf_counter()
    failures = 0
    for index in range(args.start, args.start + args.cases):
        case = case_for(args.seed, index)
        if args.views:
            case = with_views(case, args.views)
        result = execute(case)
        if args.verbose:
            status = "ok" if result.ok else "FAIL"
            print(f"[{status}] case {case.seed_key} ({case.kind})")
        if result.ok:
            continue
        failures += 1
        print(f"FAIL case {case.seed_key} ({case.kind}):")
        for failure in result.failures[:5]:
            print(f"    {failure[:400]}")
        reduced = case
        if not args.no_shrink and not case.views:
            # View cases are not shrunk: the registered queries are
            # part of the repro, and dropping statements changes every
            # later maintained/re-executed comparison point.
            reduced = shrink(case, budget=args.shrink_budget)
        bundle_failures = (
            execute(reduced).failures or result.failures
        )
        path = write_bundle(reduced, bundle_failures, corpus)
        print(f"    shrunk bundle written to {path}")
        if failures >= args.max_failures:
            print("stopping: --max-failures reached")
            break
    elapsed = time.perf_counter() - started
    ran = (
        min(args.cases, (index - args.start) + 1)
        if args.cases
        else 0
    )
    rate = ran / elapsed if elapsed > 0 else float("inf")
    print(
        f"{ran - failures}/{ran} cases passed in {elapsed:.1f}s "
        f"({rate:.0f} cases/s, seed {args.seed})"
    )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.replay is not None:
        return run_replay(args.replay, verbose=args.verbose)
    if args.crash is not None:
        if args.crash <= 0:
            print("nothing to do: --crash must be positive")
            return 2
        return run_crash(args)
    if args.cases <= 0:
        print("nothing to do: --cases must be positive")
        return 2
    return run_fuzz(args)


if __name__ == "__main__":
    sys.exit(main())
