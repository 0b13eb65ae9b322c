"""The runner: one workload in this process, or all of them in children.

``run.py --workload NAME --seed S --seconds T --trace 0|1`` runs one
workload here and prints, as the last line, the JSON object that
``/BENCHMARK.json`` promises.  Without ``--workload`` (or with
``--repeat N``) every requested run happens in its own child process
and a table of medians is printed.

A run is: prepare the inputs from the seed; set up (several times,
the median is ``setup_s``); run fixed-size blocks of ops until
``--seconds`` of timed work have passed; run the correctness checks.
Op counts per block are fixed, so everything up to the end of the first
block is a pure function of the seed -- digests and exact counts are
taken there and repeat on every run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.parser import parse

from .measure import Recorder, clock, peak_rss_mib
from .tracing import Tracer
from .workloads import (
    WORKLOADS,
    Env,
    Workload,
    bytes_per_entity,
    cache_hit_rate,
)

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
#: a measured run sets up at least this often (``setup_s`` is the
#: median) and goes on, up to the larger count, until this many seconds
#: of set-up are behind it: short set-ups need more samples to be steady
SETUP_REPEATS = (3, 6)
SETUP_SECONDS = 3.0
#: most distinct statement texts the parser metric times
PARSE_SAMPLE = 500


def load_spec() -> dict:
    """``/BENCHMARK.json``: the metric names, units and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def run_block(
    workload: Workload, recorder: Recorder, tracer: Tracer | None = None
) -> None:
    """One timed block, traced when *tracer* is given, then the
    workload's untimed work between blocks."""
    workload.trace_ops = tracer is not None
    recorder.blocks.append(workload.run_block(recorder))
    if tracer is not None:
        tracer.end_block()
    workload.after_block()


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: float
) -> dict:
    """Run one workload end to end; returns the full result."""
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=_work_root()))
    tracer = Tracer() if trace else None
    workload = WORKLOADS[name](Env(ROOT, work, seed, scale, tracer))
    try:
        workload.prepare()
        # Smoke and traced runs set up once; measured runs repeat it.
        fewest, most = SETUP_REPEATS if scale >= 1 and not trace else (1, 1)
        setups: list[float] = []
        while len(setups) < fewest or (
            len(setups) < most and sum(setups) < SETUP_SECONDS
        ):
            if setups:
                workload.teardown()
            workload.stage()
            started = clock()
            workload.setup()
            setups.append(clock() - started)
        recorder = Recorder()
        if tracer is None:
            # Peak RSS is read after the first block: a fixed amount
            # of work, whatever the speed of the program.
            run_block(workload, recorder)
            rss = peak_rss_mib(workload.store_pid())
            while recorder.timed_seconds() < seconds:
                run_block(workload, recorder)
            metrics = {
                "throughput_ops_s": recorder.throughput_ops_s(),
                "setup_s": statistics.median(setups),
                "peak_rss_mib": rss,
            }
            latency = recorder.latency_summary()
            metrics["latency_p50_ms"] = latency.pop("p50_ms")
            workload.details["latency"] = latency
            checks = workload.check()
        else:
            # Traced and untraced blocks alternate, so the machine's
            # drift falls on both sides of trace.overhead_share alike.
            traced = Recorder()
            graph = workload.graph  # none for service_mixed
            cache_before = graph and graph.engine.ast_cache_info()
            while True:
                run_block(workload, traced, tracer)
                run_block(workload, recorder)
                timed = traced.timed_seconds() + recorder.timed_seconds()
                if timed >= seconds:
                    break
            # Read off the live graph before the checks reopen it.
            sampled = {}
            if graph is not None:
                sampled = {
                    "engine.ast_cache_hit_rate": cache_hit_rate(
                        cache_before, graph.engine.ast_cache_info()
                    ),
                    "graph.bytes_per_entity": bytes_per_entity(graph.store),
                }
            checks = workload.check()
            extras = workload.layer_extras()
            self_s = tracer.self_seconds()
            metrics = layer_metrics(workload, tracer, self_s, traced, recorder)
            metrics.update(sampled)
            metrics.update(extras)
            workload.details["layer_self_s"] = self_s
            workload.details["trace_spans"] = len(tracer.spans)
            recorder.merge(traced)
            recorder.blocks.extend(traced.blocks)
    finally:
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)
    timed_ops = sum(ops for ops, __ in recorder.blocks)
    workload.details.update(
        setup_times_s=setups,
        timed_seconds=recorder.timed_seconds(),
        timed_blocks=len(recorder.blocks),
        timed_ops=timed_ops,
        block_ops_s=[round(ops / wall, 2) for ops, wall in recorder.blocks],
        mean_throughput_ops_s=timed_ops / recorder.timed_seconds(),
        warmup_ops=workload.warmup_ops,
        block_ops=workload.block_ops,
        nproc=os.cpu_count(),
        checks=checks,
        failures=recorder.failures,
    )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "trace": int(trace),
        "correct": all(checks.values()) and recorder.failed == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": _with_units(metrics, trace),
        "details": workload.details,
        "spans": tracer.to_json() if tracer is not None else None,
    }


def _work_root() -> Path:
    root = HERE / ".work"
    root.mkdir(exist_ok=True)
    return root


def _with_units(values: dict[str, float], trace: bool) -> dict:
    """Attach the contract's units; the names must be the contract's."""
    spec = load_spec()["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in spec}
    if set(units) != set(values):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(values))}"
        )
    return {
        name: {"value": values[name], "unit": units[name]} for name in units
    }


def layer_metrics(
    workload: Workload,
    tracer: Tracer,
    self_s: dict[str, float],
    traced: Recorder,
    untraced: Recorder,
) -> dict[str, float]:
    """Every per-layer metric; a layer the workload lacks reads 0."""
    spec = load_spec()["per_layer"]
    metrics = {metric["name"]: 0.0 for metric in spec}
    counts = tracer.counts
    first = tracer.first_block_counts or {}
    statements = counts.get("statements", 0)

    def ms_per_statement(layer: str) -> float:
        if not statements:
            return 0.0
        return self_s.get(layer, 0.0) * 1000 / statements

    texts = sorted(workload.texts)[:PARSE_SAMPLE]
    if texts:
        started = clock()
        for text in texts:
            parse(text)
        metrics["parser.parse_us_per_stmt"] = (
            (clock() - started) * 1e6 / len(texts)
        )
    metrics["engine.overhead_ms_per_stmt"] = ms_per_statement("engine.run")
    metrics["runtime.match_ms_per_stmt"] = ms_per_statement("runtime.match")
    metrics["runtime.project_ms_per_stmt"] = ms_per_statement(
        "runtime.project"
    )
    metrics["core.update_ms_per_stmt"] = ms_per_statement("core.update")
    metrics["persistence.commit_ms_per_stmt"] = ms_per_statement(
        "persistence.log_commit"
    )
    if first.get("rows"):
        metrics["runtime.db_hits_per_row"] = first["read_hits"] / first["rows"]
    if first.get("statements"):
        metrics["core.write_hits_per_stmt"] = (
            first.get("write_hits", 0) / first["statements"]
        )
    if statements:
        metrics["core.abort_share"] = counts.get("aborts", 0) / statements
    checkpoints = [
        end - start
        for __, name, start, end, __, __ in tracer.spans
        if name == "persistence.checkpoint"
    ]
    if checkpoints:
        metrics["persistence.checkpoint_s"] = statistics.median(checkpoints)
    metrics["graph.load_entities_s"] = workload.details["load_store_s"]
    metrics["trace.overhead_share"] = (
        1 - traced.throughput_ops_s() / untraced.throughput_ops_s()
    )
    return metrics


# ----------------------------------------------------------------------
# Many runs, each in a child process
# ----------------------------------------------------------------------


def run_children(args: argparse.Namespace) -> dict:
    """Every requested (workload, repeat, traced?) run in its own child."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = []
    with tempfile.TemporaryDirectory(dir=_work_root()) as scratch:
        for name in names:
            for trace in (0, 1) if args.trace else (0,):
                for repeat in range(args.repeat):
                    out = Path(scratch) / f"{name}-{trace}-{repeat}.json"
                    command = [
                        sys.executable,
                        str(HERE / "run.py"),
                        *("--workload", name),
                        *("--seed", str(args.seed)),
                        *("--seconds", str(args.seconds)),
                        *("--trace", str(trace)),
                        *("--scale", str(args.scale)),
                        *("--out", str(out)),
                    ]
                    done = subprocess.run(
                        command, stdout=subprocess.PIPE, text=True
                    )
                    if done.returncode:
                        sys.stdout.write(done.stdout)
                        raise SystemExit(
                            f"{name} (trace {trace}) exited with "
                            f"code {done.returncode}"
                        )
                    with open(out, encoding="utf-8") as handle:
                        runs.append(json.load(handle))
                    if trace and args.out:
                        shutil.copy(
                            out.with_name("trace.json"),
                            Path(args.out).with_name(f"trace-{name}.json"),
                        )
    return {"runs": runs, "summary": summarize(runs)}


def summarize(runs: list[dict]) -> dict:
    """Per workload and metric: the runs' values, median and quartiles."""
    summary: dict[str, dict] = {}
    for run in runs:
        per_workload = summary.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            entry = per_workload.setdefault(
                name, {"unit": metric["unit"], "values": []}
            )
            entry["values"].append(metric["value"])
    for per_workload in summary.values():
        for entry in per_workload.values():
            values = entry["values"]
            entry["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, __, q3 = statistics.quantiles(values, n=4)
                entry["q1"], entry["q3"] = q1, q3
    return summary


def print_summary(result: dict) -> None:
    for workload, metrics in result["summary"].items():
        runs = [r for r in result["runs"] if r["workload"] == workload]
        correct = all(run["correct"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        print(
            f"{workload}: correct={correct} attempted={attempted} "
            f"failed={failed} failed_share={failed / attempted:.6f}"
        )
        for name, entry in metrics.items():
            spread = ""
            if "q1" in entry:
                spread = f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}]"
            print(
                f"  {name:42s} {entry['median']:14.6g} "
                f"{entry['unit']}{spread}"
            )
        for key in ("result_digest", "graph_digest"):
            if key in runs[0]["details"]:
                print(f"  {key:42s} {runs[0]['details'][key]}")


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="End-to-end benchmark of the Cypher engine.",
    )
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        help="run only this workload (default: all, each in a child)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(load_spec()["run_seconds"]),
        help="timed seconds per run",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="1: the traced run (per-layer metrics); with all "
        "workloads, run both passes",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="scale the dataset and the ops per block (smoke runs)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="runs per workload; prints per-run values and quartiles",
    )
    parser.add_argument(
        "--out", help="write the full result (and trace.json beside it)"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.workload is None or args.repeat > 1:
        result = run_children(args)
        print_summary(result)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(result, handle, indent=1)
        correct = all(run["correct"] for run in result["runs"])
        return 0 if correct else 1

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale
    )
    spans = result.pop("spans")
    if args.out:
        out = Path(args.out)
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
        if spans is not None:
            with open(out.with_name("trace.json"), "w") as handle:
                json.dump(spans, handle)
    print(
        f"workload {result['workload']} seed {result['seed']} "
        f"seconds {result['seconds']} trace {result['trace']}"
    )
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print("failed_share", result["failed"] / result["attempted"], "ratio")
    print("details", json.dumps(result["details"], sort_keys=True))
    print(
        json.dumps(
            {
                key: result[key]
                for key in ("correct", "attempted", "failed", "metrics")
            }
        )
    )
    return 0 if result["correct"] else 1
