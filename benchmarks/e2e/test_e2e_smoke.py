"""Smoke test of the end-to-end benchmark (collected by tier-1).

Runs every workload, untraced and traced, at a twentieth of the size on
the 1k-node dataset through the real command line, and checks the
contract of ``/BENCHMARK.json``: all correctness checks pass, nothing
failed, every metric is reported by name with its unit, and the two
update workloads reach the same graph.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from .streams import op_stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
STREAMS = sorted(set(WORKLOADS) - {"durable_update_mix"})


def command(*arguments: str) -> list[str]:
    program, script = SPEC["command"]
    assert program == "python3"
    return [sys.executable, str(ROOT / script), *arguments]


@pytest.fixture(scope="module")
def result(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    done = subprocess.run(
        command(
            *("--seed", "7"),
            *("--seconds", "0.05"),
            *("--scale", "0.05"),
            *("--trace", "1"),
            *("--out", str(out)),
        ),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout
    loaded = json.loads(out.read_text(encoding="utf-8"))
    loaded["trace_files"] = sorted(
        path.name for path in out.parent.glob("trace-*.json")
    )
    return loaded


def runs_of(result: dict, trace: int) -> dict[str, dict]:
    return {
        run["workload"]: run
        for run in result["runs"]
        if run["trace"] == trace
    }


@pytest.mark.parametrize("trace", (0, 1))
def test_every_workload_is_correct_and_nothing_fails(result, trace):
    runs = runs_of(result, trace)
    assert sorted(runs) == sorted(WORKLOADS)
    for name, run in runs.items():
        assert run["correct"], (name, run["details"])
        assert all(run["details"]["checks"].values()), name
        assert run["failed"] == 0, (name, run["details"]["failures"])
        assert run["attempted"] >= run["details"]["block_ops"], name


@pytest.mark.parametrize(
    "trace, section", ((0, "end_to_end"), (1, "per_layer"))
)
def test_every_metric_is_reported_with_its_unit(result, trace, section):
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    for name, run in runs_of(result, trace).items():
        reported = {
            metric: value["unit"] for metric, value in run["metrics"].items()
        }
        assert reported == expected, name
        for metric, value in run["metrics"].items():
            assert isinstance(value["value"], (int, float)), (name, metric)
    if not trace:
        for run in runs_of(result, trace).values():
            assert all(v["value"] > 0 for v in run["metrics"].values())


def test_update_workloads_reach_the_same_graph(result):
    runs = runs_of(result, 0)
    digest = runs["update_mix"]["details"]["graph_digest"]
    assert digest == runs["durable_update_mix"]["details"]["graph_digest"]
    # and the traced pass reaches it too: tracing changes no outcome
    traced = runs_of(result, 1)["update_mix"]
    assert digest == traced["details"]["graph_digest"]


def test_layers_show_where_the_design_says(result):
    traced = runs_of(result, 1)

    def layer(workload: str, metric: str) -> float:
        return traced[workload]["metrics"][metric]["value"]

    commit = "persistence.commit_ms_per_stmt"
    assert layer("durable_update_mix", commit) > 0
    assert layer("update_mix", commit) == 0
    assert layer("durable_update_mix", "persistence.wal_bytes_per_commit") > 0
    assert layer("view_maintenance", "views.maintenance_ms_per_commit") > 0
    assert layer("analytic_scan", "runtime.db_hits_per_row") > layer(
        "oltp_read", "runtime.db_hits_per_row"
    )
    assert layer("update_mix", "core.abort_share") > 0
    assert result["trace_files"] == sorted(
        f"trace-{name}.json" for name in WORKLOADS
    )


def test_contract_line_is_the_last_line_of_stdout():
    done = subprocess.run(
        command(
            *("--workload", "oltp_read"),
            *("--seed", "3"),
            *("--seconds", "0.1"),
            *("--trace", "0"),
            *("--scale", "0.05"),
        ),
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0


@pytest.mark.parametrize("stream", STREAMS)
def test_op_stream_is_a_pure_function_of_its_seed(stream):
    def prefix(seed: int) -> list:
        return list(itertools.islice(op_stream(stream, seed, 1000), 300))

    assert prefix(11) == prefix(11)
    assert prefix(11) != prefix(12)
