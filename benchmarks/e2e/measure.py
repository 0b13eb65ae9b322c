"""Timing, percentiles and process memory for the benchmark's runs."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

clock = time.perf_counter

#: a percentile is reported only with at least this many samples beyond it
MIN_TAIL_SAMPLES = 10


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered))))
    return ordered[rank]


def peak_rss_mib(pid: int) -> float:
    """High-water resident set (``VmHWM``) of process *pid*, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


@dataclass
class Recorder:
    """Per-op latencies by op kind, block walls, and failed ops."""

    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: (ops, wall seconds) of each timed block
    blocks: list[tuple[int, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: the first few failures, for the report
    failures: list[str] = field(default_factory=list)

    def add(self, kind: str, seconds: float) -> None:
        self.attempted += 1
        self.latencies.setdefault(kind, []).append(seconds)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def merge(self, other: "Recorder") -> None:
        """Fold in another connection's ops (blocks stay the caller's)."""
        for kind, values in other.latencies.items():
            self.latencies.setdefault(kind, []).extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures = (self.failures + other.failures)[:5]

    def timed_seconds(self) -> float:
        return sum(wall for __, wall in self.blocks)

    def throughput_ops_s(self) -> float:
        """Median over the timed blocks of ops completed per second.

        Each block is the same number of ops, so one block slowed by
        the machine moves this far less than it moves the mean.
        """
        return statistics.median(ops / wall for ops, wall in self.blocks)

    def latency_summary(self) -> dict:
        """p50 over all ops (ms), the tail percentiles the sample
        supports, and the same per op kind."""
        everything = sorted(
            value for values in self.latencies.values() for value in values
        )
        summary = {
            "p50_ms": percentile(everything, 0.50) * 1000,
            "p95_ms": percentile(everything, 0.95) * 1000,
            "samples": len(everything),
            "by_kind": {},
        }
        if len(everything) >= 100 * MIN_TAIL_SAMPLES:
            summary["p99_ms"] = percentile(everything, 0.99) * 1000
        for kind, values in sorted(self.latencies.items()):
            ordered = sorted(values)
            entry = {
                "samples": len(ordered),
                "p50_ms": percentile(ordered, 0.50) * 1000,
            }
            if len(ordered) >= 20 * MIN_TAIL_SAMPLES:
                entry["p95_ms"] = percentile(ordered, 0.95) * 1000
            summary["by_kind"][kind] = entry
        return summary
