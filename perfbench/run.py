"""Benchmark of `mobflow report`: end to end, and per layer from a traced run.

Usage (from the repository root):
    python3 perfbench/run.py --workload lockdown_ref --seed 0 --seconds 50 --trace 0

The run generates the workload's inputs from the seed (timed as set-up, five
times), runs one discarded warm-up report, then runs reports one after another
for --seconds seconds. Each report is a child process `python -m mobflow.cli
report`, timed from launch to exit, with CPU time and peak RSS taken from
os.wait4. Every report is checked against the scenario's ground truth (see
gate.py). With --trace 1 one more report runs with every public function of
the pipeline modules wrapped in a span, and the per-layer metrics come from
that run.

Human-readable lines go first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import spans as spanlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0  # every child is killed once the run is this old


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: str


def spawn(argv: list[str], log_path: Path, timeout_s: float) -> ChildResult:
    """Run one child process to its end; resources come from os.wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, argv, env,
            file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)],
        )
    finally:
        os.close(fd)
    alive = [True]

    def kill(_signum, _frame):
        if alive[0]:
            os.kill(pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        alive[0] = False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return ChildResult(
        returncode=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        log=log_path.read_text(errors="replace"),
    )


class Bench:
    """One benchmark run: a workload's inputs, its report runs and their gate results."""

    def __init__(self, workload, seed: int, work: Path, plan, check_run: Callable, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.data = work / "data"
        self.out = work / "out"
        self.plan = plan
        self.check_run = check_run
        self.deadline = deadline
        self.reference_digest: str | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def run_report(self, prefix: list[str]) -> ChildResult:
        """Run and gate one report; the first gated run sets the reference digest."""
        shutil.rmtree(self.out, ignore_errors=True)
        argv = [
            sys.executable, *prefix, "report", "--in", str(self.data), "--out", str(self.out),
            "--seed", str(self.seed), "--trials", str(self.workload.trials),
        ]
        result = spawn(argv, self.work / "child.log", self.deadline - time.monotonic())
        reasons, digest = self.check_run(result.returncode, self.out, self.plan, self.reference_digest)
        self.attempted += 1
        if self.reference_digest is None:
            self.reference_digest = digest
        if reasons:
            self.failures.append(f"run {self.attempted}: " + "; ".join(reasons))
        return result

    def timed_reports(self, seconds: float) -> list[ChildResult]:
        """Closed loop: one report at a time until `seconds` have passed."""
        samples: list[ChildResult] = []
        end = time.perf_counter() + seconds
        while not samples or time.perf_counter() < end:
            samples.append(self.run_report(["-m", "mobflow.cli"]))
        return samples


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _events_in(log: str) -> int | None:
    match = re.search(r"build-od: (\d+) events", log)
    return int(match.group(1)) if match else None


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans_path: Path) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-layer metrics from a traced run's spans; also returns self time per layer."""
    spans, counters = spanlib.load(spans_path)
    totals = spanlib.layer_totals(spans, spanlib.self_times(spans))

    def self_s(*names: str) -> float:
        return sum(totals[n]["self_s"] for n in names if n in totals)

    def calls(name: str) -> int:
        return int(totals[name]["calls"]) if name in totals else 0

    by_layer: dict[str, float] = {}
    for name, entry in totals.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + entry["self_s"]

    def count(name: str) -> int:
        return int(counters.get(name, 0))

    parse_s = self_s("ingest.load_registry", "ingest.parse_records")
    trips_s = self_s("ingest.daily_trips")
    events, trips = count("ingest.events"), count("ingest.trips")
    infomap_s = self_s("community.infomap")
    infomap_calls = calls("community.infomap")
    metrics = {
        "ingest.parse_s": (parse_s, "s"),
        "ingest.trips_s": (trips_s, "s"),
        "ingest.events": (events, "count"),
        "ingest.rejected": (count("ingest.rejected"), "count"),
        "ingest.trips": (trips, "count"),
        "ingest.events_per_s": (_per(events, parse_s + trips_s), "1/s"),
        "ingest.trip_yield": (_per(trips, events), "ratio"),
        "od.build_s": (self_s("od.build_daily_od"), "s"),
        "od.store_s": (self_s("od.store_daily_od"), "s"),
        "od.store_calls": (calls("od.store_daily_od"), "count"),
        "od.load_s": (self_s("od.load_daily_od"), "s"),
        "od.load_calls": (calls("od.load_daily_od"), "count"),
        "od.aggregate_s": (self_s("od.aggregate_to_province"), "s"),
        "od.cells": (count("od.cells"), "count"),
        "od.store_bytes": (count("od.store_bytes"), "B"),
        "flows.self_s": (by_layer.get("flows", 0.0), "s"),
        "flows.calls": (sum(int(e["calls"]) for n, e in totals.items() if n.startswith("flows.")), "count"),
        "diversity.self_s": (by_layer.get("diversity", 0.0), "s"),
        "diversity.series_calls": (calls("diversity.diversity_series"), "count"),
        "cluster.self_s": (by_layer.get("cluster", 0.0), "s"),
        "cluster.kmeans_calls": (calls("cluster.kmeans"), "count"),
        "cluster.silhouette_s": (self_s("cluster.mean_silhouette"), "s"),
        "community.infomap_s": (infomap_s, "s"),
        "community.stationary_s": (self_s("community.stationary_flow"), "s"),
        "community.days": (count("community.days"), "count"),
        "community.nodes": (count("community.nodes"), "count"),
        "community.edges": (count("community.edges"), "count"),
        "community.nodes_per_s": (_per(count("community.nodes"), infomap_s), "1/s"),
        "community.modules": (count("community.modules"), "count"),
        "community.codelength_mean": (_per(counters.get("community.codelength_sum", 0.0), infomap_calls), "bits"),
        "cli.self_s": (by_layer.get("cli", 0.0), "s"),
    }
    return metrics, by_layer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mobflow report benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "mobflow" / "cli.py").is_file():
        print(f"error: {SRC / 'mobflow'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # imported only now: these need src/ on sys.path
    from gate import check_run
    from workloads import WORKLOADS, generate_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    setup_times = []
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        shutil.rmtree(WORK / "data", ignore_errors=True)
        start = time.perf_counter()
        scenario = generate_inputs(workload, args.seed, WORK / "data")
        setup_times.append(time.perf_counter() - start)
    bench = Bench(workload, args.seed, WORK, scenario.plan, check_run, started + RUN_DEADLINE_S)
    planned_trips = sum(sum(cells.values()) for cells in scenario.plan.daily_cells.values())

    warm = bench.run_report(["-m", "mobflow.cli"])  # compiles __pycache__; not timed
    samples = bench.timed_reports(args.seconds)
    walls = [s.wall_s for s in samples]

    print(f"env: python {platform.python_version()}, numpy {numpy.__version__}, nproc {os.cpu_count()}")
    print(f"workload {workload.name} seed {args.seed}: {_events_in(warm.log)} events, "
          f"{planned_trips} planned trips, {_dir_bytes(bench.data)} input bytes")
    print(f"samples: {len(samples)} timed reports after 1 warm-up; wall s min {min(walls):.4f} "
          f"median {statistics.median(walls):.4f} max {max(walls):.4f}")

    metrics: dict[str, tuple[float, str]]
    if args.trace == 0:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(s.cpu_s for s in samples), "s"),
            "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in samples), "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    else:
        spans_path = WORK / "spans.json"
        traced = bench.run_report([str(HERE / "traced_report.py"), str(spans_path)])
        metrics, by_layer = layer_metrics(spans_path)
        metrics["synth.input_bytes"] = (_dir_bytes(bench.data), "B")
        metrics["trace.wall_s"] = (traced.wall_s, "s")
        metrics["trace.overhead_s"] = (traced.wall_s - statistics.median(walls), "s")
        spanned = sum(by_layer.values())
        print("self s by layer: " + ", ".join(f"{k} {v:.4f}" for k, v in sorted(by_layer.items())))
        print(f"spans cover {spanned:.4f} s of trace.wall_s {traced.wall_s:.4f} s; "
              f"interpreter start, imports and exit take the other {traced.wall_s - spanned:.4f} s")

    failed = len(bench.failures)
    print(f"gate: {failed} of {bench.attempted} runs failed; result digest {bench.reference_digest}")
    for failure in bench.failures:
        print(f"  {failure}")
    print(f"fail_rate: {failed / bench.attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
