"""Run `mobflow` with every public function of its pipeline modules in a span.

Usage:
    PYTHONPATH=src python3 perfbench/traced_report.py SPANS_JSON report --in ... --out ...

Exits with the CLI's exit code after writing the spans and counters to
SPANS_JSON. Counters are taken from the arguments and results at the same
boundaries the spans wrap.
"""

from __future__ import annotations

import os
import sys

from spans import SpanRecorder

from mobflow import cli, cluster, community, diversity, flows, ingest, od

# Called once per user-day or per province-day: a span each would cost more
# than the work inside it, so their time stays in the caller's self time.
PER_ITEM = {
    ingest: frozenset({"extract_trips", "split_events_by_day"}),
    diversity: frozenset({"flow_diversity"}),
}


def _add(counters: dict, name: str, value: float) -> None:
    counters[name] = counters.get(name, 0) + value


def _parsed(args, kwargs, result, counters) -> None:
    _add(counters, "ingest.events", result.event_count)
    _add(counters, "ingest.rejected", result.rejected_count)


def _trips(args, kwargs, result, counters) -> None:
    _add(counters, "ingest.trips", sum(len(trips) for trips in result.values()))


def _stored(args, kwargs, result, counters) -> None:
    _add(counters, "od.cells", len(args[0].cells))
    _add(counters, "od.store_bytes", os.path.getsize(result))


def _partition(args, kwargs, result, counters) -> None:
    graph = args[0]
    _add(counters, "community.nodes", len(graph.nodes))
    _add(counters, "community.edges", len(graph.edges))
    _add(counters, "community.modules", result.module_count)
    _add(counters, "community.codelength_sum", result.codelength)


def _series(args, kwargs, result, counters) -> None:
    _add(counters, "community.days", len(result))


HOOKS = {
    "ingest.parse_records": _parsed,
    "ingest.daily_trips": _trips,
    "od.store_daily_od": _stored,
    "community.infomap": _partition,
    "community.community_count_series": _series,
}


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    for module in (ingest, od, flows, diversity, cluster, community, cli):
        layer = module.__name__.rsplit(".", 1)[-1]
        recorder.instrument(module, layer, PER_ITEM.get(module, frozenset()), HOOKS)
    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
