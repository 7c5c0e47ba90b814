"""Command-line entry point: scenario synthesis, OD building, and all analysis tables.

`report` is one in-memory pass: it builds the municipality and province ODs
once, stores them under <out>/od-store and derives every table from them
without reading back anything it wrote. Every other subcommand loads its inputs
from an OD store and calls the same stage function, so each table has one path.

Exit codes: 0 success, 1 usage error, 2 data error. Outputs newly created by a
failing command (under --out; in the OD store for `aggregate`) are removed so a
crash never leaves a half-written result tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from datetime import date
from pathlib import Path

from . import cluster as cluster_mod
from . import community as community_mod
from . import diversity as diversity_mod
from . import flows as flows_mod
from . import ingest, od, synth


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse exits 2 by default; usage errors are 1
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="mobflow", description="Mobility-flow analytics pipeline")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", parents=[], help="generate a synthetic scenario")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="overrides the config seed")

    p = sub.add_parser("build-od", help="records -> daily municipality OD matrices")
    p.add_argument("--in", dest="in_dir", required=True, help="scenario directory (registry.csv, cdr/, xdr/)")
    p.add_argument("--out", required=True, help="OD store directory")
    p.add_argument("--dwell-seconds", type=int, default=ingest.DEFAULT_DWELL_SECONDS)
    p.add_argument("--tz", default=ingest.DEFAULT_TIMEZONE)
    _add_date_range(p)

    p = sub.add_parser("aggregate", help="municipality ODs -> province ODs")
    p.add_argument("--in", dest="in_dir", required=True, help="OD store directory")

    p = sub.add_parser("flows", help="per-province flow volume tables")
    p.add_argument("--in", dest="in_dir", required=True, help="OD store directory")
    p.add_argument("--out", required=True)
    _add_date_range(p)

    p = sub.add_parser("diversity", help="per-province flow diversity tables")
    p.add_argument("--in", dest="in_dir", required=True, help="OD store directory")
    p.add_argument("--out", required=True)
    p.add_argument("--include-self-flow-in-diversity", action="store_true")
    _add_date_range(p)

    p = sub.add_parser("cluster", help="k-means clustering of diversity series")
    p.add_argument("--in", dest="in_dir", required=True, help="OD store directory")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--k-range", default="2:20", help="LO:HI inclusive")
    p.add_argument("--include-self-flow-in-diversity", action="store_true")
    _add_date_range(p)

    p = sub.add_parser("communities", help="daily local-job-market detection")
    p.add_argument("--in", dest="in_dir", required=True, help="OD store directory")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=community_mod.DEFAULT_TRIALS)
    p.add_argument("--tau", type=float, default=community_mod.DEFAULT_TELEPORT)
    p.add_argument("--window", type=int, default=1, help="rolling OD window in days")
    p.add_argument("--granularity", choices=od.GRANULARITIES, default="municipality",
                   help="which stored OD graphs to run detection on")
    p.add_argument("--attach-registry", action="store_true",
                   help="count flow-less municipalities as singleton communities")
    p.add_argument("--provinces", help="comma list: also dump partitions filtered to these provinces")
    _add_date_range(p)

    p = sub.add_parser("report", help="run the whole pipeline and write summary.json")
    p.add_argument("--in", dest="in_dir", required=True, help="scenario directory")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dwell-seconds", type=int, default=ingest.DEFAULT_DWELL_SECONDS)
    p.add_argument("--tz", default=ingest.DEFAULT_TIMEZONE)
    p.add_argument("--k-range", default="2:20")
    p.add_argument("--trials", type=int, default=community_mod.DEFAULT_TRIALS)
    p.add_argument("--tau", type=float, default=community_mod.DEFAULT_TELEPORT)
    p.add_argument("--split-date", help="pre/post split; defaults to the last regime start in ground_truth.json")
    p.add_argument("--include-self-flow-in-diversity", action="store_true")
    return parser


def _add_date_range(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="from_date", help="first date, inclusive (ISO)")
    p.add_argument("--to", dest="to_date", help="last date, inclusive (ISO)")


def _parse_date(raw: str | None) -> date | None:
    if raw is None:
        return None
    try:
        return date.fromisoformat(raw)
    except ValueError as exc:
        raise UsageError(f"bad date {raw!r}: {exc}") from None


def _parse_k_range(raw: str) -> range:
    try:
        lo, hi = (int(part) for part in raw.split(":"))
    except ValueError:
        raise UsageError(f"bad --k-range {raw!r}, expected LO:HI") from None
    if lo < 2 or hi < lo:
        raise UsageError(f"bad --k-range {raw!r}")
    return range(lo, hi + 1)


def _in_range(day: date, lo: date | None, hi: date | None) -> bool:
    return (lo is None or day >= lo) and (hi is None or day <= hi)


def _date_range(args) -> tuple[date | None, date | None]:
    return _parse_date(args.from_date), _parse_date(args.to_date)


def _load_territory(store: Path) -> od.TerritoryIndex:
    path = store / "territory.json"
    if not path.exists():
        raise FileNotFoundError(f"{path} missing; run build-od first")
    with path.open() as fh:
        mapping = json.load(fh)["muni_to_province"]
    return od.TerritoryIndex(muni_to_province=mapping)


def _load_ods(
    store: Path, granularity: str, lo: date | None = None, hi: date | None = None
) -> list[od.DailyOD]:
    days = [d for d in od.list_od_dates(store, granularity) if _in_range(d, lo, hi)]
    return [od.load_daily_od(store, d, granularity) for d in days]


def _province_inputs(args) -> od.ProvinceCube:
    store = Path(args.in_dir)
    index = _load_territory(store)
    return od.ProvinceCube.from_ods(_load_ods(store, "province", *_date_range(args)), index.provinces)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _scenario_config(payload: dict, seed_override: int | None) -> synth.ScenarioConfig:
    payload = dict(payload)
    preset = payload.pop("preset", None)
    if seed_override is not None:
        payload["seed"] = seed_override
    if payload.get("seed") is None:
        raise UsageError("synth needs a seed, via the config file or --seed")
    payload["seed"] = int(payload["seed"])
    for key in ("start_date",):
        if key in payload:
            payload[key] = date.fromisoformat(payload[key])
    try:
        if preset == "lockdown":
            return synth.lockdown_scenario_config(**payload)
        if preset == "planted_levels":
            return synth.planted_levels_config(**payload)
        if preset is not None:
            raise UsageError(f"unknown preset {preset!r}")
        payload["regimes"] = [
            synth.RegimePhase(
                start_date=date.fromisoformat(r["start_date"]),
                flow_scale=r.get("flow_scale", 1.0),
                bridge_scale=r.get("bridge_scale", 1.0),
                weekend_concentration=r.get("weekend_concentration", 1.0),
            )
            for r in payload.get("regimes", [])
        ]
        return synth.ScenarioConfig(**payload)
    except TypeError as exc:
        raise UsageError(f"bad scenario config: {exc}") from None


def cmd_synth(args) -> int:
    with open(args.config) as fh:
        payload = json.load(fh)
    config = _scenario_config(payload, args.seed)
    scenario = synth.generate(config, args.out)
    days = len(config.dates)
    trips = sum(t.total for t in scenario.plan.daily_totals.values())
    print(f"synth: {days} days, {trips} trips -> {scenario.out_dir}")
    return 0


def _build_od(
    in_dir: Path,
    store: Path,
    dwell_seconds: int,
    tz: str,
    lo: date | None = None,
    hi: date | None = None,
) -> tuple[od.TerritoryIndex, list[od.DailyOD]]:
    """Records -> daily municipality ODs, stored with territory.json and returned."""
    registry = ingest.load_registry(in_dir / "registry.csv")
    cdr_files = sorted((in_dir / "cdr").glob("*.csv")) if (in_dir / "cdr").is_dir() else []
    xdr_files = sorted((in_dir / "xdr").glob("*.csv")) if (in_dir / "xdr").is_dir() else []
    parsed = ingest.parse_records(cdr_files, xdr_files, registry)
    trips_by_day = ingest.daily_trips(parsed, dwell_seconds, tz)
    ods = [
        od.build_daily_od(trips_by_day.pop(day), parsed.municipalities, day)
        for day in sorted(trips_by_day)
        if _in_range(day, lo, hi)
    ]
    for muni_od in ods:
        od.store_daily_od(muni_od, store)
    index = od.TerritoryIndex(registry.muni_to_province)
    _write_json(store / "territory.json", {"muni_to_province": index.muni_to_province})
    rejected = parsed.rejected_count
    print(f"build-od: {parsed.event_count} events, {len(ods)} days stored, {rejected} records rejected")
    if rejected:
        for name in sorted(parsed.rejections):
            tally = parsed.rejections[name]
            if tally.total:
                print(
                    f"  {name}: {tally.malformed} malformed, {tally.unknown_antenna} unknown antenna",
                    file=sys.stderr,
                )
    return index, ods


def cmd_build_od(args) -> int:
    _build_od(Path(args.in_dir), Path(args.out), args.dwell_seconds, args.tz, *_date_range(args))
    return 0


def _aggregate(
    muni_ods: list[od.DailyOD], index: od.TerritoryIndex, store: Path
) -> list[od.DailyOD]:
    """Municipality ODs -> province ODs, stored and returned."""
    province_ods = []
    for muni_od in muni_ods:
        province_ods.append(od.aggregate_to_province(muni_od, index))
        od.store_daily_od(province_ods[-1], store)
    print(f"aggregate: {len(province_ods)} days -> province granularity")
    return province_ods


def cmd_aggregate(args) -> int:
    store = Path(args.in_dir)
    _aggregate(_load_ods(store, "municipality"), _load_territory(store), store)
    return 0


def _write_flows(cube: od.ProvinceCube, out: Path) -> None:
    out_dir = out / "flows"
    out_dir.mkdir(parents=True, exist_ok=True)
    for series in flows_mod.compute_flows(cube):
        flows_mod.write_flow_series_csv(series, out_dir / f"{series.province_id}.csv")
    print(f"flows: {len(cube.provinces)} provinces x {len(cube.dates)} days -> {out_dir}")


def cmd_flows(args) -> int:
    _write_flows(_province_inputs(args), Path(args.out))
    return 0


def _diversity_series(
    cube: od.ProvinceCube, include_self: bool
) -> dict[str, list[diversity_mod.DiversitySeries]]:
    """Per direction, one diversity series per province in province order."""
    return {
        direction: diversity_mod.diversity_series(cube, direction, include_self)
        for direction in diversity_mod.DIRECTIONS
    }


def _write_diversity(by_direction: dict[str, list], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    diversity_mod.write_diversity_csv(
        by_direction["in"] + by_direction["out"], out_dir / "diversity.csv"
    )
    for direction, series_list in by_direction.items():
        diversity_mod.write_diversity_wide_csv(
            series_list, out_dir / f"diversity_{direction}_wide.csv"
        )
    print(f"diversity: tables -> {out_dir}")


def cmd_diversity(args) -> int:
    by_direction = _diversity_series(_province_inputs(args), args.include_self_flow_in_diversity)
    _write_diversity(by_direction, Path(args.out))
    return 0


def _write_clusters(
    by_direction: dict[str, list], k_range: range, seed: int, out_dir: Path
) -> dict[str, cluster_mod.KSelection]:
    """Select k and cluster each direction's series; returns the selections by direction."""
    out_dir.mkdir(parents=True, exist_ok=True)
    selections = {}
    for direction, series_list in by_direction.items():
        matrix = cluster_mod.SeriesMatrix.from_series(series_list)
        ks = range(k_range.start, min(k_range.stop - 1, len(matrix.provinces)) + 1)
        selection = selections[direction] = cluster_mod.select_k(matrix, ks, seed=seed)
        report = cluster_mod.clustering_report(selection)
        report["dropped_provinces"] = matrix.dropped
        cluster_mod.write_clustering_json(report, out_dir / f"cluster_{direction}.json")
        if selection.clustering is not None:
            cluster_mod.write_members_csv(
                selection.clustering, out_dir / f"cluster_{direction}_members.csv"
            )
        print(f"cluster[{direction}]: k*={selection.k_star} -> {out_dir}")
    return selections


def cmd_cluster(args) -> int:
    k_range = _parse_k_range(args.k_range)
    by_direction = _diversity_series(_province_inputs(args), args.include_self_flow_in_diversity)
    _write_clusters(by_direction, k_range, args.seed, Path(args.out))
    return 0


def _write_communities(series: list[community_mod.DayCommunities], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    community_mod.write_community_counts_csv(series, out_dir / "communities.csv")
    community_mod.write_partition_dumps(series, out_dir / "partitions.json")
    print(f"communities: {len(series)} days -> {out_dir}")


def cmd_communities(args) -> int:
    store = Path(args.in_dir)
    ods = _load_ods(store, args.granularity, *_date_range(args))
    registry_nodes: set[str] = set()
    if args.attach_registry:
        index = _load_territory(store)
        municipalities = set(index.muni_to_province)
        registry_nodes = municipalities if args.granularity == "municipality" else index.provinces
    series = community_mod.community_count_series(
        ods,
        seed=args.seed,
        trials=args.trials,
        tau=args.tau,
        registry_nodes=registry_nodes,
        window=args.window,
    )
    out_dir = Path(args.out)
    _write_communities(series, out_dir)
    if args.provinces:
        wanted = set(args.provinces.split(","))
        index = _load_territory(store)
        keep = [m for m, p in index.muni_to_province.items() if p in wanted]
        name = "_".join(sorted(wanted))
        community_mod.write_partition_dumps(series, out_dir / f"partitions_{name}.json", keep)
    return 0


def _mean(values) -> float | None:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def cmd_report(args) -> int:
    in_dir = Path(args.in_dir)
    out_dir = Path(args.out)
    store = out_dir / "od-store"

    split = _parse_date(args.split_date)
    truth_path = in_dir / "ground_truth.json"
    if split is None and truth_path.exists():
        with truth_path.open() as fh:
            regimes = json.load(fh).get("regimes", [])
        if len(regimes) > 1:
            split = date.fromisoformat(regimes[-1]["start_date"])
    if split is None:
        raise UsageError("report needs --split-date (no regime schedule found in ground_truth.json)")
    k_range = _parse_k_range(args.k_range)

    index, muni_ods = _build_od(in_dir, store, args.dwell_seconds, args.tz)
    cube = od.ProvinceCube.from_ods(_aggregate(muni_ods, index, store), index.provinces)
    _write_flows(cube, out_dir)
    by_direction = _diversity_series(cube, args.include_self_flow_in_diversity)
    _write_diversity(by_direction, out_dir)
    selections = _write_clusters(by_direction, k_range, args.seed, out_dir)
    communities = community_mod.community_count_series(
        muni_ods, seed=args.seed, trials=args.trials, tau=args.tau
    )
    _write_communities(communities, out_dir)

    # flow drop: mean daily inter-province volume (all trips minus self-loops), post vs pre split
    inter = (cube.counts.sum(axis=(1, 2)) - cube.counts.trace(axis1=1, axis2=2)).tolist()
    pre = [total for day, total in zip(cube.dates, inter) if day < split]
    post = [total for day, total in zip(cube.dates, inter) if day >= split]
    flow_drop_pct = None
    if pre and post and sum(pre) > 0:
        flow_drop_pct = 100.0 * (1.0 - (sum(post) / len(post)) / (sum(pre) / len(pre)))

    # weekend-vs-weekday diversity deltas, averaged over provinces (out-flows)
    deltas_pre, deltas_post = [], []
    for series in by_direction["out"]:
        contrast = diversity_mod.weekend_contrast(series, split)
        if contrast.pre_weekend_mean is not None and contrast.pre_weekday_mean is not None:
            deltas_pre.append(contrast.pre_weekend_mean - contrast.pre_weekday_mean)
        if contrast.post_weekend_mean is not None and contrast.post_weekday_mean is not None:
            deltas_post.append(contrast.post_weekend_mean - contrast.post_weekday_mean)

    counts_pre = [d.community_count for d in communities if d.date < split]
    counts_post = [d.community_count for d in communities if d.date >= split]

    summary = {
        "split_date": split.isoformat(),
        "flow_drop_pct": flow_drop_pct,
        "weekend_diversity_delta_pre": _mean(deltas_pre),
        "weekend_diversity_delta_post": _mean(deltas_post),
        "k_star": selections["out"].k_star,
        "community_count_pre_median": statistics.median(counts_pre) if counts_pre else None,
        "community_count_post_median": statistics.median(counts_post) if counts_post else None,
    }
    _write_json(out_dir / "summary.json", summary)
    print(f"report: summary -> {out_dir / 'summary.json'}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "build-od": cmd_build_od,
    "aggregate": cmd_aggregate,
    "flows": cmd_flows,
    "diversity": cmd_diversity,
    "cluster": cmd_cluster,
    "communities": cmd_communities,
    "report": cmd_report,
}

_DATA_ERRORS = (
    ingest.RegistryError,
    od.ODNotFoundError,
    od.ODSchemaError,
    od.UnmappedMunicipalityError,
    od.UnknownProvinceError,
    synth.ScenarioConfigError,
    community_mod.PowerIterationError,
    FileNotFoundError,
    ValueError,
    KeyError,
    json.JSONDecodeError,
)


def _files_under(root: Path) -> set[Path]:
    return {p for p in root.rglob("*") if p.is_file()} if root.exists() else set()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        # aggregate writes into the store it reads, so that store is its output root
        out = args.in_dir if args.command == "aggregate" else getattr(args, "out", None)
        out_root = Path(out) if out else None
        before = _files_under(out_root) if out_root else set()
        try:
            return _COMMANDS[args.command](args)
        except UsageError:
            raise
        except _DATA_ERRORS as exc:
            if out_root is not None:
                for leftover in sorted(_files_under(out_root) - before, reverse=True):
                    leftover.unlink(missing_ok=True)
            print(f"error: {exc}", file=sys.stderr)
            return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
