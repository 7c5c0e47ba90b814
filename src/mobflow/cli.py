"""Command-line entry point: scenario synthesis, OD building, and all analysis tables.

An OD store holds only the daily municipality matrices and territory.json;
every command that needs province matrices derives them in memory on each read.
`report` is one in-memory pass: it builds the municipality ODs once, stores them
under <out>/od-store and derives every table from them without reading back
anything it wrote. Every other subcommand loads its inputs from an OD store and
calls the same stage function, so each table has one path.

Exit codes: 0 success, 1 usage error, 2 data error. Files and directories newly
created by a failing command (under --out, and --out itself) are removed so a
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
    p.add_argument("--dwell-seconds", type=_int_at_least(0), default=ingest.DEFAULT_DWELL_SECONDS)
    p.add_argument("--tz", default=ingest.DEFAULT_TIMEZONE)
    _add_date_range(p)

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
    p.add_argument("--trials", type=_int_at_least(1), default=community_mod.DEFAULT_TRIALS)
    p.add_argument("--tau", type=_teleport_rate, default=community_mod.DEFAULT_TELEPORT)
    p.add_argument("--window", type=_int_at_least(1), default=1, help="rolling OD window in days")
    p.add_argument("--granularity", choices=od.GRANULARITIES, default="municipality",
                   help="run detection on municipality graphs or on their province aggregates")
    p.add_argument("--attach-registry", action="store_true",
                   help="count flow-less municipalities as singleton communities")
    p.add_argument("--provinces", help="comma list: also dump partitions filtered to these provinces")
    _add_date_range(p)

    p = sub.add_parser("report", help="run the whole pipeline and write summary.json")
    p.add_argument("--in", dest="in_dir", required=True, help="scenario directory")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dwell-seconds", type=_int_at_least(0), default=ingest.DEFAULT_DWELL_SECONDS)
    p.add_argument("--tz", default=ingest.DEFAULT_TIMEZONE)
    p.add_argument("--k-range", default="2:20")
    p.add_argument("--trials", type=_int_at_least(1), default=community_mod.DEFAULT_TRIALS)
    p.add_argument("--tau", type=_teleport_rate, default=community_mod.DEFAULT_TELEPORT)
    p.add_argument("--split-date", help="pre/post split; defaults to the last regime start in ground_truth.json")
    p.add_argument("--include-self-flow-in-diversity", action="store_true")
    return parser


def _add_date_range(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="from_date", help="first date, inclusive (ISO)")
    p.add_argument("--to", dest="to_date", help="last date, inclusive (ISO)")


def _int_at_least(minimum: int):
    def parse(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {raw}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _teleport_rate(raw: str) -> float:
    tau = float(raw)
    if not 0.0 <= tau <= 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {raw}")
    return tau


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


def _load_territory(store: Path) -> dict[str, str]:
    path = store / "territory.json"
    if not path.exists():
        raise FileNotFoundError(f"{path} missing; run build-od first")
    with path.open() as fh:
        return json.load(fh)["muni_to_province"]


def _load_ods(store: Path, lo: date | None = None, hi: date | None = None) -> list[od.DailyOD]:
    """The store's municipality ODs dated within [lo, hi]."""
    days = [d for d in od.list_od_dates(store, "municipality") if _in_range(d, lo, hi)]
    return [od.load_daily_od(store, d, "municipality") for d in days]


def _province_cube(muni_ods: list[od.DailyOD], territory: dict[str, str]) -> od.ProvinceCube:
    """The province aggregates of the municipality ODs, derived in memory, as one cube."""
    province_ods = [od.aggregate_to_province(muni_od, territory) for muni_od in muni_ods]
    return od.ProvinceCube.from_ods(province_ods, set(territory.values()))


def _province_inputs(args) -> od.ProvinceCube:
    store = Path(args.in_dir)
    return _province_cube(_load_ods(store, *_date_range(args)), _load_territory(store))


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
) -> tuple[dict[str, str], list[od.DailyOD]]:
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
    muni_to_province = registry.muni_to_province
    _write_json(store / "territory.json", {"muni_to_province": muni_to_province})
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
    return muni_to_province, ods


def cmd_build_od(args) -> int:
    _build_od(Path(args.in_dir), Path(args.out), args.dwell_seconds, args.tz, *_date_range(args))
    return 0


def _write_flows(cube: od.ProvinceCube, out: Path) -> None:
    out_dir = out / "flows"
    out_dir.mkdir(parents=True, exist_ok=True)
    flows_mod.write_flow_csvs(flows_mod.compute_flows(cube), out_dir)
    print(f"flows: {len(cube.provinces)} provinces x {len(cube.dates)} days -> {out_dir}")


def cmd_flows(args) -> int:
    _write_flows(_province_inputs(args), Path(args.out))
    return 0


def _diversity_series(
    cube: od.ProvinceCube, include_self: bool
) -> dict[str, diversity_mod.ProvinceDiversity]:
    """Every province's diversity series, by direction."""
    return {
        direction: diversity_mod.diversity_series(cube, direction, include_self)
        for direction in diversity_mod.DIRECTIONS
    }


def _write_diversity(by_direction: dict[str, diversity_mod.ProvinceDiversity], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    diversity_mod.write_diversity_csv(list(by_direction.values()), out_dir / "diversity.csv")
    for direction, diversity in by_direction.items():
        diversity_mod.write_diversity_wide_csv(diversity, out_dir / f"diversity_{direction}_wide.csv")
    print(f"diversity: tables -> {out_dir}")


def cmd_diversity(args) -> int:
    by_direction = _diversity_series(_province_inputs(args), args.include_self_flow_in_diversity)
    _write_diversity(by_direction, Path(args.out))
    return 0


def _write_clusters(
    by_direction: dict[str, diversity_mod.ProvinceDiversity], k_range: range, seed: int, out_dir: Path
) -> dict[str, cluster_mod.KSelection]:
    """Select k and cluster each direction's series; returns the selections by direction."""
    out_dir.mkdir(parents=True, exist_ok=True)
    selections = {}
    for direction, diversity in by_direction.items():
        matrix = cluster_mod.SeriesMatrix.from_diversity(diversity)
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
    territory = _load_territory(store)
    wanted = set(args.provinces.split(",")) if args.provinces else set()
    unknown = wanted - set(territory.values())
    if unknown:
        raise UsageError(f"--provinces: not a province of the territory: {', '.join(sorted(unknown))}")
    ods = _load_ods(store, *_date_range(args))
    nodes = set(territory)
    if args.granularity == "province":
        ods = [od.aggregate_to_province(muni_od, territory) for muni_od in ods]
        nodes = set(territory.values())
    series = community_mod.community_count_series(
        ods,
        seed=args.seed,
        trials=args.trials,
        tau=args.tau,
        registry_nodes=nodes if args.attach_registry else set(),
        window=args.window,
    )
    out_dir = Path(args.out)
    _write_communities(series, out_dir)
    if wanted:
        keep = [m for m, p in territory.items() if p in wanted]
        name = "_".join(sorted(wanted))
        community_mod.write_partition_dumps(series, out_dir / f"partitions_{name}.json", keep)
    return 0


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

    territory, muni_ods = _build_od(in_dir, store, args.dwell_seconds, args.tz)
    cube = _province_cube(muni_ods, territory)
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
    for contrast in diversity_mod.weekend_contrast(by_direction["out"], split):
        if contrast.pre_weekend_mean is not None and contrast.pre_weekday_mean is not None:
            deltas_pre.append(contrast.pre_weekend_mean - contrast.pre_weekday_mean)
        if contrast.post_weekend_mean is not None and contrast.post_weekday_mean is not None:
            deltas_post.append(contrast.post_weekend_mean - contrast.post_weekday_mean)

    counts_pre = [d.community_count for d in communities if d.date < split]
    counts_post = [d.community_count for d in communities if d.date >= split]

    summary = {
        "split_date": split.isoformat(),
        "flow_drop_pct": flow_drop_pct,
        "weekend_diversity_delta_pre": diversity_mod._mean(deltas_pre),
        "weekend_diversity_delta_post": diversity_mod._mean(deltas_post),
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
    synth.ScenarioConfigError,
    community_mod.PowerIterationError,
    FileNotFoundError,
    ValueError,
    KeyError,
    json.JSONDecodeError,
)


def _paths_at(root: Path) -> set[Path]:
    """root and every path under it; empty if root does not exist."""
    return {root, *root.rglob("*")} if root.exists() else set()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        out_root = Path(args.out) if getattr(args, "out", None) else None
        before = _paths_at(out_root) if out_root else set()
        try:
            return _COMMANDS[args.command](args)
        except UsageError:
            raise
        except _DATA_ERRORS as exc:
            if out_root is not None:
                # deepest first, so each new directory is empty when its turn comes
                new = _paths_at(out_root) - before
                for path in sorted(new, key=lambda p: len(p.parts), reverse=True):
                    if path.is_dir():
                        path.rmdir()
                    else:
                        path.unlink()
            print(f"error: {exc}", file=sys.stderr)
            return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
