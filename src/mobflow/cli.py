"""Command-line entry point: scenario synthesis, OD building, and all analysis tables.

An OD store holds only the daily municipality matrices and territory.json; a
command needing province matrices aggregates them on each read (`od.aggregate_to_province`).
`communities` and `report` detect local job markets on each municipality day's
own graph, at the fixed teleportation rate `community.TELEPORT`.
`report` is one in-memory pass: it builds the municipality ODs once, stores them
under <out>/od-store and derives every table from them without reading back
anything it wrote. It starts community detection as soon as the ODs exist, so
that a helper process can detect days while it writes flows, diversity and
clusters. Every other subcommand loads its inputs from an OD store and
calls the same stage function, so each table has one path.

`build_parser` parses every option value that can be checked without reading an
input: a bad date, --k-range or --tz, or a --from after --to, is a usage error
before anything is read or written. Checks that need the territory (--k-range
against its province count, --provinces membership) run in the commands, before
any stage. `_write_csv` and `_write_json` write every result file: the stage
modules return the tables and payloads. A file name built from a province id
escapes `%` and `/` (`_file_name`), so that every id names one file inside its
directory; `partitions_<provinces>.json` also escapes `_`, which joins the ids.

Exit codes: 0 success, 1 usage error, 2 data error. Every command writes into a
fresh staging directory beside --out and publishes only on success: each
top-level entry it wrote then replaces the entry of the same name directly under
--out, a directory whole. A failing command leaves --out as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import shutil
import statistics
import sys
import tempfile
from datetime import date
from pathlib import Path
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

if __name__ == "__main__":
    # Before numpy loads: no stage makes a BLAS call, and OpenBLAS's thread
    # pool only adds start-up time. A value the user set still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
    p.add_argument("--seed", type=_int_at_least(0), help="overrides the config seed")

    p = sub.add_parser("build-od", help="records -> daily municipality OD matrices")
    p.add_argument("--in", dest="in_dir", required=True, help="scenario directory (registry.csv, cdr/, xdr/)")
    p.add_argument("--out", required=True, help="OD store directory")
    p.add_argument("--dwell-seconds", type=_int_at_least(0), default=ingest.DEFAULT_DWELL_SECONDS)
    p.add_argument("--tz", type=_time_zone, default=ingest.DEFAULT_TIMEZONE)
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
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--k-range", type=_k_range, default=cluster_mod.DEFAULT_K_RANGE, help="LO:HI inclusive")
    p.add_argument("--include-self-flow-in-diversity", action="store_true")
    _add_date_range(p)

    p = sub.add_parser("communities", help="daily local-job-market detection")
    p.add_argument("--in", dest="in_dir", required=True, help="OD store directory")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--trials", type=_int_at_least(1), default=community_mod.DEFAULT_TRIALS)
    p.add_argument("--provinces", help="comma list: also dump partitions filtered to these provinces")
    _add_date_range(p)

    p = sub.add_parser("report", help="run the whole pipeline and write summary.json")
    p.add_argument("--in", dest="in_dir", required=True, help="scenario directory")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--dwell-seconds", type=_int_at_least(0), default=ingest.DEFAULT_DWELL_SECONDS)
    p.add_argument("--tz", type=_time_zone, default=ingest.DEFAULT_TIMEZONE)
    p.add_argument("--k-range", type=_k_range, default=cluster_mod.DEFAULT_K_RANGE, help="LO:HI inclusive")
    p.add_argument("--trials", type=_int_at_least(1), default=community_mod.DEFAULT_TRIALS)
    p.add_argument("--split-date", type=_iso_date,
                   help="pre/post split; defaults to the last regime start in ground_truth.json")
    p.add_argument("--include-self-flow-in-diversity", action="store_true")
    return parser


def _add_date_range(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="from_date", type=_iso_date, help="first date, inclusive (ISO)")
    p.add_argument("--to", dest="to_date", type=_iso_date, help="last date, inclusive (ISO)")


def _int_at_least(minimum: int):
    def parse(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {raw}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _iso_date(raw: str) -> date:
    try:
        return date.fromisoformat(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad date {raw!r}: {exc}") from None


def _k_range(raw: str) -> range:
    try:
        lo, hi = (int(part) for part in raw.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {raw!r}") from None
    if lo < 2 or hi < lo:
        raise argparse.ArgumentTypeError(f"needs 2 <= LO <= HI, got {raw!r}")
    return range(lo, hi + 1)


def _time_zone(raw: str) -> ZoneInfo:
    try:
        return ZoneInfo(raw)
    except (ZoneInfoNotFoundError, ValueError):  # a KeyError, which argparse does not catch
        raise argparse.ArgumentTypeError(f"unknown time zone {raw!r}") from None


def _check_k_range(k_range: range, territory: dict[str, str]) -> None:
    """Reject a k range no clustering of the territory's provinces can reach, before any stage runs."""
    n = len(set(territory.values()))
    if k_range.start > n:
        raise ValueError(f"k_range must lie within [2, {n}]")


def _in_range(day: date, lo: date | None, hi: date | None) -> bool:
    return (lo is None or day >= lo) and (hi is None or day <= hi)


def _read_json(path: Path):
    """The JSON value in `path`; text that does not decode or parse raises ValueError naming the file."""
    with path.open(encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{path}: bad JSON: {exc}") from None


def _load_territory(store: Path) -> dict[str, str]:
    path = store / "territory.json"
    if not path.exists():
        raise FileNotFoundError(f"{path} missing; run build-od first")
    payload = _read_json(path)
    mapping = payload.get("muni_to_province") if isinstance(payload, dict) else None
    if not isinstance(mapping, dict):
        raise ValueError(f"{path}: expected an object whose muni_to_province field is an object")
    for muni, province in mapping.items():  # JSON object keys are always strings
        if not isinstance(province, str):
            raise ValueError(f"{path}: muni_to_province[{muni!r}] is {province!r}, not a string province id")
    return mapping


def _file_field(path: Path, field: str, read):
    """`read()` of a scenario file's `field`; its data errors become ScenarioConfigErrors naming both."""
    try:
        return read()
    except KeyError:
        raise synth.ScenarioConfigError(f"{path}: no {field}") from None
    except (TypeError, ValueError) as exc:  # of another type, or out of range
        raise synth.ScenarioConfigError(f"{path}: bad {field}: {exc}") from None


def _split_from_truth(path: Path) -> date | None:
    """The last regime's start date in ground_truth.json, or None for a single regime."""
    payload = _read_json(path)
    regimes = payload.get("regimes", []) if isinstance(payload, dict) else None
    if not isinstance(regimes, list):
        raise ValueError(f"{path}: expected an object whose regimes field is a list")
    if len(regimes) < 2:
        return None
    i = len(regimes) - 1
    return _file_field(path, f"regimes[{i}].start_date", lambda: date.fromisoformat(regimes[i]["start_date"]))


def _load_ods(store: Path, lo: date | None = None, hi: date | None = None) -> list[od.DailyOD]:
    """The store's municipality ODs dated within [lo, hi]."""
    days = [d for d in od.list_od_dates(store, "municipality") if _in_range(d, lo, hi)]
    return [od.load_daily_od(store, d, "municipality") for d in days]


def _province_inputs(args) -> od.ProvinceCube:
    store = Path(args.in_dir)
    return od.aggregate_to_province(_load_ods(store, args.from_date, args.to_date), _load_territory(store))


def _file_name(name: str) -> str:
    """`name` with `%` as `%25` and `/` as `%2F`: one file name, the same bytes for a name without them."""
    return name.replace("%", "%25").replace("/", "%2F")


def _write_csv(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _scenario_config(path: Path, seed_override: int | None) -> synth.ScenarioConfig:
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise synth.ScenarioConfigError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    preset = payload.pop("preset", None)
    if seed_override is not None:
        payload["seed"] = seed_override
    if payload.get("seed") is None:
        raise UsageError("synth needs a seed, via the config file or --seed")
    if "start_date" in payload:
        payload["start_date"] = _file_field(path, "start_date", lambda: date.fromisoformat(payload["start_date"]))
    if preset == "lockdown":
        build = synth.lockdown_scenario_config
    elif preset == "planted_levels":
        build = synth.planted_levels_config
    elif preset is not None:
        raise UsageError(f"unknown preset {preset!r}")
    else:
        build = synth.ScenarioConfig
        regimes = payload.get("regimes", [])
        if not isinstance(regimes, list):
            raise synth.ScenarioConfigError(f"{path}: regimes must be a list, got {type(regimes).__name__}")
        payload["regimes"] = [_regime(path, i, r) for i, r in enumerate(regimes)]
    try:
        return build(**payload)
    except synth.ScenarioConfigError as exc:
        raise synth.ScenarioConfigError(f"{path}: {exc}") from None
    except TypeError as exc:  # a key the config does not take
        raise UsageError(f"bad scenario config: {exc}") from None


def _regime(path: Path, i: int, regime) -> synth.RegimePhase:
    """Entry `i` of a config file's regimes; a bad value names the file and the entry."""
    start = _file_field(path, f"regimes[{i}].start_date", lambda: date.fromisoformat(regime["start_date"]))
    scales = {name: regime[name] for name in synth.REGIME_SCALES if name in regime}
    return _file_field(path, f"regimes[{i}]", lambda: synth.RegimePhase(start, **scales))


def cmd_synth(args, stage: Path) -> int:
    config = _scenario_config(Path(args.config), args.seed)
    scenario = synth.generate(config, stage)
    days = len(config.dates)
    trips = sum(t.total for t in scenario.plan.daily_totals.values())
    print(f"synth: {days} days, {trips} trips -> {Path(args.out)}")
    return 0


def _build_od(
    registry: ingest.AntennaRegistry,
    in_dir: Path,
    store: Path,
    dwell_seconds: int,
    tz: ZoneInfo,
    lo: date | None = None,
    hi: date | None = None,
) -> tuple[dict[str, str], list[od.DailyOD]]:
    """Records -> daily municipality ODs, stored with territory.json and returned."""
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


def cmd_build_od(args, stage: Path) -> int:
    in_dir = Path(args.in_dir)
    registry = ingest.load_registry(in_dir / "registry.csv")
    _build_od(registry, in_dir, stage, args.dwell_seconds, args.tz, args.from_date, args.to_date)
    return 0


# Each _write_* helper writes under `stage` and names the paths under `out`,
# where they appear once the command succeeds.
def _write_flows(cube: od.ProvinceCube, stage: Path, out: Path) -> None:
    (stage / "flows").mkdir()
    for province, rows in flows_mod.flow_tables(flows_mod.compute_flows(cube)):
        _write_csv(stage / "flows" / f"{_file_name(province)}.csv", rows)
    print(f"flows: {len(cube.provinces)} provinces x {len(cube.dates)} days -> {out / 'flows'}")


def cmd_flows(args, stage: Path) -> int:
    _write_flows(_province_inputs(args), stage, Path(args.out))
    return 0


_ByDirection = dict[str, diversity_mod.ProvinceDiversity]


def _diversity_series(cube: od.ProvinceCube, include_self: bool) -> _ByDirection:
    """Every province's diversity series, by direction."""
    return {
        direction: diversity_mod.diversity_series(cube, direction, include_self)
        for direction in diversity_mod.DIRECTIONS
    }


def _write_diversity(by_direction: _ByDirection, stage: Path, out: Path) -> None:
    _write_csv(stage / "diversity.csv", diversity_mod.diversity_table(by_direction.values()))
    for direction, diversity in by_direction.items():
        _write_csv(stage / f"diversity_{direction}_wide.csv", diversity_mod.diversity_wide_table(diversity))
    print(f"diversity: tables -> {out}")


def cmd_diversity(args, stage: Path) -> int:
    by_direction = _diversity_series(_province_inputs(args), args.include_self_flow_in_diversity)
    _write_diversity(by_direction, stage, Path(args.out))
    return 0


def _write_clusters(
    by_direction: _ByDirection, k_range: range, seed: int, stage: Path, out: Path
) -> dict[str, cluster_mod.KSelection]:
    """Select k and cluster each direction's series; returns the selections by direction."""
    selections = {}
    for direction, diversity in by_direction.items():
        matrix = cluster_mod.SeriesMatrix.from_diversity(diversity)
        if len(matrix.provinces) < k_range.start:
            raise ValueError(
                f"cluster[{direction}]: {len(matrix.provinces)} province(s) left to cluster, fewer than"
                f" --k-range's start {k_range.start}; dropped as absent on more than"
                f" {cluster_mod.MAX_ABSENT_FRACTION:.0%} of the days (MAX_ABSENT_FRACTION):"
                f" {', '.join(matrix.dropped)}"
            )
        ks = range(k_range.start, min(k_range.stop - 1, len(matrix.provinces)) + 1)
        selection = selections[direction] = cluster_mod.select_k(matrix, ks, seed=seed)
        _write_json(stage / f"cluster_{direction}.json", cluster_mod.clustering_report(selection, matrix))
        if selection.clustering is not None:
            members = cluster_mod.members_table(selection.clustering)
            _write_csv(stage / f"cluster_{direction}_members.csv", members)
        print(f"cluster[{direction}]: k*={selection.k_star} -> {out}")
    return selections


def cmd_cluster(args, stage: Path) -> int:
    store = Path(args.in_dir)
    territory = _load_territory(store)
    _check_k_range(args.k_range, territory)
    cube = od.aggregate_to_province(_load_ods(store, args.from_date, args.to_date), territory)
    by_direction = _diversity_series(cube, args.include_self_flow_in_diversity)
    _write_clusters(by_direction, args.k_range, args.seed, stage, Path(args.out))
    return 0


def _write_communities(series: list[community_mod.DayCommunities], stage: Path, out: Path) -> None:
    _write_csv(stage / "communities.csv", community_mod.community_counts_table(series))
    _write_json(stage / "partitions.json", [community_mod.partition_dump(day) for day in series])
    print(f"communities: {len(series)} days -> {out}")


def cmd_communities(args, stage: Path) -> int:
    store = Path(args.in_dir)
    territory = _load_territory(store)
    wanted = set(args.provinces.split(",")) if args.provinces else set()
    unknown = wanted - set(territory.values())
    if unknown:
        raise UsageError(f"--provinces: not a province of the territory: {', '.join(sorted(unknown))}")
    ods = _load_ods(store, args.from_date, args.to_date)
    series = community_mod.community_count_series(ods, seed=args.seed, trials=args.trials)
    _write_communities(series, stage, Path(args.out))
    if wanted:
        # `_` joins the ids, so an id's own `_` is escaped: distinct sets get distinct names
        name = "_".join(_file_name(province).replace("_", "%5F") for province in sorted(wanted))
        keep = [muni for muni, province in territory.items() if province in wanted]
        dumps = [community_mod.partition_dump(day, keep) for day in series]
        _write_json(stage / f"partitions_{name}.json", dumps)
    return 0


def cmd_report(args, stage: Path) -> int:
    in_dir = Path(args.in_dir)
    out_dir = Path(args.out)

    split = args.split_date
    truth_path = in_dir / "ground_truth.json"
    if split is None and truth_path.exists():
        split = _split_from_truth(truth_path)
    if split is None:
        raise UsageError("report needs --split-date (no regime schedule found in ground_truth.json)")
    registry = ingest.load_registry(in_dir / "registry.csv")
    _check_k_range(args.k_range, registry.muni_to_province)

    territory, muni_ods = _build_od(registry, in_dir, stage / "od-store", args.dwell_seconds, args.tz)
    cube = od.aggregate_to_province(muni_ods, territory)
    by_direction = selections = None

    def tables() -> None:  # runs while a helper process, if one started, detects communities
        nonlocal by_direction, selections
        _write_flows(cube, stage, out_dir)
        by_direction = _diversity_series(cube, args.include_self_flow_in_diversity)
        _write_diversity(by_direction, stage, out_dir)
        selections = _write_clusters(by_direction, args.k_range, args.seed, stage, out_dir)

    communities = community_mod.community_count_series(
        muni_ods, seed=args.seed, trials=args.trials, meanwhile=tables
    )
    _write_communities(communities, stage, out_dir)

    # flow drop: mean daily inter-province volume (all trips minus self-loops), post vs pre split
    inter = (cube.counts.sum(axis=(1, 2)) - cube.counts.trace(axis1=1, axis2=2)).tolist()
    pre = [total for day, total in zip(cube.dates, inter) if day < split]
    post = [total for day, total in zip(cube.dates, inter) if day >= split]
    flow_drop_pct = None
    if pre and post and sum(pre) > 0:
        flow_drop_pct = 100.0 * (1.0 - (sum(post) / len(post)) / (sum(pre) / len(pre)))

    delta_pre, delta_post = diversity_mod.weekend_deltas(by_direction["out"], split)
    counts_pre = [d.community_count for d in communities if d.date < split]
    counts_post = [d.community_count for d in communities if d.date >= split]

    summary = {
        "split_date": split.isoformat(),
        "flow_drop_pct": flow_drop_pct,
        "weekend_diversity_delta_pre": delta_pre,
        "weekend_diversity_delta_post": delta_post,
        "k_star": selections["out"].k_star,
        "community_count_pre_median": statistics.median(counts_pre) if counts_pre else None,
        "community_count_post_median": statistics.median(counts_post) if counts_post else None,
    }
    _write_json(stage / "summary.json", summary)
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
)


@contextlib.contextmanager
def _staged(out: Path):
    """Yield a fresh directory beside `out`; on a clean exit its entries replace theirs in `out`.

    An `out` that exists and is not a directory is a usage error, raised before anything is written.

    The directory sits in out's parent (after symlinks), so each move is a rename.
    It is deleted whether the body returns or raises, and a raise leaves `out` untouched.
    """
    out = Path(os.path.realpath(out))
    if os.path.lexists(out) and not out.is_dir():
        raise UsageError(f"--out {out} exists and is not a directory")
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out.name}.staging-", dir=out.parent))
    try:
        yield stage
        out.mkdir(exist_ok=True)
        entries = list(stage.iterdir())
        replaced = Path(tempfile.mkdtemp(dir=stage))
        for entry in entries:
            target = out / entry.name
            # a directory cannot be renamed over a non-empty one: move the old one aside first
            if target.is_dir() or (entry.is_dir() and os.path.lexists(target)):
                target.rename(replaced / entry.name)
            entry.replace(target)
    finally:
        shutil.rmtree(stage)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        lo, hi = getattr(args, "from_date", None), getattr(args, "to_date", None)
        if lo and hi and lo > hi:
            raise UsageError(f"--from {lo} is after --to {hi}")
        try:
            with _staged(Path(args.out)) as stage:
                return _COMMANDS[args.command](args, stage)
        except _DATA_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
