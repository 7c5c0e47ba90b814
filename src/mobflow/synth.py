"""Synthetic CDR/XDR scenarios with planted ground truth.

Stands in for proprietary operator data: emits record files in the exact
schemas the ingest stage reads, together with a manifest of what was planted,
so every pipeline stage can be checked against known answers. A scenario is a
grid territory (provinces holding municipalities), a gravity-style model for
inter-province trips, a dense planted community structure inside each province,
and a regime schedule that rescales flows at given dates (lockdown semantics:
inter-province intensity times flow_scale, intra-province community bridges
times bridge_scale, weekend destinations concentrated when
weekend_concentration < 1).

Everything is deterministic given the config seed: every draw comes from a
string-seeded random.Random, and two generate() calls write byte-identical files.
"""

from __future__ import annotations

import json
import numbers
import random
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from functools import cached_property
from pathlib import Path
from typing import Callable
from zoneinfo import ZoneInfo

import numpy as np

from .ingest import CDR_COLUMNS, DEFAULT_TIMEZONE, REGISTRY_COLUMNS, XDR_COLUMNS
from .od import DailyOD, build_daily_od

GRAVITY_EXPONENT = 2.0  # distance decay of inter-province attraction
START_MINUTE_RANGE = (6 * 60, 18 * 60)  # a trip's first event, in minutes after local midnight
CDR_DURATION_RANGE = (62, 180)  # minutes from origin to destination; a trip ends by 21:00, on its day
VIOLATION_RETURN_RANGE = (5, 55)  # minutes back at the origin, always below the dwell
REGIME_SCALES = ("flow_scale", "bridge_scale", "weekend_concentration")  # RegimePhase's factors, each in (0, 1]


class ScenarioConfigError(ValueError):
    """Raised for infeasible or inconsistent scenario configurations."""


@dataclass(frozen=True)
class RegimePhase:
    """Flow regime active from start_date until the next phase begins."""

    start_date: date
    flow_scale: float = 1.0
    bridge_scale: float = 1.0
    weekend_concentration: float = 1.0

    def __post_init__(self) -> None:
        for name in REGIME_SCALES:
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0.0 < value <= 1.0):
                raise ScenarioConfigError(f"{name} must be a number in (0, 1], got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    n_provinces: int
    municipalities_per_province: int
    start_date: date
    n_days: int
    seed: int
    regimes: list[RegimePhase]
    inter_trips_per_province: int = 120
    communities_per_province: int = 2
    intra_trips_per_pair: int = 4
    bridge_trips_per_pair: int = 10
    cdr_fraction: float = 0.3
    dwell_violation_rate: float = 0.0
    antennas_per_municipality: int = 2
    planted_cluster_levels: list[float] | None = None
    timezone: str = DEFAULT_TIMEZONE

    def __post_init__(self) -> None:
        for name in ("n_provinces", "municipalities_per_province", "n_days", "seed", "communities_per_province",
                     "intra_trips_per_pair", "bridge_trips_per_pair", "antennas_per_municipality"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):  # rejects JSON's 2.0 and true
                raise ScenarioConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("inter_trips_per_province", "cdr_fraction", "dwell_violation_rate"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ScenarioConfigError(f"{name} must be a number, got {getattr(self, name)!r}")
        for name, least in (
            ("n_provinces", 2),
            ("municipalities_per_province", 1),
            ("n_days", 1),
            ("seed", 0),
            ("communities_per_province", 1),
            ("inter_trips_per_province", 0),
            ("intra_trips_per_pair", 0),
            ("bridge_trips_per_pair", 0),
            ("antennas_per_municipality", 1),
        ):
            if getattr(self, name) < least:
                raise ScenarioConfigError(f"{name} must be at least {least}, got {getattr(self, name)}")
        for name in ("cdr_fraction", "dwell_violation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ScenarioConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if not self.regimes:
            raise ScenarioConfigError("need at least one regime phase")
        starts = [r.start_date for r in self.regimes]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ScenarioConfigError("regime start dates must be strictly increasing")
        if self.regimes[0].start_date > self.start_date:
            raise ScenarioConfigError("first regime must cover the scenario start")
        if self.planted_cluster_levels is not None:
            levels = self.planted_cluster_levels
            if not isinstance(levels, (list, tuple)) or not all(isinstance(lvl, numbers.Real) for lvl in levels):
                raise ScenarioConfigError(f"planted_cluster_levels must be a list of numbers, got {levels!r}")
            if len(set(levels)) != len(levels):
                raise ScenarioConfigError("planted cluster levels must be distinct")
            if any(not 0.0 < lvl < 1.0 for lvl in levels):
                raise ScenarioConfigError("planted cluster levels must be in (0, 1)")
        if not isinstance(self.timezone, str):
            raise ScenarioConfigError(f"timezone must be a string, got {self.timezone!r}")
        try:
            ZoneInfo(self.timezone)
        except (ValueError, KeyError):  # a malformed key, or ZoneInfoNotFoundError
            raise ScenarioConfigError(f"timezone must be a time zone name, got {self.timezone!r}") from None

    @property
    def dates(self) -> list[date]:
        return [self.start_date + timedelta(days=i) for i in range(self.n_days)]

    def regime_for(self, day: date) -> RegimePhase:
        active = self.regimes[0]
        for regime in self.regimes:
            if regime.start_date <= day:
                active = regime
        return active


@dataclass(frozen=True)
class Territory:
    provinces: list[str]
    munis_by_province: dict[str, list[str]]
    coords: dict[str, tuple[float, float]]  # province centers on a unit grid
    communities: list[list[str]]  # planted intra-province community structure
    bridges_by_province: dict[str, list[tuple[str, str]]]

    @property
    def municipalities(self) -> list[str]:
        """Every municipality, province by province; a plan's codes index this list."""
        return [muni for province in self.provinces for muni in self.munis_by_province[province]]

    @property
    def muni_to_province(self) -> dict[str, str]:
        return {
            muni: province
            for province, munis in self.munis_by_province.items()
            for muni in munis
        }


@dataclass
class DayTotals:
    total: int
    inter_province: int
    intra_province: int


@dataclass
class ScenarioPlan:
    """Planned trips and their ground truth before any file is written.

    A day's trips are int64 (n, 2) rows of (origin, destination) codes into
    `territory.municipalities`, in planning order; `daily_violations` flags the
    trips whose stay at the destination is cut short.
    """

    config: ScenarioConfig
    territory: Territory
    daily_trips: dict[date, np.ndarray]
    daily_violations: dict[date, np.ndarray]  # bool, parallel to daily_trips
    daily_totals: dict[date, DayTotals]
    planted_cluster_groups: dict[str, int] | None

    def municipality_ods(self) -> list[DailyOD]:
        names = self.territory.municipalities
        ods = []
        for day in self.config.dates:
            trips, violated = self.daily_trips[day], self.daily_violations[day]
            # A violated dwell rejects o->d, but the quick return leaves the
            # user confirmed back at the origin: the extraction rule yields d->o.
            ods.append(build_daily_od(np.where(violated[:, None], trips[:, ::-1], trips), names, day))
        return ods

    @cached_property
    def daily_cells(self) -> dict[date, dict[tuple[str, str], int]]:
        """Post-violation effective OD cells of each day."""
        return {od.date: od.cells for od in self.municipality_ods()}


@dataclass(frozen=True)
class GeneratedScenario:
    registry_path: Path
    cdr_files: list[Path]
    xdr_files: list[Path]
    ground_truth_path: Path
    plan: ScenarioPlan


def _build_territory(config: ScenarioConfig) -> Territory:
    side = int(np.ceil(np.sqrt(config.n_provinces)))
    provinces = [f"P{p:03d}" for p in range(config.n_provinces)]
    coords = {
        province: (float(p % side), float(p // side))
        for p, province in enumerate(provinces)
    }
    munis_by_province: dict[str, list[str]] = {}
    for p, province in enumerate(provinces):
        munis_by_province[province] = [
            f"M{p:03d}_{m:02d}" for m in range(config.municipalities_per_province)
        ]
    communities: list[list[str]] = []
    bridges_by_province: dict[str, list[tuple[str, str]]] = {}
    n_comm = min(config.communities_per_province, config.municipalities_per_province)
    for province in provinces:
        munis = munis_by_province[province]
        split = [chunk.tolist() for chunk in np.array_split(munis, n_comm)]
        communities.extend(split)
        bridges = []
        for i in range(len(split) - 1):
            a, b = split[i], split[i + 1]
            # two gateway municipalities per side keep the bridge wide pre-lockdown
            for j in range(min(2, len(a), len(b))):
                bridges.append((a[j], b[j]))
                bridges.append((b[j], a[j]))
        bridges_by_province[province] = bridges
    return Territory(
        provinces=provinces,
        munis_by_province=munis_by_province,
        coords=coords,
        communities=communities,
        bridges_by_province=bridges_by_province,
    )


def _gravity_partners(config: ScenarioConfig, territory: Territory) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per origin province index: partner province indices and their gravity weights.

    Every province holds as many municipalities as every other, so the
    population product of the gravity law cancels and only distance weighs.
    """
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for origin, name in enumerate(territory.provinces):
        ox, oy = territory.coords[name]
        partners = [p for p in range(config.n_provinces) if p != origin]
        coords = [territory.coords[territory.provinces[partner]] for partner in partners]
        weights = [1.0 / max(1.0, float(np.hypot(px - ox, py - oy))) ** GRAVITY_EXPONENT for px, py in coords]
        out.append((np.array(partners), np.array(weights)))
    return out


def _planted_partner_sets(
    config: ScenarioConfig, territory: Territory
) -> tuple[list[np.ndarray], dict[str, int]]:
    """Partner index subsets whose near-uniform use pins each province's out-flow diversity level."""
    levels = config.planted_cluster_levels
    assert levels is not None
    n = config.n_provinces
    k = len(levels)
    groups: dict[str, int] = {}
    partner_sets: list[np.ndarray] = []
    for p, province in enumerate(territory.provinces):
        group = p * k // n
        groups[province] = group
        # normalized entropy ln(m)/ln(n) == level  =>  m = n**level partners
        m = int(round(n ** levels[group]))
        m = max(1, min(m, n - 1))
        partner_sets.append((p + 1 + np.arange(m)) % n)
    return partner_sets, groups


def _local_pairs(territory: Territory) -> tuple[np.ndarray, np.ndarray]:
    """Intra-province (origin, destination) code pairs in planning order, and which are bridges.

    Province by province: every ordered pair of distinct members of each of its
    communities, then its bridges.
    """
    code = {name: c for c, name in enumerate(territory.municipalities)}
    rows: list[tuple[int, int, bool]] = []
    for province in territory.provinces:
        members = territory.munis_by_province[province]
        for community in territory.communities:
            if community[0] in members:
                rows.extend((code[a], code[b], False) for a in community for b in community if a != b)
        rows.extend((code[a], code[b], True) for a, b in territory.bridges_by_province[province])
    table = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return table[:, :2], table[:, 2].astype(bool)


def generate_plan(config: ScenarioConfig) -> ScenarioPlan:
    """Plan every trip of the scenario; no files are touched.

    Each day draws from its own `random.Random(f"{seed},{day_index},0")`, only
    through `random()`. Per origin province in index order: its partner
    allocation (one gravity partner per trip, at `bisect(cumulative weights,
    draw() * total)`, or a planted even split plus one trip to a partner drawn
    with `_integer`), then, partners in name order, each trip's origin and
    destination municipality with `_integer`. Community and bridge trips take
    no draws. Last, when violations are on, a trip whose draw is below the rate
    is violated.
    """
    territory = _build_territory(config)
    n_munis = config.municipalities_per_province
    by_name = np.argsort(territory.provinces)
    local_pairs, is_bridge = _local_pairs(territory)
    planted_sets = planted_groups = None
    if config.planted_cluster_levels is not None:
        planted_sets, planted_groups = _planted_partner_sets(config, territory)
    else:
        gravity = _gravity_partners(config, territory)

    daily_trips: dict[date, np.ndarray] = {}
    daily_violations: dict[date, np.ndarray] = {}
    daily_totals: dict[date, DayTotals] = {}

    for day_index, day in enumerate(config.dates):
        regime = config.regime_for(day)
        draw = random.Random(f"{config.seed},{day_index},0").random
        weekend = day.weekday() >= 5
        quota = round(config.inter_trips_per_province * regime.flow_scale)
        blocks = []
        for origin in range(config.n_provinces if quota > 0 else 0):
            counts = np.zeros(config.n_provinces, dtype=np.int64)
            if planted_sets is not None:
                # Near-uniform: an even split, the remainder to the first
                # partners, and one jittered extra trip.
                partners = planted_sets[origin]
                counts[partners] = quota // len(partners)
                counts[partners[: quota % len(partners)]] += 1
                counts[partners[_integer(draw, 0, len(partners))]] += 1
            else:
                partners, weights = gravity[origin]
                if weekend:
                    # Concentrated weekends: a (1-c) share goes to the single top
                    # partner, the rest spreads uniformly. c = 1 is the flat,
                    # slightly-more-diverse-than-gravity weekend of normal times.
                    c = regime.weekend_concentration
                    mix = np.full(len(partners), c / len(partners))
                    mix[int(np.argmax(weights))] += 1.0 - c
                    weights = mix
                cumulative = np.cumsum(weights)
                # side="right" is bisect's: the first partner whose cumulative weight exceeds draw() * total
                picks = np.searchsorted(cumulative, _draws(draw, quota) * cumulative[-1], side="right")
                counts[partners] = np.bincount(picks, minlength=len(partners))
            destination = np.repeat(by_name, counts[by_name])
            # municipality m of province p has code p * n_munis + m; m is _integer(draw, 0, n_munis)
            rows = (_draws(draw, 2 * len(destination)) * n_munis).astype(np.int64).reshape(-1, 2)
            rows[:, 0] += origin * n_munis
            rows[:, 1] += destination * n_munis
            blocks.append(rows)

        bridge_count = round(config.bridge_trips_per_pair * regime.bridge_scale)
        local = np.repeat(local_pairs, np.where(is_bridge, bridge_count, config.intra_trips_per_pair), axis=0)
        trips = np.concatenate(blocks + [local])
        rate = config.dwell_violation_rate
        violated = _draws(draw, len(trips)) < rate if rate > 0.0 else np.zeros(len(trips), dtype=bool)
        daily_trips[day] = trips
        daily_violations[day] = violated
        daily_totals[day] = DayTotals(
            total=len(trips), inter_province=len(trips) - len(local), intra_province=len(local)
        )

    return ScenarioPlan(
        config=config,
        territory=territory,
        daily_trips=daily_trips,
        daily_violations=daily_violations,
        daily_totals=daily_totals,
        planted_cluster_groups=planted_groups,
    )


def _registry_rows(config: ScenarioConfig, territory: Territory) -> list[tuple]:
    rows = []
    antenna_index = 0
    for p, province in enumerate(territory.provinces):
        px, py = territory.coords[province]
        for m, muni in enumerate(territory.munis_by_province[province]):
            for a in range(config.antennas_per_municipality):
                lat = round(40.0 + py * 0.2 + m * 0.01 + a * 0.001, 6)
                lon = round(9.0 + px * 0.2 + m * 0.01 + a * 0.001, 6)
                rows.append((f"A{antenna_index:06d}", lat, lon, muni, province))
                antenna_index += 1
    return rows


def generate(config: ScenarioConfig, out_dir: str | Path) -> GeneratedScenario:
    """Write registry, per-day CDR/XDR files and the ground-truth manifest.

    Byte-identical across runs with the same config. Each satisfied trip is one
    CDR row (start antenna at the origin, end antenna at the destination) or a
    pair of XDR rows; a violated trip adds a third event back at the origin
    before the dwell hour has passed. Each day's times, antennas and record
    kinds are drawn trip by trip from `random.Random(f"{seed},{day_index},1")`,
    only through `random()`, whose sequence for a string seed Python keeps
    across versions. An integer in [low, high) is
    `low + int(random() * (high - low))`, biased by at most (high - low) / 2**53.
    These draws cannot change an OD: every trip stays on its local day, and only
    a violation's return comes back within the dwell hour.
    """
    plan = generate_plan(config)
    territory = plan.territory
    out_dir = Path(out_dir)
    (out_dir / "cdr").mkdir(parents=True, exist_ok=True)
    (out_dir / "xdr").mkdir(parents=True, exist_ok=True)

    registry_rows = _registry_rows(config, territory)
    registry_path = out_dir / "registry.csv"
    with registry_path.open("w", newline="") as fh:
        fh.write(",".join(REGISTRY_COLUMNS) + "\n")
        for antenna, lat, lon, muni, province in registry_rows:
            fh.write(f"{antenna},{lat},{lon},{muni},{province}\n")
    # registry rows list each municipality's antennas together, in municipality code order
    antenna_ids = [row[0] for row in registry_rows]
    per_muni = config.antennas_per_municipality
    antennas_of = [antenna_ids[i : i + per_muni] for i in range(0, len(antenna_ids), per_muni)]

    tz = ZoneInfo(config.timezone)
    cdr_files: list[Path] = []
    xdr_files: list[Path] = []
    for day_index, day in enumerate(config.dates):
        draw = random.Random(f"{config.seed},{day_index},1").random
        midnight = int(datetime(day.year, day.month, day.day, tzinfo=tz).timestamp())
        cdr_path = out_dir / "cdr" / f"{day.isoformat()}.csv"
        xdr_path = out_dir / "xdr" / f"{day.isoformat()}.csv"
        with cdr_path.open("w", newline="") as cdr_fh, xdr_path.open("w", newline="") as xdr_fh:
            cdr_fh.write(",".join(CDR_COLUMNS) + "\n")
            xdr_fh.write(",".join(XDR_COLUMNS) + "\n")
            trips = zip(plan.daily_trips[day].tolist(), plan.daily_violations[day].tolist())
            for i, ((origin, destination), violated) in enumerate(trips):
                user = f"u{day_index:03d}_{i:06d}"
                start_min = _integer(draw, *START_MINUTE_RANGE)
                gap_min = _integer(draw, *CDR_DURATION_RANGE)
                t0 = midnight + start_min * 60
                t1 = t0 + gap_min * 60
                a_origin = antennas_of[origin][_integer(draw, 0, per_muni)]
                a_dest = antennas_of[destination][_integer(draw, 0, per_muni)]
                if violated:
                    back_min = _integer(draw, *VIOLATION_RETURN_RANGE)
                    a_back = antennas_of[origin][_integer(draw, 0, per_muni)]
                    kb = _integer(draw, 1, 2048)
                    xdr_fh.write(f"{user},{t0},{a_origin},{kb}\n")
                    xdr_fh.write(f"{user},{t1},{a_dest},{kb}\n")
                    xdr_fh.write(f"{user},{t1 + back_min * 60},{a_back},{kb}\n")
                elif draw() < config.cdr_fraction:
                    callee = f"peer{day_index:03d}_{i:06d}"
                    cdr_fh.write(f"{user},{callee},{t0},{a_origin},{a_dest},{gap_min}\n")
                else:
                    kb = _integer(draw, 1, 2048)
                    xdr_fh.write(f"{user},{t0},{a_origin},{kb}\n")
                    xdr_fh.write(f"{user},{t1},{a_dest},{kb}\n")
        cdr_files.append(cdr_path)
        xdr_files.append(xdr_path)

    truth = {
        "seed": config.seed,
        "start_date": config.start_date.isoformat(),
        "n_days": config.n_days,
        "timezone": config.timezone,
        "territory": {
            "n_provinces": config.n_provinces,
            "municipalities_per_province": config.municipalities_per_province,
            "provinces": territory.provinces,
        },
        "regimes": [
            {
                "start_date": r.start_date.isoformat(),
                "flow_scale": r.flow_scale,
                "bridge_scale": r.bridge_scale,
                "weekend_concentration": r.weekend_concentration,
            }
            for r in config.regimes
        ],
        "daily_totals": {
            day.isoformat(): {
                "total": totals.total,
                "inter_province": totals.inter_province,
                "intra_province": totals.intra_province,
            }
            for day, totals in plan.daily_totals.items()
        },
        "planted_communities": plan.territory.communities,
        "planted_cluster_levels": config.planted_cluster_levels,
        "planted_cluster_groups": plan.planted_cluster_groups,
    }
    ground_truth_path = out_dir / "ground_truth.json"
    with ground_truth_path.open("w") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return GeneratedScenario(
        registry_path=registry_path,
        cdr_files=cdr_files,
        xdr_files=xdr_files,
        ground_truth_path=ground_truth_path,
        plan=plan,
    )


def _integer(draw: Callable[[], float], low: int, high: int) -> int:
    return low + int(draw() * (high - low))


def _draws(draw: Callable[[], float], n: int) -> np.ndarray:
    """The next n values of `draw`, as a float64 array."""
    return np.array([draw() for _ in range(n)], dtype=np.float64)


def lockdown_scenario_config(
    seed: int,
    n_provinces: int = 20,
    municipalities_per_province: int = 10,
    n_days: int = 60,
    lockdown_day: int = 30,
    flow_scale: float = 0.4,
    bridge_scale: float = 0.2,
    weekend_concentration: float = 0.3,
    start_date: date = date(2020, 2, 3),
    **overrides,
) -> ScenarioConfig:
    """Two-regime scenario: normal life, then a lockdown at the given day offset."""
    if not isinstance(lockdown_day, numbers.Real):  # a day offset for timedelta
        raise ScenarioConfigError(f"lockdown_day must be a number, got {lockdown_day!r}")
    return ScenarioConfig(
        n_provinces=n_provinces,
        municipalities_per_province=municipalities_per_province,
        start_date=start_date,
        n_days=n_days,
        seed=seed,
        regimes=[
            RegimePhase(start_date=start_date),
            RegimePhase(
                start_date=start_date + timedelta(days=lockdown_day),
                flow_scale=flow_scale,
                bridge_scale=bridge_scale,
                weekend_concentration=weekend_concentration,
            ),
        ],
        **overrides,
    )


def planted_levels_config(
    seed: int,
    levels: list[float] | None = None,
    n_provinces: int = 110,
    n_days: int = 14,
    start_date: date = date(2020, 2, 3),
    **overrides,
) -> ScenarioConfig:
    """Single-regime scenario whose provinces carry fixed out-flow diversity levels."""
    if levels is None:
        levels = [0.15, 0.35, 0.55, 0.75, 0.92]
    return ScenarioConfig(
        n_provinces=n_provinces,
        municipalities_per_province=overrides.pop("municipalities_per_province", 1),
        start_date=start_date,
        n_days=n_days,
        seed=seed,
        regimes=[RegimePhase(start_date=start_date)],
        planted_cluster_levels=levels,
        **overrides,
    )
