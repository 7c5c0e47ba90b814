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

Everything is deterministic given the config seed: two generate() calls write
byte-identical files.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

from .ingest import DEFAULT_TIMEZONE
from .od import DailyOD, TerritoryIndex, aggregate_to_province

GRAVITY_EXPONENT = 2.0  # distance decay of inter-province attraction
CDR_DURATION_RANGE = (62, 180)  # minutes; start >= 62 keeps the dwell rule satisfied
VIOLATION_RETURN_RANGE = (5, 55)  # minutes back at the origin, always below the dwell


class ScenarioConfigError(ValueError):
    """Raised for infeasible or inconsistent scenario configurations."""


@dataclass(frozen=True)
class RegimePhase:
    """Flow regime active from start_date until the next phase begins."""

    start_date: date
    flow_scale: float = 1.0
    bridge_scale: float = 1.0
    weekend_concentration: float = 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    n_provinces: int
    municipalities_per_province: int
    start_date: date
    n_days: int
    seed: int
    regimes: list[RegimePhase]
    population_per_municipality: int = 10000
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
        if self.n_provinces < 2:
            raise ScenarioConfigError("need at least 2 provinces")
        if self.municipalities_per_province < 1:
            raise ScenarioConfigError("need at least 1 municipality per province")
        if self.population_per_municipality <= 0:
            raise ScenarioConfigError("population must be positive")
        if self.n_days < 1:
            raise ScenarioConfigError("need at least 1 day")
        if not self.regimes:
            raise ScenarioConfigError("need at least one regime phase")
        starts = [r.start_date for r in self.regimes]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ScenarioConfigError("regime start dates must be strictly increasing")
        if self.regimes[0].start_date > self.start_date:
            raise ScenarioConfigError("first regime must cover the scenario start")
        for regime in self.regimes:
            for name in ("flow_scale", "bridge_scale", "weekend_concentration"):
                value = getattr(regime, name)
                if not 0.0 < value <= 1.0:
                    raise ScenarioConfigError(f"{name} must be in (0, 1], got {value}")
        if self.planted_cluster_levels is not None:
            levels = self.planted_cluster_levels
            if len(set(levels)) != len(levels):
                raise ScenarioConfigError("planted cluster levels must be distinct")
            if any(not 0.0 < lvl < 1.0 for lvl in levels):
                raise ScenarioConfigError("planted cluster levels must be in (0, 1)")

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
    """Planned trips and their ground truth before any file is written."""

    config: ScenarioConfig
    territory: Territory
    daily_trips: dict[date, list[tuple[str, str, bool]]]  # (origin muni, dest muni, violated)
    daily_cells: dict[date, dict[tuple[str, str], int]]  # post-violation effective OD cells
    daily_totals: dict[date, DayTotals]
    planted_cluster_groups: dict[str, int] | None

    def territory_index(self) -> TerritoryIndex:
        return TerritoryIndex(muni_to_province=self.territory.muni_to_province)

    def municipality_ods(self) -> list[DailyOD]:
        return [DailyOD.from_cells(day, "municipality", self.daily_cells[day]) for day in self.config.dates]

    def province_ods(self) -> list[DailyOD]:
        index = self.territory_index()
        return [aggregate_to_province(od, index) for od in self.municipality_ods()]


@dataclass(frozen=True)
class GeneratedScenario:
    out_dir: Path
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
    n_comm = max(1, min(config.communities_per_province, config.municipalities_per_province))
    for province in provinces:
        munis = munis_by_province[province]
        split = [
            [str(m) for m in chunk]
            for chunk in np.array_split(munis, n_comm)
            if len(chunk)
        ]
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


def _gravity_partners(config: ScenarioConfig, territory: Territory) -> dict[str, tuple[list[str], np.ndarray]]:
    """Per origin province: partner list and gravity choice probabilities."""
    pop = config.municipalities_per_province * config.population_per_municipality
    out: dict[str, tuple[list[str], np.ndarray]] = {}
    for origin in territory.provinces:
        ox, oy = territory.coords[origin]
        partners = [p for p in territory.provinces if p != origin]
        weights = []
        for partner in partners:
            px, py = territory.coords[partner]
            dist = max(1.0, float(np.hypot(px - ox, py - oy)))
            weights.append(pop * pop / dist**GRAVITY_EXPONENT)
        weights = np.array(weights)
        out[origin] = (partners, weights / weights.sum())
    return out


def _planted_partner_sets(
    config: ScenarioConfig, territory: Territory
) -> tuple[dict[str, list[str]], dict[str, int]]:
    """Partner subsets whose near-uniform use pins each province's out-flow diversity level."""
    levels = config.planted_cluster_levels
    assert levels is not None
    n = config.n_provinces
    k = len(levels)
    groups: dict[str, int] = {}
    partner_sets: dict[str, list[str]] = {}
    for p, province in enumerate(territory.provinces):
        group = p * k // n
        groups[province] = group
        # normalized entropy ln(m)/ln(n) == level  =>  m = n**level partners
        m = int(round(n ** levels[group]))
        m = max(1, min(m, n - 1))
        partner_sets[province] = [
            territory.provinces[(p + 1 + j) % n] for j in range(m)
        ]
    return partner_sets, groups


def _allocate_near_uniform(total: int, partners: list[str], rng: np.random.Generator) -> Counter:
    """Deterministic floor allocation plus one jittered extra trip."""
    counts: Counter[str] = Counter()
    base, remainder = divmod(total, len(partners))
    for i, partner in enumerate(partners):
        counts[partner] = base + (1 if i < remainder else 0)
    if total > 0:
        counts[partners[int(rng.integers(len(partners)))]] += 1
    return counts


def generate_plan(config: ScenarioConfig) -> ScenarioPlan:
    """Plan every trip of the scenario; no files are touched."""
    territory = _build_territory(config)
    gravity = _gravity_partners(config, territory)
    planted_sets = None
    planted_groups = None
    if config.planted_cluster_levels is not None:
        planted_sets, planted_groups = _planted_partner_sets(config, territory)

    daily_trips: dict[date, list[tuple[str, str, bool]]] = {}
    daily_cells: dict[date, dict[tuple[str, str], int]] = {}
    daily_totals: dict[date, DayTotals] = {}

    for day_index, day in enumerate(config.dates):
        regime = config.regime_for(day)
        rng = np.random.default_rng([config.seed, day_index])
        weekend = day.weekday() >= 5
        trips: list[tuple[str, str, bool]] = []

        inter = 0
        for origin in territory.provinces:
            quota = round(config.inter_trips_per_province * regime.flow_scale)
            if quota <= 0:
                continue
            if planted_sets is not None:
                counts = _allocate_near_uniform(quota, planted_sets[origin], rng)
            else:
                partners, probs = gravity[origin]
                if weekend:
                    # Concentrated weekends: a (1-c) share goes to the single top
                    # partner, the rest spreads uniformly. c = 1 is the flat,
                    # slightly-more-diverse-than-gravity weekend of normal times.
                    c = regime.weekend_concentration
                    mix = np.full(len(partners), c / len(partners))
                    mix[int(np.argmax(probs))] += 1.0 - c
                    drawn = rng.multinomial(quota, mix)
                else:
                    drawn = rng.multinomial(quota, probs)
                counts = Counter(
                    {partner: int(cnt) for partner, cnt in zip(partners, drawn) if cnt}
                )
            origin_munis = territory.munis_by_province[origin]
            for partner in sorted(counts):
                dest_munis = territory.munis_by_province[partner]
                for _ in range(counts[partner]):
                    o_muni = origin_munis[int(rng.integers(len(origin_munis)))]
                    d_muni = dest_munis[int(rng.integers(len(dest_munis)))]
                    trips.append((o_muni, d_muni, False))
                    inter += 1

        intra = 0
        for province in territory.provinces:
            munis = set(territory.munis_by_province[province])
            for community in territory.communities:
                if community[0] not in munis or len(community) < 2:
                    continue
                for a in community:
                    for b in community:
                        if a != b:
                            for _ in range(config.intra_trips_per_pair):
                                trips.append((a, b, False))
                                intra += 1
            bridge_count = round(config.bridge_trips_per_pair * regime.bridge_scale)
            for a, b in territory.bridges_by_province[province]:
                for _ in range(bridge_count):
                    trips.append((a, b, False))
                    intra += 1

        if config.dwell_violation_rate > 0.0:
            flags = rng.random(len(trips)) < config.dwell_violation_rate
            trips = [
                (o, d, bool(flag)) for (o, d, _), flag in zip(trips, flags)
            ]

        cells: Counter[tuple[str, str]] = Counter()
        for o, d, violated in trips:
            # A violated dwell rejects o->d, but the quick return leaves the
            # user confirmed back at the origin: the extraction rule yields d->o.
            cells[(d, o) if violated else (o, d)] += 1
        daily_trips[day] = trips
        daily_cells[day] = dict(cells)
        daily_totals[day] = DayTotals(
            total=inter + intra, inter_province=inter, intra_province=intra
        )

    return ScenarioPlan(
        config=config,
        territory=territory,
        daily_trips=daily_trips,
        daily_cells=daily_cells,
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
    before the dwell hour has passed.
    """
    plan = generate_plan(config)
    territory = plan.territory
    out_dir = Path(out_dir)
    (out_dir / "cdr").mkdir(parents=True, exist_ok=True)
    (out_dir / "xdr").mkdir(parents=True, exist_ok=True)

    registry_rows = _registry_rows(config, territory)
    registry_path = out_dir / "registry.csv"
    with registry_path.open("w", newline="") as fh:
        fh.write("antenna_id,lat,lon,municipality_id,province_id\n")
        for antenna, lat, lon, muni, province in registry_rows:
            fh.write(f"{antenna},{lat},{lon},{muni},{province}\n")
    antennas_of: dict[str, list[str]] = {}
    for antenna, _lat, _lon, muni, _province in registry_rows:
        antennas_of.setdefault(muni, []).append(antenna)

    tz = ZoneInfo(config.timezone)
    cdr_files: list[Path] = []
    xdr_files: list[Path] = []
    for day_index, day in enumerate(config.dates):
        rng = np.random.default_rng([config.seed, day_index, 1])
        midnight = int(datetime(day.year, day.month, day.day, tzinfo=tz).timestamp())
        cdr_path = out_dir / "cdr" / f"{day.isoformat()}.csv"
        xdr_path = out_dir / "xdr" / f"{day.isoformat()}.csv"
        with cdr_path.open("w", newline="") as cdr_fh, xdr_path.open("w", newline="") as xdr_fh:
            cdr_fh.write("caller_id,callee_id,timestamp,antenna_start,antenna_end,duration_min\n")
            xdr_fh.write("user_id,timestamp,antenna,kilobytes\n")
            for i, (o_muni, d_muni, violated) in enumerate(plan.daily_trips[day]):
                user = f"u{day_index:03d}_{i:06d}"
                start_min = int(rng.integers(6 * 60, 18 * 60))
                gap_min = int(rng.integers(*CDR_DURATION_RANGE))
                t0 = midnight + start_min * 60
                t1 = t0 + gap_min * 60
                a_origin = _pick(antennas_of[o_muni], rng)
                a_dest = _pick(antennas_of[d_muni], rng)
                if violated:
                    back_min = int(rng.integers(*VIOLATION_RETURN_RANGE))
                    a_back = _pick(antennas_of[o_muni], rng)
                    kb = int(rng.integers(1, 2048))
                    xdr_fh.write(f"{user},{t0},{a_origin},{kb}\n")
                    xdr_fh.write(f"{user},{t1},{a_dest},{kb}\n")
                    xdr_fh.write(f"{user},{t1 + back_min * 60},{a_back},{kb}\n")
                elif rng.random() < config.cdr_fraction:
                    callee = f"peer{day_index:03d}_{i:06d}"
                    cdr_fh.write(f"{user},{callee},{t0},{a_origin},{a_dest},{gap_min}\n")
                else:
                    kb = int(rng.integers(1, 2048))
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
        out_dir=out_dir,
        registry_path=registry_path,
        cdr_files=cdr_files,
        xdr_files=xdr_files,
        ground_truth_path=ground_truth_path,
        plan=plan,
    )


def _pick(items: list[str], rng: np.random.Generator) -> str:
    return items[int(rng.integers(len(items)))]


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
