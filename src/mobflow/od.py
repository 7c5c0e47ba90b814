"""Daily origin-destination matrices: construction, province aggregation, flat-file persistence.

A matrix is stored sparsely as (origin, destination) -> trip count. Municipality
matrices never contain self-loops (a trip requires two distinct municipalities);
province matrices carry intra-province trips as self-loops, the province's
internal mobility.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .ingest import AntennaRegistry

SCHEMA_VERSION = 1
GRANULARITIES = ("municipality", "province")


class ODNotFoundError(KeyError):
    """Raised when no stored matrix exists for the requested date and granularity."""


class ODSchemaError(ValueError):
    """Raised when a stored matrix or manifest does not match the expected schema."""


class UnmappedMunicipalityError(KeyError):
    """Raised when aggregation meets a municipality absent from the territory index."""


class UnknownProvinceError(ValueError):
    """Raised when a province matrix holds a province absent from the territory index."""


@dataclass(frozen=True)
class TerritoryIndex:
    """Municipality/province universe with the municipality -> province mapping."""

    muni_to_province: dict[str, str]

    @property
    def municipalities(self) -> set[str]:
        return set(self.muni_to_province)

    @property
    def provinces(self) -> set[str]:
        return set(self.muni_to_province.values())

    @classmethod
    def from_registry(cls, registry: AntennaRegistry) -> "TerritoryIndex":
        return cls(muni_to_province=dict(registry.muni_to_province))


@dataclass(frozen=True)
class DailyOD:
    """Sparse daily OD matrix; cells hold strictly positive trip counts.

    Cells are kept sorted by (origin, destination), so a matrix built in memory
    iterates in the same order as one loaded from the store, and order-dependent
    float sums over its cells give the same bits either way.
    """

    date: date
    granularity: str
    cells: dict[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        for (origin, destination), count in self.cells.items():
            if count < 1:
                raise ValueError(f"cell ({origin},{destination}) has non-positive count {count}")
            if self.granularity == "municipality" and origin == destination:
                raise ValueError(f"municipality matrix may not hold self-loop {origin!r}")
        object.__setattr__(self, "cells", dict(sorted(self.cells.items())))

    @property
    def total_trips(self) -> int:
        return sum(self.cells.values())


@dataclass(frozen=True, eq=False)
class ProvinceCube:
    """A run of daily province matrices as one read-only int64[D, P, P] array.

    counts[d, o, q] is the number of trips from provinces[o] to provinces[q] on
    dates[d]; the diagonal holds the self-loops. Provinces are sorted, dates keep
    the order of the matrices they came from.
    """

    dates: tuple[date, ...]
    provinces: tuple[str, ...]
    counts: np.ndarray

    @classmethod
    def from_ods(cls, province_ods: Sequence[DailyOD], provinces: Iterable[str]) -> "ProvinceCube":
        """Stack the matrices; rejects other granularities, repeated dates and unknown provinces."""
        provinces = tuple(sorted(provinces))
        position = {province: i for i, province in enumerate(provinces)}
        counts = np.zeros((len(province_ods), len(provinces), len(provinces)), dtype=np.int64)
        seen = set()
        for d, od in enumerate(province_ods):
            if od.granularity != "province":
                raise ValueError("a province cube needs province-granularity matrices")
            if od.date in seen:
                raise ValueError(f"duplicate date {od.date} in OD sequence")
            seen.add(od.date)
            for (origin, destination), count in od.cells.items():
                try:
                    counts[d, position[origin], position[destination]] = count
                except KeyError as exc:
                    raise UnknownProvinceError(
                        f"province {exc.args[0]!r} on {od.date} is not present in the territory index"
                    ) from None
        counts.flags.writeable = False
        return cls(dates=tuple(od.date for od in province_ods), provinces=provinces, counts=counts)


def build_daily_od(trips: Iterable[tuple[str, str]], day: date) -> DailyOD:
    """Count (origin, destination) trips into a municipality-granularity matrix for one day."""
    return DailyOD(date=day, granularity="municipality", cells=dict(Counter(trips)))


def aggregate_to_province(od: DailyOD, index: TerritoryIndex) -> DailyOD:
    """Group municipality cells by province; intra-province trips become self-loops.

    Total trip mass is conserved exactly. A municipality missing from the index
    is a data-integrity failure and raises UnmappedMunicipalityError. Feeding a
    province matrix back in with an identity mapping is the identity.
    """
    mapping = index.muni_to_province
    cells: Counter[tuple[str, str]] = Counter()
    for (origin, destination), count in od.cells.items():
        try:
            p, q = mapping[origin], mapping[destination]
        except KeyError as exc:
            raise UnmappedMunicipalityError(
                f"municipality {exc.args[0]!r} not present in the territory index"
            ) from None
        cells[(p, q)] += count
    return DailyOD(date=od.date, granularity="province", cells=dict(cells))


def _granularity_dir(root: str | Path, granularity: str) -> Path:
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    return Path(root) / "od" / granularity


def _atomic_write(path: Path, payload: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def store_daily_od(od: DailyOD, root: str | Path) -> Path:
    """Persist one matrix under od/<granularity>/<date>.csv, updating the manifest.

    Writes are atomic (temp file + rename); re-storing a date overwrites it.
    """
    directory = _granularity_dir(root, od.granularity)
    directory.mkdir(parents=True, exist_ok=True)
    day = od.date.isoformat()
    path = directory / f"{day}.csv"

    lines = ["origin,destination,count"]
    for (origin, destination), count in od.cells.items():
        lines.append(f"{origin},{destination},{count}")
    _atomic_write(path, "\n".join(lines) + "\n")

    manifest_path = directory / "manifest.json"
    dates = set()
    if manifest_path.exists():
        dates.update(_read_manifest(manifest_path, od.granularity)["dates"])
    dates.add(day)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "granularity": od.granularity,
        "dates": sorted(dates),
    }
    _atomic_write(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _read_manifest(path: Path, granularity: str) -> dict:
    with path.open() as fh:
        manifest = json.load(fh)
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise ODSchemaError(
            f"{path}: schema version {manifest.get('schema_version')!r}, expected {SCHEMA_VERSION}"
        )
    if manifest.get("granularity") != granularity:
        raise ODSchemaError(f"{path}: granularity mismatch")
    return manifest


def load_daily_od(root: str | Path, day: date, granularity: str) -> DailyOD:
    """Load one stored matrix; round-trips store_daily_od bit-exactly."""
    directory = _granularity_dir(root, granularity)
    path = directory / f"{day.isoformat()}.csv"
    if not path.exists():
        raise ODNotFoundError(f"no {granularity} OD matrix stored for {day.isoformat()}")
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        _read_manifest(manifest_path, granularity)
    cells: dict[tuple[str, str], int] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["origin", "destination", "count"]:
            raise ODSchemaError(f"{path}: unexpected header {header!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ODSchemaError(f"{path}: malformed row {row!r}")
            cells[(row[0], row[1])] = int(row[2])
    return DailyOD(date=day, granularity=granularity, cells=cells)


def list_od_dates(root: str | Path, granularity: str) -> list[date]:
    """Sorted dates the store's manifest lists at the given granularity; [] without one."""
    manifest_path = _granularity_dir(root, granularity) / "manifest.json"
    if not manifest_path.exists():
        return []
    return [date.fromisoformat(day) for day in _read_manifest(manifest_path, granularity)["dates"]]
