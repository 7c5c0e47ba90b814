"""Daily origin-destination matrices: construction, province aggregation, flat-file persistence.

A matrix is held sparsely as int64 (origin code, destination code, trip count)
rows over the sorted names its cells use, from trip counting to the
map-equation graph. Municipality matrices never contain self-loops (a trip
requires two distinct municipalities); province matrices carry intra-province
trips as self-loops, the province's internal mobility.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

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


@dataclass(frozen=True, eq=False)
class DailyOD:
    """Sparse daily OD matrix: unique (origin, destination) code rows with positive counts.

    Code c names `names[c]`, the sorted tuple of exactly the names the cells
    use. Rows are sorted by code, and so by name: order-dependent float sums
    over them give the same bits however the matrix was built.
    """

    date: date
    granularity: str
    names: tuple[str, ...]
    origin: np.ndarray
    destination: np.ndarray
    count: np.ndarray

    def __post_init__(self) -> None:
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if (self.count < 1).any():
            raise ValueError(f"a cell on {self.date} has a non-positive count")
        if self.granularity == "municipality" and (self.origin == self.destination).any():
            raise ValueError(f"municipality matrix on {self.date} may not hold a self-loop")

    @classmethod
    def from_codes(
        cls,
        day: date,
        granularity: str,
        names: Sequence[str],
        origin: np.ndarray,
        destination: np.ndarray,
        count: np.ndarray | None = None,
    ) -> "DailyOD":
        """Sum code pairs weighted by `count` (default 1); code c names `names[c]`.

        Codes of a repeated name merge, so relabelling to coarser names aggregates.
        """
        unique, relabel = np.unique(np.array(names, dtype=object), return_inverse=True)
        n = len(unique)
        keys, row = np.unique(relabel[origin] * n + relabel[destination], return_inverse=True)
        summed = np.zeros(len(keys), dtype=np.int64)
        np.add.at(summed, row, 1 if count is None else count)
        used, code = np.unique(np.concatenate([keys // n, keys % n]), return_inverse=True)
        used_names = tuple(unique[used].tolist())
        return cls(day, granularity, used_names, code[: len(keys)], code[len(keys):], summed)

    @classmethod
    def from_cells(
        cls, day: date, granularity: str, cells: Mapping[tuple[str, str], int]
    ) -> "DailyOD":
        """The matrix of `cells`, (origin, destination) names -> count, named from the keys."""
        names = [name for pair in cells for name in pair]
        codes = np.arange(len(names))
        counts = np.array(list(cells.values()), dtype=np.int64)
        return cls.from_codes(day, granularity, names, codes[0::2], codes[1::2], counts)

    @property
    def cells(self) -> dict[tuple[str, str], int]:
        """A new (origin, destination) -> count dict of the rows, in row order."""
        names = self.names
        rows = zip(self.origin.tolist(), self.destination.tolist(), self.count.tolist())
        return {(names[o], names[d]): c for o, d, c in rows}


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
            try:
                code = np.array([position[name] for name in od.names], dtype=np.int64)
            except KeyError as exc:
                raise UnknownProvinceError(
                    f"province {exc.args[0]!r} on {od.date} is not present in the territory index"
                ) from None
            counts[d, code[od.origin], code[od.destination]] = od.count
        counts.flags.writeable = False
        return cls(dates=tuple(od.date for od in province_ods), provinces=provinces, counts=counts)


def build_daily_od(trips: np.ndarray, names: Sequence[str], day: date) -> DailyOD:
    """Count one day's trips, an int (n, 2) array of (origin, destination) codes into `names`."""
    return DailyOD.from_codes(day, "municipality", names, trips[:, 0], trips[:, 1])


def aggregate_to_province(od: DailyOD, muni_to_province: Mapping[str, str]) -> DailyOD:
    """Relabel each municipality as its province; intra-province trips become self-loops.

    Total trip mass is conserved exactly. A municipality missing from the mapping
    is a data-integrity failure and raises UnmappedMunicipalityError. Feeding a
    province matrix back in with an identity mapping is the identity.
    """
    try:
        provinces = [muni_to_province[name] for name in od.names]
    except KeyError as exc:
        raise UnmappedMunicipalityError(
            f"municipality {exc.args[0]!r} not present in the territory index"
        ) from None
    return DailyOD.from_codes(od.date, "province", provinces, od.origin, od.destination, od.count)


def _granularity_dir(root: str | Path, granularity: str) -> Path:
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    return Path(root) / "od" / granularity


def store_daily_od(od: DailyOD, root: str | Path) -> Path:
    """Persist one matrix under od/<granularity>/<date>.csv, adding its date to the manifest.

    Re-storing a date overwrites it.
    """
    directory = _granularity_dir(root, od.granularity)
    directory.mkdir(parents=True, exist_ok=True)
    day = od.date.isoformat()
    path = directory / f"{day}.csv"

    lines = ["origin,destination,count"]
    for (origin, destination), count in od.cells.items():
        lines.append(f"{origin},{destination},{count}")
    path.write_text("\n".join(lines) + "\n")

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
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
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
    """Load one stored matrix; round-trips store_daily_od bit-exactly.

    A repeated (origin, destination) row, a municipality self-loop, or a count
    that is not a positive integer raises ODSchemaError naming the file.
    """
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
            if (row[0], row[1]) in cells:
                raise ODSchemaError(f"{path}: repeated row {row!r}")
            if granularity == "municipality" and row[0] == row[1]:
                raise ODSchemaError(f"{path}: self-loop row {row!r}")
            if not row[2].isdecimal() or int(row[2]) < 1:
                raise ODSchemaError(f"{path}: count in row {row!r} is not a positive integer")
            cells[(row[0], row[1])] = int(row[2])
    return DailyOD.from_cells(day, granularity, cells)


def list_od_dates(root: str | Path, granularity: str) -> list[date]:
    """Sorted dates the store's manifest lists at the given granularity; [] without one."""
    manifest_path = _granularity_dir(root, granularity) / "manifest.json"
    if not manifest_path.exists():
        return []
    return [date.fromisoformat(day) for day in _read_manifest(manifest_path, granularity)["dates"]]
