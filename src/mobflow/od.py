"""Daily municipality origin-destination matrices: construction, province aggregation, persistence.

A day's municipality matrix is held sparsely as int64 (origin code,
destination code, trip count) rows over the sorted names its cells use, from
trip counting to the map-equation graph. It never holds a self-loop: a trip
joins two distinct municipalities. Province days exist only in a dense
`ProvinceCube`, which `aggregate_to_province` fills from the municipality
days; its diagonal carries the intra-province trips, the province's internal
mobility.

A store holds the municipality days under od/municipality/, one CSV per day,
and a manifest listing their dates. The store functions take the granularity
the manifest records, and any other value than "municipality" is a ValueError.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

SCHEMA_VERSION = 1
GRANULARITY = "municipality"  # the one granularity a store holds, named in its path and manifest


class ODNotFoundError(KeyError):
    """Raised when no stored matrix exists for the requested date."""

    __str__ = Exception.__str__  # the message, not KeyError's quoted repr of it


class ODSchemaError(ValueError):
    """Raised when a stored matrix or manifest does not match the expected schema."""


class UnmappedMunicipalityError(KeyError):
    """Raised when aggregation meets a municipality absent from the territory index."""

    __str__ = Exception.__str__


@dataclass(frozen=True, eq=False)
class DailyOD:
    """Sparse daily municipality OD matrix: unique (origin, destination) code rows with positive counts.

    Code c names `names[c]`, the sorted tuple of exactly the names the cells
    use. Rows are sorted by code, and so by name: order-dependent float sums
    over them give the same bits however the matrix was built.
    """

    date: date
    names: tuple[str, ...]
    origin: np.ndarray
    destination: np.ndarray
    count: np.ndarray

    def __post_init__(self) -> None:
        if (self.count < 1).any():
            raise ValueError(f"a cell on {self.date} has a non-positive count")
        if (self.origin == self.destination).any():
            raise ValueError(f"municipality matrix on {self.date} may not hold a self-loop")

    @classmethod
    def from_codes(
        cls,
        day: date,
        names: Sequence[str],
        origin: np.ndarray,
        destination: np.ndarray,
        count: np.ndarray | None = None,
    ) -> "DailyOD":
        """Sum code pairs weighted by `count` (default 1); code c names `names[c]`.

        Codes of a repeated name merge.
        """
        unique, relabel = np.unique(np.array(names, dtype=object), return_inverse=True)
        n = len(unique)
        keys, row = np.unique(relabel[origin] * n + relabel[destination], return_inverse=True)
        summed = np.zeros(len(keys), dtype=np.int64)
        np.add.at(summed, row, 1 if count is None else count)
        used, code = np.unique(np.concatenate([keys // n, keys % n]), return_inverse=True)
        used_names = tuple(unique[used].tolist())
        return cls(day, used_names, code[: len(keys)], code[len(keys):], summed)

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


def build_daily_od(trips: np.ndarray, names: Sequence[str], day: date) -> DailyOD:
    """Count one day's trips, an int (n, 2) array of (origin, destination) codes into `names`."""
    return DailyOD.from_codes(day, names, trips[:, 0], trips[:, 1])


def aggregate_to_province(muni_ods: Sequence[DailyOD], muni_to_province: Mapping[str, str]) -> ProvinceCube:
    """Sum each day's cells by province into one cube; intra-province trips become self-loops.

    The provinces are the mapping's, sorted. Each day is one exact int64
    scatter-add, so trip mass is conserved. A municipality missing from the
    mapping is a data-integrity failure and raises UnmappedMunicipalityError;
    a repeated date raises ValueError.
    """
    dates = tuple(od.date for od in muni_ods)
    repeated = sorted({day for day in dates if dates.count(day) > 1})
    if repeated:
        raise ValueError(f"duplicate dates in OD sequence: {', '.join(map(str, repeated))}")
    provinces = tuple(sorted(set(muni_to_province.values())))
    position = {province: i for i, province in enumerate(provinces)}
    counts = np.zeros((len(dates), len(provinces), len(provinces)), dtype=np.int64)
    for d, od in enumerate(muni_ods):
        try:
            code = np.array([position[muni_to_province[name]] for name in od.names], dtype=np.int64)
        except KeyError as exc:
            raise UnmappedMunicipalityError(
                f"municipality {exc.args[0]!r} on {od.date} is not present in the territory index"
            ) from None
        np.add.at(counts[d], (code[od.origin], code[od.destination]), od.count)
    counts.flags.writeable = False
    return ProvinceCube(dates, provinces, counts)


def _store_dir(root: str | Path, granularity: str) -> Path:
    if granularity != GRANULARITY:
        raise ValueError(f"a store holds only {GRANULARITY} days, not {granularity!r}")
    return Path(root) / "od" / GRANULARITY


def store_daily_od(od: DailyOD, root: str | Path) -> Path:
    """Persist one matrix under od/municipality/<date>.csv, adding its date to the manifest.

    Re-storing a date overwrites it.
    """
    directory = Path(root) / "od" / GRANULARITY
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{od.date.isoformat()}.csv"

    names = od.names
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["origin", "destination", "count"])
        rows = zip(od.origin.tolist(), od.destination.tolist(), od.count.tolist())
        writer.writerows((names[o], names[d], c) for o, d, c in rows)

    manifest_path = directory / "manifest.json"
    dates = {od.date}
    if manifest_path.exists():
        dates.update(_read_manifest(manifest_path))
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "granularity": GRANULARITY,
        "dates": [stored.isoformat() for stored in sorted(dates)],
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _read_manifest(path: Path) -> list[date]:
    """The sorted dates a manifest lists, once its schema version and granularity check out.

    A date listed twice raises ODSchemaError naming the manifest.
    """
    with path.open(encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise ODSchemaError(f"{path}: bad JSON: {exc}") from None
    version = manifest.get("schema_version") if isinstance(manifest, dict) else None
    if version != SCHEMA_VERSION:
        raise ODSchemaError(f"{path}: schema version {version!r}, expected {SCHEMA_VERSION}")
    if manifest.get("granularity") != GRANULARITY:
        raise ODSchemaError(f"{path}: granularity mismatch")
    listed = manifest.get("dates")
    try:
        dates = sorted(date.fromisoformat(day) for day in listed) if isinstance(listed, list) else None
    except (TypeError, ValueError):  # a day that is not a string, or not an ISO date
        dates = None
    if dates is None:
        raise ODSchemaError(f"{path}: dates must be a list of ISO dates")
    repeated = sorted({day.isoformat() for day, after in zip(dates, dates[1:]) if day == after})
    if repeated:
        raise ODSchemaError(f"{path}: dates listed more than once: {', '.join(repeated)}")
    return dates


def load_daily_od(root: str | Path, day: date, granularity: str) -> DailyOD:
    """Load one stored matrix; round-trips store_daily_od bit-exactly.

    A repeated (origin, destination) row, a self-loop, a count that is not a
    positive integer below 2**63, or text that is not UTF-8 raises
    ODSchemaError naming the file; a missing file raises ODNotFoundError naming
    the store and the file.
    """
    directory = _store_dir(root, granularity)
    path = directory / f"{day.isoformat()}.csv"
    if not path.exists():
        missing = path.relative_to(root)
        raise ODNotFoundError(f"{root}: no {granularity} OD matrix for {day.isoformat()}; {missing} is missing")
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        _read_manifest(manifest_path)
    cells: dict[tuple[str, str], int] = {}
    try:
        with path.open(encoding="utf-8", newline="") as fh:
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
                if row[0] == row[1]:
                    raise ODSchemaError(f"{path}: self-loop row {row!r}")
                count = int(row[2]) if row[2].isdecimal() else 0
                if not 1 <= count < 2**63:  # the counts are int64
                    raise ODSchemaError(f"{path}: count in row {row!r} is not a positive int64")
                cells[(row[0], row[1])] = count
    except UnicodeDecodeError as exc:
        raise ODSchemaError(f"{path}: not UTF-8 text: {exc}") from None
    names = [name for pair in cells for name in pair]
    origin = np.arange(0, len(names), 2)
    return DailyOD.from_codes(day, names, origin, origin + 1, np.fromiter(cells.values(), np.int64))


def list_od_dates(root: str | Path, granularity: str) -> list[date]:
    """Sorted dates the store's manifest lists; [] without one."""
    manifest_path = _store_dir(root, granularity) / "manifest.json"
    if not manifest_path.exists():
        return []
    return _read_manifest(manifest_path)
