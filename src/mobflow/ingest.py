"""Parse CDR/XDR record files into one event table and extract dwell-validated trips.

A CDR row logs one phone call: caller, callee, timestamp, start/end antennas and
duration. An XDR row logs one data session: user, timestamp, antenna, kilobytes.
Both are reduced to rows of one columnar table of (user, timestamp,
municipality) events, sorted by user and time. Trips are read off the table's
runs: sequences are cut at local midnight, and a change of municipality is a
trip only if the user then stays at the destination long enough (one hour by
default) or is not seen elsewhere again that day.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone, tzinfo
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

DEFAULT_DWELL_SECONDS = 3600
DEFAULT_TIMEZONE = "Europe/Rome"

CDR_COLUMNS = ["caller_id", "callee_id", "timestamp", "antenna_start", "antenna_end", "duration_min"]
XDR_COLUMNS = ["user_id", "timestamp", "antenna", "kilobytes"]
REGISTRY_COLUMNS = ["antenna_id", "lat", "lon", "municipality_id", "province_id"]


class RegistryError(ValueError):
    """Raised when an antenna registry file violates its schema or invariants."""


@dataclass(frozen=True, slots=True)
class AntennaSite:
    lat: float
    lon: float
    municipality_id: str
    province_id: str


@dataclass(frozen=True)
class AntennaRegistry:
    """Immutable antenna -> (position, municipality, province) mapping.

    Every antenna belongs to exactly one municipality and every municipality to
    exactly one province; violations are rejected at load time.
    """

    entries: dict[str, AntennaSite]

    @property
    def muni_to_province(self) -> dict[str, str]:
        return {site.municipality_id: site.province_id for site in self.entries.values()}


@dataclass
class RejectionTally:
    """Per-file count of skipped records, by reason."""

    malformed: int = 0
    unknown_antenna: int = 0

    @property
    def total(self) -> int:
        return self.malformed + self.unknown_antenna


@dataclass
class ParseResult:
    """The event table: one row per accepted event, in three int64 columns.

    `user` and `municipality` hold codes into `users` and `municipalities`.
    Users are coded in name order and the rows are sorted by (user, timestamp),
    so each user's events form one run in time order; timestamp ties keep
    input order.
    """

    users: list[str]
    municipalities: list[str]
    user: np.ndarray
    timestamp: np.ndarray
    municipality: np.ndarray
    rejections: dict[str, RejectionTally] = field(default_factory=dict)

    @property
    def event_count(self) -> int:
        return len(self.timestamp)

    @property
    def rejected_count(self) -> int:
        return sum(t.total for t in self.rejections.values())

    @property
    def events_by_user(self) -> dict[str, list[tuple[int, str]]]:
        """Each user's (timestamp, municipality) events in table order, built from the columns."""
        out: dict[str, list[tuple[int, str]]] = {}
        names = self.municipalities
        for code, ts, muni in zip(self.user.tolist(), self.timestamp.tolist(), self.municipality.tolist()):
            out.setdefault(self.users[code], []).append((ts, names[muni]))
        return out


def load_registry(path: str | Path) -> AntennaRegistry:
    """Load an antenna registry CSV (antenna_id,lat,lon,municipality_id,province_id)."""
    path = Path(path)
    entries: dict[str, AntennaSite] = {}
    muni_province: dict[str, str] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != REGISTRY_COLUMNS:
            raise RegistryError(f"{path}: expected header {','.join(REGISTRY_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(REGISTRY_COLUMNS):
                raise RegistryError(f"{path}:{lineno}: expected {len(REGISTRY_COLUMNS)} fields")
            antenna_id, lat_s, lon_s, muni, prov = (f.strip() for f in row)
            try:
                lat, lon = float(lat_s), float(lon_s)
            except ValueError as exc:
                raise RegistryError(f"{path}:{lineno}: bad coordinates") from exc
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                raise RegistryError(f"{path}:{lineno}: coordinates out of range")
            if antenna_id in entries:
                raise RegistryError(f"{path}:{lineno}: duplicate antenna id {antenna_id!r}")
            known = muni_province.get(muni)
            if known is not None and known != prov:
                raise RegistryError(
                    f"{path}:{lineno}: municipality {muni!r} mapped to two provinces ({known!r}, {prov!r})"
                )
            muni_province[muni] = prov
            entries[antenna_id] = AntennaSite(lat, lon, muni, prov)
    return AntennaRegistry(entries=entries)


def _parse_timestamp(raw: str) -> int:
    """Parse an epoch-seconds or ISO-8601 timestamp to UTC epoch seconds."""
    try:
        return int(raw)
    except ValueError:
        pass
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def parse_records(
    cdr_files: list[str | Path],
    xdr_files: list[str | Path],
    registry: AntennaRegistry,
) -> ParseResult:
    """Parse record files into the event table.

    One event per XDR row. Two events per CDR row, both for the caller: one at
    the start antenna at the call timestamp and one at the end antenna at
    timestamp + duration (the callee antenna is not recorded, so the callee
    yields no event). Each timestamp is epoch seconds or ISO-8601, detected
    per value. Rows referencing unregistered antennas or failing to parse are
    skipped and counted in the per-file rejection tally.
    """
    municipalities = sorted({site.municipality_id for site in registry.entries.values()})
    code = {muni: i for i, muni in enumerate(municipalities)}
    muni_of = {antenna: code[site.municipality_id] for antenna, site in registry.entries.items()}
    user_code: dict[str, int] = {}
    users, stamps, munis = array("q"), array("q"), array("q")
    rejections: dict[str, RejectionTally] = {}

    for path in cdr_files:
        tally = rejections.setdefault(str(path), RejectionTally())
        for caller, _callee, ts_raw, a_start, a_end, dur_raw in _data_rows(path, CDR_COLUMNS, tally):
            try:
                ts = _parse_timestamp(ts_raw)
                duration_min = int(dur_raw)
            except (ValueError, OverflowError):
                tally.malformed += 1
                continue
            if duration_min < 0:
                tally.malformed += 1
                continue
            start = muni_of.get(a_start)
            end = muni_of.get(a_end)
            if start is None or end is None:
                tally.unknown_antenna += 1
                continue
            user = user_code.setdefault(caller, len(user_code))
            users.extend((user, user))
            stamps.extend((ts, ts + duration_min * 60))
            munis.extend((start, end))

    for path in xdr_files:
        tally = rejections.setdefault(str(path), RejectionTally())
        for user_id, ts_raw, antenna, kb_raw in _data_rows(path, XDR_COLUMNS, tally):
            try:
                ts = _parse_timestamp(ts_raw)
                kilobytes = int(kb_raw)
            except (ValueError, OverflowError):
                tally.malformed += 1
                continue
            if kilobytes < 0:
                tally.malformed += 1
                continue
            muni = muni_of.get(antenna)
            if muni is None:
                tally.unknown_antenna += 1
                continue
            users.append(user_code.setdefault(user_id, len(user_code)))
            stamps.append(ts)
            munis.append(muni)

    names = sorted(user_code)
    rank = np.empty(len(names), dtype=np.int64)
    rank[[user_code[name] for name in names]] = np.arange(len(names))
    user = rank[np.frombuffer(users, dtype=np.int64)]
    timestamp = np.frombuffer(stamps, dtype=np.int64)
    order = np.lexsort((timestamp, user))  # stable: input order breaks ties
    return ParseResult(
        users=names,
        municipalities=municipalities,
        user=user[order],
        timestamp=timestamp[order],
        municipality=np.frombuffer(munis, dtype=np.int64)[order],
        rejections=rejections,
    )


def _data_rows(path: str | Path, columns: list[str], tally: RejectionTally):
    """Yield the stripped fields of each well-shaped data row of a record file."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != columns:
            raise ValueError(f"{path}: expected header {','.join(columns)}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(columns):
                tally.malformed += 1
                continue
            yield [f.strip() for f in row]


def _local_days(timestamp: np.ndarray, tz: tzinfo) -> tuple[list[date], np.ndarray]:
    """The local dates from the first to the last event, and each event's index into them.

    An event's day is the last local midnight at or before it, found by binary
    search in a table of midnight epochs. A midnight that a DST switch skips
    resolves to the switch instant, the first second of that day.
    """
    first = datetime.fromtimestamp(int(timestamp.min()), tz).date()
    last = datetime.fromtimestamp(int(timestamp.max()), tz).date()
    days = [first + timedelta(days=n) for n in range((last - first).days + 1)]
    midnights = np.array(
        [int(datetime(d.year, d.month, d.day, tzinfo=tz).timestamp()) for d in days], dtype=np.int64
    )
    return days, np.searchsorted(midnights, timestamp, side="right") - 1


def daily_trips(
    parsed: ParseResult,
    dwell_threshold: int = DEFAULT_DWELL_SECONDS,
    tz: tzinfo | str = DEFAULT_TIMEZONE,
) -> dict[date, list[tuple[str, str]]]:
    """Per local calendar day, the (origin, destination) municipalities of its trips.

    Events are grouped by (user, local day in `tz`). Within a group, each
    change of municipality between consecutive events is a candidate trip
    arriving at the later event. It is a trip if it is the group's last
    change, or if the group's next change comes at least `dwell_threshold`
    seconds after it. Days come in date order, each day's trips in (user,
    arrival) order; days without trips are left out.
    """
    if isinstance(tz, str):
        tz = ZoneInfo(tz)
    if parsed.event_count == 0:
        return {}
    ts, muni = parsed.timestamp, parsed.municipality
    days, day = _local_days(ts, tz)
    new_group = np.ones(len(ts), dtype=bool)
    new_group[1:] = (parsed.user[1:] != parsed.user[:-1]) | (day[1:] != day[:-1])
    group = np.cumsum(new_group)
    change = np.flatnonzero(~new_group[1:] & (muni[1:] != muni[:-1])) + 1
    keep = np.ones(len(change), dtype=bool)
    keep[:-1] = (group[change[1:]] != group[change[:-1]]) | (
        ts[change[1:]] - ts[change[:-1]] >= dwell_threshold
    )
    arrival = change[keep]
    arrival = arrival[np.argsort(day[arrival], kind="stable")]
    names = np.array(parsed.municipalities, dtype=object)
    pairs = list(zip(names[muni[arrival - 1]].tolist(), names[muni[arrival]].tolist()))
    out: dict[date, list[tuple[str, str]]] = {}
    stop = 0
    for d, n in enumerate(np.bincount(day[arrival], minlength=len(days)).tolist()):
        if n:
            out[days[d]] = pairs[stop:stop + n]
            stop += n
    return out
