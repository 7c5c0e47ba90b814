"""Parse CDR/XDR record files into per-user event streams and extract dwell-validated trips.

A CDR row logs one phone call: caller, callee, timestamp, start/end antennas and
duration. An XDR row logs one data session: user, timestamp, antenna, kilobytes.
Both are reduced to a unified stream of (user, timestamp, municipality, province)
events; a movement between two municipalities becomes a trip only if the user
then stays at the destination long enough (one hour by default).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import date, datetime, timezone, tzinfo
from pathlib import Path
from zoneinfo import ZoneInfo

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


@dataclass(frozen=True, slots=True)
class RecordEvent:
    """One spatio-temporal observation of a pseudonymous user."""

    user_id: str
    timestamp: int
    municipality_id: str
    province_id: str


@dataclass(frozen=True, slots=True)
class Trip:
    """A movement between two municipalities with a confirmed destination dwell."""

    user_id: str
    origin_municipality: str
    destination_municipality: str
    departure_event_time: int
    arrival_event_time: int

    def __post_init__(self) -> None:
        if self.origin_municipality == self.destination_municipality:
            raise ValueError("trip origin and destination must differ")
        if self.arrival_event_time < self.departure_event_time:
            raise ValueError("trip arrival precedes departure")


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
    """Events grouped by user (each list sorted by timestamp) plus per-file rejections."""

    events_by_user: dict[str, list[RecordEvent]]
    rejections: dict[str, RejectionTally] = field(default_factory=dict)

    @property
    def event_count(self) -> int:
        return sum(len(evs) for evs in self.events_by_user.values())

    @property
    def rejected_count(self) -> int:
        return sum(t.total for t in self.rejections.values())


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


def _timestamp_parser(sample: str):
    # Auto-detect the column format from its first value: epoch seconds or ISO-8601.
    try:
        int(sample)
        return lambda raw: int(raw)
    except ValueError:
        return _parse_timestamp


def parse_records(
    cdr_files: list[str | Path],
    xdr_files: list[str | Path],
    registry: AntennaRegistry,
) -> ParseResult:
    """Parse record files into per-user, timestamp-sorted event lists.

    One event per XDR row. Two events per CDR row, both for the caller: one at
    the start antenna at the call timestamp and one at the end antenna at
    timestamp + duration (the callee antenna is not recorded, so the callee
    yields no event). Rows referencing unregistered antennas or failing to
    parse are skipped and counted in the per-file rejection tally. Timestamp
    ties keep stable input order.
    """
    events_by_user: dict[str, list[RecordEvent]] = {}
    rejections: dict[str, RejectionTally] = {}

    def emit(user: str, ts: int, site: AntennaSite) -> None:
        events_by_user.setdefault(user, []).append(
            RecordEvent(user, ts, site.municipality_id, site.province_id)
        )

    for path in cdr_files:
        tally = rejections.setdefault(str(path), RejectionTally())
        for row, ts_of in _data_rows(path, CDR_COLUMNS, tally):
            caller, _callee, ts_raw, a_start, a_end, dur_raw = row
            try:
                ts = ts_of(ts_raw)
                duration_min = int(dur_raw)
            except (ValueError, OverflowError):
                tally.malformed += 1
                continue
            if duration_min < 0:
                tally.malformed += 1
                continue
            start = registry.entries.get(a_start)
            end = registry.entries.get(a_end)
            if start is None or end is None:
                tally.unknown_antenna += 1
                continue
            emit(caller, ts, start)
            emit(caller, ts + duration_min * 60, end)

    for path in xdr_files:
        tally = rejections.setdefault(str(path), RejectionTally())
        for row, ts_of in _data_rows(path, XDR_COLUMNS, tally):
            user, ts_raw, antenna, kb_raw = row
            try:
                ts = ts_of(ts_raw)
                kilobytes = int(kb_raw)
            except (ValueError, OverflowError):
                tally.malformed += 1
                continue
            if kilobytes < 0:
                tally.malformed += 1
                continue
            site = registry.entries.get(antenna)
            if site is None:
                tally.unknown_antenna += 1
                continue
            emit(user, ts, site)

    for events in events_by_user.values():
        events.sort(key=lambda e: e.timestamp)  # stable: input order breaks ties
    return ParseResult(events_by_user=events_by_user, rejections=rejections)


def _data_rows(path: str | Path, columns: list[str], tally: RejectionTally):
    """Yield (fields, timestamp_parser) for well-shaped data rows of a record file."""
    ts_index = columns.index("timestamp")
    ts_of = None
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
            row = [f.strip() for f in row]
            if ts_of is None:
                ts_of = _timestamp_parser(row[ts_index])
            yield row, ts_of


def extract_trips(
    events: list[RecordEvent],
    dwell_threshold: int = DEFAULT_DWELL_SECONDS,
) -> list[Trip]:
    """Extract trips from one user's timestamp-sorted events within one processing window.

    Every pair of consecutive events in different municipalities (A at t1, B at
    t2) raises a candidate trip A->B arriving at t2. The candidate is kept iff
    the user's next event in a municipality other than B comes at least
    `dwell_threshold` seconds after t2; events inside B extend the dwell, and a
    candidate still open at the end of the window counts as satisfied
    (last-known position held).
    """
    trips: list[Trip] = []
    candidate: Trip | None = None
    prev: RecordEvent | None = None
    for ev in events:
        if prev is None:
            prev = ev
            continue
        if ev.municipality_id == prev.municipality_id:
            prev = ev
            continue
        if candidate is not None:
            # ev is the first event outside the candidate's destination.
            if ev.timestamp - candidate.arrival_event_time >= dwell_threshold:
                trips.append(candidate)
        candidate = Trip(
            user_id=ev.user_id,
            origin_municipality=prev.municipality_id,
            destination_municipality=ev.municipality_id,
            departure_event_time=prev.timestamp,
            arrival_event_time=ev.timestamp,
        )
        prev = ev
    if candidate is not None:
        trips.append(candidate)
    return trips


def split_events_by_day(
    events: list[RecordEvent],
    tz: tzinfo | str = DEFAULT_TIMEZONE,
) -> list[tuple[date, list[RecordEvent]]]:
    """Cut one user's sorted events at calendar-day boundaries in the given timezone."""
    if isinstance(tz, str):
        tz = ZoneInfo(tz)
    chunks: list[tuple[date, list[RecordEvent]]] = []
    current_day: date | None = None
    current: list[RecordEvent] = []
    for ev in events:
        day = datetime.fromtimestamp(ev.timestamp, tz).date()
        if day != current_day:
            if current:
                chunks.append((current_day, current))
            current_day, current = day, []
        current.append(ev)
    if current:
        chunks.append((current_day, current))
    return chunks


def daily_trips(
    events_by_user: dict[str, list[RecordEvent]],
    dwell_threshold: int = DEFAULT_DWELL_SECONDS,
    tz: tzinfo | str = DEFAULT_TIMEZONE,
) -> dict[date, list[Trip]]:
    """Extract trips per user per calendar day; cross-midnight dwells end with the day."""
    if isinstance(tz, str):
        tz = ZoneInfo(tz)
    out: dict[date, list[Trip]] = {}
    for user in sorted(events_by_user):
        for day, chunk in split_events_by_day(events_by_user[user], tz):
            trips = extract_trips(chunk, dwell_threshold)
            if trips:
                out.setdefault(day, []).extend(trips)
    return out
