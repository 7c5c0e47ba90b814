"""Parse CDR/XDR record files into one event table and extract dwell-validated trips.

A CDR row logs one phone call: caller, callee, timestamp, start/end antennas and
duration. An XDR row logs one data session: user, timestamp, antenna, kilobytes.
Through the antenna registry's antenna -> municipality map (its coordinates are
checked on load, not kept), both are reduced to rows of one columnar table of
(user, timestamp, municipality) events, sorted by user and time. Trips are read
off the table's runs: sequences are cut at local midnight, and a change of
municipality is a trip only if the user then stays at the destination long
enough (the CLI's `--dwell-seconds`, one hour by default) or is not seen
elsewhere again that day.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone, tzinfo
from pathlib import Path

import numpy as np

DEFAULT_DWELL_SECONDS = 3600
DEFAULT_TIMEZONE = "Europe/Rome"

CDR_COLUMNS = ["caller_id", "callee_id", "timestamp", "antenna_start", "antenna_end", "duration_min"]
XDR_COLUMNS = ["user_id", "timestamp", "antenna", "kilobytes"]
REGISTRY_COLUMNS = ["antenna_id", "lat", "lon", "municipality_id", "province_id"]


class RegistryError(ValueError):
    """Raised when an antenna registry file violates its schema or invariants."""


@dataclass(frozen=True)
class AntennaRegistry:
    """An antenna registry's maps: antenna -> municipality and municipality -> province.

    Every antenna belongs to exactly one municipality and every municipality to
    exactly one province; violations are rejected at load time, as are
    coordinates that do not parse or lie out of range. Coordinates are not kept.
    """

    muni_of_antenna: dict[str, str]
    muni_to_province: dict[str, str]


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
    """Load an antenna registry CSV (antenna_id,lat,lon,municipality_id,province_id), UTF-8 encoded."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise RegistryError(f"{path}: not UTF-8 text: {exc}") from None
    muni_of_antenna: dict[str, str] = {}
    muni_to_province: dict[str, str] = {}
    if not rows or [c.strip() for c in rows[0]] != REGISTRY_COLUMNS:
        raise RegistryError(f"{path}: expected header {','.join(REGISTRY_COLUMNS)}")
    for lineno, row in enumerate(rows[1:], start=2):
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
        if antenna_id in muni_of_antenna:
            raise RegistryError(f"{path}:{lineno}: duplicate antenna id {antenna_id!r}")
        known = muni_to_province.get(muni)
        if known is not None and known != prov:
            raise RegistryError(
                f"{path}:{lineno}: municipality {muni!r} mapped to two provinces ({known!r}, {prov!r})"
            )
        muni_to_province[muni] = prov
        muni_of_antenna[antenna_id] = muni
    return AntennaRegistry(muni_of_antenna, muni_to_province)


# Epoch seconds accepted as event times: one day inside `datetime`'s range at
# each end, so that every event's local date and midnight exist in any zone.
EPOCH_RANGE = (
    int(datetime(1, 1, 2, tzinfo=timezone.utc).timestamp()),
    int(datetime(9999, 12, 31, tzinfo=timezone.utc).timestamp()),
)


def _check_epoch(ts: int) -> int:
    if not EPOCH_RANGE[0] <= ts < EPOCH_RANGE[1]:
        raise ValueError(f"timestamp {ts} outside {EPOCH_RANGE}")
    return ts


def _parse_timestamp(raw: str) -> int:
    """Parse an epoch-seconds or ISO-8601 timestamp to UTC epoch seconds within EPOCH_RANGE."""
    try:
        ts = int(raw)
    except ValueError:
        dt = datetime.fromisoformat(raw)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        ts = int(dt.timestamp())
    return _check_epoch(ts)


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
    per value. Rows referencing unregistered antennas, failing to parse or
    with an event time outside EPOCH_RANGE are skipped and counted in the
    per-file rejection tally.
    """
    municipalities = sorted(set(registry.muni_of_antenna.values()))
    code = {muni: i for i, muni in enumerate(municipalities)}
    muni_of = {antenna: code[muni] for antenna, muni in registry.muni_of_antenna.items()}
    user_code: dict[str, int] = {}
    users, stamps, munis = array("q"), array("q"), array("q")
    rejections: dict[str, RejectionTally] = {}
    stamp_of: dict[str, int] = {}  # successful parses by raw value; failures re-parse and re-count

    def parse_timestamp(raw: str) -> int:
        ts = stamp_of.get(raw)
        if ts is None:
            ts = stamp_of[raw] = _parse_timestamp(raw)
        return ts

    for path in cdr_files:
        tally = rejections.setdefault(str(path), RejectionTally())
        for caller, _callee, ts_raw, a_start, a_end, dur_raw in _data_rows(path, CDR_COLUMNS, tally):
            try:
                ts = parse_timestamp(ts_raw)
                duration_min = int(dur_raw)
                ts_end = _check_epoch(ts + duration_min * 60)
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
            stamps.extend((ts, ts_end))
            munis.extend((start, end))

    for path in xdr_files:
        tally = rejections.setdefault(str(path), RejectionTally())
        for user_id, ts_raw, antenna, kb_raw in _data_rows(path, XDR_COLUMNS, tally):
            try:
                ts = parse_timestamp(ts_raw)
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
    """Yield the stripped fields of each well-shaped data row of a UTF-8 record file."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
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
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc}") from None


def _local_days(timestamp: np.ndarray, tz: tzinfo) -> tuple[list[date], np.ndarray]:
    """The local dates that hold events, in order, and each event's index into them.

    A local date is within one day of the UTC date, so the candidates are the
    events' UTC dates and their neighbours. An event's day is the last candidate
    midnight at or before it; a midnight that a DST switch skips resolves to
    the switch instant, the first second of that day.
    """
    utc = np.unique(timestamp // 86400).tolist()
    dates = sorted({date(1970, 1, 1) + timedelta(days=d + k) for d in utc for k in (-1, 0, 1)})
    midnights = np.array(
        [int(datetime(d.year, d.month, d.day, tzinfo=tz).timestamp()) for d in dates], dtype=np.int64
    )
    index = np.searchsorted(midnights, timestamp, side="right") - 1
    held = np.bincount(index, minlength=len(dates)) > 0
    days = [d for d, h in zip(dates, held.tolist()) if h]
    return days, (np.cumsum(held) - 1)[index]


def daily_trips(parsed: ParseResult, dwell_threshold: int, tz: tzinfo) -> dict[date, np.ndarray]:
    """Per local calendar day, its trips as int64 (origin, destination) rows of codes.

    Codes index `parsed.municipalities`. Events are grouped by (user, local
    day in `tz`), a tzinfo such as `ZoneInfo("Europe/Rome")`. Within a group,
    each change of municipality between consecutive events is a candidate trip
    arriving at the later event. It is
    a trip if it is the group's last change, or if the group's next change
    comes at least `dwell_threshold` seconds after it. Days come in date
    order, each day's trips in (user, arrival) order; days without trips are
    left out. A negative `dwell_threshold` raises ValueError.
    """
    if dwell_threshold < 0:
        raise ValueError(f"dwell_threshold must be at least 0, got {dwell_threshold}")
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
    pairs = np.stack([muni[arrival - 1], muni[arrival]], axis=1)
    ends = np.cumsum(np.bincount(day[arrival], minlength=len(days)))
    return {days[d]: trips for d, trips in enumerate(np.split(pairs, ends[:-1])) if len(trips)}
