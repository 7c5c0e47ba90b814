"""Record parsing into the event table, and the trip rule checked against reference oracles."""

import textwrap
from datetime import date, datetime
from zoneinfo import ZoneInfo

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobflow.ingest import (
    AntennaRegistry,
    AntennaSite,
    RegistryError,
    daily_trips,
    load_registry,
    parse_records,
)

from oracles import Event, event_table, extract_trips, split_events_by_day, trips_bruteforce

H = 3600
EPOCH_DAY = date(1970, 1, 1)


def ev(user, ts, muni):
    return Event(user, ts, muni)


def reference_daily_trips(events, threshold, tz, extract=extract_trips):
    """Per local day, the oracle trips of every user's day chunk, users in name order."""
    out = {}
    for user in sorted({e.user_id for e in events}):
        mine = sorted((e for e in events if e.user_id == user), key=lambda e: e.timestamp)
        for day, chunk in split_events_by_day(mine, tz):
            trips = extract(chunk, threshold)
            if trips:
                out.setdefault(day, []).extend(trips)
    return out


@pytest.fixture
def registry(tmp_path):
    path = tmp_path / "registry.csv"
    path.write_text(
        textwrap.dedent(
            """\
            antenna_id,lat,lon,municipality_id,province_id
            A7,45.0,9.0,M3,P1
            A9,45.1,9.1,M4,P1
            A2,45.2,9.2,M5,P2
            """
        )
    )
    return load_registry(path)


class TestParseRecords:
    def test_xdr_row_maps_to_one_event(self, tmp_path, registry):
        xdr = tmp_path / "x.csv"
        xdr.write_text("user_id,timestamp,antenna,kilobytes\nu1,1000,A7,512\n")
        result = parse_records([], [xdr], registry)
        assert result.events_by_user == {"u1": [(1000, "M3")]}
        assert result.rejected_count == 0

    def test_cdr_row_maps_to_two_caller_events(self, tmp_path, registry):
        cdr = tmp_path / "c.csv"
        cdr.write_text(
            "caller_id,callee_id,timestamp,antenna_start,antenna_end,duration_min\n"
            "u1,u2,1000,A7,A9,5\n"
        )
        result = parse_records([cdr], [], registry)
        # 5 minutes -> end-of-call event 300 s later; the callee yields nothing
        assert result.events_by_user == {"u1": [(1000, "M3"), (1300, "M4")]}
        assert result.users == ["u1"]

    def test_unknown_antenna_is_tallied_not_fatal(self, tmp_path, registry):
        cdr = tmp_path / "c.csv"
        cdr.write_text(
            "caller_id,callee_id,timestamp,antenna_start,antenna_end,duration_min\n"
            "u1,u2,1000,A99,A9,5\n"
        )
        result = parse_records([cdr], [], registry)
        assert result.events_by_user == {}
        assert result.event_count == 0
        assert result.rejections[str(cdr)].unknown_antenna == 1

    def test_malformed_rows_are_tallied(self, tmp_path, registry):
        xdr = tmp_path / "x.csv"
        xdr.write_text(
            "user_id,timestamp,antenna,kilobytes\n"
            "u1,notatime,A7,512\n"
            "u1,1000,A7\n"
            "u1,1000,A7,-3\n"
            "u2,2000,A9,1\n"
        )
        result = parse_records([], [xdr], registry)
        assert result.rejections[str(xdr)].malformed == 3
        assert result.events_by_user == {"u2": [(2000, "M4")]}

    def test_iso_timestamps_are_detected(self, tmp_path, registry):
        xdr = tmp_path / "x.csv"
        xdr.write_text(
            "user_id,timestamp,antenna,kilobytes\n"
            "u1,1970-01-01T00:16:40+00:00,A7,512\n"
        )
        result = parse_records([], [xdr], registry)
        assert result.events_by_user == {"u1": [(1000, "M3")]}

    def test_events_sorted_with_stable_ties(self, tmp_path, registry):
        xdr = tmp_path / "x.csv"
        xdr.write_text(
            "user_id,timestamp,antenna,kilobytes\n"
            "u1,2000,A9,1\n"
            "u1,1000,A7,1\n"
            "u1,1000,A2,1\n"
        )
        result = parse_records([], [xdr], registry)
        munis = [muni for _, muni in result.events_by_user["u1"]]
        assert munis == ["M3", "M5", "M4"]  # the two t=1000 events keep input order

    def test_users_are_coded_in_name_order(self, tmp_path, registry):
        xdr = tmp_path / "x.csv"
        xdr.write_text(
            "user_id,timestamp,antenna,kilobytes\n"
            "u2,1000,A9,1\n"
            "u10,3000,A7,1\n"
            "u1,2000,A2,1\n"
        )
        result = parse_records([], [xdr], registry)
        assert result.users == ["u1", "u10", "u2"]
        assert result.user.tolist() == [0, 1, 2]
        assert result.timestamp.tolist() == [2000, 3000, 1000]
        assert [result.municipalities[m] for m in result.municipality.tolist()] == ["M5", "M3", "M4"]


ROME = ZoneInfo("Europe/Rome")
DST_SWITCH = int(datetime(2020, 3, 29, 2, tzinfo=ROME).timestamp())
SITES = AntennaRegistry(
    entries={a: AntennaSite(45.0, 9.0, m, "P1") for a, m in [("A7", "M3"), ("A9", "M4"), ("A2", "M5")]}
)


class TestIsoRewrite:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["u1", "u2"]),
                st.integers(DST_SWITCH - 2 * 86400, DST_SWITCH + 2 * 86400),
                st.sampled_from(["A7", "A9", "A2"]),
                st.booleans(),
            ),
            max_size=30,
        )
    )
    # an ISO value after an epoch first row: the format is detected per value
    @example([("u1", DST_SWITCH - 10, "A7", False), ("u1", DST_SWITCH + 10, "A9", True)])
    @settings(max_examples=100, deadline=None)
    def test_iso_rows_give_the_epoch_events(self, tmp_path_factory, rows):
        tmp = tmp_path_factory.mktemp("iso")
        header = "user_id,timestamp,antenna,kilobytes\n"
        epoch, mixed = tmp / "epoch.csv", tmp / "mixed.csv"
        epoch.write_text(header + "".join(f"{u},{ts},{a},1\n" for u, ts, a, _ in rows))
        mixed.write_text(header + "".join(
            f"{u},{datetime.fromtimestamp(ts, ROME).isoformat() if iso else ts},{a},1\n"
            for u, ts, a, iso in rows
        ))
        want = parse_records([], [epoch], SITES)
        got = parse_records([], [mixed], SITES)
        assert got.rejected_count == 0
        assert got.events_by_user == want.events_by_user


class TestRegistry:
    def test_rejects_municipality_in_two_provinces(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "antenna_id,lat,lon,municipality_id,province_id\n"
            "A1,45.0,9.0,M1,P1\n"
            "A2,45.0,9.0,M1,P2\n"
        )
        with pytest.raises(RegistryError, match="two provinces"):
            load_registry(path)

    def test_rejects_out_of_range_coordinates(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "antenna_id,lat,lon,municipality_id,province_id\nA1,95.0,9.0,M1,P1\n"
        )
        with pytest.raises(RegistryError, match="out of range"):
            load_registry(path)

    def test_rejects_duplicate_antenna(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "antenna_id,lat,lon,municipality_id,province_id\n"
            "A1,45.0,9.0,M1,P1\n"
            "A1,45.0,9.0,M2,P1\n"
        )
        with pytest.raises(RegistryError, match="duplicate"):
            load_registry(path)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(RegistryError, match="header"):
            load_registry(path)


def utc_day_trips(events, threshold=H):
    """The library's trips for events of the first UTC day."""
    return daily_trips(event_table(events), threshold, "UTC").get(EPOCH_DAY, [])


class TestExtractTrips:
    def test_dwell_confirmed_and_open_ended_trips(self):
        # M1@08:00, M2@09:00, M2@10:30, M3@12:00:
        # M1->M2 has a 3 h confirmed dwell; M2->M3 is open-ended, so satisfied.
        events = [
            ev("u", 8 * H, "M1"),
            ev("u", 9 * H, "M2"),
            ev("u", 10 * H + 1800, "M2"),
            ev("u", 12 * H, "M3"),
        ]
        assert utc_day_trips(events) == [("M1", "M2"), ("M2", "M3")]
        assert trips_bruteforce(events) == extract_trips(events) == [("M1", "M2"), ("M2", "M3")]

    def test_short_dwell_rejected_but_return_leg_kept(self):
        # M1@08:00, M2@08:30, M1@09:00: the 30 min stay kills M1->M2, but the
        # return M2->M1 is open-ended and survives. Candidates come from raw
        # consecutive events, so the unconfirmed stop still seeds a trip.
        events = [ev("u", 8 * H, "M1"), ev("u", 8 * H + 1800, "M2"), ev("u", 9 * H, "M1")]
        assert utc_day_trips(events) == [("M2", "M1")]
        assert trips_bruteforce(events) == [("M2", "M1")]

    def test_single_event_yields_nothing(self):
        assert daily_trips(event_table([ev("u", 8 * H, "M1")]), H, "UTC") == {}
        assert daily_trips(event_table([]), H, "UTC") == {}

    def test_trip_fields(self):
        # a trip is an (origin, destination) pair filed under the day it happens
        events = [ev("u", 100, "M1"), ev("u", 200, "M1"), ev("u", 5000, "M2")]
        assert daily_trips(event_table(events), H, "UTC") == {EPOCH_DAY: [("M1", "M2")]}


events_strategy = st.lists(
    st.tuples(st.integers(0, 86400), st.integers(0, 5)), min_size=0, max_size=50
).map(
    lambda raw: [ev("u", ts, f"M{m}") for ts, m in sorted(raw, key=lambda r: r[0])]
)


class TestTripProperties:
    @given(events_strategy, st.sampled_from([0, 1800, 3600, 7200]))
    @settings(max_examples=300, deadline=None)
    def test_streaming_equals_bruteforce(self, events, threshold):
        got = daily_trips(event_table(events), threshold, "UTC")
        assert got == reference_daily_trips(events, threshold, "UTC", trips_bruteforce)
        assert got == reference_daily_trips(events, threshold, "UTC", extract_trips)

    @given(events_strategy)
    @settings(max_examples=200, deadline=None)
    def test_zero_threshold_counts_municipality_changes(self, events):
        changes = sum(
            1
            for a, b in zip(events, events[1:])
            if a.municipality_id != b.municipality_id and a.timestamp // 86400 == b.timestamp // 86400
        )
        trips = daily_trips(event_table(events), 0, "UTC")
        assert sum(len(pairs) for pairs in trips.values()) == changes

    @given(events_strategy)
    @settings(max_examples=200, deadline=None)
    def test_origin_differs_from_destination(self, events):
        for pairs in daily_trips(event_table(events), H, "UTC").values():
            for origin, destination in pairs:
                assert origin != destination

    @given(events_strategy.filter(lambda e: len(e) > 0), st.integers(2, 4))
    @settings(max_examples=100, deadline=None)
    def test_trips_invariant_under_file_splitting(self, tmp_path_factory, events, n_parts):
        registry = AntennaRegistry(
            entries={
                f"A{m}": AntennaSite(45.0, 9.0, f"M{m}", "P1") for m in range(6)
            }
        )
        tmp = tmp_path_factory.mktemp("split")
        header = "user_id,timestamp,antenna,kilobytes\n"
        rows = [f"u,{e.timestamp},A{e.municipality_id[1:]},1\n" for e in events]
        whole = tmp / "all.csv"
        whole.write_text(header + "".join(rows))
        parts = []
        chunk = max(1, len(rows) // n_parts)
        for i in range(0, len(rows), chunk):
            part = tmp / f"part{i}.csv"
            part.write_text(header + "".join(rows[i : i + chunk]))
            parts.append(part)
        one = parse_records([], [whole], registry)
        many = parse_records([], parts, registry)
        assert one.events_by_user == many.events_by_user
        assert daily_trips(one) == daily_trips(many)


# (zone, local date) pairs whose day holds a DST switch; in Sao Paulo and
# Santiago the switch is at local midnight itself.
DST_DAYS = [
    ("Europe/Rome", date(2020, 3, 29)),
    ("Europe/Rome", date(2020, 10, 25)),
    ("America/Sao_Paulo", date(2018, 11, 4)),
    ("America/Sao_Paulo", date(2019, 2, 16)),
    ("America/Santiago", date(2020, 4, 4)),
    ("America/Santiago", date(2020, 9, 6)),
]

# seconds from the switch day's first midnight: within a minute of a nearby
# midnight, within an hour of one (the DST offset), or anywhere in +-2 days
near_midnight = st.one_of(
    st.builds(lambda k, s: k * 86400 + s, st.integers(-1, 2), st.integers(-60, 60)),
    st.builds(lambda k, s: k * 86400 + s, st.integers(-1, 2), st.integers(-3700, 3700)),
    st.integers(-2 * 86400, 2 * 86400),
)


class TestDaySplitting:
    def test_events_cut_at_local_midnight(self):
        # 2020-03-01 23:30 Europe/Rome = 22:30 UTC = 1583101800; the sequence is
        # cut before 00:30, so only the 00:30 -> 01:30 move is a trip
        late = 1583101800
        events = [ev("u", late, "M1"), ev("u", late + H, "M2"), ev("u", late + 2 * H, "M3")]
        assert daily_trips(event_table(events)) == {date(2020, 3, 2): [("M2", "M3")]}

    def test_cross_midnight_movement_generates_no_trip(self):
        late = 1583101800
        events = [ev("u", late, "M1"), ev("u", late + 3600, "M2")]
        assert daily_trips(event_table(events)) == {}

    def test_same_day_movement_binned_by_date(self):
        noon = 1583060400  # 2020-03-01 12:00 Europe/Rome
        events = [ev("u", noon, "M1"), ev("u", noon + 2 * H, "M2")]
        by_day = daily_trips(event_table(events))
        assert by_day == {date(2020, 3, 1): [("M1", "M2")]}

    @given(
        st.sampled_from(DST_DAYS),
        st.lists(near_midnight, min_size=1, max_size=8),
        st.lists(
            st.tuples(st.sampled_from(["u1", "u2", "u3"]), st.integers(0, 7), st.integers(0, 3)),
            max_size=40,
        ),
        st.sampled_from([0, 1800, 3600, 7200]),
    )
    @settings(max_examples=300, deadline=None)
    def test_multi_user_tables_across_dst_switches(self, zone_day, offsets, rows, threshold):
        zone, day = zone_day
        tz = ZoneInfo(zone)
        midnight = int(datetime(day.year, day.month, day.day, tzinfo=tz).timestamp())
        # events draw their times from a small pool, so timestamp ties are common
        events = [
            ev(user, midnight + offsets[i % len(offsets)], f"M{m}") for user, i, m in rows
        ]
        assert daily_trips(event_table(events), threshold, zone) == reference_daily_trips(
            events, threshold, tz
        )
        for user in {e.user_id for e in events}:
            mine = [e for e in events if e.user_id == user]
            assert daily_trips(event_table(mine), threshold, zone) == reference_daily_trips(
                mine, threshold, tz, trips_bruteforce
            )
