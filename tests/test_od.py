"""OD matrix construction, province aggregation, and flat-file persistence."""

from collections import Counter
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobflow.community import FlowGraph, _window_ods
from mobflow.od import (
    DailyOD,
    ODNotFoundError,
    ODSchemaError,
    ProvinceCube,
    UnmappedMunicipalityError,
    aggregate_to_province,
    build_daily_od,
    list_od_dates,
    load_daily_od,
    store_daily_od,
)

from oracles import aggregate_cells, count_cells, flow_graph, province_cube, same_od, window_cells

DAY = date(2020, 3, 2)


class TestBuildDailyOD:
    def test_counts_trips_per_cell(self):
        od = build_daily_od(np.array([[0, 1], [0, 1], [2, 0]]), ["M1", "M2", "M3"], DAY)
        assert od.cells == {("M1", "M2"): 2, ("M3", "M1"): 1}
        assert od.count.sum() == 3

    def test_empty_stream_gives_empty_matrix(self):
        od = build_daily_od(np.zeros((0, 2), dtype=np.int64), ["M1", "M2"], DAY)
        assert od.cells == {}
        assert od.names == ()

    def test_random_trips_match_hash_count_oracle(self):
        rng = np.random.default_rng(1)
        munis = [f"M{i}" for i in range(40)]
        codes = np.array([rng.choice(40, size=2, replace=False) for _ in range(10000)])
        od = build_daily_od(codes, munis, DAY)
        pairs = [(munis[o], munis[d]) for o, d in codes.tolist()]
        assert od.cells == dict(Counter(pairs))
        assert list(od.cells) == sorted(set(pairs))

    def test_rejects_self_loop_cells(self):
        with pytest.raises(ValueError, match="self-loop"):
            DailyOD.from_cells(DAY, "municipality", {("M1", "M1"): 1})

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError, match="non-positive"):
            DailyOD.from_cells(DAY, "province", {("P1", "P2"): 0})


@pytest.fixture
def mapping():
    return {"M1": "P1", "M2": "P1", "M3": "P2"}


class TestAggregate:
    def test_same_province_becomes_self_loop(self, mapping):
        od = DailyOD.from_cells(DAY, "municipality", {("M1", "M2"): 2})
        assert aggregate_to_province(od, mapping).cells == {("P1", "P1"): 2}

    def test_cross_province_cell(self, mapping):
        od = DailyOD.from_cells(DAY, "municipality", {("M1", "M3"): 5})
        assert aggregate_to_province(od, mapping).cells == {("P1", "P2"): 5}

    def test_unmapped_municipality_is_a_hard_error(self, mapping):
        od = DailyOD.from_cells(DAY, "municipality", {("M1", "M9"): 1})
        with pytest.raises(UnmappedMunicipalityError, match="M9"):
            aggregate_to_province(od, mapping)

    def test_random_matrix_matches_group_by_oracle(self):
        rng = np.random.default_rng(2)
        munis = [f"M{i:03d}" for i in range(200)]
        mapping = {m: f"P{rng.integers(20):02d}" for m in munis}
        cells = {}
        for _ in range(3000):
            o, d = rng.choice(200, size=2, replace=False)
            key = (munis[o], munis[d])
            cells[key] = cells.get(key, 0) + int(rng.integers(1, 5))
        od = DailyOD.from_cells(DAY, "municipality", cells)
        got = aggregate_to_province(od, mapping)
        oracle = Counter()
        for (o, d), count in cells.items():
            oracle[(mapping[o], mapping[d])] += count
        assert got.cells == dict(oracle)

    def test_identity_mapping_on_province_matrix_is_identity(self):
        od = DailyOD.from_cells(DAY, "province", {("P1", "P1"): 3, ("P1", "P2"): 1})
        identity = {"P1": "P1", "P2": "P2"}
        assert aggregate_to_province(od, identity).cells == od.cells

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda p: p[0] != p[1]),
            st.integers(1, 50),
            max_size=60,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_mass_conservation(self, raw):
        cells = {(f"M{o}", f"M{d}"): c for (o, d), c in raw.items()}
        mapping = {f"M{i}": f"P{i % 7}" for i in range(31)}
        od = DailyOD.from_cells(DAY, "municipality", cells)
        aggregated = aggregate_to_province(od, mapping)
        assert aggregated.count.sum() == od.count.sum()


class TestPersistence:
    def test_round_trip_identity(self, tmp_path):
        od = DailyOD.from_cells(DAY, "municipality", {("M1", "M2"): 2, ("M3", "M1"): 7})
        store_daily_od(od, tmp_path)
        assert same_od(load_daily_od(tmp_path, DAY, "municipality"), od)

    def test_round_trip_empty_matrix(self, tmp_path):
        od = DailyOD.from_cells(DAY, "province", {})
        store_daily_od(od, tmp_path)
        assert same_od(load_daily_od(tmp_path, DAY, "province"), od)

    def test_missing_date_raises_not_found(self, tmp_path):
        store_daily_od(DailyOD.from_cells(DAY, "province", {}), tmp_path)
        with pytest.raises(ODNotFoundError):
            load_daily_od(tmp_path, DAY + timedelta(days=1), "province")

    def test_schema_version_mismatch_raises(self, tmp_path):
        store_daily_od(DailyOD.from_cells(DAY, "province", {("P1", "P1"): 1}), tmp_path)
        manifest = tmp_path / "od" / "province" / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"schema_version": 1', '"schema_version": 99'))
        with pytest.raises(ODSchemaError, match="version"):
            load_daily_od(tmp_path, DAY, "province")

    def test_year_of_days_listed_sorted(self, tmp_path):
        days = [date(2020, 1, 1) + timedelta(days=i) for i in range(365)]
        rng = np.random.default_rng(3)
        for day in rng.permutation(365):
            day = days[int(day)]
            store_daily_od(DailyOD.from_cells(day, "municipality", {("M1", "M2"): 1}), tmp_path)
        assert list_od_dates(tmp_path, "municipality") == days

    def test_restore_overwrites(self, tmp_path):
        store_daily_od(DailyOD.from_cells(DAY, "province", {("P1", "P2"): 1}), tmp_path)
        store_daily_od(DailyOD.from_cells(DAY, "province", {("P1", "P2"): 9}), tmp_path)
        assert load_daily_od(tmp_path, DAY, "province").cells == {("P1", "P2"): 9}

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(lambda p: p[0] != p[1]),
            st.integers(1, 10**9),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_any_matrix(self, tmp_path_factory, raw):
        cells = {(f"M{o}", f"M{d}"): c for (o, d), c in raw.items()}
        od = DailyOD.from_cells(DAY, "municipality", cells)
        root = tmp_path_factory.mktemp("store")
        store_daily_od(od, root)
        loaded = load_daily_od(root, DAY, "municipality")
        assert same_od(loaded, od)
        assert list(loaded.cells) == list(od.cells)

    def test_manifest_contents(self, tmp_path):
        import json

        store_daily_od(DailyOD.from_cells(DAY, "province", {("P1", "P2"): 1}), tmp_path)
        manifest = json.loads((tmp_path / "od" / "province" / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["granularity"] == "province"
        assert manifest["dates"] == [DAY.isoformat()]

    def test_dates_come_from_the_manifest(self, tmp_path):
        assert list_od_dates(tmp_path, "municipality") == []
        store_daily_od(DailyOD.from_cells(DAY, "municipality", {("M1", "M2"): 1}), tmp_path)
        (tmp_path / "od" / "municipality" / "notes.csv").write_text("a stray file\n")
        assert list_od_dates(tmp_path, "municipality") == [DAY]

    def test_repeated_row_rejected(self, tmp_path):
        store_daily_od(DailyOD.from_cells(DAY, "province", {("P1", "P2"): 3}), tmp_path)
        path = tmp_path / "od" / "province" / f"{DAY.isoformat()}.csv"
        path.write_text("origin,destination,count\nP1,P2,3\nP1,P2,5\n")
        with pytest.raises(ODSchemaError, match=f"{path.name}: repeated row"):
            load_daily_od(tmp_path, DAY, "province")

    def test_municipality_self_loop_row_rejected(self, tmp_path):
        store_daily_od(DailyOD.from_cells(DAY, "municipality", {("M1", "M2"): 3}), tmp_path)
        path = tmp_path / "od" / "municipality" / f"{DAY.isoformat()}.csv"
        path.write_text("origin,destination,count\nM1,M1,3\n")
        with pytest.raises(ODSchemaError, match=f"{path.name}: self-loop row"):
            load_daily_od(tmp_path, DAY, "municipality")

    @pytest.mark.parametrize("count", ["0", "-2", "2.5", "x"])
    def test_count_must_be_a_positive_integer(self, tmp_path, count):
        store_daily_od(DailyOD.from_cells(DAY, "province", {("P1", "P2"): 3}), tmp_path)
        path = tmp_path / "od" / "province" / f"{DAY.isoformat()}.csv"
        path.write_text(f"origin,destination,count\nP1,P2,{count}\n")
        with pytest.raises(ODSchemaError, match=f"{path.name}: count"):
            load_daily_od(tmp_path, DAY, "province")


@st.composite
def coded_days(draw):
    """Names in insertion order (M10 sorts before M2, names may repeat), a province
    map, and up to five dated days of (origin, destination) code trips, some empty."""
    names = [f"M{i}" for i in draw(st.lists(st.integers(0, 12), min_size=2, max_size=10))]
    mapping = {name: f"P{draw(st.integers(0, 11))}" for name in sorted(set(names))}
    pair = st.tuples(st.integers(0, len(names) - 1), st.integers(0, len(names) - 1))
    days = []
    for offset in draw(st.lists(st.integers(0, 6), unique=True, max_size=5)):
        trips = [(o, d) for o, d in draw(st.lists(pair, max_size=30)) if names[o] != names[d]]
        days.append((DAY + timedelta(days=offset), np.array(trips, dtype=np.int64).reshape(-1, 2)))
    return names, mapping, days


class TestCodedPathMatchesDictPath:
    """Counting, aggregation, the cube and the window graphs against dict-based oracles."""

    @given(coded_days())
    @settings(max_examples=200, deadline=None)
    def test_random_code_arrays(self, drawn):
        names, mapping, days = drawn
        muni_ods, muni_cells, province_ods, province_days = [], [], [], []
        for day, trips in days:
            od = build_daily_od(trips, names, day)
            cells = count_cells([(names[o], names[d]) for o, d in trips.tolist()])
            assert list(od.cells.items()) == list(cells.items())
            assert od.names == tuple(sorted({name for pair in cells for name in pair}))
            province, province_cells = aggregate_to_province(od, mapping), aggregate_cells(cells, mapping)
            assert list(province.cells.items()) == list(province_cells.items())
            muni_ods.append(od)
            muni_cells.append((day, cells))
            province_ods.append(province)
            province_days.append((day, province_cells))
        provinces = set(mapping.values())
        cube = ProvinceCube.from_ods(province_ods, provinces)
        assert np.array_equal(cube.counts, province_cube(province_days, provinces))
        for window, extra in ((1, ()), (3, sorted(mapping))):
            merged = list(_window_ods(muni_ods, window))
            for od, cells in zip(merged, window_cells(muni_cells, window), strict=True):
                got, want = FlowGraph.from_od(od, extra), flow_graph(cells, extra)
                assert got.nodes == want.nodes
                assert got.edges.tobytes() == want.edges.tobytes()
                assert got.weights.tobytes() == want.weights.tobytes()
