"""OD matrix construction, province aggregation, and flat-file persistence."""

from collections import Counter
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobflow.od import (
    DailyOD,
    ODNotFoundError,
    ODSchemaError,
    TerritoryIndex,
    UnmappedMunicipalityError,
    aggregate_to_province,
    build_daily_od,
    list_od_dates,
    load_daily_od,
    store_daily_od,
)

DAY = date(2020, 3, 2)


class TestBuildDailyOD:
    def test_counts_trips_per_cell(self):
        od = build_daily_od([("M1", "M2"), ("M1", "M2"), ("M3", "M1")], DAY)
        assert od.cells == {("M1", "M2"): 2, ("M3", "M1"): 1}
        assert od.total_trips == 3

    def test_empty_stream_gives_empty_matrix(self):
        od = build_daily_od([], DAY)
        assert od.cells == {}

    def test_random_trips_match_hash_count_oracle(self):
        rng = np.random.default_rng(1)
        munis = [f"M{i}" for i in range(40)]
        pairs = []
        for _ in range(10000):
            o, d = rng.choice(40, size=2, replace=False)
            pairs.append((munis[o], munis[d]))
        od = build_daily_od(pairs, DAY)
        assert od.cells == dict(Counter(pairs))

    def test_rejects_self_loop_cells(self):
        with pytest.raises(ValueError, match="self-loop"):
            DailyOD(date=DAY, granularity="municipality", cells={("M1", "M1"): 1})

    def test_rejects_non_positive_counts(self):
        with pytest.raises(ValueError, match="non-positive"):
            DailyOD(date=DAY, granularity="province", cells={("P1", "P2"): 0})


@pytest.fixture
def index():
    return TerritoryIndex(muni_to_province={"M1": "P1", "M2": "P1", "M3": "P2"})


class TestAggregate:
    def test_same_province_becomes_self_loop(self, index):
        od = DailyOD(DAY, "municipality", {("M1", "M2"): 2})
        assert aggregate_to_province(od, index).cells == {("P1", "P1"): 2}

    def test_cross_province_cell(self, index):
        od = DailyOD(DAY, "municipality", {("M1", "M3"): 5})
        assert aggregate_to_province(od, index).cells == {("P1", "P2"): 5}

    def test_unmapped_municipality_is_a_hard_error(self, index):
        od = DailyOD(DAY, "municipality", {("M1", "M9"): 1})
        with pytest.raises(UnmappedMunicipalityError, match="M9"):
            aggregate_to_province(od, index)

    def test_random_matrix_matches_group_by_oracle(self):
        rng = np.random.default_rng(2)
        munis = [f"M{i:03d}" for i in range(200)]
        mapping = {m: f"P{rng.integers(20):02d}" for m in munis}
        cells = {}
        for _ in range(3000):
            o, d = rng.choice(200, size=2, replace=False)
            key = (munis[o], munis[d])
            cells[key] = cells.get(key, 0) + int(rng.integers(1, 5))
        od = DailyOD(DAY, "municipality", cells)
        got = aggregate_to_province(od, TerritoryIndex(muni_to_province=mapping))
        oracle = Counter()
        for (o, d), count in cells.items():
            oracle[(mapping[o], mapping[d])] += count
        assert got.cells == dict(oracle)

    def test_identity_mapping_on_province_matrix_is_identity(self):
        od = DailyOD(DAY, "province", {("P1", "P1"): 3, ("P1", "P2"): 1})
        identity = TerritoryIndex(muni_to_province={"P1": "P1", "P2": "P2"})
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
        od = DailyOD(DAY, "municipality", cells)
        aggregated = aggregate_to_province(od, TerritoryIndex(muni_to_province=mapping))
        assert aggregated.total_trips == od.total_trips


class TestPersistence:
    def test_round_trip_identity(self, tmp_path):
        od = DailyOD(DAY, "municipality", {("M1", "M2"): 2, ("M3", "M1"): 7})
        store_daily_od(od, tmp_path)
        assert load_daily_od(tmp_path, DAY, "municipality") == od

    def test_round_trip_empty_matrix(self, tmp_path):
        od = DailyOD(DAY, "province", {})
        store_daily_od(od, tmp_path)
        assert load_daily_od(tmp_path, DAY, "province") == od

    def test_missing_date_raises_not_found(self, tmp_path):
        store_daily_od(DailyOD(DAY, "province", {}), tmp_path)
        with pytest.raises(ODNotFoundError):
            load_daily_od(tmp_path, DAY + timedelta(days=1), "province")

    def test_schema_version_mismatch_raises(self, tmp_path):
        store_daily_od(DailyOD(DAY, "province", {("P1", "P1"): 1}), tmp_path)
        manifest = tmp_path / "od" / "province" / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"schema_version": 1', '"schema_version": 99'))
        with pytest.raises(ODSchemaError, match="version"):
            load_daily_od(tmp_path, DAY, "province")

    def test_year_of_days_listed_sorted(self, tmp_path):
        days = [date(2020, 1, 1) + timedelta(days=i) for i in range(365)]
        rng = np.random.default_rng(3)
        for day in rng.permutation(365):
            day = days[int(day)]
            store_daily_od(DailyOD(day, "municipality", {("M1", "M2"): 1}), tmp_path)
        assert list_od_dates(tmp_path, "municipality") == days

    def test_restore_overwrites(self, tmp_path):
        store_daily_od(DailyOD(DAY, "province", {("P1", "P2"): 1}), tmp_path)
        store_daily_od(DailyOD(DAY, "province", {("P1", "P2"): 9}), tmp_path)
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
        od = DailyOD(DAY, "municipality", cells)
        root = tmp_path_factory.mktemp("store")
        store_daily_od(od, root)
        loaded = load_daily_od(root, DAY, "municipality")
        assert loaded == od
        assert list(loaded.cells) == list(od.cells)

    def test_manifest_contents(self, tmp_path):
        import json

        store_daily_od(DailyOD(DAY, "province", {("P1", "P2"): 1}), tmp_path)
        manifest = json.loads((tmp_path / "od" / "province" / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["granularity"] == "province"
        assert manifest["dates"] == [DAY.isoformat()]

    def test_dates_come_from_the_manifest(self, tmp_path):
        assert list_od_dates(tmp_path, "municipality") == []
        store_daily_od(DailyOD(DAY, "municipality", {("M1", "M2"): 1}), tmp_path)
        (tmp_path / "od" / "municipality" / "notes.csv").write_text("a stray file\n")
        assert list_od_dates(tmp_path, "municipality") == [DAY]
