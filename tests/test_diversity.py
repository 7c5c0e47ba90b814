"""Entropy flow diversity: frozen values, invariances, the arrays against per-province scans and lists, and the weekend deltas."""

import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from mobflow import cli, synth
from mobflow.diversity import (
    DIRECTIONS,
    diversity_series,
    flow_diversity,
    diversity_table,
    diversity_wide_table,
    weekend_deltas,
)
from mobflow.cluster import SeriesMatrix
from mobflow.flows import compute_flows
from mobflow.od import aggregate_to_province

from oracles import cube_of, province_day

DAY = date(2020, 3, 2)
TERRITORY_110 = ["A"] + [f"S{i:03d}" for i in range(109)]
FLOW_SERIES = ("in_flow", "out_flow", "self_flow", "in_norm", "out_norm", "self_norm")


def in_flows_od(flows: dict[str, int], target="A", day=DAY):
    return province_day(day, {(src, target): c for src, c in flows.items()})


def series_of(ods, province, direction, provinces=TERRITORY_110, include_self=False):
    """One province's diversity on each day, None where absent."""
    diversity = diversity_series(cube_of(ods, provinces), direction, include_self)
    return oracles.rows_with_none(diversity.values)[diversity.provinces.index(province)]


def value_of(od, province, direction, provinces=TERRITORY_110, include_self=False):
    return series_of([od], province, direction, provinces, include_self)[0]


def deltas_of(ods, split):
    """The weekend deltas of in-flow diversity; of the 110 provinces only A has in-flow."""
    return weekend_deltas(diversity_series(cube_of(ods, TERRITORY_110), "in"), split)


class TestFlowDiversity:
    def test_uniform_over_109_sources(self):
        value = flow_diversity([7] * 109, 110)
        assert value == pytest.approx(math.log(109) / math.log(110), abs=1e-12)
        assert value == pytest.approx(0.99806, abs=1e-5)

    def test_point_mass_is_exactly_zero(self):
        assert flow_diversity([5], 110) == 0.0

    def test_two_source_frozen_value(self):
        value = flow_diversity([30, 10], 110)
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25)) / math.log(110)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.11963, abs=1e-5)

    def test_zero_entries_are_skipped(self):
        assert flow_diversity([0, 30, 0, 10, 0], 110) == flow_diversity([30, 10], 110)

    def test_zero_flow_is_absent(self):
        assert flow_diversity([], 110) is None
        assert flow_diversity([0, 0], 110) is None

    def test_small_n_normalization_error(self):
        with pytest.raises(ValueError, match="at least 2"):
            flow_diversity([1], 1)

    def test_oracle_agreement_on_random_vectors(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            k = int(rng.integers(1, 30))
            counts = [int(c) for c in rng.integers(1, 1000, size=k)]
            got = flow_diversity(counts, 110)
            assert got == pytest.approx(oracles.entropy_direct(counts, 110), abs=1e-12)

    def test_zero_flow_is_absent_not_zero(self):
        od = province_day(DAY, {("A", "S000"): 3})  # only outgoing
        assert value_of(od, "A", "in") is None
        assert value_of(od, "A", "out") == 0.0

    def test_out_direction_mirrors_in(self):
        od = province_day(DAY, {("A", "B"): 30, ("A", "C"): 10})
        got = value_of(od, "A", "out", ["A", "B", "C"])
        assert got == pytest.approx(oracles.entropy_direct([30, 10], 3), abs=1e-12)
        assert value_of(od, "B", "in", ["A", "B", "C"]) == 0.0

    def test_normalized_by_the_territory_size(self):
        # 108 provinces without any cell still count in log(N)
        value = value_of(in_flows_od({"S000": 30, "S001": 10}), "A", "in")
        assert value == flow_diversity([30, 10], 110)
        assert value == pytest.approx(0.11963, abs=1e-5)

    def test_self_loop_excluded_by_default_included_on_request(self):
        od = province_day(DAY, {("A", "A"): 40, ("S000", "A"): 30, ("S001", "A"): 10})
        base = value_of(od, "A", "in")
        assert base == pytest.approx(oracles.entropy_direct([30, 10], 110), abs=1e-12)
        with_self = value_of(od, "A", "in", include_self=True)
        assert with_self == pytest.approx(oracles.entropy_direct([40, 30, 10], 110), abs=1e-12)
        only_self = province_day(DAY, {("A", "A"): 40})
        assert value_of(only_self, "A", "out") is None
        assert value_of(only_self, "A", "out", include_self=True) == 0.0

    def test_single_province_territory_rejected(self):
        cube = cube_of([in_flows_od({})], ["A"])
        with pytest.raises(ValueError, match="at least 2"):
            diversity_series(cube, "in")

    def test_unknown_direction_rejected(self):
        cube = cube_of([in_flows_od({})], TERRITORY_110)
        with pytest.raises(ValueError, match="direction"):
            diversity_series(cube, "both")


flow_vectors = st.lists(st.integers(1, 10**6), min_size=1, max_size=40)


class TestDiversityProperties:
    @given(flow_vectors, st.integers(2, 1000))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, counts, factor):
        a = flow_diversity(counts, 110)
        b = flow_diversity([c * factor for c in counts], 110)
        assert a == pytest.approx(b, abs=1e-12)

    @given(flow_vectors)
    @settings(max_examples=200, deadline=None)
    def test_range_bounds(self, counts):
        value = flow_diversity(counts, 110)
        upper = math.log(len(counts)) / math.log(110)
        assert -1e-15 <= value <= upper + 1e-12 <= 1.0 + 1e-12

    @given(flow_vectors)
    @settings(max_examples=200, deadline=None)
    def test_log_base_invariance(self, counts):
        # same ratio computed in bits: H2 / log2(N) must equal H_e / ln(N)
        total = sum(counts)
        acc = -sum((c / total) * math.log2(c / total) for c in counts)
        base2 = acc / math.log2(110)
        assert flow_diversity(counts, 110) == pytest.approx(base2, abs=1e-12)

    @given(st.lists(st.integers(1, 10**4), min_size=2, max_size=20), st.integers(1, 10**4))
    @settings(max_examples=200, deadline=None)
    def test_merging_equal_sources_strictly_decreases(self, counts, merged):
        # two sources of `merged` each vs one source of 2*merged, same remainder
        split = flow_diversity(counts + [merged, merged], 110)
        joined = flow_diversity(counts + [2 * merged], 110)
        assert joined < split


@st.composite
def province_runs(draw):
    """(provinces, ODs) over 2-12 provinces: self-loops, empty days, idle provinces."""
    n = draw(st.integers(2, 12))
    provinces = [f"P{i}" for i in range(n)]  # P10 sorts before P2
    offsets = draw(st.lists(st.integers(0, 30), max_size=6, unique=True))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    ods = []
    for offset in offsets:
        cells = draw(st.dictionaries(pair, st.integers(1, 10**6), max_size=3 * n))
        named = {(provinces[o], provinces[d]): c for (o, d), c in cells.items()}
        ods.append(province_day(DAY + timedelta(days=offset), named))
    return provinces, ods


def _run(provinces, days):
    return provinces, [province_day(DAY + timedelta(days=i), cells) for i, cells in enumerate(days)]


class TestCubeMatchesPerProvinceScans:
    @given(province_runs())
    @example(_run(["P0", "P1", "P2", "P3"], [
        {("P0", "P0"): 9, ("P0", "P1"): 3, ("P2", "P0"): 4},  # self-loop, P3 idle
        {},  # empty day
        {("P1", "P2"): 5},  # single partner
        {("P2", "P2"): 2},  # self-loop only
    ]))
    @settings(max_examples=300, deadline=None)
    def test_flows_and_diversity_equal_the_reference(self, run):
        provinces, ods = run
        cube = cube_of(ods, provinces)
        dates = [od.date for od in ods]
        ordered = sorted(provinces)
        flows = compute_flows(cube)
        assert flows.provinces == tuple(ordered)
        for i, province in enumerate(ordered):
            expected = oracles.compute_flows(ods, province)
            assert list(flows.dates) == expected.dates
            for name in FLOW_SERIES:
                assert getattr(flows, name)[i].tolist() == getattr(expected, name)
        for direction in DIRECTIONS:
            for include_self in (False, True):
                diversity = diversity_series(cube, direction, include_self)
                assert diversity.provinces == tuple(ordered)
                assert diversity.direction == direction
                assert list(diversity.dates) == dates
                assert diversity.values.dtype == np.float64
                for province, values in zip(ordered, oracles.rows_with_none(diversity.values)):
                    expected = [
                        oracles.flow_diversity(od, province, direction, len(provinces), include_self)
                        for od in ods
                    ]
                    assert values == expected
                    assert all(type(v) is float for v in values if v is not None)


class TestArraysMatchListPath:
    """The [province, day] arrays hold exactly what the per-province list objects held."""

    @given(province_runs(), st.integers(0, 30))
    @example(_run(["P0", "P1", "P2"], [
        {("P0", "P1"): 3},  # P1 and P2 absent as "out" on most days: dropped
        {("P0", "P1"): 1, ("P1", "P2"): 2},
        {},
        {("P2", "P0"): 4, ("P0", "P2"): 1},
    ]), 2)
    @settings(max_examples=300, deadline=None)
    def test_flows_diversity_contrast_and_matrix(self, run, split_offset):
        provinces, ods = run
        cube = cube_of(ods, provinces)
        flows = compute_flows(cube)
        for i, expected in enumerate(oracles.flow_series_reference(cube)):
            assert flows.provinces[i] == expected.province_id
            assert list(flows.dates) == expected.dates
            for name in FLOW_SERIES:
                assert getattr(flows, name)[i].tolist() == getattr(expected, name)
        split = DAY + timedelta(days=split_offset)
        for direction in DIRECTIONS:
            for include_self in (False, True):
                diversity = diversity_series(cube, direction, include_self)
                reference = oracles.diversity_series_reference(cube, direction, include_self)
                assert list(diversity.provinces) == [s.province_id for s in reference]
                assert oracles.rows_with_none(diversity.values) == [s.values for s in reference]
                assert weekend_deltas(diversity, split) == oracles.weekend_deltas_reference(reference, split)
                try:
                    expected = oracles.series_matrix_reference(reference)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        SeriesMatrix.from_diversity(diversity)
                    continue
                matrix = SeriesMatrix.from_diversity(diversity)
                assert (matrix.provinces, matrix.dropped) == (expected.provinces, expected.dropped)
                assert matrix.values.tobytes() == expected.values.tobytes()
                assert matrix.values.shape == expected.values.shape


class TestDiversitySeries:
    def test_identical_days_identical_values(self):
        ods = [in_flows_od({"S000": 2, "S001": 2}, day=DAY + timedelta(days=i)) for i in range(3)]
        values = series_of(ods, "A", "in")
        assert len(set(values)) == 1

    def test_absent_day_preserved(self):
        ods = [
            in_flows_od({"S000": 2}, day=DAY),
            province_day(DAY + timedelta(days=1), {}),
        ]
        values = series_of(ods, "A", "in")
        assert values[0] == 0.0
        assert values[1] is None

    def test_csv_blank_for_absent(self, tmp_path):
        cube = cube_of([province_day(DAY, {})], TERRITORY_110)
        out = tmp_path / "d.csv"
        cli._write_csv(out, diversity_table([diversity_series(cube, "in")]))
        assert out.read_text().splitlines()[1] == "2020-03-02,A,in,"

    def test_csv_values_are_python_float_reprs(self, tmp_path):
        od = province_day(DAY, {("A", "B"): 30, ("A", "C"): 10, ("B", "C"): 1})
        cube = cube_of([od, province_day(DAY + timedelta(days=1), {})], "ABC")
        diversity = diversity_series(cube, "out")
        expected = repr(flow_diversity([30, 10], 3))
        cli._write_csv(tmp_path / "long.csv", diversity_table([diversity]))
        assert (tmp_path / "long.csv").read_text().splitlines()[1:3] == [
            f"2020-03-02,A,out,{expected}", "2020-03-03,A,out,"
        ]
        cli._write_csv(tmp_path / "wide.csv", diversity_wide_table(diversity))
        assert (tmp_path / "wide.csv").read_text().splitlines() == [
            "province,2020-03-02,2020-03-03", f"A,{expected},", "B,0.0,", "C,,",
        ]


class TestWeekendDeltas:
    def test_constant_series_gives_zero_deltas(self):
        # 2020-03-02 is a Monday; 14 days cover both weekend and weekdays twice
        ods = [in_flows_od({"S000": 1, "S001": 1}, day=DAY + timedelta(days=i)) for i in range(14)]
        assert deltas_of(ods, DAY + timedelta(days=7)) == (0.0, 0.0)

    def test_zero_weekend_diversity_gives_negative_deltas(self):
        ods = []
        for i in range(14):
            day = DAY + timedelta(days=i)
            flows = {"S000": 5} if day.weekday() >= 5 else {"S000": 1, "S001": 1, "S002": 1, "S003": 1}
            ods.append(in_flows_od(flows, day=day))
        weekday = flow_diversity([1, 1, 1, 1], 110)
        assert deltas_of(ods, DAY + timedelta(days=7)) == (-weekday, -weekday)

    def test_single_monday_gives_no_deltas(self):
        # no weekend value in either period, and no value at all before the split
        assert deltas_of([in_flows_od({"S000": 1, "S001": 1}, day=DAY)], DAY) == (None, None)


class TestLockdownScenario:
    def test_weekend_inversion_reproduced(self):
        config = synth.lockdown_scenario_config(
            seed=9, n_provinces=10, municipalities_per_province=4, n_days=42, lockdown_day=21
        )
        plan = synth.generate_plan(config)
        cube = aggregate_to_province(plan.municipality_ods(), plan.territory.muni_to_province)
        delta_pre, delta_post = weekend_deltas(diversity_series(cube, "out"), config.regimes[-1].start_date)
        assert delta_pre >= 0.0
        assert delta_post < 0.0
