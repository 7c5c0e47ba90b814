"""Flow volume series: definitions, normalization, the province cube, and the lockdown scenario."""

from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobflow import synth
from mobflow.flows import compute_flows, write_flow_series_csv
from mobflow.od import DailyOD, ProvinceCube, TerritoryIndex, UnknownProvinceError

DAY = date(2020, 3, 2)
PROVINCES = [f"P{i}" for i in range(6)]


def province_od(cells, day=DAY):
    return DailyOD.from_cells(day, "province", cells)


def flows_of(ods, province, provinces=PROVINCES):
    by_province = {s.province_id: s for s in compute_flows(ProvinceCube.from_ods(ods, provinces))}
    return by_province[province]


class TestComputeFlows:
    def test_in_out_self_definitions(self):
        od = province_od({("P", "P"): 7, ("P", "Q"): 3, ("R", "P"): 2})
        series = flows_of([od], "P", ["P", "Q", "R"])
        assert series.out_flow == [3]
        assert series.in_flow == [2]
        assert series.self_flow == [7]

    def test_one_series_per_province_in_province_order(self):
        od = province_od({("B", "A"): 1})
        cube = ProvinceCube.from_ods([od], {"C", "A", "B"})
        assert [s.province_id for s in compute_flows(cube)] == ["A", "B", "C"]
        assert [s.in_flow for s in compute_flows(cube)] == [[1], [0], [0]]

    def test_values_are_python_numbers(self):
        series = flows_of([province_od({("P0", "P1"): 4})], "P0")
        assert type(series.out_flow[0]) is int
        assert type(series.out_norm[0]) is float

    def test_all_zero_days_normalize_to_zero(self):
        ods = [province_od({}, DAY), province_od({}, DAY + timedelta(days=1))]
        series = flows_of(ods, "P0")
        assert series.in_norm == [0.0, 0.0]
        assert series.out_norm == [0.0, 0.0]
        assert series.self_norm == [0.0, 0.0]

    def test_no_days(self):
        series = flows_of([], "P0")
        assert series.dates == series.in_flow == series.in_norm == []

    def test_unknown_province_rejected_with_index(self):
        index = TerritoryIndex(muni_to_province={"M1": "P", "M2": "Q"})
        od = province_od({("ZZ", "P"): 1})  # adds to P's in-flow unless rejected
        with pytest.raises(UnknownProvinceError, match="'ZZ'"):
            ProvinceCube.from_ods([od], index.provinces)

    def test_duplicate_dates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ProvinceCube.from_ods([province_od({}), province_od({})], PROVINCES)

    def test_csv_export_schema(self, tmp_path):
        od = province_od({("P", "Q"): 3, ("Q", "P"): 1, ("P", "P"): 5})
        series = flows_of([od], "P", ["P", "Q"])
        out = tmp_path / "flows.csv"
        write_flow_series_csv(series, out)
        header, row = out.read_text().splitlines()
        assert header == "date,in,out,self,in_norm,out_norm,self_norm"
        assert row.startswith("2020-03-02,1,3,5,")


class TestProvinceCube:
    def test_dense_counts(self):
        od = province_od({("B", "A"): 2, ("A", "A"): 5})
        cube = ProvinceCube.from_ods([od], ["B", "A"])
        assert cube.provinces == ("A", "B")
        assert cube.dates == (DAY,)
        assert cube.counts.tolist() == [[[5, 0], [2, 0]]]
        assert not cube.counts.flags.writeable

    def test_unknown_destination_rejected(self):
        od = province_od({("P0", "ZZ"): 1})
        with pytest.raises(UnknownProvinceError, match="'ZZ'"):
            ProvinceCube.from_ods([od], PROVINCES)

    def test_municipality_matrices_rejected(self):
        od = DailyOD.from_cells(DAY, "municipality", {("M1", "M2"): 1})
        with pytest.raises(ValueError, match="province-granularity"):
            ProvinceCube.from_ods([od], PROVINCES)


daily_cells = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.integers(1, 100),
    max_size=20,
)


def _as_ods(cell_maps):
    return [
        province_od(
            {(f"P{o}", f"P{d}"): c for (o, d), c in cells.items()},
            DAY + timedelta(days=i),
        )
        for i, cells in enumerate(cell_maps)
    ]


class TestFlowProperties:
    @given(st.lists(daily_cells, min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_total_out_equals_total_in_equals_inter_province(self, cell_maps):
        ods = _as_ods(cell_maps)
        cube = ProvinceCube.from_ods(ods, PROVINCES)
        series = compute_flows(cube)
        inter = (cube.counts.sum(axis=(1, 2)) - cube.counts.trace(axis1=1, axis2=2)).tolist()
        for day_idx, od in enumerate(ods):
            out_sum = sum(s.out_flow[day_idx] for s in series)
            in_sum = sum(s.in_flow[day_idx] for s in series)
            direct = sum(c for (o, d), c in od.cells.items() if o != d)
            assert out_sum == in_sum == inter[day_idx] == direct

    @given(st.lists(daily_cells, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_normalized_bounds_and_argmax(self, cell_maps):
        series = flows_of(_as_ods(cell_maps), "P0")
        for raw, norm in [
            (series.in_flow, series.in_norm),
            (series.out_flow, series.out_norm),
            (series.self_flow, series.self_norm),
        ]:
            assert all(0.0 <= v <= 1.0 for v in norm)
            if any(raw):
                assert max(norm) == 1.0
                assert norm.index(max(norm)) == raw.index(max(raw))

    @given(daily_cells, st.permutations(list(range(1, 6))))
    @settings(max_examples=100, deadline=None)
    def test_self_flow_invariant_under_relabeling_others(self, cells, perm):
        od = province_od({(f"P{o}", f"P{d}"): c for (o, d), c in cells.items()})
        # keep the probed province fixed, permute the other five among themselves
        relabel = {"P0": "P0"} | {f"P{i}": f"P{p}" for i, p in zip(range(1, 6), perm)}
        seen = {}
        for (o, d), c in od.cells.items():
            key = (relabel[o], relabel[d])
            seen[key] = seen.get(key, 0) + c
        relabeled = province_od(seen)
        assert flows_of([od], "P0").self_flow == flows_of([relabeled], "P0").self_flow


class TestLockdownScenario:
    def test_out_flow_drops_by_planted_factor(self):
        config = synth.lockdown_scenario_config(
            seed=5, n_provinces=8, municipalities_per_province=3, n_days=30, lockdown_day=15
        )
        plan = synth.generate_plan(config)
        ods = plan.province_ods()
        split = config.regimes[-1].start_date
        series = flows_of(ods, "P000", plan.territory_index().provinces)
        pre = [v for d, v in zip(series.dates, series.out_flow) if d < split]
        post = [v for d, v in zip(series.dates, series.out_flow) if d >= split]
        ratio = (sum(post) / len(post)) / (sum(pre) / len(pre))
        assert ratio == pytest.approx(0.4, abs=0.05)
        # normalized series inherit the same ratio: the max sits pre-lockdown
        norm_pre = [v for d, v in zip(series.dates, series.out_norm) if d < split]
        norm_post = [v for d, v in zip(series.dates, series.out_norm) if d >= split]
        norm_ratio = (sum(norm_post) / len(norm_post)) / (sum(norm_pre) / len(norm_pre))
        assert norm_ratio == pytest.approx(ratio, abs=1e-9)
