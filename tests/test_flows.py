"""Flow volume series: definitions, normalization, the province cube, and the lockdown scenario."""

from datetime import date, timedelta
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobflow import cli, synth
from mobflow.flows import compute_flows, flow_tables
from mobflow.od import UnmappedMunicipalityError, aggregate_to_province

from oracles import cube_of, from_cells, province_cube, province_day

DAY = date(2020, 3, 2)
PROVINCES = [f"P{i}" for i in range(6)]
SERIES = ("in_flow", "out_flow", "self_flow", "in_norm", "out_norm", "self_norm")


def province_od(cells, day=DAY):
    return province_day(day, cells)


def flows_of(ods, province, provinces=PROVINCES):
    """`row_of` the cube of province matrices over `provinces`."""
    return row_of(cube_of(ods, provinces), province)


def row_of(cube, province):
    """One province's row of every flow array of the cube, as lists."""
    flows = compute_flows(cube)
    row = flows.provinces.index(province)
    rows = {name: getattr(flows, name)[row].tolist() for name in SERIES}
    return SimpleNamespace(dates=list(flows.dates), **rows)


class TestComputeFlows:
    def test_in_out_self_definitions(self):
        od = province_od({("P", "P"): 7, ("P", "Q"): 3, ("R", "P"): 2})
        series = flows_of([od], "P", ["P", "Q", "R"])
        assert series.out_flow == [3]
        assert series.in_flow == [2]
        assert series.self_flow == [7]

    def test_one_series_per_province_in_province_order(self):
        od = province_od({("B", "A"): 1})
        cube = cube_of([od], {"C", "A", "B"})
        flows = compute_flows(cube)
        assert flows.provinces == ("A", "B", "C")
        assert flows.dates == (DAY,)
        assert flows.in_flow.tolist() == [[1], [0], [0]]

    def test_values_are_python_numbers(self):
        flows = compute_flows(cube_of([province_od({("P0", "P1"): 4})], PROVINCES))
        for name in SERIES:
            assert getattr(flows, name).shape == (len(PROVINCES), 1)
            assert getattr(flows, name).dtype == (np.int64 if name.endswith("flow") else np.float64)
        # what the CSV writer formats: Python numbers, never numpy scalars
        assert type(flows.out_flow.tolist()[0][0]) is int
        assert type(flows.out_norm.tolist()[0][0]) is float

    def test_all_zero_days_normalize_to_zero(self):
        ods = [province_od({}, DAY), province_od({}, DAY + timedelta(days=1))]
        series = flows_of(ods, "P0")
        assert series.in_norm == [0.0, 0.0]
        assert series.out_norm == [0.0, 0.0]
        assert series.self_norm == [0.0, 0.0]

    def test_no_days(self):
        series = flows_of([], "P0")
        assert series.dates == series.in_flow == series.in_norm == []
        assert compute_flows(cube_of([], PROVINCES)).self_norm.shape == (len(PROVINCES), 0)

    def test_unknown_province_rejected_with_index(self):
        mapping = {"M1": "P", "M2": "Q"}
        od = from_cells(DAY, {("ZZ", "M1"): 1, ("M2", "M1"): 2})
        with pytest.raises(UnmappedMunicipalityError, match="'ZZ' on 2020-03-02"):
            aggregate_to_province([od], mapping)
        # mapped, the same cell adds to P's in-flow: only the error keeps it out
        assert row_of(aggregate_to_province([od], mapping | {"ZZ": "R"}), "P").in_flow == [3]

    def test_duplicate_dates_rejected(self):
        with pytest.raises(ValueError, match="duplicate dates in OD sequence: 2020-03-02$"):
            cube_of([province_od({}), province_od({})], PROVINCES)

    def test_csv_export_schema(self, tmp_path):
        od = province_od({("P", "Q"): 3, ("Q", "P"): 1, ("P", "P"): 5})
        for province, rows in flow_tables(compute_flows(cube_of([od], ["P", "Q"]))):
            cli._write_csv(tmp_path / f"{province}.csv", rows)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["P.csv", "Q.csv"]
        header, row = (tmp_path / "P.csv").read_text().splitlines()
        assert header == "date,in,out,self,in_norm,out_norm,self_norm"
        assert row == "2020-03-02,1,3,5,1.0,1.0,1.0"
        assert (tmp_path / "Q.csv").read_text().splitlines()[1] == "2020-03-02,3,1,0,1.0,1.0,0.0"


class TestProvinceCube:
    def test_dense_counts(self):
        od = province_od({("B", "A"): 2, ("A", "A"): 5})
        cube = cube_of([od], ["B", "A"])
        assert cube.provinces == ("A", "B")
        assert cube.dates == (DAY,)
        assert cube.counts.tolist() == [[[5, 0], [2, 0]]]
        assert not cube.counts.flags.writeable

    def test_unknown_destination_rejected(self):
        od = from_cells(DAY, {("M1", "ZZ"): 1, ("M1", "M2"): 4})
        with pytest.raises(UnmappedMunicipalityError, match="'ZZ' on 2020-03-02"):
            aggregate_to_province([od], {"M1": "P0", "M2": "P1"})
        # mapped, the same cell adds to P0's out-flow: only the error keeps it out
        assert row_of(aggregate_to_province([od], {"M1": "P0", "M2": "P1", "ZZ": "P2"}), "P0").out_flow == [5]

    def test_counts_keep_the_ods_date_order(self):
        days = [DAY + timedelta(days=1), DAY]  # not in calendar order
        ods = [
            from_cells(days[0], {("M2", "M1"): 2, ("M1", "M2"): 1, ("M1", "M3"): 4}),
            from_cells(days[1], {}),
        ]
        cube = aggregate_to_province(ods, {"M1": "A", "M2": "A", "M3": "B", "M4": "C"})
        assert cube.dates == tuple(days)
        want = province_cube([(days[0], {("A", "A"): 3, ("A", "B"): 4}), (days[1], {})], "ABC")
        assert np.array_equal(cube.counts, want)


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
        cube = cube_of(ods, PROVINCES)
        flows = compute_flows(cube)
        inter = (cube.counts.sum(axis=(1, 2)) - cube.counts.trace(axis1=1, axis2=2)).tolist()
        for day_idx, od in enumerate(ods):
            out_sum = sum(flows.out_flow[:, day_idx].tolist())
            in_sum = sum(flows.in_flow[:, day_idx].tolist())
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
        split = config.regimes[-1].start_date
        series = row_of(aggregate_to_province(plan.municipality_ods(), plan.territory.muni_to_province), "P000")
        pre = [v for d, v in zip(series.dates, series.out_flow) if d < split]
        post = [v for d, v in zip(series.dates, series.out_flow) if d >= split]
        ratio = (sum(post) / len(post)) / (sum(pre) / len(pre))
        assert ratio == pytest.approx(0.4, abs=0.05)
        # normalized series inherit the same ratio: the max sits pre-lockdown
        norm_pre = [v for d, v in zip(series.dates, series.out_norm) if d < split]
        norm_post = [v for d, v in zip(series.dates, series.out_norm) if d >= split]
        norm_ratio = (sum(norm_post) / len(norm_post)) / (sum(norm_pre) / len(norm_pre))
        assert norm_ratio == pytest.approx(ratio, abs=1e-9)
