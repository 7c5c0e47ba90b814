"""Command-line surface: smoke path, composition, exit codes, cleanup, determinism."""

import json
from datetime import date

import pytest

import oracles
from mobflow import cli
from mobflow.cli import main
from mobflow.od import DailyOD, aggregate_to_province, list_od_dates, load_daily_od, store_daily_od

SUMMARY_FIELDS = {
    "flow_drop_pct",
    "weekend_diversity_delta_pre",
    "weekend_diversity_delta_post",
    "k_star",
    "community_count_pre_median",
    "community_count_post_median",
}


def write_config(path, **overrides):
    payload = {
        "preset": "lockdown",
        "n_provinces": 5,
        "municipalities_per_province": 4,
        "n_days": 10,
        "lockdown_day": 5,
        "inter_trips_per_province": 40,
        "seed": 3,
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return path


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _territory(store):
    return json.loads((store / "territory.json").read_text())["muni_to_province"]


def _assert_no_staging(out, stdout=""):
    """No staging directory is left beside `out`, and no printed line names one."""
    assert not [p.name for p in out.parent.iterdir() if ".staging-" in p.name]
    assert ".staging-" not in stdout


def _two_day_data(root):
    """Registry M1 (P1), M2 and M3 (P2); M1 -> M2 on 2020-03-02 and M1 -> M3 on 2020-03-03."""
    data = root / "data"
    (data / "xdr").mkdir(parents=True)
    (data / "registry.csv").write_text(
        "antenna_id,lat,lon,municipality_id,province_id\n"
        "A1,45.0,9.0,M1,P1\n"
        "A2,45.1,9.1,M2,P2\n"
        "A3,45.2,9.2,M3,P2\n"
    )
    # 10:00 and 12:00 Europe/Rome on each day
    (data / "xdr" / "x.csv").write_text(
        "user_id,timestamp,antenna,kilobytes\n"
        "u1,1583139600,A1,5\n"
        "u1,1583146800,A2,5\n"
        "u1,1583226000,A1,5\n"
        "u1,1583233200,A3,5\n"
    )
    return data


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("scn")
    config = write_config(root / "s.json")
    assert main(["synth", "--config", str(config), "--out", str(root / "data")]) == 0
    return root / "data"


@pytest.fixture(scope="module")
def three_dir(tmp_path_factory):
    """A 4-day, 3-province scenario: another territory and fewer days than scenario_dir."""
    root = tmp_path_factory.mktemp("three")
    config = write_config(root / "three.json", n_provinces=3, n_days=4, lockdown_day=2)
    assert main(["synth", "--config", str(config), "--out", str(root / "data")]) == 0
    return root / "data"


class TestSmokePath:
    def test_synth_then_report_writes_summary(self, scenario_dir, tmp_path):
        out = tmp_path / "results"
        rc = main(["report", "--in", str(scenario_dir), "--out", str(out), "--seed", "5",
                   "--trials", "2"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert SUMMARY_FIELDS <= set(summary)
        assert summary["flow_drop_pct"] == pytest.approx(60.0, abs=5.0)

    def test_stagewise_pipeline_matches_module_example(self, tmp_path):
        # hand-built scenario: one XDR movement with a confirmed dwell
        data = tmp_path / "data"
        (data / "xdr").mkdir(parents=True)
        (data / "registry.csv").write_text(
            "antenna_id,lat,lon,municipality_id,province_id\n"
            "A1,45.0,9.0,M1,P1\n"
            "A2,45.1,9.1,M2,P2\n"
        )
        # 2020-03-02 10:00 and 12:00 Europe/Rome
        (data / "xdr" / "day.csv").write_text(
            "user_id,timestamp,antenna,kilobytes\n"
            "u1,1583139600,A1,5\n"
            "u1,1583146800,A2,5\n"
        )
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(data), "--out", str(store)]) == 0
        od_file = store / "od" / "municipality" / "2020-03-02.csv"
        assert od_file.read_text() == "origin,destination,count\nM1,M2,1\n"
        out = tmp_path / "tables"
        assert main(["flows", "--in", str(store), "--out", str(out)]) == 0
        header = "date,in,out,self,in_norm,out_norm,self_norm"
        assert (out / "flows" / "P1.csv").read_text().splitlines() == [header, "2020-03-02,0,1,0,0.0,1.0,0.0"]
        assert (out / "flows" / "P2.csv").read_text().splitlines() == [header, "2020-03-02,1,0,0,1.0,0.0,0.0"]
        assert sorted(p.name for p in (store / "od").iterdir()) == ["municipality"]

    def test_flows_diversity_cluster_communities_outputs(self, scenario_dir, tmp_path):
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(scenario_dir), "--out", str(store)]) == 0
        out = tmp_path / "tables"
        assert main(["flows", "--in", str(store), "--out", str(out)]) == 0
        assert (out / "flows" / "P000.csv").exists()
        assert main(["diversity", "--in", str(store), "--out", str(out)]) == 0
        assert (out / "diversity.csv").exists()
        assert (out / "diversity_in_wide.csv").exists()
        assert main(["cluster", "--in", str(store), "--out", str(out),
                     "--seed", "1", "--k-range", "2:4"]) == 0
        assert (out / "cluster_out.json").exists()
        assert main(["communities", "--in", str(store), "--out", str(out),
                     "--seed", "1", "--trials", "2", "--provinces", "P000"]) == 0
        assert (out / "communities.csv").exists()
        assert (out / "partitions_P000.json").exists()
        dump = json.loads((out / "partitions_P000.json").read_text())
        munis = {m for entry in dump for mod in entry["modules"] for m in mod["municipalities"]}
        assert munis and all(m.startswith("M000") for m in munis)

    def test_stagewise_chain_writes_the_report_tables(self, scenario_dir, tmp_path):
        report = tmp_path / "report"
        assert main(["report", "--in", str(scenario_dir), "--out", str(report),
                     "--seed", "5", "--trials", "2"]) == 0
        stages = tmp_path / "stages"
        store = str(stages / "od-store")
        assert main(["build-od", "--in", str(scenario_dir), "--out", store]) == 0
        for command in (["flows"], ["diversity"], ["cluster", "--seed", "5"],
                        ["communities", "--seed", "5", "--trials", "2"]):
            assert main([*command, "--in", store, "--out", str(stages)]) == 0
        (report / "summary.json").unlink()
        assert _tree_bytes(stages) == _tree_bytes(report)

    def test_include_self_flow_in_diversity(self, scenario_dir, tmp_path):
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(scenario_dir), "--out", str(store)]) == 0
        default, with_self = tmp_path / "default", tmp_path / "self"
        assert main(["diversity", "--in", str(store), "--out", str(default)]) == 0
        assert main(["diversity", "--in", str(store), "--out", str(with_self),
                     "--include-self-flow-in-diversity"]) == 0
        for name in ("diversity.csv", "diversity_in_wide.csv", "diversity_out_wide.csv"):
            assert (with_self / name).read_bytes() != (default / name).read_bytes()
        territory = _territory(store)
        provinces = set(territory.values())
        ods = {
            d: aggregate_to_province(load_daily_od(store, d, "municipality"), territory)
            for d in list_od_dates(store, "municipality")
        }
        rows = (with_self / "diversity.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * len(provinces) * len(ods)
        for row in rows:
            day, province, direction, value = row.split(",")
            expected = oracles.flow_diversity(
                ods[date.fromisoformat(day)], province, direction, len(provinces), include_self=True
            )
            assert value == ("" if expected is None else repr(expected))

    def test_communities_on_province_graphs(self, scenario_dir, tmp_path):
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(scenario_dir), "--out", str(store)]) == 0
        out = tmp_path / "prov"
        assert main(["communities", "--in", str(store), "--out", str(out),
                     "--seed", "1", "--trials", "2", "--granularity", "province"]) == 0
        dump = json.loads((out / "partitions.json").read_text())
        nodes = {m for entry in dump for mod in entry["modules"] for m in mod["municipalities"]}
        assert nodes and all(n.startswith("P") for n in nodes)

    def test_province_filter_on_province_graphs(self, scenario_dir, tmp_path):
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(scenario_dir), "--out", str(store)]) == 0
        out = tmp_path / "prov"
        assert main(["communities", "--in", str(store), "--out", str(out), "--seed", "1", "--trials", "2",
                     "--granularity", "province", "--provinces", "P000,P001"]) == 0
        dump = json.loads((out / "partitions.json").read_text())
        filtered = json.loads((out / "partitions_P000_P001.json").read_text())
        assert len(filtered) == len(dump)
        for day, kept in zip(dump, filtered):
            assert kept["modules"], f"no module kept on {kept['date']}"
            expected = [
                {"id": mod["id"], "municipalities": [n for n in mod["municipalities"] if n in {"P000", "P001"}]}
                for mod in day["modules"]
            ]
            assert kept["modules"] == [mod for mod in expected if mod["municipalities"]]

    def test_attach_registry_adds_flowless_municipality_as_singleton(self, tmp_path):
        store = tmp_path / "store"
        day1, day2 = date(2020, 3, 2), date(2020, 3, 3)
        both_ways = {("M1", "M2"): 5, ("M2", "M1"): 5}
        with_m3 = {**both_ways, ("M2", "M3"): 1, ("M3", "M2"): 1}
        store_daily_od(DailyOD.from_cells(day1, "municipality", with_m3), store)
        store_daily_od(DailyOD.from_cells(day2, "municipality", both_ways), store)  # M3 has no flow
        territory = {"M1": "P1", "M2": "P1", "M3": "P2"}
        (store / "territory.json").write_text(json.dumps({"muni_to_province": territory}))
        runs = {}
        for name, flag in (("plain", []), ("attached", ["--attach-registry"])):
            out = tmp_path / name
            assert main(["communities", "--in", str(store), "--out", str(out), "--seed", "1",
                         "--trials", "2", *flag]) == 0
            rows = (out / "communities.csv").read_text().splitlines()[1:]
            counts = [int(row.split(",")[1]) for row in rows]
            runs[name] = counts, json.loads((out / "partitions.json").read_text())
        (plain, _), (attached, dump) = runs["plain"], runs["attached"]
        assert attached[0] == plain[0]
        assert attached[1] == plain[1] + 1
        assert [mod["municipalities"] for mod in dump[1]["modules"]].count(["M3"]) == 1

    def test_stale_store_files_do_not_reach_the_tables(self, scenario_dir, tmp_path):
        # scenario B: the same territory and dates as scenario_dir, other trips
        config = write_config(tmp_path / "b.json", seed=4)
        other = tmp_path / "other"
        assert main(["synth", "--config", str(config), "--out", str(other)]) == 0
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(scenario_dir), "--out", str(store)]) == 0
        # province matrices of the first scenario, as an older version stored them
        territory = _territory(store)
        for day in list_od_dates(store, "municipality"):
            store_daily_od(aggregate_to_province(load_daily_od(store, day, "municipality"), territory), store)
        assert main(["build-od", "--in", str(other), "--out", str(store)]) == 0
        fresh = tmp_path / "fresh"
        assert main(["build-od", "--in", str(other), "--out", str(fresh)]) == 0
        tables = {}
        for source in (store, fresh):
            out = tmp_path / f"tables_{source.name}"
            for command in (["flows"], ["diversity"], ["cluster", "--seed", "5", "--k-range", "2:4"]):
                assert main([*command, "--in", str(source), "--out", str(out)]) == 0
            tables[source.name] = _tree_bytes(out)
        assert tables["store"] == tables["fresh"]
        assert len(tables["fresh"]) == 5 + 3 + 4  # one flows/ file per province, diversity, cluster


class TestExitCodes:
    def test_unknown_argument_is_usage_error(self, capsys):
        assert main(["report", "--nope"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_aggregate_is_not_a_command(self, scenario_dir, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(scenario_dir), "--out", str(store)]) == 0
        before = _tree_bytes(store)
        assert main(["aggregate", "--in", str(store)]) == 1
        assert "invalid choice: 'aggregate'" in capsys.readouterr().err
        assert _tree_bytes(store) == before

    def test_unknown_province_filter_is_usage_error(self, scenario_dir, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(scenario_dir), "--out", str(store)]) == 0
        out = tmp_path / "out"
        rc = main(["communities", "--in", str(store), "--out", str(out), "--seed", "1",
                   "--trials", "1", "--provinces", "P000,P999"])
        assert rc == 1
        assert "P999" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_k_range_is_usage_error(self, scenario_dir, tmp_path, capsys):
        store = tmp_path / "store"
        main(["build-od", "--in", str(scenario_dir), "--out", str(store)])
        rc = main(["cluster", "--in", str(store), "--out", str(tmp_path / "o"),
                   "--seed", "1", "--k-range", "nope"])
        assert rc == 1

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("communities", "--tau", "-0.5"),
            ("communities", "--tau", "nan"),
            ("communities", "--trials", "0"),
            ("communities", "--trials", "-3"),
            ("communities", "--window", "0"),
            ("report", "--tau", "nan"),
            ("report", "--trials", "0"),
            ("report", "--dwell-seconds", "-1"),
            ("build-od", "--dwell-seconds", "-100"),
        ],
    )
    def test_out_of_range_option_is_usage_error(self, scenario_dir, tmp_path, capsys, command, option, value):
        source = scenario_dir
        if command == "communities":
            source = tmp_path / "store"
            assert main(["build-od", "--in", str(scenario_dir), "--out", str(source)]) == 0
        out = tmp_path / "out"
        seed = [] if command == "build-od" else ["--seed", "1"]
        assert main([command, "--in", str(source), "--out", str(out), *seed, option, value]) == 1
        assert f"argument {option}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_registry_is_data_error(self, tmp_path, capsys):
        rc = main(["build-od", "--in", str(tmp_path / "nothing"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_store_is_data_error(self, tmp_path):
        rc = main(["flows", "--in", str(tmp_path / "void"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_failed_command_removes_new_outputs(self, scenario_dir, tmp_path):
        config = write_config(tmp_path / "three.json", n_provinces=3, n_days=4, lockdown_day=2)
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "three")]) == 0
        # cluster with a k-range above the 3 provinces fails after making --out,
        # which goes again; the store it read is left as it was
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(tmp_path / "three"), "--out", str(store)]) == 0
        before = _tree_bytes(store)
        cluster = ["cluster", "--in", str(store), "--seed", "0", "--k-range", "5:9"]
        assert main([*cluster, "--out", str(tmp_path / "tables")]) == 2
        assert not (tmp_path / "tables").exists()
        assert _tree_bytes(store) == before
        # report fails the same way in clustering, after flows/ and the store's
        # directories were made: every new directory goes, --out included
        report = ["report", "--in", str(tmp_path / "three"), "--seed", "0", "--trials", "1", "--k-range", "5:9"]
        assert main([*report, "--out", str(tmp_path / "new")]) == 2
        assert not (tmp_path / "new").exists()
        existing = tmp_path / "existing"
        (existing / "flows").mkdir(parents=True)
        (existing / "flows" / "notes.txt").write_text("kept\n")
        before = set(existing.rglob("*"))
        assert main([*report, "--out", str(existing)]) == 2
        assert set(existing.rglob("*")) == before
        _assert_no_staging(existing)

    def test_unmapped_municipality_is_data_error(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(_two_day_data(tmp_path)), "--out", str(store)]) == 0
        # day 2's M3 is missing from the edited territory; day 1 aggregates first
        (store / "territory.json").write_text(json.dumps({"muni_to_province": {"M1": "P1", "M2": "P2"}}))
        before = _tree_bytes(store)
        existing = tmp_path / "existing"
        existing.mkdir()
        (existing / "notes.txt").write_text("kept\n")
        capsys.readouterr()
        for out in (tmp_path / "new", existing):
            assert main(["flows", "--in", str(store), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "municipality 'M3'" in err and "territory index" in err
        assert not (tmp_path / "new").exists()
        assert _tree_bytes(existing) == {"notes.txt": b"kept\n"}
        assert _tree_bytes(store) == before

    def test_edited_territory_is_the_mapping_used(self, tmp_path):
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(_two_day_data(tmp_path)), "--out", str(store)]) == 0
        # move M3 from P2 to a new province P3
        (store / "territory.json").write_text(
            json.dumps({"muni_to_province": {"M1": "P1", "M2": "P2", "M3": "P3"}})
        )
        out = tmp_path / "tables"
        assert main(["flows", "--in", str(store), "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "flows").iterdir()) == ["P1.csv", "P2.csv", "P3.csv"]
        rows = {p: (out / "flows" / f"{p}.csv").read_text().splitlines()[1:] for p in ("P2", "P3")}
        # date, in, out, self
        assert [row.split(",")[:4] for row in rows["P2"]] == [
            ["2020-03-02", "1", "0", "0"], ["2020-03-03", "0", "0", "0"]
        ]
        assert [row.split(",")[:4] for row in rows["P3"]] == [
            ["2020-03-02", "0", "0", "0"], ["2020-03-03", "1", "0", "0"]
        ]

    def test_synth_without_seed_is_usage_error(self, tmp_path):
        config = tmp_path / "c.json"
        payload = {"preset": "lockdown", "n_provinces": 3, "municipalities_per_province": 2,
                   "n_days": 4, "lockdown_day": 2}
        config.write_text(json.dumps(payload))
        rc = main(["synth", "--config", str(config), "--out", str(tmp_path / "d")])
        assert rc == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("antennas_per_municipality", 0),
            ("intra_trips_per_pair", -3),
            ("cdr_fraction", 7),
            ("intra_trips_per_pair", 2.5),
            ("municipalities_per_province", 2.5),
            ("n_days", 2.0),
        ],
    )
    def test_synth_out_of_range_config_is_data_error(self, tmp_path, capsys, field, value):
        config = tmp_path / "c.json"
        payload = {"preset": "lockdown", "seed": 0, "n_days": 2, "lockdown_day": 1, field: value}
        config.write_text(json.dumps(payload))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "d").exists() or not any(p.is_file() for p in (tmp_path / "d").rglob("*"))


class TestOutOfRangeTimestamps:
    """An event time that `datetime` cannot hold is one malformed row, not a failed run."""

    XDR_ROWS = (
        "user_id,timestamp,antenna,kilobytes\n"
        "u1,1583139600,A1,5\n"  # M1 -> M2 on 2020-03-02, 10:00 and 12:00 Europe/Rome
        "u1,1583146800,A2,5\n"
    )

    def _build_od(self, tmp_path, capsys, kind, rows):
        data = tmp_path / "data"
        (data / kind).mkdir(parents=True)
        (data / "registry.csv").write_text(
            "antenna_id,lat,lon,municipality_id,province_id\n"
            "A1,45.0,9.0,M1,P1\n"
            "A2,45.1,9.1,M2,P2\n"
        )
        (data / kind / "r.csv").write_text(rows)
        store = tmp_path / "store"
        capsys.readouterr()
        assert main(["build-od", "--in", str(data), "--out", str(store)]) == 0
        assert list_od_dates(store, "municipality") == [date(2020, 3, 2)]
        assert load_daily_od(store, date(2020, 3, 2), "municipality").cells == {("M1", "M2"): 1}
        return capsys.readouterr().err

    @pytest.mark.parametrize("ts", ["99999999999999999999", "99999999999999"])
    def test_xdr_epoch_beyond_datetime(self, tmp_path, capsys, ts):
        err = self._build_od(tmp_path, capsys, "xdr", self.XDR_ROWS + f"u3,{ts},A1,5\n")
        assert "r.csv: 1 malformed, 0 unknown antenna" in err

    def test_cdr_end_time_beyond_datetime(self, tmp_path, capsys):
        rows = (
            "caller_id,callee_id,timestamp,antenna_start,antenna_end,duration_min\n"
            "u1,u2,1583139600,A1,A2,120\n"
            "u3,u2,1583139600,A1,A2,99999999999999999999\n"
        )
        err = self._build_od(tmp_path, capsys, "cdr", rows)
        assert "r.csv: 1 malformed, 0 unknown antenna" in err


class TestStagedOutputs:
    """Each command's top-level outputs replace their namesakes under --out, only on success."""

    def test_synth_rerun_replaces_the_record_directories(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--config", str(write_config(tmp_path / "a.json")), "--out", str(data)]) == 0
        small = write_config(tmp_path / "b.json", n_provinces=3, n_days=4, lockdown_day=2)
        assert main(["synth", "--config", str(small), "--out", str(data)]) == 0
        assert len(list((data / "cdr").iterdir())) == 4
        assert len(list((data / "xdr").iterdir())) == 4
        capsys.readouterr()
        assert main(["build-od", "--in", str(data), "--out", str(tmp_path / "store")]) == 0
        stdout = capsys.readouterr().out
        assert ", 4 days stored, 0 records rejected" in stdout
        _assert_no_staging(data, stdout)

    def test_build_od_rerun_replaces_the_store(self, scenario_dir, three_dir, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(scenario_dir), "--out", str(store)]) == 0
        assert main(["build-od", "--in", str(three_dir), "--out", str(store)]) == 0
        fresh = tmp_path / "fresh"
        assert main(["build-od", "--in", str(three_dir), "--out", str(fresh)]) == 0
        assert list_od_dates(store, "municipality") == list_od_dates(fresh, "municipality")
        assert len(list_od_dates(store, "municipality")) == 4
        assert oracles.tree_digest(store) == oracles.tree_digest(fresh)
        capsys.readouterr()
        assert main(["flows", "--in", str(store), "--out", str(tmp_path / "tables")]) == 0
        stdout = capsys.readouterr().out
        assert "3 provinces x 4 days" in stdout
        _assert_no_staging(store, stdout)

    def test_flows_rerun_replaces_the_flows_directory(self, scenario_dir, three_dir, tmp_path, capsys):
        out = tmp_path / "tables"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        for source in (scenario_dir, three_dir):
            store = tmp_path / f"store_{source.parent.name}"
            assert main(["build-od", "--in", str(source), "--out", str(store)]) == 0
            assert main(["flows", "--in", str(store), "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "flows").iterdir()) == ["P000.csv", "P001.csv", "P002.csv"]
        assert (out / "notes.txt").read_text() == "kept\n"  # an entry no command wrote stays
        stdout = capsys.readouterr().out
        assert f"-> {out / 'flows'}" in stdout
        _assert_no_staging(out, stdout)

    def test_failed_report_leaves_the_result_tree(self, scenario_dir, three_dir, tmp_path, capsys):
        out = tmp_path / "R"
        assert main(["report", "--in", str(scenario_dir), "--out", str(out), "--seed", "0", "--trials", "1"]) == 0
        before = oracles.tree_digest(out)
        _assert_no_staging(out, capsys.readouterr().out)
        rc = main(["report", "--in", str(three_dir), "--out", str(out), "--seed", "0", "--trials", "1",
                   "--k-range", "5:9"])
        assert rc == 2
        assert "k_range" in capsys.readouterr().err
        assert oracles.tree_digest(out) == before
        _assert_no_staging(out)

    def test_unexpected_error_propagates_and_leaves_the_result_tree(
        self, scenario_dir, three_dir, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "R"
        assert main(["report", "--in", str(scenario_dir), "--out", str(out), "--seed", "0", "--trials", "1"]) == 0
        before = oracles.tree_digest(out)
        capsys.readouterr()

        def broken(*args, **kwargs):
            raise RuntimeError("stage failed")

        monkeypatch.setattr(cli.community_mod, "community_count_series", broken)
        with pytest.raises(RuntimeError, match="stage failed"):
            main(["report", "--in", str(three_dir), "--out", str(out), "--seed", "0", "--trials", "1"])
        assert oracles.tree_digest(out) == before
        _assert_no_staging(out, capsys.readouterr().out)


class TestDeterminism:
    def test_report_twice_byte_identical(self, scenario_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main(["report", "--in", str(scenario_dir), "--out", str(out),
                       "--seed", "17", "--trials", "2"])
            assert rc == 0
            outs.append(oracles.tree_digest(out))
        assert outs[0] == outs[1]

    def test_explicit_config_roundtrip(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "n_provinces": 3,
            "municipalities_per_province": 2,
            "start_date": "2020-02-03",
            "n_days": 4,
            "seed": 2,
            "inter_trips_per_province": 10,
            "regimes": [
                {"start_date": "2020-02-03"},
                {"start_date": "2020-02-05", "flow_scale": 0.5},
            ],
        }))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == 0
        truth = json.loads((tmp_path / "d" / "ground_truth.json").read_text())
        assert truth["regimes"][1]["flow_scale"] == 0.5
