"""Command-line surface: smoke path, composition, exit codes, cleanup, determinism."""

import json
from datetime import date

import pytest

import oracles
from mobflow.cli import main
from mobflow.od import list_od_dates, load_daily_od

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


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("scn")
    config = write_config(root / "s.json")
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
        assert main(["aggregate", "--in", str(store)]) == 0
        province_file = store / "od" / "province" / "2020-03-02.csv"
        assert province_file.read_text() == "origin,destination,count\nP1,P2,1\n"

    def test_flows_diversity_cluster_communities_outputs(self, scenario_dir, tmp_path):
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(scenario_dir), "--out", str(store)]) == 0
        assert main(["aggregate", "--in", str(store)]) == 0
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
        assert main(["aggregate", "--in", store]) == 0
        for command in (["flows"], ["diversity"], ["cluster", "--seed", "5"],
                        ["communities", "--seed", "5", "--trials", "2"]):
            assert main([*command, "--in", store, "--out", str(stages)]) == 0
        (report / "summary.json").unlink()
        assert _tree_bytes(stages) == _tree_bytes(report)

    def test_include_self_flow_in_diversity(self, scenario_dir, tmp_path):
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(scenario_dir), "--out", str(store)]) == 0
        assert main(["aggregate", "--in", str(store)]) == 0
        default, with_self = tmp_path / "default", tmp_path / "self"
        assert main(["diversity", "--in", str(store), "--out", str(default)]) == 0
        assert main(["diversity", "--in", str(store), "--out", str(with_self),
                     "--include-self-flow-in-diversity"]) == 0
        for name in ("diversity.csv", "diversity_in_wide.csv", "diversity_out_wide.csv"):
            assert (with_self / name).read_bytes() != (default / name).read_bytes()
        provinces = set(json.loads((store / "territory.json").read_text())["muni_to_province"].values())
        ods = {d: load_daily_od(store, d, "province") for d in list_od_dates(store, "province")}
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
        assert main(["aggregate", "--in", str(store)]) == 0
        out = tmp_path / "prov"
        assert main(["communities", "--in", str(store), "--out", str(out),
                     "--seed", "1", "--trials", "2", "--granularity", "province"]) == 0
        dump = json.loads((out / "partitions.json").read_text())
        nodes = {m for entry in dump for mod in entry["modules"] for m in mod["municipalities"]}
        assert nodes and all(n.startswith("P") for n in nodes)


class TestExitCodes:
    def test_unknown_argument_is_usage_error(self, capsys):
        assert main(["report", "--nope"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_no_command_is_usage_error(self):
        assert main([]) == 1

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
        ],
    )
    def test_out_of_range_option_is_usage_error(self, scenario_dir, tmp_path, capsys, command, option, value):
        source = scenario_dir
        if command == "communities":
            source = tmp_path / "store"
            assert main(["build-od", "--in", str(scenario_dir), "--out", str(source)]) == 0
        out = tmp_path / "out"
        assert main([command, "--in", str(source), "--out", str(out), "--seed", "1", option, value]) == 1
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
        data = tmp_path / "broken"
        data.mkdir()
        (data / "registry.csv").write_text(
            "antenna_id,lat,lon,municipality_id,province_id\nA1,45.0,9.0,M1,P1\n"
        )
        (data / "xdr").mkdir()
        (data / "xdr" / "x.csv").write_text("user_id,timestamp,antenna,kilobytes\nu,1,A1,1\n")
        out = tmp_path / "somewhere"
        # aggregate against a store missing territory.json -> data error, nothing left behind
        rc = main(["build-od", "--in", str(data), "--out", str(out)])
        assert rc == 0
        (out / "territory.json").unlink()
        before = set(out.rglob("*"))
        rc = main(["aggregate", "--in", str(out)])
        assert rc == 2
        assert set(out.rglob("*")) == before
        # a k-range above the 3 provinces fails in clustering, after flows/ and the
        # store's directories were made: every new directory goes, --out included
        config = write_config(tmp_path / "three.json", n_provinces=3, n_days=4, lockdown_day=2)
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "three")]) == 0
        report = ["report", "--in", str(tmp_path / "three"), "--seed", "0", "--trials", "1", "--k-range", "5:9"]
        assert main([*report, "--out", str(tmp_path / "new")]) == 2
        assert not (tmp_path / "new").exists()
        existing = tmp_path / "existing"
        (existing / "flows").mkdir(parents=True)
        (existing / "flows" / "notes.txt").write_text("kept\n")
        before = set(existing.rglob("*"))
        assert main([*report, "--out", str(existing)]) == 2
        assert set(existing.rglob("*")) == before

    def test_failed_aggregate_removes_new_store_files(self, tmp_path):
        data = tmp_path / "data"
        (data / "xdr").mkdir(parents=True)
        (data / "registry.csv").write_text(
            "antenna_id,lat,lon,municipality_id,province_id\n"
            "A1,45.0,9.0,M1,P1\n"
            "A2,45.1,9.1,M2,P2\n"
            "A3,45.2,9.2,M3,P2\n"
        )
        # M1 -> M2 on 2020-03-02 and M1 -> M3 on 2020-03-03, 10:00 and 12:00 Europe/Rome
        (data / "xdr" / "x.csv").write_text(
            "user_id,timestamp,antenna,kilobytes\n"
            "u1,1583139600,A1,5\n"
            "u1,1583146800,A2,5\n"
            "u1,1583226000,A1,5\n"
            "u1,1583233200,A3,5\n"
        )
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(data), "--out", str(store)]) == 0
        # day 2's M3 is unknown to the store's territory: day 1 is aggregated and
        # stored before the data error
        (store / "territory.json").write_text(json.dumps({"muni_to_province": {"M1": "P1", "M2": "P2"}}))
        before = _tree_bytes(store)
        assert main(["aggregate", "--in", str(store)]) == 2
        assert _tree_bytes(store) == before

    def test_province_outside_the_territory_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        (data / "xdr").mkdir(parents=True)
        (data / "registry.csv").write_text(
            "antenna_id,lat,lon,municipality_id,province_id\n"
            "A1,45.0,9.0,M1,P9\n"
            "A2,45.1,9.1,M2,P2\n"
        )
        (data / "xdr" / "x.csv").write_text(
            "user_id,timestamp,antenna,kilobytes\n"
            "u1,1583139600,A1,5\n"
            "u1,1583146800,A2,5\n"
        )
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(data), "--out", str(store)]) == 0
        assert main(["aggregate", "--in", str(store)]) == 0
        # the province ODs name P9, but the edited territory.json moves M1 to P1
        territory = store / "territory.json"
        territory.write_text(json.dumps({"muni_to_province": {"M1": "P1", "M2": "P2"}}))
        capsys.readouterr()
        out = tmp_path / "tables"
        assert main(["flows", "--in", str(store), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "province 'P9'" in err and "territory index" in err
        assert not out.exists() or not any(p.is_file() for p in out.rglob("*"))

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
