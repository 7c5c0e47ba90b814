"""Command-line surface: smoke path, composition, exit codes, cleanup, determinism."""

import argparse
import json
import os
import pickle
import re
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path
from zoneinfo import ZoneInfo

import pytest

import oracles
from mobflow import cli, community, synth
from mobflow.cli import main
from mobflow.od import list_od_dates, load_daily_od

# Options no command takes: detection runs on each municipality day alone, at a
# fixed teleportation rate; diversity always leaves self-flows out;
# partitions.json is the one partition dump; and the dwell and the k range
# searched are constants.
REMOVED_OPTIONS = {
    "--tau", "--window", "--granularity", "--attach-registry", "--include-self-flow-in-diversity", "--provinces",
    "--dwell-seconds", "--k-range",
}

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


@pytest.fixture(scope="module")
def probe_store(tmp_path_factory):
    """The OD store of a 3 x 3-municipality, 4-day scenario, for tests to copy and damage."""
    root = tmp_path_factory.mktemp("probe")
    config = write_config(root / "probe.json", n_provinces=3, municipalities_per_province=3, n_days=4, lockdown_day=2)
    assert main(["synth", "--config", str(config), "--out", str(root / "data")]) == 0
    assert main(["build-od", "--in", str(root / "data"), "--out", str(root / "store")]) == 0
    return root / "store"


class TestSmokePath:
    def test_synth_then_report_writes_summary(self, scenario_dir, tmp_path):
        out = tmp_path / "results"
        rc = main(["report", "--in", str(scenario_dir), "--out", str(out), "--seed", "5",
                   "--trials", "2"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert SUMMARY_FIELDS <= set(summary)
        assert summary["flow_drop_pct"] == pytest.approx(60.0, abs=5.0)
        # the five days before the lockdown, Monday to Friday, hold no weekend to compare
        assert summary["weekend_diversity_delta_pre"] is None
        assert summary["weekend_diversity_delta_post"] is not None

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
        assert main(["cluster", "--in", str(store), "--out", str(out), "--seed", "1"]) == 0
        assert (out / "cluster_out.json").exists()
        assert main(["communities", "--in", str(store), "--out", str(out),
                     "--seed", "1", "--trials", "2"]) == 0
        assert (out / "communities.csv").exists()

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_report_partitions_recover_the_planted_communities(self, tmp_path, seed):
        # 4 provinces: with 3, seed 1 merges two planted communities on one day
        config = synth.lockdown_scenario_config(
            seed, n_provinces=4, municipalities_per_province=6, n_days=4, lockdown_day=2
        )
        synth.generate(config, tmp_path / "data")
        out = tmp_path / "out"
        assert main(["report", "--in", str(tmp_path / "data"), "--out", str(out), "--seed", str(seed),
                     "--trials", "2"]) == 0
        truth = json.loads((tmp_path / "data" / "ground_truth.json").read_text())
        split = date.fromisoformat(truth["regimes"][-1]["start_date"])
        planted = sorted(sorted(community) for community in truth["planted_communities"])
        post = [day for day in json.loads((out / "partitions.json").read_text())
                if date.fromisoformat(day["date"]) >= split]
        assert len(post) == 2
        for day in post:
            assert sorted(mod["municipalities"] for mod in day["modules"]) == planted, day["date"]

    def test_municipality_id_with_a_comma_reaches_the_tables(self, tmp_path):
        data = _two_day_data(tmp_path)
        registry = data / "registry.csv"
        registry.write_text(registry.read_text().replace(",M2,", ',"Roma, centro",'))
        store, out = tmp_path / "store", tmp_path / "tables"
        assert main(["build-od", "--in", str(data), "--out", str(store)]) == 0
        assert load_daily_od(store, date(2020, 3, 2), "municipality").cells == {("M1", "Roma, centro"): 1}
        assert main(["flows", "--in", str(store), "--out", str(out)]) == 0
        assert (out / "flows" / "P2.csv").read_text().splitlines()[1:] == [
            "2020-03-02,1,0,0,1.0,0.0,0.0", "2020-03-03,1,0,0,1.0,0.0,0.0"
        ]

    @pytest.mark.parametrize("day", ["2020-03-02", "2020-03-03"])
    def test_from_and_to_are_inclusive(self, tmp_path, day):
        data = _two_day_data(tmp_path)
        bounds = ["--from", day, "--to", day]
        store, whole, out = tmp_path / "store", tmp_path / "whole", tmp_path / "out"
        assert main(["build-od", "--in", str(data), "--out", str(store), *bounds]) == 0
        assert list_od_dates(store, "municipality") == [date.fromisoformat(day)]
        assert main(["build-od", "--in", str(data), "--out", str(whole)]) == 0
        assert main(["flows", "--in", str(whole), "--out", str(out), *bounds]) == 0
        assert main(["communities", "--in", str(whole), "--out", str(out), "--seed", "1",
                     "--trials", "1", *bounds]) == 0
        for table in (out / "flows" / "P1.csv", out / "flows" / "P2.csv", out / "communities.csv"):
            assert [row.split(",")[0] for row in table.read_text().splitlines()[1:]] == [day]

    def test_time_zone_moves_events_across_local_midnight(self, tmp_path):
        data = _two_day_data(tmp_path)
        store = tmp_path / "store"
        # 09:00 and 11:00 UTC are 21:00 and 23:00 of the day before at UTC-12
        assert main(["build-od", "--in", str(data), "--out", str(store), "--tz", "Etc/GMT+12"]) == 0
        assert list_od_dates(store, "municipality") == [date(2020, 3, 1), date(2020, 3, 2)]
        assert load_daily_od(store, date(2020, 3, 1), "municipality").cells == {("M1", "M2"): 1}
        assert load_daily_od(store, date(2020, 3, 2), "municipality").cells == {("M1", "M3"): 1}

    def test_stale_store_files_do_not_reach_the_tables(self, scenario_dir, tmp_path):
        # scenario B: the same territory and dates as scenario_dir, other trips
        config = write_config(tmp_path / "b.json", seed=4)
        other = tmp_path / "other"
        assert main(["synth", "--config", str(config), "--out", str(other)]) == 0
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(scenario_dir), "--out", str(store)]) == 0
        # province matrices of the first scenario, as an older version stored them
        territory = _territory(store)
        stale = store / "od" / "province"
        stale.mkdir()
        days = list_od_dates(store, "municipality")
        for day in days:
            cells = oracles.aggregate_cells(load_daily_od(store, day, "municipality").cells, territory)
            rows = "".join(f"{o},{d},{c}\n" for (o, d), c in cells.items())
            (stale / f"{day}.csv").write_text("origin,destination,count\n" + rows)
        manifest = {"schema_version": 1, "granularity": "province", "dates": [day.isoformat() for day in days]}
        (stale / "manifest.json").write_text(json.dumps(manifest))
        assert main(["build-od", "--in", str(other), "--out", str(store)]) == 0
        fresh = tmp_path / "fresh"
        assert main(["build-od", "--in", str(other), "--out", str(fresh)]) == 0
        tables = {}
        for source in (store, fresh):
            out = tmp_path / f"tables_{source.name}"
            for command in (["flows"], ["diversity"], ["cluster", "--seed", "5"]):
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
            ("report", "--seed", "-1"),
            ("cluster", "--seed", "-1"),
            ("communities", "--seed", "-1"),
            ("build-od", "--tz", "Mars/Base"),
            ("report", "--tz", "../etc/passwd"),
            ("build-od", "--from", "2020-02-30"),
            ("flows", "--to", "yesterday"),
            ("communities", "--from", "2020/03/02"),
            ("report", "--split-date", "2020-13-01"),
            ("communities", "--window", "2"),
            ("communities", "--granularity", "province"),
            ("communities", "--attach-registry", None),
            ("communities", "--tau", "0.2"),
            ("diversity", "--include-self-flow-in-diversity", None),
            ("cluster", "--include-self-flow-in-diversity", None),
            ("report", "--include-self-flow-in-diversity", None),
            ("communities", "--provinces", "P000"),
            ("report", "--dwell-seconds", "-1"),
            ("build-od", "--dwell-seconds", "-100"),
            ("cluster", "--k-range", "1:5"),
            ("report", "--k-range", "9:3"),
        ],
    )
    def test_out_of_range_option_is_usage_error(self, tmp_path, capsys, monkeypatch, command, option, value):
        """A bad option value, or an option the command does not take, exits 1 before any input is read
        or anything is written."""

        def ran(*args, **kwargs):
            raise AssertionError("ran past option parsing")

        monkeypatch.setattr(cli, "_staged", ran)
        monkeypatch.setattr(cli.ingest, "parse_records", ran)
        out = tmp_path / "parent" / "out"
        seed = [] if command in ("build-od", "flows", "diversity") else ["--seed", "1"]
        given = [option] if value is None else [option, value]
        assert main([command, "--in", str(tmp_path), "--out", str(out), *seed, *given]) == 1
        want = f"unrecognized arguments: {option}" if option in REMOVED_OPTIONS else f"argument {option}"
        assert want in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["build-od", "flows", "diversity", "cluster", "communities"])
    def test_from_after_to_is_usage_error(self, probe_store, tmp_path, capsys, command):
        """An inverted date range exits 1 before anything is written, staging directory included."""
        in_dir = probe_store.parent / "data" if command == "build-od" else probe_store
        seed = ["--seed", "1"] if command in ("cluster", "communities") else []
        out = tmp_path / "out"
        rc = main([command, "--in", str(in_dir), "--out", str(out), *seed,
                   "--from", "2020-02-05", "--to", "2020-02-04"])
        assert rc == 1
        assert "--from 2020-02-05 is after --to 2020-02-04" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_option_defaults_are_typed(self):
        args = cli.build_parser().parse_args(["report", "--in", "d", "--out", "o", "--seed", "0"])
        assert args.tz == ZoneInfo("Europe/Rome")
        assert args.split_date is None

    def test_missing_registry_is_data_error(self, tmp_path, capsys):
        rc = main(["build-od", "--in", str(tmp_path / "nothing"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_store_is_data_error(self, tmp_path):
        rc = main(["flows", "--in", str(tmp_path / "void"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_store_count_outside_int64_is_data_error(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(_two_day_data(tmp_path)), "--out", str(store)]) == 0
        path = store / "od" / "municipality" / "2020-03-02.csv"
        path.write_text("origin,destination,count\nM1,M2,99999999999999999999\n")
        capsys.readouterr()
        assert main(["flows", "--in", str(store), "--out", str(tmp_path / "out")]) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "payload",
        [["M1", "P1"], {"provinces": {"M1": "P1"}}, {"muni_to_province": [["M1", "P1"]]}],
        ids=["list", "missing_field", "list_field"],
    )
    def test_malformed_territory_is_data_error(self, tmp_path, capsys, payload):
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(_two_day_data(tmp_path)), "--out", str(store)]) == 0
        path = store / "territory.json"
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["flows", "--in", str(store), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "muni_to_province" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "payload", [{"schema_version": 1, "granularity": "municipality"}, {"dates": "2020-03-02"}],
        ids=["missing", "not_a_list"],
    )
    def test_manifest_without_a_dates_list_is_data_error(self, tmp_path, capsys, payload):
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(_two_day_data(tmp_path)), "--out", str(store)]) == 0
        path = store / "od" / "municipality" / "manifest.json"
        path.write_text(json.dumps({"schema_version": 1, "granularity": "municipality", **payload}))
        capsys.readouterr()
        assert main(["flows", "--in", str(store), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "dates" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name", ["territory.json", "od/municipality/manifest.json", "ground_truth.json"],
        ids=["territory", "manifest", "ground_truth"],
    )
    def test_json_file_that_does_not_parse_is_named(self, tmp_path, capsys, name):
        data = _two_day_data(tmp_path)
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(data), "--out", str(store)]) == 0
        if name == "ground_truth.json":
            path = data / name
            command = ["report", "--in", str(data), "--seed", "0", "--trials", "1"]
        else:
            path = store / name
            command = ["flows", "--in", str(store)]
        path.write_text('{"muni_to')
        capsys.readouterr()
        assert main([*command, "--out", str(tmp_path / "out")]) == 2
        assert f"error: {path}: bad JSON: Unterminated string" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["registry.csv", "xdr/x.csv"])
    def test_file_that_is_not_utf8_is_data_error(self, tmp_path, capsys, name):
        data = _two_day_data(tmp_path)
        path = data / name
        path.write_bytes(path.read_bytes() + b"u9,1583139600,A\xff1,5\n")
        out = tmp_path / "out"
        for command in (["build-od"], ["report", "--seed", "0", "--trials", "1", "--split-date", "2020-03-03"]):
            assert main([*command, "--in", str(data), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"error: {path}: not UTF-8 text" in err
            assert not out.exists()

    @pytest.mark.parametrize("command", [["flows"]])
    def test_province_id_that_is_not_a_string_is_data_error(self, probe_store, tmp_path, capsys, command):
        store = shutil.copytree(probe_store, tmp_path / "store")
        path = store / "territory.json"
        territory = _territory(store)
        path.write_text(json.dumps({"muni_to_province": {m: int(p[1:]) for m, p in territory.items()}}))
        capsys.readouterr()
        assert main([*command, "--in", str(store), "--out", str(tmp_path / "out")]) == 2
        first = min(territory)
        want = f"error: {path}: muni_to_province[{first!r}] is {int(territory[first][1:])}, not a string"
        assert want in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_stored_day_that_is_not_utf8_is_named(self, probe_store, tmp_path, capsys):
        store = shutil.copytree(probe_store, tmp_path / "store")
        path = sorted((store / "od" / "municipality").glob("*.csv"))[1]
        path.write_bytes(path.read_bytes() + b"M\xff,M1,3\n")
        capsys.readouterr()
        assert main(["flows", "--in", str(store), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_listed_day_without_a_file_names_the_store_and_the_file(self, probe_store, tmp_path, capsys):
        store = shutil.copytree(probe_store, tmp_path / "store")
        day = list_od_dates(store, "municipality")[2]
        (store / "od" / "municipality" / f"{day}.csv").unlink()
        capsys.readouterr()
        assert main(["flows", "--in", str(store), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {store}: no municipality OD matrix for {day}; od/municipality/{day}.csv is missing\n" == err
        assert not (tmp_path / "out").exists()

    def test_manifest_listing_a_date_twice_is_data_error(self, probe_store, tmp_path, capsys):
        store = shutil.copytree(probe_store, tmp_path / "store")
        path = store / "od" / "municipality" / "manifest.json"
        manifest = json.loads(path.read_text())
        day = manifest["dates"][1]
        manifest["dates"].append(day)
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["communities", "--in", str(store), "--out", str(out), "--seed", "0", "--trials", "1"]) == 2
        assert capsys.readouterr().err == f"error: {path}: dates listed more than once: {day}\n"
        assert not out.exists()

    def test_manifest_dates_out_of_order_give_date_ordered_tables(self, probe_store, tmp_path):
        store = shutil.copytree(probe_store, tmp_path / "store")
        path = store / "od" / "municipality" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["dates"].reverse()
        path.write_text(json.dumps(manifest))
        tables = {}
        for name, source in (("sorted", probe_store), ("reversed", store)):
            out = tmp_path / name
            for command in (["flows"], ["diversity"], ["cluster", "--seed", "0"]):
                assert main([*command, "--in", str(source), "--out", str(out)]) == 0
            tables[name] = _tree_bytes(out)
        assert tables["reversed"] == tables["sorted"]

    def test_regime_without_start_date_is_data_error(self, tmp_path, capsys):
        data = _two_day_data(tmp_path)
        truth = data / "ground_truth.json"
        truth.write_text(json.dumps({"regimes": [{"start_date": "2020-03-02"}, {"flow_scale": 0.4}]}))
        out = tmp_path / "out"
        assert main(["report", "--in", str(data), "--out", str(out), "--seed", "0", "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert str(truth) in err and "regimes[1]" in err and "start_date" in err
        assert not out.exists()

    def test_too_few_provinces_left_after_imputation_is_named(self, tmp_path, capsys):
        # P1 has no in-flow on either day, so imputation drops it and one province is left to cluster
        out = tmp_path / "out"
        assert main(["report", "--in", str(_two_day_data(tmp_path)), "--out", str(out), "--seed", "0",
                     "--trials", "1", "--split-date", "2020-03-03"]) == 2
        err = capsys.readouterr().err
        assert "cluster[in]: 1 province(s) left to cluster, fewer than the smallest k, 2 (K_RANGE)" in err
        assert "absent on more than 50% of the days (MAX_ABSENT_FRACTION): P1" in err
        assert "k_range must lie within" not in err
        assert not out.exists()

    def test_one_province_territory_is_data_error(self, tmp_path, capsys):
        # diversity divides by the log of the province count, 0 for one province
        data = tmp_path / "data"
        (data / "xdr").mkdir(parents=True)
        (data / "registry.csv").write_text(
            "antenna_id,lat,lon,municipality_id,province_id\n"
            "A1,45.0,9.0,M1,P1\n"
            "A2,45.1,9.1,M2,P1\n"
        )
        (data / "xdr" / "x.csv").write_text(
            "user_id,timestamp,antenna,kilobytes\n"
            "u1,1583139600,A1,5\n"
            "u1,1583146800,A2,5\n"
        )
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(data), "--out", str(store)]) == 0
        capsys.readouterr()
        for argv in (["cluster", "--in", str(store)], ["report", "--in", str(data), "--split-date", "2020-03-02"]):
            out = tmp_path / "out"
            assert main([*argv, "--out", str(out), "--seed", "0"]) == 2
            assert "needs at least 2 provinces" in capsys.readouterr().err
            assert not out.exists()

    def test_failed_command_removes_new_outputs(self, tmp_path, capsys):
        data = _two_day_data(tmp_path)
        # P1 has no in-flow, so cluster[in] has one province left: cluster fails
        # after making --out, which goes again; the store it read is left as it was
        store = tmp_path / "store"
        assert main(["build-od", "--in", str(data), "--out", str(store)]) == 0
        before = _tree_bytes(store)
        cluster = ["cluster", "--in", str(store), "--seed", "0"]
        assert main([*cluster, "--out", str(tmp_path / "tables")]) == 2
        assert not (tmp_path / "tables").exists()
        assert _tree_bytes(store) == before
        # report fails the same way in clustering, after flows/ and the store's
        # directories were made: every new directory goes, --out included
        capsys.readouterr()
        report = ["report", "--in", str(data), "--seed", "0", "--trials", "1", "--split-date", "2020-03-03"]
        assert main([*report, "--out", str(tmp_path / "new")]) == 2
        captured = capsys.readouterr()
        assert "flows: 2 provinces" in captured.out and "cluster[in]" in captured.err
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
            assert err.startswith("error: municipality 'M3' ") and "territory index" in err  # not a quoted repr
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

    def test_synth_negative_seed_option_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"preset": "lockdown", "seed": 0, "n_days": 2, "lockdown_day": 1}))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "d"), "--seed", "-1"]) == 1
        assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_synth_without_seed_is_usage_error(self, tmp_path):
        config = tmp_path / "c.json"
        payload = {"preset": "lockdown", "n_provinces": 3, "municipalities_per_province": 2,
                   "n_days": 4, "lockdown_day": 2}
        config.write_text(json.dumps(payload))
        rc = main(["synth", "--config", str(config), "--out", str(tmp_path / "d")])
        assert rc == 1

    @pytest.mark.parametrize(
        "text, field",
        [
            ("[1, 2]", "expected a JSON object, got list"),
            ('{"n_provinces": 2, "municipalities_per_province": 1, "n_days": 2, "seed": 0,'
             ' "regimes": [{"flow_scale": 0.5}]}', "regimes[0].start_date"),
            ('{"preset": "lockdown", "seed": 0, "n_days": 2, "lockdown_day": 1, "start_date": "2020-13-01"}',
             "start_date"),
            ('{"preset": "lockdown", "seed": "x", "n_days": 2, "lockdown_day": 1}', "seed"),
            ('{"preset": "lockdown", "seed": 1.5, "n_days": 2, "lockdown_day": 1}', "seed must be an integer, got 1.5"),
            ('{"preset": "lockdown", "seed": true, "n_days": 2, "lockdown_day": 1}', "seed must be an integer, got True"),
            ('{"preset": "lockdown", "seed": "7", "n_days": 2, "lockdown_day": 1}', "seed must be an integer, got '7'"),
            ('{"preset": "lockdown", "seed": -1, "n_days": 2, "lockdown_day": 1}', "seed must be at least 0, got -1"),
            ('{"preset": "lockdown", "seed": 0,', "JSON"),
            ('{"n_provinces": 2, "municipalities_per_province": 1, "n_days": 2, "seed": 0,'
             ' "start_date": "2020-03-02", "regimes": [{"start_date": "2020-03-02", "flow_scale": "x"}]}',
             "regimes[0]: flow_scale must be a number in (0, 1], got 'x'"),
            ('{"n_provinces": 2, "municipalities_per_province": 1, "n_days": 2, "seed": 0,'
             ' "start_date": "2020-03-02", "regimes": 5}', "regimes must be a list, got int"),
            ('{"preset": "lockdown", "seed": 0, "n_days": 2, "lockdown_day": 1, "cdr_fraction": 7}',
             "cdr_fraction must be in [0, 1]"),
            ('{"preset": "lockdown", "seed": 0, "n_days": 2, "lockdown_day": 1,'
             ' "inter_trips_per_province": "x"}', "inter_trips_per_province must be a number"),
            ('{"preset": "lockdown", "seed": 0, "n_days": 2, "lockdown_day": "x"}', "lockdown_day must be a number"),
            ('{"preset": "lockdown", "seed": 0, "n_provinces": 2, "municipalities_per_province": 2, "n_days": 2,'
             ' "lockdown_day": 1, "timezone": 5}', "timezone must be a string, got 5"),
            ('{"preset": "lockdown", "seed": 0, "n_provinces": 2, "municipalities_per_province": 2, "n_days": 2,'
             ' "lockdown_day": 1, "timezone": "Mars/Base"}', "timezone must be a time zone name, got 'Mars/Base'"),
        ],
        ids=["list", "regime_without_start_date", "bad_start_date", "seed_not_an_integer", "seed_a_fraction",
             "seed_a_boolean", "seed_a_string_of_digits", "seed_negative", "malformed_json",
             "flow_scale_not_a_number", "regimes_not_a_list", "cdr_fraction_out_of_range",
             "inter_trips_not_a_number", "lockdown_day_not_a_number", "timezone_not_a_string",
             "timezone_unknown"],
    )
    def test_synth_bad_config_file_names_the_file_and_field(self, tmp_path, capsys, text, field):
        config = tmp_path / "c.json"
        config.write_text(text)
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == 2
        err = capsys.readouterr().err
        assert f"error: {config}: " in err and field in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"preset": "lockdown", "n_days": 2, "lockdown_day": 1}, "needs a seed"),
            ({"preset": "nope", "seed": 0}, "unknown preset 'nope'"),
            ({"preset": "lockdown", "seed": 0, "n_days": 2, "lockdown_day": 1, "colour": 1}, "bad scenario config"),
        ],
        ids=["missing_seed", "unknown_preset", "unknown_key"],
    )
    def test_synth_config_usage_errors_stay_usage_errors(self, tmp_path, capsys, payload, message):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(payload))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == 1
        assert message in capsys.readouterr().err

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

    def test_province_ids_name_files_inside_out(self, scenario_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(scenario_dir, data)
        registry = data / "registry.csv"
        text = registry.read_text().replace(",P000\n", ",../../evil\n")
        registry.write_text(text.replace(",P001\n", ",Bolzano/Bozen\n"))
        before = {p for p in tmp_path.rglob("*") if p.is_file()}
        out = tmp_path / "res" / "out"
        assert main(["report", "--in", str(data), "--out", str(out), "--seed", "0", "--trials", "1"]) == 0
        assert {p for p in tmp_path.rglob("*") if p.is_file() and out not in p.parents} == before
        assert {"..%2F..%2Fevil.csv", "Bolzano%2FBozen.csv"} <= {p.name for p in (out / "flows").iterdir()}
        assert len(list((out / "flows").iterdir())) == 5
        _assert_no_staging(out)

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

    @pytest.mark.parametrize("command", ["build-od", "report"])
    def test_out_naming_a_file_is_usage_error(self, scenario_dir, tmp_path, capsys, command):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        seed = ["--seed", "0", "--trials", "1"] if command == "report" else []
        assert main([command, "--in", str(scenario_dir), "--out", str(afile), *seed]) == 1
        captured = capsys.readouterr()
        assert "is not a directory" in captured.err
        assert captured.out == ""  # no stage ran
        assert afile.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    def test_failed_report_leaves_the_result_tree(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "R"
        assert main(["report", "--in", str(scenario_dir), "--out", str(out), "--seed", "0", "--trials", "1"]) == 0
        before = oracles.tree_digest(out)
        _assert_no_staging(out, capsys.readouterr().out)
        # fails in clustering: P1 has no in-flow, so cluster[in] has one province left
        rc = main(["report", "--in", str(_two_day_data(tmp_path)), "--out", str(out), "--seed", "0", "--trials", "1",
                   "--split-date", "2020-03-03"])
        assert rc == 2
        assert "cluster[in]: 1 province(s) left to cluster" in capsys.readouterr().err
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


class TestReadme:
    def test_command_line_section_names_every_option(self):
        """README's "Command line" section names exactly the options the subcommands define."""
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        defined = {
            option
            for command in subparsers.choices.values()
            for action in command._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        assert set(re.findall(r"--[a-z][a-z-]*", section)) == defined


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

    def test_report_bytes_are_pinned(self, tmp_path):
        # Any change to a seeded stream that reaches a result (synth's plan, drawn by
        # generate_plan, k-means++'s or the map-equation sweeps') or to a table's bytes
        # fails here, on every interpreter CI runs. synth's record writer cannot fail
        # here, since its draws never change an OD: test_synth.py::TestGeneratedBytes
        # pins the bytes it writes.
        # With 4 provinces of 3 municipalities both cluster labels and partitions
        # depend on the search order; with 3 x 3 every order finds the same result.
        config = write_config(tmp_path / "c.json", n_provinces=4, municipalities_per_province=3, n_days=4,
                              lockdown_day=2, seed=0)
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
        out = tmp_path / "out"
        assert main(["report", "--in", str(tmp_path / "data"), "--out", str(out), "--seed", "0", "--trials", "2"]) == 0
        assert oracles.tree_digest(out) == "742aa714a6688e531ee21c811be661b0ae6cd93be9b1f4aecea46c3a97afcb71"

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

    def test_planted_levels_preset(self, tmp_path):
        """README's planted_levels preset writes the levels and groups of planted_levels_config."""
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"preset": "planted_levels", "seed": 7, "n_days": 2, "n_provinces": 10}))
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "d")]) == 0
        truth = json.loads((tmp_path / "d" / "ground_truth.json").read_text())
        expected = synth.planted_levels_config(7, n_days=2, n_provinces=10)
        assert truth["planted_cluster_levels"] == expected.planted_cluster_levels
        assert truth["planted_cluster_groups"] == synth.generate_plan(expected).planted_cluster_groups


SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_python(source: str, stdin: bytes = b"") -> subprocess.CompletedProcess:
    """Run `source` in a new interpreter with src/ on the path, capturing its output."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", source], input=stdin, capture_output=True, env=env, check=True)


# Prints, once the code before it ran, whether importing numpy alone loads numpy.random
# (numpy 1.x does) and whether numpy.random is loaded now.
_LOADED = (
    "import sys; sys.stderr.write(json.dumps([_numpy_loads_random, 'numpy.random' in sys.modules]))"
)
_PRELUDE = "import json, sys, numpy; _numpy_loads_random = 'numpy.random' in sys.modules\n"


def _assert_no_numpy_random(stderr: bytes) -> None:
    numpy_loads_random, loaded = json.loads(stderr.splitlines()[-1])
    if numpy_loads_random:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert not loaded


class TestNoNumpyRandom:
    """Seeded commands never import numpy.random (and with it secrets, hmac and OpenSSL)."""

    def test_report_cluster_and_communities(self, tmp_path):
        config = tmp_path / "probe.json"
        config.write_text(json.dumps({"preset": "lockdown", "n_provinces": 3, "municipalities_per_province": 3,
                                      "n_days": 4, "lockdown_day": 2, "seed": 0}))
        out, store = tmp_path / "out", tmp_path / "out" / "od-store"
        commands = [
            ["synth", "--config", str(config), "--out", str(tmp_path / "data")],
            ["report", "--in", str(tmp_path / "data"), "--out", str(out), "--seed", "0", "--trials", "2"],
            ["cluster", "--in", str(store), "--out", str(tmp_path / "cluster"), "--seed", "0"],
            ["communities", "--in", str(store), "--out", str(tmp_path / "comm"), "--seed", "0", "--trials", "2"],
        ]
        runs = "".join(f"assert cli.main({argv!r}) == 0\n" for argv in commands)
        _assert_no_numpy_random(_fresh_python(f"{_PRELUDE}from mobflow import cli\n{runs}{_LOADED}").stderr)
        assert (out / "summary.json").is_file() and (tmp_path / "comm" / "partitions.json").is_file()

    def test_helper_process(self):
        plan = synth.generate_plan(synth.lockdown_scenario_config(0, n_provinces=3, municipalities_per_province=3,
                                                                  n_days=2, lockdown_day=1))
        day = plan.municipality_ods()[0]
        args = (0, 2)
        sent = pickle.dumps(args) + pickle.dumps(day)
        done = _fresh_python(f"{_PRELUDE}{community._HELPER_SOURCE}\n{_LOADED}", sent)
        assert pickle.loads(done.stdout).partition == community._detect_day(day, *args).partition
        _assert_no_numpy_random(done.stderr)
