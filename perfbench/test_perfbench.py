"""Self-tests of the benchmark: every workload path, span arithmetic and the gate.

Run from the repository root:
    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types

import pytest

import gate
import run
import spans
import workloads
from mobflow import cli, ingest

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = dict(n_provinces=3, municipalities_per_province=3, inter_trips_per_province=30)


def _tiny(name: str, **changes) -> workloads.Workload:
    workload = workloads.WORKLOADS[name]
    return dataclasses.replace(
        workload, overrides={**workload.overrides, **TINY}, trials=2, **changes
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_path_reports_every_metric(name, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, _tiny(name))
    monkeypatch.setattr(run, "WORK", tmp_path)
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == {metric["name"]: metric["unit"] for metric in declared}


def test_benchmark_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


def test_self_times_subtract_the_cover_of_child_spans():
    tree = [
        ("cli.main", 0.0, 10.0, -1),
        ("ingest.parse_records", 1.0, 4.0, 0),
        ("od.store_daily_od", 5.0, 6.0, 0),
        ("od.load_daily_od", 5.5, 6.5, 2),  # overruns its parent: only 5.5..6.0 is covered
        ("community.infomap", 7.0, 9.0, 0),
        ("community.stationary_flow", 7.0, 7.5, 4),
        ("community.stationary_flow", 7.25, 8.0, 4),  # overlaps its sibling
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 3.0, 0.5, 1.0, 1.0, 0.5, 0.75])
    totals = spans.layer_totals(tree, spans.self_times(tree))
    assert totals["community.stationary_flow"] == pytest.approx(
        {"calls": 2, "total_s": 1.25, "self_s": 1.25}
    )
    nested = [tree[0], tree[1], tree[4], ("community.stationary_flow", 7.0, 7.5, 2)]
    assert sum(spans.self_times(nested)) == pytest.approx(10.0)


FAKE_MODULE = '''
def outer(n):
    return sum(inner(i) for i in range(n)) + _private()

def inner(i):
    return i

def _private():
    return 0
'''


def test_recorder_wraps_module_attributes_and_counts(tmp_path):
    module = types.ModuleType("fake")
    exec(FAKE_MODULE, module.__dict__)
    recorder = spans.SpanRecorder()

    def hook(args, kwargs, result, counters):
        counters["fake.sum"] = counters.get("fake.sum", 0) + result

    assert recorder.instrument(module, "fake", hooks={"fake.outer": hook}) == ["fake.inner", "fake.outer"]
    assert module.outer(3) == 3
    recorder.dump(tmp_path / "spans.json")
    recorded, counters = spans.load(tmp_path / "spans.json")
    assert [(name, parent) for name, _s, _e, parent in recorded] == [
        ("fake.outer", -1), ("fake.inner", 0), ("fake.inner", 0), ("fake.inner", 0),
    ]
    assert all(start <= end for _n, start, end, _p in recorded)
    assert counters == {"fake.sum": 3}


@pytest.fixture(scope="module")
def reported(tmp_path_factory):
    root = tmp_path_factory.mktemp("gate")
    scenario = workloads.generate_inputs(_tiny("lockdown_ref"), 5, root / "data")
    argv = ["report", "--in", str(root / "data"), "--out", str(root / "out"), "--seed", "5", "--trials", "1"]
    assert cli.main(argv) == 0
    return scenario.plan, root / "out"


def test_gate_passes_a_clean_run(reported):
    plan, out = reported
    reasons, digest = gate.check_run(0, out, plan, None)
    assert reasons == []
    assert gate.check_run(0, out, plan, digest) == ([], digest)


def test_gate_fails_a_tampered_od_day(reported, tmp_path):
    plan, out = reported
    _, digest = gate.check_run(0, out, plan, None)
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    day = plan.config.dates[1].isoformat()
    path = copy / "od-store" / "od" / "municipality" / f"{day}.csv"
    lines = path.read_text().splitlines()
    origin, destination, count = lines[1].split(",")
    lines[1] = f"{origin},{destination},{int(count) + 1}"
    path.write_text("\n".join(lines) + "\n")
    reasons, _ = gate.check_run(0, copy, plan, digest)
    assert f"municipality OD {day} differs from the plan" in reasons
    assert any(reason.startswith("result digest") for reason in reasons)


def test_gate_fails_a_bad_exit_or_flow_drop(reported, tmp_path):
    plan, out = reported
    assert gate.check_run(2, out, plan, None) == (["exit code 2"], None)
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    summary = json.loads((copy / "summary.json").read_text())
    summary["flow_drop_pct"] = 40.0
    (copy / "summary.json").write_text(json.dumps(summary))
    reasons, _ = gate.check_run(0, copy, plan, None)
    assert reasons == [f"flow_drop_pct 40.0 outside {gate.FLOW_DROP_BAND}"]


def test_iso_inputs_carry_the_epoch_events(tmp_path):
    iso = workloads.generate_inputs(_tiny("wide_iso_records"), 4, tmp_path / "iso")
    epoch = workloads.generate_inputs(_tiny("wide_iso_records", iso_xdr=False), 4, tmp_path / "epoch")
    xdr_text = "".join(path.read_text() for path in iso.xdr_files)
    assert "+01:00" in xdr_text and "+02:00" in xdr_text  # both sides of the DST switch
    registry = ingest.load_registry(iso.registry_path)
    parsed_iso = ingest.parse_records(iso.cdr_files, iso.xdr_files, registry)
    parsed_epoch = ingest.parse_records(epoch.cdr_files, epoch.xdr_files, registry)
    assert parsed_iso.rejected_count == 0
    assert parsed_iso.events_by_user == parsed_epoch.events_by_user


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "lockdown_ref", "--seed", "0",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
