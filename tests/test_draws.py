"""What the seeded draws reject, and the commands that draw seeded streams never importing numpy.random."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mobflow import cli, community, synth
from mobflow.cluster import SeriesMatrix, kmeans

SRC = Path(__file__).resolve().parent.parent / "src"


class TestReplica:
    """k-means++ draws its weighted rows with `random.Random.choices`, which rejects a NaN or infinite total."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_kmeans_on_a_non_finite_series_raises_value_error(self, bad):
        values = np.arange(12.0).reshape(6, 2) / 12
        values[3, 1] = bad
        with pytest.raises(ValueError, match="Total of weights must be finite"):
            kmeans(SeriesMatrix([f"P{i}" for i in range(6)], values), 3, seed=0)


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
        assert cli.main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
        out, store = tmp_path / "out", tmp_path / "out" / "od-store"
        commands = [
            ["report", "--in", str(tmp_path / "data"), "--out", str(out), "--seed", "0", "--k-range", "2:3",
             "--trials", "2"],
            ["cluster", "--in", str(store), "--out", str(tmp_path / "cluster"), "--seed", "0", "--k-range", "2:3"],
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
