"""`draws.SeededDraws` against numpy's own Generator, and the commands that draw from it."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobflow import cli, community, synth
from mobflow.cluster import SeriesMatrix, kmeans
from mobflow.draws import SeededDraws

SRC = Path(__file__).resolve().parent.parent / "src"

# Sizes where masked and Lemire rejection are heaviest (2**k + 1), the smallest ones, and any up to 300.
_SIZES = st.one_of(
    st.sampled_from([0, 1, 2]), st.integers(0, 10).map(lambda k: 2**k + 1), st.integers(0, 300)
)
_WEIGHTS = st.lists(st.integers(0, 1000), min_size=1, max_size=150).filter(any)
_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("integers"), st.one_of(_SIZES.filter(bool), st.integers(1, 2**32))),
        st.tuples(st.just("random"), st.none()),
        st.tuples(st.just("choice"), _WEIGHTS),
        st.tuples(st.just("permutation"), _SIZES),
    ),
    max_size=30,
)
_ENTROPY = st.lists(
    st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**96)), min_size=1, max_size=4
)


class TestReplica:
    @given(entropy=_ENTROPY, calls=_CALLS)
    @example(entropy=[0], calls=[("permutation", 1025), ("integers", 2**32), ("choice", [0, 1])])
    @settings(max_examples=120, deadline=None)
    def test_returns_numpys_values_for_any_sequence_of_calls(self, entropy, calls):
        rng, draws = np.random.default_rng(entropy), SeededDraws(entropy)
        for name, arg in calls:
            if name == "integers":
                got, want = draws.integers(0, arg), rng.integers(0, arg)
            elif name == "random":
                got, want = draws.random(), rng.random()
            elif name == "choice":
                p = np.array(arg, dtype=float) / sum(arg)
                got, want = draws.choice(len(p), p=p), rng.choice(len(p), p=p)
            else:
                got, want = draws.permutation(arg), rng.permutation(arg).tolist()
            assert got == want, (name, arg)

    def test_a_bare_int_seeds_as_a_one_entry_list(self):
        assert SeededDraws(7).permutation(50) == SeededDraws([7]).permutation(50)

    @pytest.mark.parametrize("entropy", [-1, [3, -2]])
    def test_negative_entropy_is_rejected_as_by_numpy(self, entropy):
        with pytest.raises(ValueError):
            np.random.default_rng(entropy)
        with pytest.raises(ValueError, match="non-negative"):
            SeededDraws(entropy)

    @pytest.mark.parametrize("p", [[np.nan, 1.0], [0.5, 0.6], [-0.5, 1.5]], ids=["nan", "sum", "negative"])
    def test_choice_rejects_what_numpy_rejects(self, p):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(2, p=p)
        with pytest.raises(ValueError, match="probabilities"):
            SeededDraws(0).choice(2, p=p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_kmeans_on_a_non_finite_series_raises_value_error(self, bad):
        values = np.arange(12.0).reshape(6, 2) / 12
        values[3, 1] = bad
        with pytest.raises(ValueError, match="probabilities"):
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
