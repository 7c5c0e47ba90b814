"""Stationary flow, map equation, and the greedy map-equation optimizer."""

import dataclasses
import io
import math
import os
import pickle
import select
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobflow import cli, community, synth
from mobflow.community import (
    FlowGraph,
    Partition,
    PowerIterationError,
    community_count_series,
    infomap,
    stationary_flow,
    write_community_counts_csv,
    partition_dump,
)
from mobflow.od import DailyOD

from oracles import (
    assert_consistent,
    exhaustive_min_codelength,
    flow_dicts,
    flow_graph,
    infomap_reference,
    map_equation,
    map_equation_entropy_form,
    random_flow_graph,
    stationary_dense,
)

DAY = date(2020, 3, 2)


@pytest.fixture
def checked_sweeps(monkeypatch):
    """Check every swept state with `assert_consistent`; returns the checked levels' sizes."""
    sweep = community._sweep_until_stable
    checks = []

    def sweep_then_check(state, rng):
        moved = sweep(state, rng)
        assert_consistent(state)
        checks.append(state.level.size)
        return moved

    monkeypatch.setattr(community, "_sweep_until_stable", sweep_then_check)
    return checks


def clique(prefix, k, w=1.0):
    nodes = [f"{prefix}{i}" for i in range(k)]
    edges = {(a, b): w for a in nodes for b in nodes if a != b}
    return nodes, edges


class TestStationaryFlow:
    def test_symmetric_two_cycle(self):
        g = flow_graph({("a", "b"): 1.0, ("b", "a"): 1.0})
        rates = flow_dicts(g, stationary_flow(g)).visit_rates
        assert rates["a"] == pytest.approx(0.5, abs=1e-12)
        assert rates["b"] == pytest.approx(0.5, abs=1e-12)

    def test_directed_three_cycle_uniform(self):
        g = flow_graph({("a", "b"): 2.0, ("b", "c"): 2.0, ("c", "a"): 2.0})
        flow = stationary_flow(g)
        for p in flow.visit_rates.tolist():
            assert p == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matches_dense_solve_on_random_graphs(self):
        rng = np.random.default_rng(12)
        for trial in range(30):
            nodes, edges = random_flow_graph(rng, int(rng.integers(2, 7)))
            if not edges:
                continue
            g = flow_graph(edges, nodes)
            rates = flow_dicts(g, stationary_flow(g)).visit_rates
            expected = stationary_dense(g)
            for node in nodes:
                assert rates[node] == pytest.approx(expected[node], abs=1e-9)

    def test_visit_rates_sum_to_one(self):
        rng = np.random.default_rng(13)
        nodes, edges = random_flow_graph(rng, 12, density=0.2)
        flow = stationary_flow(flow_graph(edges, nodes))
        assert sum(flow.visit_rates.tolist()) == pytest.approx(1.0, abs=1e-10)

    def test_edge_flows_total_without_dangling(self):
        # every node has an out-edge, so recorded flow is exactly 1 - tau
        g = flow_graph(
            {("a", "b"): 3.0, ("b", "c"): 1.0, ("c", "a"): 2.0, ("a", "c"): 1.0}
        )
        flow = stationary_flow(g, tau=0.15)
        assert sum(flow.edge_flows.tolist()) == pytest.approx(0.85, abs=1e-10)

    def test_dangling_mass_not_recorded_as_edge_flow(self):
        g = flow_graph({("a", "b"): 1.0})  # b is dangling
        flow = flow_dicts(g, stationary_flow(g, tau=0.15))
        expected = 0.85 * flow.visit_rates["a"]
        assert sum(flow.edge_flows.values()) == pytest.approx(expected, abs=1e-12)

    def test_non_convergence_error_carries_residual(self):
        g = flow_graph({("a", "b"): 1.0, ("b", "a"): 1.0, ("a", "c"): 1.0, ("c", "a"): 1.0})
        with pytest.raises(PowerIterationError) as err:
            stationary_flow(g, tol=1e-30, max_iter=3)
        assert err.value.residual > 0.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            stationary_flow(flow_graph({}))

    @pytest.mark.parametrize("tau", [1.5, -0.5, float("nan")])
    def test_teleport_rate_outside_unit_interval_rejected(self, tau):
        g = flow_graph({("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "a"): 2.0})
        with pytest.raises(ValueError, match="tau must be in"):
            stationary_flow(g, tau=tau)

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_teleport_rate_bounds_accepted(self, tau):
        g = flow_graph({("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "a"): 2.0})
        assert sum(stationary_flow(g, tau=tau).visit_rates) == pytest.approx(1.0, abs=1e-12)

    def test_edgeless_graph_is_uniform(self):
        g = flow_graph({}, ["a", "b", "c", "d"])
        flow = flow_dicts(g, stationary_flow(g))
        assert flow.visit_rates == {node: 0.25 for node in "abcd"}
        assert flow.edge_flows == {}


class TestMapEquation:
    def test_single_module_is_visit_rate_entropy(self):
        rng = np.random.default_rng(14)
        nodes, edges = random_flow_graph(rng, 6)
        g = flow_graph(edges, nodes)
        flow = flow_dicts(g, stationary_flow(g))
        expected = -sum(p * math.log2(p) for p in flow.visit_rates.values() if p > 0)
        got = map_equation({node: 0 for node in nodes}, flow)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_two_node_singletons_hand_expansion(self):
        g = flow_graph({("a", "b"): 1.0, ("b", "a"): 1.0})
        flow = flow_dicts(g, stationary_flow(g, tau=0.15))
        # p = (1/2, 1/2); each module exits with 0.85 * 1/2
        q_i = 0.85 * 0.5
        q = 2 * q_i
        p_circ = q_i + 0.5

        def plogp(x):
            return x * math.log2(x)

        hand = plogp(q) - 2 * (2 * plogp(q_i)) + 2 * plogp(p_circ) - 2 * plogp(0.5)
        got = map_equation({"a": 0, "b": 1}, flow)
        assert got == pytest.approx(hand, abs=1e-12)
        assert got == pytest.approx(map_equation_entropy_form({"a": 0, "b": 1}, flow), abs=1e-12)

    def test_matches_independent_entropy_form_on_random_partitions(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            nodes, edges = random_flow_graph(rng, n)
            if not edges:
                continue
            g = flow_graph(edges, nodes)
            flow = flow_dicts(g, stationary_flow(g))
            assignment = {node: int(rng.integers(0, n)) for node in nodes}
            a = map_equation(assignment, flow)
            b = map_equation_entropy_form(assignment, flow)
            assert a == pytest.approx(b, abs=1e-12)

    def test_partition_must_cover_all_nodes(self):
        g = flow_graph({("a", "b"): 1.0, ("b", "a"): 1.0})
        flow = flow_dicts(g, stationary_flow(g))
        with pytest.raises(ValueError, match="misses"):
            map_equation({"a": 0}, flow)


class TestInfomap:
    def test_two_cliques_with_weak_bridge_split_at_the_cut(self):
        n1, e1 = clique("a", 4)
        n2, e2 = clique("b", 4)
        edges = {**e1, **e2, ("a0", "b0"): 0.1, ("b0", "a0"): 0.1}
        g = flow_graph(edges, n1 + n2)
        flow = stationary_flow(g)
        part = infomap(g, seed=1, trials=10, flow=flow)
        best_length, _ = exhaustive_min_codelength(flow_dicts(g, flow), map_equation)
        assert part.module_count == 2
        assert part.codelength == pytest.approx(best_length, abs=1e-9)
        groups = sorted(sorted(m) for m in part.modules().values())
        assert groups == [["a0", "a1", "a2", "a3"], ["b0", "b1", "b2", "b3"]]

    def test_single_clique_stays_one_module(self):
        nodes, edges = clique("c", 5)
        g = flow_graph(edges, nodes)
        flow = stationary_flow(g)
        part = infomap(g, seed=2, trials=10, flow=flow)
        assert part.module_count == 1
        flow = flow_dicts(g, flow)
        one = map_equation({n: 0 for n in nodes}, flow)
        singletons = map_equation({n: i for i, n in enumerate(nodes)}, flow)
        assert one < singletons

    def test_disconnected_cycles_found_despite_teleport_coupling(self):
        edges = {
            ("x0", "x1"): 1.0, ("x1", "x2"): 1.0, ("x2", "x0"): 1.0,
            ("y0", "y1"): 1.0, ("y1", "y2"): 1.0, ("y2", "y0"): 1.0,
        }
        g = flow_graph(edges)
        flow = stationary_flow(g)
        part = infomap(g, seed=3, trials=10, flow=flow)
        best_length, best_assignment = exhaustive_min_codelength(flow_dicts(g, flow), map_equation)
        assert part.module_count == 2
        assert part.codelength == pytest.approx(best_length, abs=1e-9)
        assert len(set(best_assignment.values())) == 2

    def test_matches_exhaustive_minimum_on_random_corpus(self, checked_sweeps):
        rng = np.random.default_rng(16)
        checked = 0
        for trial in range(25):
            nodes, edges = random_flow_graph(rng, int(rng.integers(3, 9)))
            if not edges:
                continue
            g = flow_graph(edges, nodes)
            flow = stationary_flow(g)
            part = infomap(g, seed=trial, trials=10, flow=flow)
            flow = flow_dicts(g, flow)
            best_length, _ = exhaustive_min_codelength(flow, map_equation)
            assert part.codelength == pytest.approx(best_length, abs=1e-9)
            # the maintained codelength must agree with a from-scratch recompute
            assert part.codelength == pytest.approx(
                map_equation(part.assignment, flow), abs=1e-9
            )
            checked += 1
        assert checked >= 20
        assert len(checked_sweeps) >= 10 * checked  # each trial sweeps at least once
        assert min(checked_sweeps) < max(checked_sweeps)  # aggregated levels were checked too

    def test_codelength_not_above_trivial_partitions(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            nodes, edges = random_flow_graph(rng, 12, density=0.25)
            if not edges:
                continue
            g = flow_graph(edges, nodes)
            flow = stationary_flow(g)
            part = infomap(g, seed=trial, trials=4, flow=flow)
            flow = flow_dicts(g, flow)
            singletons = map_equation({n: i for i, n in enumerate(sorted(nodes))}, flow)
            one_module = map_equation({n: 0 for n in nodes}, flow)
            assert part.codelength <= singletons + 1e-9
            assert part.codelength <= one_module + 1e-9

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(18)
        nodes, edges = random_flow_graph(rng, 7)
        g = flow_graph(edges, nodes)
        part = infomap(g, seed=5, trials=10)
        relabel = {node: f"z{9 - i}" for i, node in enumerate(nodes)}
        g2 = flow_graph(
            {(relabel[u], relabel[v]): w for (u, v), w in edges.items()},
            [relabel[n] for n in nodes],
        )
        part2 = infomap(g2, seed=5, trials=10)
        assert part2.codelength == pytest.approx(part.codelength, abs=1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(19)
        nodes, edges = random_flow_graph(rng, 10)
        g = flow_graph(edges, nodes)
        a = infomap(g, seed=7, trials=5)
        b = infomap(g, seed=7, trials=5)
        assert a == b

    @pytest.mark.parametrize("trials", [0, -3])
    def test_fewer_than_one_trial_rejected(self, trials):
        g = flow_graph({("a", "b"): 1.0, ("b", "a"): 1.0})
        with pytest.raises(ValueError, match="trials must be at least 1"):
            infomap(g, seed=0, trials=trials)

    def test_isolated_nodes_become_singletons(self):
        g = flow_graph({("a", "b"): 1.0, ("b", "a"): 1.0}, ["a", "b", "iso1", "iso2"])
        part = infomap(g, seed=1, trials=4)
        assert part.assignment["iso1"] != part.assignment["iso2"]
        assert part.assignment["iso1"] not in (part.assignment["a"], part.assignment["b"])
        assert part.module_count == 3


@st.composite
def flow_graphs(draw):
    """Directed weighted graphs on 2-40 nodes; sparse enough to leave isolated and dangling nodes."""
    n = draw(st.integers(2, 40))
    nodes = [f"n{i:02d}" for i in range(n)]
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 60))
    edges = {}
    for u, v, w in draw(st.lists(edge, max_size=4 * n)):
        edges[(nodes[u], nodes[v])] = float(w)
    return flow_graph(edges, nodes)


class TestInfomapMatchesReference:
    """The cached-term sweep makes exactly the moves of the full-rescore reference."""

    @settings(max_examples=120, deadline=None)
    @given(flow_graphs())
    def test_random_graphs_identical_partition_and_codelength(self, g):
        flow = stationary_flow(g)
        for seed, trials in ((0, 1), (7, 3), (123, 5)):
            fast = infomap(g, seed=seed, trials=trials, flow=flow)
            reference = infomap_reference(g, seed=seed, trials=trials, flow=flow)
            assert fast.assignment == reference.assignment
            assert fast.codelength == reference.codelength

    def test_synthetic_municipality_days_identical(self, checked_sweeps):
        config = synth.lockdown_scenario_config(
            seed=3, n_provinces=6, municipalities_per_province=8, n_days=2, lockdown_day=1
        )
        for od in synth.generate_plan(config).municipality_ods():
            g = FlowGraph.from_od(od)
            flow = stationary_flow(g)
            checks_before = len(checked_sweeps)
            fast = infomap(g, seed=5, trials=4, flow=flow)
            assert len(checked_sweeps) - checks_before >= 4
            reference = infomap_reference(g, seed=5, trials=4, flow=flow)
            assert fast.module_count > 1
            assert fast.assignment == reference.assignment
            assert fast.codelength == reference.codelength


def _od(cells, day=DAY):
    return DailyOD.from_cells(day, "municipality", cells)


class TestCommunityCountSeries:
    def test_identical_days_identical_counts(self):
        cells = {("a", "b"): 2, ("b", "a"): 2, ("c", "d"): 2, ("d", "c"): 2}
        ods = [_od(cells, DAY + timedelta(days=i)) for i in range(3)]
        series = community_count_series(ods, seed=4, trials=4)
        assert len({d.community_count for d in series}) == 1

    def test_empty_day_flagged_with_registry_fallback(self):
        ods = [_od({}, DAY)]
        bare = community_count_series(ods, seed=0)
        assert bare[0].empty_day and bare[0].community_count == 0
        attached = community_count_series(ods, seed=0, registry_nodes=["a", "b", "c"])
        assert attached[0].empty_day and attached[0].community_count == 3

    def test_rolling_window_merges_days(self):
        day2 = DAY + timedelta(days=1)
        ods = [
            _od({("a", "b"): 1, ("b", "a"): 1}, DAY),
            _od({("c", "d"): 1, ("d", "c"): 1}, day2),
        ]
        single = community_count_series(ods, seed=0, window=1)
        rolled = community_count_series(ods, seed=0, window=2)
        assert single[1].community_count == 1  # only c<->d present that day
        assert rolled[1].community_count == 2  # a<->b carried into the window

    def test_rolling_window_counts_calendar_days(self):
        # no OD is stored for the four days between: a 2-day window ending on
        # the second day covers only that day
        later = DAY + timedelta(days=5)
        ods = [
            _od({("a", "b"): 1, ("b", "a"): 1}, DAY),
            _od({("c", "d"): 1, ("d", "c"): 1}, later),
        ]
        rolled = community_count_series(ods, seed=0, window=2)
        assert rolled[1].community_count == 1
        assert rolled[1].partition.assignment.keys() == {"c", "d"}
        wide = community_count_series(ods, seed=0, window=6)
        assert wide[1].community_count == 2
        with pytest.raises(ValueError, match="at least 1 day"):
            community_count_series(ods, seed=0, window=0)

    def test_csv_export_with_sunday_markers(self, tmp_path):
        sunday = date(2020, 3, 8)
        ods = [_od({("a", "b"): 1, ("b", "a"): 1}, d) for d in (sunday, sunday + timedelta(days=1))]
        series = community_count_series(ods, seed=0, trials=2)
        out = tmp_path / "counts.csv"
        write_community_counts_csv(series, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "date,community_count,is_sunday"
        assert lines[1] == "2020-03-08,1,1"
        assert lines[2] == "2020-03-09,1,0"

    def test_partition_dump_filtering(self):
        cells = {("a", "b"): 3, ("b", "a"): 3, ("c", "d"): 3, ("d", "c"): 3}
        series = community_count_series([_od(cells)], seed=1, trials=4)
        dump = partition_dump(series[0])
        assert {tuple(m["municipalities"]) for m in dump["modules"]} == {("a", "b"), ("c", "d")}
        filtered = partition_dump(series[0], municipality_filter=["a", "b"])
        assert [m["municipalities"] for m in filtered["modules"]] == [["a", "b"]]


def _helper_days():
    """Six plan days and an empty one at index 1, spaced so a 2-day window keeps it empty."""
    config = synth.lockdown_scenario_config(
        seed=2, n_provinces=4, municipalities_per_province=5, n_days=6, lockdown_day=3
    )
    ods = synth.generate_plan(config).municipality_ods()
    first = ods[0].date
    later = [dataclasses.replace(od, date=od.date + timedelta(days=2)) for od in ods[1:]]
    return [ods[0], _od({}, first + timedelta(days=2))] + later


def _fields(days):
    return [
        (
            d.date,
            None if d.partition is None else d.partition.assignment,
            None if d.partition is None else d.partition.codelength,
            d.community_count,
            d.empty_day,
        )
        for d in days
    ]


SERIES_KWARGS = dict(seed=3, trials=2, registry_nodes=["M_unseen", "M000_00"], window=2)


@pytest.fixture
def helpers(monkeypatch):
    """Two usable CPUs and a helper that is waited for, so it takes every other day.

    Returns the started helpers' Popen handles.
    """
    started = []
    start, ready = community._start_helper, community._helper_ready

    def start_and_record():
        started.append(start())
        return started[-1]

    def wait_until_ready(helper):
        select.select([helper.stdout], [], [], 60)
        return ready(helper)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(community, "_start_helper", start_and_record)
    monkeypatch.setattr(community, "_helper_ready", wait_until_ready)
    return started


def _serial(ods, monkeypatch, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        return community_count_series(ods, **kwargs)


class TestHelperProcess:
    def test_helper_path_equals_serial_path(self, helpers, monkeypatch):
        ods = _helper_days()
        detected_here = []
        detect = community._detect_days

        def detect_and_record(days, *args):
            detected_here.extend(od.date for od in days)
            return detect(days, *args)

        monkeypatch.setattr(community, "_detect_days", detect_and_record)
        shared = community_count_series(ods, **SERIES_KWARGS)
        assert len(helpers) == 1 and helpers[0].returncode == 0
        assert detected_here == [od.date for od in ods[0::2]]  # the helper did the rest
        serial = _serial(ods, monkeypatch, **SERIES_KWARGS)
        assert len(helpers) == 1  # one usable CPU: no helper
        assert _fields(shared) == _fields(serial)
        assert shared[1].empty_day and shared[1].community_count == 2
        assert sum(d.empty_day for d in shared) == 1

    def test_one_day_starts_no_helper(self, helpers):
        community_count_series(_helper_days()[:1], **SERIES_KWARGS)
        assert helpers == []

    @pytest.mark.parametrize("error", [RuntimeError("boom"), KeyboardInterrupt()])
    def test_no_helper_outlives_an_error_in_the_parents_share(self, helpers, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(community, "infomap", fail)  # the helper keeps the real one
        with pytest.raises(type(error)):
            community_count_series(_helper_days(), **SERIES_KWARGS)
        assert len(helpers) == 1 and helpers[0].returncode is not None

    @pytest.mark.parametrize(
        "source",
        [
            "import sys; sys.stdout.buffer.write(b'R')",  # ready, then exits without a result
            "import sys; sys.exit(3)",  # dies before it is ready
        ],
    )
    def test_helper_without_a_result_gives_the_serial_output(self, helpers, monkeypatch, source):
        monkeypatch.setattr(community, "_HELPER_SOURCE", source)
        ods = _helper_days()
        shared = community_count_series(ods, **SERIES_KWARGS)
        assert len(helpers) == 1 and helpers[0].returncode is not None
        assert _fields(shared) == _fields(_serial(ods, monkeypatch, **SERIES_KWARGS))

    def test_data_error_is_the_serial_one(self, helpers, monkeypatch):
        # Days 3 (the helper's) and 4 (the parent's) fail; serially day 3 fails first.
        ods = _helper_days()
        failing = {ods[3].date, ods[4].date}
        from_od = FlowGraph.from_od

        def from_od_failing(od, extra_nodes=()):
            if od.date in failing:
                raise ValueError(f"no graph on {od.date}")
            return from_od(od, extra_nodes)

        monkeypatch.setattr(FlowGraph, "from_od", from_od_failing)  # the helper keeps the real one
        monkeypatch.setattr(community, "_HELPER_SOURCE", "import sys; sys.stdout.buffer.write(b'R')")
        with pytest.raises(ValueError, match=f"no graph on {ods[3].date}$"):
            _serial(ods, monkeypatch, **SERIES_KWARGS)
        with pytest.raises(ValueError, match=f"no graph on {ods[3].date}$"):
            community_count_series(ods, **SERIES_KWARGS)
        assert len(helpers) == 1 and helpers[0].returncode is not None

    @pytest.mark.parametrize("fails", [False, True])
    def test_no_helper_outlives_report(self, helpers, monkeypatch, tmp_path, capsys, fails):
        config = tmp_path / "scenario.json"
        config.write_text('{"preset": "lockdown", "n_provinces": 3, "municipalities_per_province": 4, '
                          '"n_days": 6, "lockdown_day": 3, "seed": 1}')
        assert cli.main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
        if fails:
            def not_converged(*args, **kwargs):
                raise PowerIterationError(1.0, 7)

            monkeypatch.setattr(community, "stationary_flow", not_converged)
        argv = ["report", "--in", str(tmp_path / "data"), "--out", str(tmp_path / "out"), "--seed", "1", "--trials", "2"]
        assert cli.main(argv) == (2 if fails else 0)
        assert len(helpers) == 1 and helpers[0].returncode is not None
        assert ("not converged" in capsys.readouterr().err) == fails

    def test_serve_round_trip(self):
        ods = _helper_days()[:3]
        args = (1, 2, 0.15, ["M_unseen"])
        out = io.BytesIO()
        community._serve(io.BytesIO(pickle.dumps((args, ods))), out)
        reply = out.getvalue()
        assert reply[:1] == community._READY
        assert _fields(pickle.loads(reply[1:])) == _fields(community._detect_days(ods, *args))

    @pytest.mark.parametrize("trials", [None, 0])  # nothing sent; a data error
    def test_serve_writes_only_the_ready_byte_without_a_result(self, trials):
        sent = b"" if trials is None else pickle.dumps(((1, trials, 0.15, []), _helper_days()[:1]))
        out = io.BytesIO()
        community._serve(io.BytesIO(sent), out)
        assert out.getvalue() == community._READY
