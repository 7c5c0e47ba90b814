"""Stationary flow, map equation, and the greedy map-equation optimizer."""

import copy
import dataclasses
import io
import math
import os
import pickle
import random
import signal
import sys
import threading
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
    community_counts_table,
    infomap,
    stationary_flow,
    partition_dump,
)

from oracles import (
    assert_consistent,
    exhaustive_min_codelength,
    flow_dicts,
    flow_graph,
    from_cells,
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
        # every node has an out-edge, so recorded flow is exactly 1 - TELEPORT
        g = flow_graph(
            {("a", "b"): 3.0, ("b", "c"): 1.0, ("c", "a"): 2.0, ("a", "c"): 1.0}
        )
        flow = stationary_flow(g)
        assert sum(flow.edge_flows.tolist()) == pytest.approx(0.85, abs=1e-10)

    def test_dangling_mass_not_recorded_as_edge_flow(self):
        g = flow_graph({("a", "b"): 1.0})  # b is dangling
        flow = flow_dicts(g, stationary_flow(g))
        expected = 0.85 * flow.visit_rates["a"]
        assert sum(flow.edge_flows.values()) == pytest.approx(expected, abs=1e-12)

    def test_non_convergence_error_carries_residual(self, monkeypatch):
        g = flow_graph({("a", "b"): 1.0, ("b", "a"): 1.0, ("a", "c"): 1.0, ("c", "a"): 1.0})
        monkeypatch.setattr(community, "POWER_TOL", 1e-30)
        monkeypatch.setattr(community, "POWER_MAX_ITER", 3)
        with pytest.raises(PowerIterationError) as err:
            stationary_flow(g)
        assert err.value.residual > 0.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            stationary_flow(flow_graph({}))

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
        flow = flow_dicts(g, stationary_flow(g))
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
        part = infomap(g, seed=1, trials=10)
        best_length, _ = exhaustive_min_codelength(flow_dicts(g, flow), map_equation)
        assert part.module_count == 2
        assert part.codelength == pytest.approx(best_length, abs=1e-9)
        groups = sorted(sorted(m) for m in part.modules().values())
        assert groups == [["a0", "a1", "a2", "a3"], ["b0", "b1", "b2", "b3"]]

    def test_single_clique_stays_one_module(self):
        nodes, edges = clique("c", 5)
        g = flow_graph(edges, nodes)
        flow = stationary_flow(g)
        part = infomap(g, seed=2, trials=10)
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
        part = infomap(g, seed=3, trials=10)
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
            part = infomap(g, seed=trial, trials=10)
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
            part = infomap(g, seed=trial, trials=4)
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
        for seed, trials in ((0, 1), (7, 3), (123, 5)):
            fast = infomap(g, seed=seed, trials=trials)
            reference = infomap_reference(g, seed=seed, trials=trials)
            assert fast.assignment == reference.assignment
            assert fast.codelength == reference.codelength

    def test_synthetic_municipality_days_identical(self, checked_sweeps, monkeypatch):
        still = community._still
        certified = []  # the level size of every sweep `_still` certified

        def still_and_record(state):
            done = still(state)
            if done:
                certified.append(state.level.size)
            return done

        monkeypatch.setattr(community, "_still", still_and_record)
        config = synth.lockdown_scenario_config(
            seed=3, n_provinces=6, municipalities_per_province=8, n_days=2, lockdown_day=1
        )
        for od in synth.generate_plan(config).municipality_ods():
            g = FlowGraph.from_od(od)
            checks_before, certified_before = len(checked_sweeps), len(certified)
            fast = infomap(g, seed=5, trials=4)
            assert len(checked_sweeps) - checks_before >= 4
            assert len(g.nodes) in certified[certified_before:]  # a flat-level sweep took the fast path
            reference = infomap_reference(g, seed=5, trials=4)
            assert fast.module_count > 1
            assert fast.assignment == reference.assignment
            assert fast.codelength == reference.codelength


def _copy_state(state):
    """An independent copy of a swept state: its lists copied, its level shared."""
    clone = copy.copy(state)
    for name in ("module_of", "exit", "flow", "size", "plogp_exit", "plogp_circ", "_empty"):
        setattr(clone, name, list(getattr(state, name)))
    return clone


def _snapshot(state):
    return (state.module_of, state.exit, state.flow, state.size, state.plogp_exit, state.plogp_circ,
            state._empty, state.sum_exit, state.s1, state.s2)


def _ordered_sweep_moves(state, seed=0):
    """How many nodes one Python sweep of a copy of `state`, in a seeded order, moves."""
    order = list(range(state.level.size))
    random.Random(seed).shuffle(order)
    return community._visit(_copy_state(state), order, dry_run=False)


def _tie_state(lean):
    """Two 4-cliques a and b, and a node x joined to every member of both, with x in a's module.

    x's edges to b weigh 1 + lean against 1 to a. At lean 0 moving x to b
    changes the codelength by a rounding error only; every other move loses.
    """
    edges = {}
    for side, w in (("a", 1.0), ("b", 1.0 + lean)):
        for i in range(4):
            for j in range(4):
                if i != j:
                    edges[(f"{side}{i}", f"{side}{j}")] = 1.0
            edges[("x", f"{side}{i}")] = w
            edges[(f"{side}{i}", "x")] = w
    g = flow_graph(edges)
    level = community._flat_level(g, stationary_flow(g))
    node_term = sum(community._plogp(p) for p in level.node_flow)
    a, b = g.nodes.index("a0"), g.nodes.index("b0")
    return community._MapState(level, [b if name[0] == "b" else a for name in g.nodes], node_term), g.nodes.index("x")


class TestStillCertificate:
    """`_still` certifies exactly the states from which a sweep, in any order, moves no node."""

    @settings(max_examples=80, deadline=None)
    @given(flow_graphs(), st.integers(0, 2**16))
    def test_agrees_with_an_ordered_sweep_at_every_level(self, g, seed):
        sweep = community._sweep_until_stable
        checked = []

        def check(state):
            before = copy.deepcopy(_snapshot(state))
            still = community._still(state)
            assert _snapshot(state) == before  # the certificate changes nothing
            assert still == (_ordered_sweep_moves(state, seed) == 0)
            checked.append(state.level.size)
            return still

        def sweep_checking_still(state, rng):
            check(state)  # forced before every call, whatever the try rule says
            moved = sweep(state, rng)
            assert check(state)  # a sweep stops where no node moves
            return moved

        with pytest.MonkeyPatch.context() as m:
            m.setattr(community, "_sweep_until_stable", sweep_checking_still)
            fast = infomap(g, seed=seed, trials=2)
        reference = infomap_reference(g, seed=seed, trials=2)
        assert fast.assignment == reference.assignment
        assert fast.codelength == reference.codelength
        assert len(g.nodes) in checked

    @pytest.mark.parametrize("lean, moves", [(0.0, False), (3e-11, True)])
    def test_a_delta_inside_the_margin_is_rescored_exactly(self, monkeypatch, lean, moves):
        state, x = _tie_state(lean)
        visit, dry_runs = community._visit, []

        def visit_and_record(state, nodes, dry_run):
            nodes = list(nodes)
            if dry_run:
                dry_runs.append(nodes)
            return visit(state, nodes, dry_run)

        monkeypatch.setattr(community, "_visit", visit_and_record)
        assert community._still(state) == (not moves)
        assert dry_runs == [[x]]  # only x's move to b lay inside the margin
        assert [_ordered_sweep_moves(state, seed) for seed in range(3)] == [int(moves)] * 3

    def test_a_nan_flow_gets_no_certificate(self):
        level = community._Level.from_edges([0.4, 0.4, math.nan], [0, 1, 2, 0], [1, 0, 0, 2], [0.3, 0.3, 0.1, 0.1])
        assert math.isnan(level.margin)
        state = community._MapState(level, [0, 0, 2], node_term=0.0)
        assert not community._still(state)

    def test_margin_is_wide_enough_and_narrow_enough(self):
        # Far above a delta's rounding error; far below the smallest real gain on
        # scenario days, where a wide margin would send every node to the Python path.
        state, _ = _tie_state(0.0)
        assert 1e-12 < state.level.margin < 1e-9


def _od(cells, day=DAY):
    return from_cells(day, cells)


class TestCommunityCountSeries:
    def test_identical_days_identical_counts(self):
        cells = {("a", "b"): 2, ("b", "a"): 2, ("c", "d"): 2, ("d", "c"): 2}
        ods = [_od(cells, DAY + timedelta(days=i)) for i in range(3)]
        series = community_count_series(ods, seed=4, trials=4)
        assert len({d.community_count for d in series}) == 1

    def test_empty_day_flagged_and_counts_zero(self):
        bare = community_count_series([_od({}, DAY)], seed=0, trials=10)
        assert bare[0].empty_day and bare[0].community_count == 0

    def test_csv_export_with_sunday_markers(self, tmp_path):
        sunday = date(2020, 3, 8)
        ods = [_od({("a", "b"): 1, ("b", "a"): 1}, d) for d in (sunday, sunday + timedelta(days=1))]
        series = community_count_series(ods, seed=0, trials=2)
        out = tmp_path / "counts.csv"
        cli._write_csv(out, community_counts_table(series))
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
    """Six plan days with an empty day after the first, in date order."""
    config = synth.lockdown_scenario_config(
        seed=2, n_provinces=4, municipalities_per_province=5, n_days=6, lockdown_day=3
    )
    ods = synth.generate_plan(config).municipality_ods()
    later = [dataclasses.replace(od, date=od.date + timedelta(days=1)) for od in ods[1:]]
    return [ods[0], _od({}, ods[1].date)] + later


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


SERIES_KWARGS = dict(seed=3, trials=2)


@pytest.fixture
def helpers(monkeypatch):
    """Two usable CPUs; returns the started helpers' Popen handles."""
    started = []
    start = community._start_helper

    def start_and_record():
        started.append(start())
        return started[-1]

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(community, "_start_helper", start_and_record)
    return started


def _serial(ods, monkeypatch, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        return community_count_series(ods, **kwargs)


# A helper that fails on every day it is sent, as the parent's patched stationary_flow does.
_NOT_CONVERGING_HELPER = (
    "from mobflow import community\n"
    "def not_converged(*args, **kwargs):\n"
    "    raise community.PowerIterationError(1.0, 7)\n"
    "community.stationary_flow = not_converged\n"
    "community._serve()"
)


def _record_claims(monkeypatch, on_help=lambda: None):
    """Record the dates this process detects, sends to the helper and gets back from it."""
    detected_here, sent, helped = [], [], []
    detect, ask = community._detect_day, community._ask

    def detect_and_record(od, *args):
        detected_here.append(od.date)
        return detect(od, *args)

    def ask_and_record(helper, od):
        sent.append(od.date)
        day = ask(helper, od)
        helped.append(day.date)
        on_help()
        return day

    monkeypatch.setattr(community, "_detect_day", detect_and_record)
    monkeypatch.setattr(community, "_ask", ask_and_record)
    return detected_here, sent, helped


def _assert_not_crashed(helper):
    """The helper exited on its own at the end of its input, or was killed after it: it did not crash."""
    assert helper.returncode in (0, -signal.SIGKILL)


class TestHelperProcess:
    def test_helper_path_equals_serial_path(self, helpers, monkeypatch):
        ods = _helper_days()
        first_help = threading.Event()
        detected_here, sent, helped = _record_claims(monkeypatch, first_help.set)
        # This process claims no day before the helper has returned one.
        shared = community_count_series(ods, **SERIES_KWARGS, meanwhile=lambda: first_help.wait(60))
        assert len(helpers) == 1
        _assert_not_crashed(helpers[0])
        assert helped  # the helper took at least one day
        assert helped == sent  # and returned every day it was sent
        assert sorted(detected_here + helped) == [od.date for od in ods]  # each day exactly once
        serial = _serial(ods, monkeypatch, **SERIES_KWARGS)
        assert len(helpers) == 1  # one usable CPU: no helper
        assert _fields(shared) == _fields(serial)
        assert shared[1].empty_day and shared[1].community_count == 0
        assert sum(d.empty_day for d in shared) == 1

    def test_each_day_claimed_once_under_fast_thread_switching(self, helpers, monkeypatch):
        cells = {("a", "b"): 1, ("b", "a"): 1, ("c", "d"): 2, ("d", "c"): 1}
        ods = [_od(cells, DAY + timedelta(days=i)) for i in range(60)]
        detected_here, sent, helped = _record_claims(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shared = community_count_series(ods, seed=0, trials=1)
        finally:
            sys.setswitchinterval(interval)
        assert len(helpers) == 1
        _assert_not_crashed(helpers[0])
        assert helped == sent
        assert sorted(detected_here + helped) == [od.date for od in ods]
        assert [d.date for d in shared] == [od.date for od in ods]
        assert all(d.community_count == 2 for d in shared)

    def test_each_claimant_detects_the_days_it_claims(self, helpers, monkeypatch):
        ods = _helper_days()
        shared = community_count_series(ods, **SERIES_KWARGS)
        assert len(helpers) == 1
        serial = _serial(ods, monkeypatch, **SERIES_KWARGS)
        assert _fields(shared) == _fields(serial)
        for day, od in zip(serial, ods, strict=True):
            assert day.empty_day == (not od.cells)
            if od.cells:
                want = infomap(flow_graph(od.cells), seed=SERIES_KWARGS["seed"], trials=SERIES_KWARGS["trials"])
                assert day.partition == want

    def test_one_day_starts_no_helper(self, helpers):
        community_count_series(_helper_days()[:1], **SERIES_KWARGS)
        assert helpers == []

    @pytest.mark.parametrize("error", [RuntimeError("boom"), KeyboardInterrupt()])
    def test_no_helper_outlives_an_error_in_the_parents_share(self, helpers, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(community, "infomap", fail)  # the helper keeps the real one
        threads = threading.active_count()
        with pytest.raises(type(error)):
            community_count_series(_helper_days(), **SERIES_KWARGS)
        assert len(helpers) == 1 and helpers[0].returncode is not None
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "source",
        [
            "import sys; sys.stdin.buffer.read(1)",  # takes input, then exits without a result
            "import sys; sys.exit(3)",  # dies at once
        ],
    )
    def test_helper_without_a_result_gives_the_serial_output(self, helpers, monkeypatch, source):
        monkeypatch.setattr(community, "_HELPER_SOURCE", source)
        ods = _helper_days()
        shared = community_count_series(ods, **SERIES_KWARGS)
        assert len(helpers) == 1 and helpers[0].returncode is not None
        assert _fields(shared) == _fields(_serial(ods, monkeypatch, **SERIES_KWARGS))

    def test_data_error_is_the_serial_one(self, helpers, monkeypatch):
        # Days 3 and 4 fail; serially day 3 fails first, though this process meets day 4 first.
        ods = _helper_days()
        failing = {ods[3].date, ods[4].date}
        from_od = FlowGraph.from_od

        def from_od_failing(od):
            if od.date in failing:
                raise ValueError(f"no graph on {od.date}")
            return from_od(od)

        monkeypatch.setattr(FlowGraph, "from_od", from_od_failing)  # the helper keeps the real one
        monkeypatch.setattr(community, "_HELPER_SOURCE", "import sys; sys.stdin.buffer.read(1)")
        with pytest.raises(ValueError, match=f"no graph on {ods[3].date}$"):
            _serial(ods, monkeypatch, **SERIES_KWARGS)
        with pytest.raises(ValueError, match=f"no graph on {ods[3].date}$"):
            community_count_series(ods, **SERIES_KWARGS)
        assert len(helpers) == 1 and helpers[0].returncode is not None

    def _report_argv(self, tmp_path):
        config = tmp_path / "scenario.json"
        config.write_text('{"preset": "lockdown", "n_provinces": 3, "municipalities_per_province": 4, '
                          '"n_days": 6, "lockdown_day": 3, "seed": 1}')
        assert cli.main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
        return ["report", "--in", str(tmp_path / "data"), "--out", str(tmp_path / "out"), "--seed", "1", "--trials", "2"]

    @pytest.mark.parametrize("fails", [False, True])
    def test_no_helper_outlives_report(self, helpers, monkeypatch, tmp_path, capsys, fails):
        argv = self._report_argv(tmp_path)
        if fails:
            # the failure reaches every day, whichever process claims it
            def not_converged(*args, **kwargs):
                raise PowerIterationError(1.0, 7)

            monkeypatch.setattr(community, "stationary_flow", not_converged)
            monkeypatch.setattr(community, "_HELPER_SOURCE", _NOT_CONVERGING_HELPER)
        assert cli.main(argv) == (2 if fails else 0)
        assert len(helpers) == 1 and helpers[0].returncode is not None
        assert ("not converged" in capsys.readouterr().err) == fails

    @pytest.mark.parametrize("error", [RuntimeError("clustering failed"), KeyboardInterrupt()])
    def test_no_helper_outlives_an_error_in_the_tables(self, helpers, monkeypatch, tmp_path, error):
        argv = self._report_argv(tmp_path)

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "_write_clusters", fail)  # runs while the helper detects
        threads = threading.active_count()
        with pytest.raises(type(error)):
            cli.main(argv)
        assert len(helpers) == 1 and helpers[0].returncode is not None
        assert threading.active_count() == threads

    def test_serve_round_trip(self):
        ods = _helper_days()[:3]
        args = (1, 2)
        sent = pickle.dumps(args) + b"".join(pickle.dumps(od) for od in ods)
        out = io.BytesIO()
        community._serve(io.BytesIO(sent), out)
        out.seek(0)
        replies = [pickle.load(out) for _ in ods]
        assert out.read() == b""
        assert _fields(replies) == _fields(community._detect_day(od, *args) for od in ods)

    @pytest.mark.parametrize("trials", [None, 0])  # nothing sent; a data error
    def test_serve_writes_nothing_without_a_result(self, trials):
        sent = b"" if trials is None else pickle.dumps((1, trials)) + pickle.dumps(_helper_days()[0])
        out = io.BytesIO()
        community._serve(io.BytesIO(sent), out)
        assert out.getvalue() == b""
