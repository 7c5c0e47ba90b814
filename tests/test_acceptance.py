"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines as they
complete. Tolerances and runtime budgets are asserted, not just reported.
"""

import json
import math
import statistics
import time
from datetime import date, timedelta

import numpy as np

from mobflow import synth
from mobflow.cli import main as cli_main
from mobflow.cluster import SeriesMatrix, select_k
from mobflow.community import community_count_series, infomap, stationary_flow
from mobflow.diversity import diversity_series, flow_diversity
from mobflow.od import (
    DailyOD,
    ProvinceCube,
    aggregate_to_province,
    build_daily_od,
    load_daily_od,
    store_daily_od,
)

from oracles import (
    Event,
    entropy_direct,
    event_table,
    exhaustive_min_codelength,
    flow_dicts,
    flow_graph,
    map_equation,
    named_daily_trips,
    random_flow_graph,
    same_od,
    stationary_dense,
    tree_digest,
    trips_bruteforce,
)

DAY = date(2020, 3, 2)
TERRITORY_110 = ["A"] + [f"S{i}" for i in range(109)]


def _in_diversity(days: list[dict]) -> list[float]:
    """A's in-flow diversity on each day of a 110-province territory, through the cube."""
    ods = [DailyOD.from_cells(DAY + timedelta(days=i), "province", cells) for i, cells in enumerate(days)]
    return diversity_series(ProvinceCube.from_ods(ods, TERRITORY_110), "in").values[0].tolist()


def _report(number: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} ({elapsed:.1f}s / {budget:.0f}s budget): {detail}", flush=True)


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_1_entropy_correctness():
    budget = 1.0
    with Timer() as t:
        rng = np.random.default_rng(100)
        vectors = []
        for _ in range(1000):
            k = int(rng.integers(1, 60))
            vectors.append([int(c) for c in rng.integers(1, 10**6, size=k)])
        got = []
        for start in range(0, len(vectors), 100):  # 100 days per cube
            batch = vectors[start:start + 100]
            got += _in_diversity([{(f"S{i}", "A"): c for i, c in enumerate(v)} for v in batch])
        worst = 0.0
        for counts, value in zip(vectors, got):
            worst = max(worst, abs(value - entropy_direct(counts, 110)))
            worst = max(worst, abs(flow_diversity(counts, 110) - entropy_direct(counts, 110)))
        uniform, point = _in_diversity([{(f"S{i}", "A"): 3 for i in range(109)}, {("S0", "A"): 5}])
        uniform_err = abs(uniform - math.log(109) / math.log(110))
    ok = worst <= 1e-12 and uniform_err <= 1e-12 and point == 0.0 and t.elapsed < budget
    _report(1, ok, t.elapsed, budget,
            f"entropy vs direct summation on 1000 vectors, max |err| {worst:.2e}; "
            f"uniform-109 err {uniform_err:.2e}; point mass {point}")
    assert worst <= 1e-12
    assert uniform_err <= 1e-12
    assert point == 0.0
    assert t.elapsed < budget


def test_criterion_2_map_equation_optimality():
    budget = 120.0
    with Timer() as t:
        rng = np.random.default_rng(200)
        sizes = [8, 8, 7, 6, 5, 4]
        densities = [0.25, 0.45, 0.7]
        worst_gap = 0.0
        graphs = 0
        attempt = 0
        while graphs < 50:
            n = sizes[graphs % len(sizes)]
            density = densities[(graphs + attempt) % len(densities)]
            attempt += 1
            nodes, edges = random_flow_graph(rng, n, density=density)
            if not edges:
                continue
            g = flow_graph(edges, nodes)
            flow = stationary_flow(g)
            part = infomap(g, seed=graphs, trials=10, flow=flow)
            best_length, _ = exhaustive_min_codelength(flow_dicts(g, flow), map_equation)
            worst_gap = max(worst_gap, part.codelength - best_length)
            graphs += 1
    ok = worst_gap <= 1e-9 and t.elapsed < budget
    _report(2, ok, t.elapsed, budget,
            f"infomap equals exhaustive minimum on 50 graphs <= 8 nodes, worst gap {worst_gap:.2e}")
    assert worst_gap <= 1e-9
    assert t.elapsed < budget


def test_criterion_3_stationary_flow_oracle():
    budget = 30.0
    with Timer() as t:
        rng = np.random.default_rng(300)
        worst_p = 0.0
        worst_sum = 0.0
        graphs = 0
        while graphs < 100:
            n = int(rng.integers(2, 51))
            nodes, edges = random_flow_graph(rng, n, density=float(rng.uniform(0.05, 0.6)))
            if not edges:
                continue
            g = flow_graph(edges, nodes)
            flow = flow_dicts(g, stationary_flow(g))
            dense = stationary_dense(g)
            worst_p = max(worst_p, max(abs(flow.visit_rates[v] - dense[v]) for v in nodes))
            worst_sum = max(worst_sum, abs(sum(flow.visit_rates.values()) - 1.0))
            graphs += 1
    ok = worst_p <= 1e-9 and worst_sum <= 1e-10 and t.elapsed < budget
    _report(3, ok, t.elapsed, budget,
            f"power iteration vs dense solve on 100 graphs <= 50 nodes, worst |dp| {worst_p:.2e}, "
            f"worst |sum(p)-1| {worst_sum:.2e}")
    assert worst_p <= 1e-9
    assert worst_sum <= 1e-10
    assert t.elapsed < budget


def test_criterion_4_od_conservation(tmp_path):
    budget = 30.0
    with Timer() as t:
        rng = np.random.default_rng(400)
        n_munis, n_trips = 200, 10**6
        munis = [f"M{i:03d}" for i in range(n_munis)]
        mapping = {m: f"P{i % 20:02d}" for i, m in enumerate(munis)}
        origins = rng.integers(0, n_munis, size=n_trips)
        offsets = rng.integers(1, n_munis, size=n_trips)
        dests = (origins + offsets) % n_munis
        muni_od = build_daily_od(np.stack([origins, dests], axis=1), munis, DAY)
        province_od = aggregate_to_province(muni_od, mapping)
        muni_sum, province_sum = int(muni_od.count.sum()), int(province_od.count.sum())
        conserved = muni_sum == province_sum == n_trips
        store_daily_od(muni_od, tmp_path)
        round_trip = same_od(load_daily_od(tmp_path, DAY, "municipality"), muni_od)
    ok = conserved and round_trip and t.elapsed < budget
    _report(4, ok, t.elapsed, budget,
            f"1e6 trips: municipality sum {muni_sum}, province sum "
            f"{province_sum}, round-trip identity {round_trip}")
    assert conserved
    assert round_trip
    assert t.elapsed < budget


def test_criterion_5_trip_rule_oracle():
    budget = 60.0
    thresholds = (0, 1800, 3600, 7200)
    with Timer() as t:
        rng = np.random.default_rng(500)
        mismatches = 0
        for stream in range(10000):
            n = int(rng.integers(1, 51))
            times = np.sort(rng.integers(0, 86400, size=n))
            munis = rng.integers(0, 6, size=n)
            events = [Event("u", int(ts), f"M{m}") for ts, m in zip(times, munis)]
            threshold = thresholds[stream % len(thresholds)]
            # in UTC every stream lies within 1970-01-01
            got = named_daily_trips(event_table(events), threshold, "UTC").get(date(1970, 1, 1), [])
            if got != trips_bruteforce(events, threshold):
                mismatches += 1
    ok = mismatches == 0 and t.elapsed < budget
    _report(5, ok, t.elapsed, budget,
            f"daily_trips vs brute force on 10000 streams x thresholds {thresholds}, "
            f"{mismatches} mismatches")
    assert mismatches == 0
    assert t.elapsed < budget


def test_criterion_6_qualitative_reproduction(tmp_path):
    budget = 300.0
    with Timer() as t:
        # (a) + (b): the stated scenario end to end through the file pipeline
        config = synth.lockdown_scenario_config(seed=0)
        scenario = synth.generate(config, tmp_path / "data")
        split = config.regimes[-1].start_date
        rc = cli_main([
            "report", "--in", str(tmp_path / "data"), "--out", str(tmp_path / "results"),
            "--seed", "1", "--trials", "2",
        ])
        assert rc == 0
        summary = json.loads((tmp_path / "results" / "summary.json").read_text())

        drop = summary["flow_drop_pct"]
        a_ok = drop >= 50.0 and abs(drop - 60.0) <= 5.0

        b_ok = (
            summary["weekend_diversity_delta_post"] < 0.0
            and summary["weekend_diversity_delta_pre"] >= 0.0
        )

        # (c): 20 seeds on planned daily ODs
        increased = 0
        for seed in range(20):
            plan = synth.generate_plan(synth.lockdown_scenario_config(seed=seed))
            series = community_count_series(plan.municipality_ods(), seed=seed, trials=2)
            pre = [d.community_count for d in series if d.date < split]
            post = [d.community_count for d in series if d.date >= split]
            if statistics.median(post) > statistics.median(pre):
                increased += 1
        c_ok = increased >= 19  # >= 95% of 20 seeds
    ok = a_ok and b_ok and c_ok and t.elapsed < budget
    _report(6, ok, t.elapsed, budget,
            f"(a) inter-province drop {drop:.1f}% in [55, 65]; "
            f"(b) weekend delta pre {summary['weekend_diversity_delta_pre']:+.3f} >= 0 > "
            f"post {summary['weekend_diversity_delta_post']:+.3f}; "
            f"(c) community median increased in {increased}/20 seeds")
    assert a_ok
    assert b_ok
    assert c_ok
    assert t.elapsed < budget


def test_criterion_7_cluster_selection_recovery():
    budget = 120.0
    with Timer() as t:
        hits = 0
        for seed in range(20):
            config = synth.planted_levels_config(seed=seed)
            plan = synth.generate_plan(config)
            cube = ProvinceCube.from_ods(plan.province_ods(), plan.territory.provinces)
            matrix = SeriesMatrix.from_diversity(diversity_series(cube, "out"))
            if select_k(matrix, range(2, 21), seed=seed).k_star == 5:
                hits += 1
    ok = hits >= 19 and t.elapsed < budget
    _report(7, ok, t.elapsed, budget,
            f"select_k recovered the 5 planted levels in {hits}/20 seeds over 110 provinces")
    assert hits >= 19
    assert t.elapsed < budget


def test_criterion_8_report_determinism(tmp_path):
    budget = 300.0
    with Timer() as t:
        config = synth.lockdown_scenario_config(
            seed=21, n_provinces=8, municipalities_per_province=5, n_days=28,
            lockdown_day=14, inter_trips_per_province=60,
        )
        synth.generate(config, tmp_path / "data")
        digests = []
        for name in ("run1", "run2"):
            rc = cli_main([
                "report", "--in", str(tmp_path / "data"), "--out", str(tmp_path / name),
                "--seed", "17", "--trials", "4",
            ])
            assert rc == 0
            digests.append(tree_digest(tmp_path / name))
    ok = digests[0] == digests[1] and t.elapsed < budget
    _report(8, ok, t.elapsed, budget,
            f"two report runs with one seed are byte-identical ({digests[0][:12]}...)")
    assert digests[0] == digests[1]
    assert t.elapsed < budget
