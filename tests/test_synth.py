"""Scenario generator: determinism, conservation against ingest, planted effects."""

import json
from datetime import date, timedelta

import pytest

from mobflow import synth
from mobflow.diversity import diversity_series
from mobflow.ingest import daily_trips, load_registry, parse_records
from mobflow.od import ProvinceCube, build_daily_od

from oracles import tree_digest


def small_config(seed=0, **overrides):
    return synth.lockdown_scenario_config(
        seed=seed,
        n_provinces=4,
        municipalities_per_province=4,
        n_days=8,
        lockdown_day=4,
        inter_trips_per_province=30,
        **overrides,
    )


def _pipeline_daily_counts(scenario, dwell_threshold):
    registry = load_registry(scenario.registry_path)
    parsed = parse_records(scenario.cdr_files, scenario.xdr_files, registry)
    assert parsed.rejected_count == 0
    by_day = daily_trips(parsed, dwell_threshold)
    return {day: len(trips) for day, trips in by_day.items()}


class TestDeterminism:
    def test_generate_twice_byte_identical(self, tmp_path):
        config = small_config(seed=5)
        synth.generate(config, tmp_path / "a")
        synth.generate(config, tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_different_seed_changes_output(self, tmp_path):
        synth.generate(small_config(seed=1), tmp_path / "a")
        synth.generate(small_config(seed=2), tmp_path / "b")
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")


class TestConservation:
    def test_manifest_totals_match_extracted_trips(self, tmp_path):
        config = small_config(seed=7)
        scenario = synth.generate(config, tmp_path)
        truth = json.loads(scenario.ground_truth_path.read_text())
        for threshold in (0, 3600):
            counts = _pipeline_daily_counts(scenario, threshold)
            for day_raw, totals in truth["daily_totals"].items():
                assert counts[date.fromisoformat(day_raw)] == totals["total"]

    def test_extracted_od_cells_match_plan(self, tmp_path):
        config = small_config(seed=8)
        scenario = synth.generate(config, tmp_path)
        registry = load_registry(scenario.registry_path)
        parsed = parse_records(scenario.cdr_files, scenario.xdr_files, registry)
        by_day = daily_trips(parsed)
        for day, cells in scenario.plan.daily_cells.items():
            got = build_daily_od(by_day[day], parsed.municipalities, day)
            assert got.cells == cells

    def test_dwell_violations_reverse_trips(self, tmp_path):
        config = small_config(seed=9, dwell_violation_rate=0.3)
        scenario = synth.generate(config, tmp_path)
        # at the one-hour rule the reversed plan cells are what comes out
        counts = _pipeline_daily_counts(scenario, 3600)
        for day, totals in scenario.plan.daily_totals.items():
            assert counts[day] == totals.total
        # at threshold 0 the rejected candidates come back, strictly inflating counts
        zero_counts = _pipeline_daily_counts(scenario, 0)
        assert sum(zero_counts.values()) > sum(counts.values())
        violated = sum(
            1 for trips in scenario.plan.daily_trips.values() for (_, _, v) in trips if v
        )
        assert sum(zero_counts.values()) == sum(counts.values()) + violated


class TestPlantedEffects:
    def test_flow_scale_drop_measured(self):
        config = small_config(seed=11)
        plan = synth.generate_plan(config)
        split = config.regimes[-1].start_date
        pre = [t.inter_province for d, t in plan.daily_totals.items() if d < split]
        post = [t.inter_province for d, t in plan.daily_totals.items() if d >= split]
        drop = 1.0 - (sum(post) / len(post)) / (sum(pre) / len(pre))
        assert drop == pytest.approx(0.6, abs=0.05)

    def test_bridge_scale_shrinks_bridge_cells(self):
        config = small_config(seed=12)
        plan = synth.generate_plan(config)
        territory = plan.territory
        bridges = territory.bridges_by_province["P000"]
        pre_day, post_day = config.dates[0], config.dates[-1]
        pre_total = sum(plan.daily_cells[pre_day].get(b, 0) for b in bridges)
        post_total = sum(plan.daily_cells[post_day].get(b, 0) for b in bridges)
        assert post_total == pytest.approx(0.2 * pre_total, rel=0.01)

    def test_planted_levels_recorded_and_distinct(self):
        config = synth.planted_levels_config(seed=3, n_provinces=20, n_days=3)
        plan = synth.generate_plan(config)
        groups = plan.planted_cluster_groups
        assert set(groups.values()) == {0, 1, 2, 3, 4}
        cube = ProvinceCube.from_ods(plan.province_ods()[:1], plan.territory_index().provinces)
        by_group = {}
        for series in diversity_series(cube, "out"):
            by_group.setdefault(groups[series.province_id], []).append(series.values[0])
        means = sorted(sum(v) / len(v) for v in by_group.values())
        assert all(b - a > 0.05 for a, b in zip(means, means[1:]))

    def test_ground_truth_manifest_contents(self, tmp_path):
        scenario = synth.generate(small_config(seed=13), tmp_path)
        truth = json.loads(scenario.ground_truth_path.read_text())
        assert truth["territory"]["n_provinces"] == 4
        assert len(truth["daily_totals"]) == 8
        assert len(truth["regimes"]) == 2
        assert truth["planted_communities"]  # intra-province structure is recorded
        assert truth["planted_cluster_levels"] is None


class TestConfigValidation:
    def test_zero_population_rejected(self):
        with pytest.raises(synth.ScenarioConfigError, match="population"):
            small_config(population_per_municipality=0)

    def test_scales_must_be_in_unit_interval(self):
        with pytest.raises(synth.ScenarioConfigError, match="flow_scale"):
            small_config(flow_scale=0.0)
        with pytest.raises(synth.ScenarioConfigError, match="bridge_scale"):
            small_config(bridge_scale=1.5)

    def test_regime_dates_must_increase(self):
        start = date(2020, 2, 3)
        with pytest.raises(synth.ScenarioConfigError, match="increasing"):
            synth.ScenarioConfig(
                n_provinces=3,
                municipalities_per_province=2,
                start_date=start,
                n_days=5,
                seed=0,
                regimes=[
                    synth.RegimePhase(start_date=start + timedelta(days=2)),
                    synth.RegimePhase(start_date=start),
                ],
            )

    def test_first_regime_must_cover_start(self):
        start = date(2020, 2, 3)
        with pytest.raises(synth.ScenarioConfigError, match="cover"):
            synth.ScenarioConfig(
                n_provinces=3,
                municipalities_per_province=2,
                start_date=start,
                n_days=5,
                seed=0,
                regimes=[synth.RegimePhase(start_date=start + timedelta(days=1))],
            )

    def test_duplicate_levels_rejected(self):
        with pytest.raises(synth.ScenarioConfigError, match="distinct"):
            synth.planted_levels_config(seed=0, levels=[0.2, 0.2, 0.5])
