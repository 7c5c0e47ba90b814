"""Scenario generator: determinism, conservation against ingest, planted effects."""

import json
import tempfile
from datetime import date, timedelta
from pathlib import Path
from unittest import mock
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobflow import synth
from mobflow.diversity import diversity_series
from mobflow.ingest import daily_trips, load_registry, parse_records
from mobflow.od import aggregate_to_province, build_daily_od

from oracles import generate_plan_reference, tree_digest


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


@st.composite
def small_configs(draw):
    """Both presets on small territories, weekends included, violations on or off."""
    n_days = draw(st.integers(1, 9))
    common = dict(
        n_provinces=draw(st.integers(2, 8)),
        municipalities_per_province=draw(st.integers(1, 4)),
        n_days=n_days,
        start_date=date(2020, 2, 3) + timedelta(days=draw(st.integers(0, 6))),
        inter_trips_per_province=draw(st.integers(0, 40)),
        communities_per_province=draw(st.integers(1, 5)),
        intra_trips_per_pair=draw(st.integers(0, 4)),
        bridge_trips_per_pair=draw(st.integers(0, 10)),
        dwell_violation_rate=draw(st.sampled_from([0.0, 0.3])),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        levels = draw(st.lists(st.sampled_from([0.15, 0.35, 0.55, 0.75, 0.92]), min_size=1, max_size=5, unique=True))
        return synth.planted_levels_config(seed, levels=levels, **common)
    share = st.sampled_from([0.1, 0.3, 0.5, 1.0])
    return synth.lockdown_scenario_config(
        seed,
        lockdown_day=draw(st.integers(1, n_days)),
        flow_scale=draw(share),
        bridge_scale=draw(share),
        weekend_concentration=draw(share),
        **common,
    )


def _pipeline_daily_counts(scenario, dwell_threshold):
    registry = load_registry(scenario.registry_path)
    parsed = parse_records(scenario.cdr_files, scenario.xdr_files, registry)
    assert parsed.rejected_count == 0
    by_day = daily_trips(parsed, dwell_threshold, ZoneInfo(scenario.plan.config.timezone))
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


# A two-day lockdown scenario whose first day's draws reject one Lemire product
# (about 3.5e-7 per trip, so random configs never do): without the rejection
# loop its bytes would differ from numpy's.
REJECTING_CONFIG = synth.lockdown_scenario_config(
    3944, n_provinces=3, municipalities_per_province=3, n_days=2, lockdown_day=1, inter_trips_per_province=40,
    intra_trips_per_pair=20, dwell_violation_rate=0.3, antennas_per_municipality=3,
)


class TestGeneratedBytes:
    """`generate` draws its per-trip values from `synth._Draws`; the files are those numpy's draws write."""

    @given(small_configs())
    @example(REJECTING_CONFIG)
    @settings(max_examples=30, deadline=None)
    def test_replica_writes_the_bytes_of_numpys_generator(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            synth.generate(config, root / "replica")
            with mock.patch.object(synth, "_Draws", np.random.default_rng):
                synth.generate(config, root / "numpy")
            assert tree_digest(root / "replica") == tree_digest(root / "numpy")

    @pytest.mark.parametrize(
        "config, digest",
        [
            (REJECTING_CONFIG, "b368a0605650a1a9a93874d3bc1a297fd92cfb5b7208b4f03675a2b57e886e45"),
            (
                synth.planted_levels_config(4, n_provinces=8, n_days=3, municipalities_per_province=2,
                                            dwell_violation_rate=0.3),
                "24537ba22ee262c5a6b18017a92c8c2a989895a0abb3984f19bc8a9f3cc4cd5b",
            ),
        ],
        ids=["lockdown", "planted_levels"],
    )
    def test_generated_bytes_are_pinned(self, tmp_path, config, digest):
        # written by numpy's own scalar Generator calls, so any change to the draw stream fails here
        synth.generate(config, tmp_path)
        assert tree_digest(tmp_path) == digest


# Widths where generate draws (antenna picks, minutes, kilobytes), anywhere up to
# the widest range, and just above 2**31, where about half of all products are rejected.
_WIDTHS = st.one_of(
    st.integers(1, 3000),
    st.integers(1, 2**32),
    st.integers(2**31 + 1, 2**31 + 2**20),
    st.sampled_from([2**31, 2**32 - 1, 2**32]),
)
_CALLS = st.lists(st.one_of(st.none(), st.tuples(st.integers(-(2**40), 2**40), _WIDTHS)), max_size=60)


class TestDraws:
    @given(
        seed=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
        calls=_CALLS,
        fetch=st.sampled_from([1, 2, 3, 7, synth._WORDS_PER_FETCH]),
    )
    @settings(max_examples=300, deadline=None)
    def test_returns_numpys_values_for_any_sequence_of_calls(self, seed, calls, fetch):
        """`None` calls random(), (low, width) calls integers(low, low + width); small fetches cross chunk ends."""
        rng = np.random.default_rng(seed)
        with mock.patch.object(synth, "_WORDS_PER_FETCH", fetch):
            draws = synth._Draws(seed)
            for call in calls:
                if call is None:
                    got, want = draws.random(), rng.random()
                    assert type(got) is float
                else:
                    low, width = call
                    got, want = draws.integers(low, low + width), rng.integers(low, low + width)
                    assert type(got) is int
                assert got == want, call

    @pytest.mark.parametrize("low, high", [(0, 0), (5, 4), (0, 2**32 + 1), (-(2**40), 2**40)])
    def test_rejects_empty_and_over_wide_ranges(self, low, high):
        with pytest.raises(ValueError, match="width"):
            synth._Draws(0).integers(low, high)


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
        config = small_config(seed=8, dwell_violation_rate=0.3)
        scenario = synth.generate(config, tmp_path)
        plan = scenario.plan
        registry = load_registry(scenario.registry_path)
        parsed = parse_records(scenario.cdr_files, scenario.xdr_files, registry)
        by_day = daily_trips(parsed, 3600, ZoneInfo(config.timezone))
        # parsed names and users both sort in plan order here, so extraction
        # gives back the planned rows, each violated one reversed
        assert parsed.municipalities == plan.territory.municipalities
        for day, cells in plan.daily_cells.items():
            got = build_daily_od(by_day[day], parsed.municipalities, day)
            assert got.cells == cells
            trips, violated = plan.daily_trips[day], plan.daily_violations[day]
            assert np.array_equal(by_day[day], np.where(violated[:, None], trips[:, ::-1], trips))

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
        violated = sum(int(flags.sum()) for flags in scenario.plan.daily_violations.values())
        assert violated > 0
        assert sum(zero_counts.values()) == sum(counts.values()) + violated


def _assert_plan_matches_reference(config):
    plan, reference = synth.generate_plan(config), generate_plan_reference(config)
    names = plan.territory.municipalities
    assert list(plan.daily_trips) == list(plan.daily_violations) == config.dates
    for day, expected in reference.daily_trips.items():
        trips, violated = plan.daily_trips[day], plan.daily_violations[day]
        assert trips.dtype == np.int64 and trips.shape == (len(expected), 2)
        assert violated.dtype == bool and violated.shape == (len(expected),)
        rows = zip(trips.tolist(), violated.tolist())
        assert [(names[o], names[d], v) for (o, d), v in rows] == expected
    assert plan.daily_totals == reference.daily_totals
    assert plan.daily_cells == reference.daily_cells
    assert plan.planted_cluster_groups == reference.planted_cluster_groups


class TestPlanMatchesReference:
    """The coded planner against the trip-by-trip generator it replaced."""

    @given(small_configs())
    @example(synth.lockdown_scenario_config(0, n_provinces=2, municipalities_per_province=101, n_days=2,
                                            lockdown_day=1, intra_trips_per_pair=1, dwell_violation_rate=0.3))
    @settings(max_examples=80, deadline=None)
    def test_generate_plan_equals_reference(self, config):
        _assert_plan_matches_reference(config)

    def test_partners_planned_in_name_order_past_a_thousand_provinces(self):
        # P1000 sorts before P991, so province codes leave name order here
        config = synth.planted_levels_config(seed=0, n_provinces=1001, n_days=1, inter_trips_per_province=40)
        _assert_plan_matches_reference(config)


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
        cube = aggregate_to_province(plan.municipality_ods()[:1], plan.territory.muni_to_province)
        by_group = {}
        diversity = diversity_series(cube, "out")
        for province, value in zip(diversity.provinces, diversity.values[:, 0].tolist()):
            by_group.setdefault(groups[province], []).append(value)
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("inter_trips_per_province", -1),
            ("intra_trips_per_pair", -3),
            ("bridge_trips_per_pair", -1),
            ("antennas_per_municipality", 0),
            ("cdr_fraction", 7),
            ("cdr_fraction", -0.1),
            ("dwell_violation_rate", 1.5),
            ("dwell_violation_rate", float("nan")),
            ("n_provinces", 2.5),
            ("municipalities_per_province", 2.5),
            ("n_days", 2.5),
            ("communities_per_province", 2.5),
            ("intra_trips_per_pair", 2.5),
            ("bridge_trips_per_pair", 2.5),
            ("antennas_per_municipality", 2.5),
            ("n_days", 2.0),
            ("intra_trips_per_pair", 2.0),
            # the type is checked before any comparison could raise TypeError
            ("inter_trips_per_province", "x"),
            ("cdr_fraction", "x"),
            ("dwell_violation_rate", None),
            ("flow_scale", "x"),
            ("weekend_concentration", [0.5]),
            ("lockdown_day", "x"),
        ],
    )
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(synth.ScenarioConfigError, match=field):
            synth.lockdown_scenario_config(seed=0, **{field: value})

    def test_float_volumes_and_numpy_integers_accepted(self):
        config = synth.lockdown_scenario_config(
            seed=0, n_provinces=np.int64(3), n_days=4, lockdown_day=2,
            inter_trips_per_province=12.5,
        )
        assert len(synth.generate_plan(config).daily_trips) == 4

    def test_duplicate_levels_rejected(self):
        with pytest.raises(synth.ScenarioConfigError, match="distinct"):
            synth.planted_levels_config(seed=0, levels=[0.2, 0.2, 0.5])

    @pytest.mark.parametrize("levels", [5, [0.2, "x"]])
    def test_levels_must_be_a_list_of_numbers(self, levels):
        with pytest.raises(synth.ScenarioConfigError, match="planted_cluster_levels must be a list of numbers"):
            synth.planted_levels_config(seed=0, levels=levels)
