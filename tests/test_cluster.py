"""k-means recovery, model selection, imputation, and determinism."""

import random
from datetime import date, timedelta
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobflow import cluster, diversity, od, synth
from mobflow.cluster import (
    Clustering,
    SeriesMatrix,
    _assign,
    _kmeanspp_init,
    _lloyd,
    clustering_report,
    kmeans,
    mean_silhouette,
    select_k,
)
from mobflow.diversity import ProvinceDiversity

import oracles

DATES = [date(2020, 3, 2) + timedelta(days=i) for i in range(10)]


def matrix_from(values: np.ndarray, names=None) -> SeriesMatrix:
    names = names or [f"P{i:02d}" for i in range(values.shape[0])]
    return SeriesMatrix(provinces=names, values=values.astype(float))


def planted(levels, per_group, n_days=10, noise=0.01, seed=0) -> tuple[SeriesMatrix, np.ndarray]:
    rng = np.random.default_rng(seed)
    rows, truth = [], []
    for g, level in enumerate(levels):
        for _ in range(per_group):
            rows.append(np.clip(level + rng.normal(0, noise, n_days), 0, 1))
            truth.append(g)
    return matrix_from(np.vstack(rows)), np.array(truth)


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Label-permutation-invariant equality."""
    ka, kb = len(set(a.tolist())), len(set(b.tolist()))
    if ka != kb:
        return False
    for perm in permutations(range(kb)):
        if all(perm[x] == y for x, y in zip(a, b)):
            return True
    return False


class TestKMeans:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(4)
        x = rng.random((12, 10))
        clustering = kmeans(matrix_from(x), 1, seed=0)
        assert np.allclose(clustering.centroids[0], x.mean(axis=0))
        expected_inertia = ((x - x.mean(axis=0)) ** 2).sum()
        assert clustering.inertia == pytest.approx(expected_inertia, rel=1e-12)

    def test_two_planted_groups_recovered(self):
        matrix, truth = planted([0.2, 0.8], per_group=8, seed=1)
        clustering = kmeans(matrix, 2, seed=3)
        assert same_partition(clustering.labels, truth)
        # inertia is just the within-group noise, far below the split distance
        assert clustering.inertia < 8 * 2 * 10 * (3 * 0.01) ** 2

    def test_k_equals_n_zero_inertia(self):
        rng = np.random.default_rng(5)
        x = rng.random((6, 10))
        clustering = kmeans(matrix_from(x), 6, seed=0)
        assert clustering.inertia == 0.0

    def test_every_cluster_non_empty_even_with_duplicate_rows(self):
        x = np.vstack([np.full((4, 10), 0.2), np.full((4, 10), 0.8)])
        clustering = kmeans(matrix_from(x), 3, seed=0)
        for j in range(3):
            assert (clustering.labels == j).sum() > 0

    @pytest.mark.filterwarnings("error")
    def test_reseeding_one_empty_cluster_empties_no_other(self):
        # Re-seeding an empty cluster re-runs the argmin, which can pull the
        # point claimed for a cluster re-seeded just before back to a duplicate.
        x = np.array([[2.0, 1.0]] * 6 + [[1.0, 2.0]] + [[0.0, 0.0]] * 3)
        clustering = kmeans(matrix_from(x), 6, seed=0)
        assert np.bincount(clustering.labels, minlength=6).min() > 0
        assert np.isfinite(clustering.centroids).all()

    def test_integer_series_cluster_as_their_float_copy(self):
        x = np.array([[0, 1], [1, 0], [5, 5], [6, 5], [0, 0], [5, 6]])
        ints = kmeans(SeriesMatrix([f"P{i}" for i in range(6)], x), 2, seed=0)
        floats = kmeans(matrix_from(x), 2, seed=0)
        np.testing.assert_array_equal(ints.labels, floats.labels)
        assert ints.centroids.tobytes() == floats.centroids.tobytes()
        assert ints.inertia == floats.inertia

    def test_reproducible(self):
        matrix, _ = planted([0.2, 0.5, 0.8], per_group=6, seed=2)
        a = kmeans(matrix, 3, seed=11)
        b = kmeans(matrix, 3, seed=11)
        assert (a.labels == b.labels).all()
        assert a.inertia == b.inertia

    def test_k_out_of_range(self):
        matrix, _ = planted([0.5], per_group=4)
        with pytest.raises(ValueError):
            kmeans(matrix, 5, seed=0)
        with pytest.raises(ValueError):
            kmeans(matrix, 0, seed=0)

    def test_band_is_mean_plus_minus_std(self):
        matrix, _ = planted([0.3, 0.7], per_group=5, seed=6)
        selection = select_k(matrix, [2], seed=0)
        clusters = clustering_report(selection, matrix)["clustering"]["clusters"]
        for j, reported in enumerate(clusters):
            members = matrix.values[selection.clustering.labels == j]
            mean, std = members.mean(axis=0), members.std(axis=0)
            assert np.allclose(selection.clustering.centroids[j], mean)
            assert np.allclose(reported["band_low"], mean - std)
            assert np.allclose(reported["band_high"], mean + std)

    def test_inertia_matches_definition(self):
        matrix, _ = planted([0.2, 0.6, 0.9], per_group=5, seed=7)
        clustering = kmeans(matrix, 3, seed=1)
        direct = sum(
            ((matrix.values[i] - clustering.centroids[clustering.labels[i]]) ** 2).sum()
            for i in range(matrix.values.shape[0])
        )
        assert clustering.inertia == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_kmeans_on_a_non_finite_series_raises_value_error(self, bad):
        # k-means++ draws its weighted rows with `random.Random.choices`, which rejects a NaN or infinite total.
        values = np.arange(12.0).reshape(6, 2) / 12
        values[3, 1] = bad
        with pytest.raises(ValueError, match="Total of weights must be finite"):
            kmeans(SeriesMatrix([f"P{i}" for i in range(6)], values), 3, seed=0)


class TestSelectK:
    def test_five_planted_levels_recovered(self):
        matrix, _ = planted([0.1, 0.3, 0.5, 0.7, 0.9], per_group=8, seed=8)
        selection = select_k(matrix, range(2, 13), seed=0)
        assert selection.k_star == 5
        direct = kmeans(matrix, 5, seed=0)
        for name in ("k", "provinces", "labels", "centroids", "inertia"):
            np.testing.assert_array_equal(getattr(selection.clustering, name), getattr(direct, name))

    def test_two_planted_levels_elbow_agrees(self):
        matrix, _ = planted([0.2, 0.8], per_group=10, seed=9)
        selection = select_k(matrix, range(2, 9), seed=0)
        assert selection.k_star == 2
        assert selection.elbow_k == 2

    def test_identical_series_degenerate(self):
        matrix = matrix_from(np.full((8, 10), 0.5))
        selection = select_k(matrix, range(2, 6), seed=0)
        assert selection.k_star == 1
        assert selection.degenerate
        assert selection.diagnostics == []
        assert selection.clustering is None

    def test_inertia_non_increasing_in_k(self):
        rng = np.random.default_rng(10)
        matrix = matrix_from(rng.random((30, 10)))
        selection = select_k(matrix, range(2, 16), seed=3)
        inertias = [d.inertia for d in selection.diagnostics]
        assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_k_range_validation(self):
        matrix, _ = planted([0.5, 0.9], per_group=3)
        with pytest.raises(ValueError):
            select_k(matrix, range(2, 40), seed=0)


class TestSilhouette:
    def test_perfect_separation_scores_near_one(self):
        x = np.vstack([np.full((5, 4), 0.0), np.full((5, 4), 1.0)])
        labels = np.array([0] * 5 + [1] * 5)
        assert mean_silhouette(oracles.pairwise_distances(x), labels) == pytest.approx(1.0)

    def test_coincident_points_in_different_clusters_score_zero(self):
        x = np.full((4, 4), 0.5)
        labels = np.array([0, 0, 1, 1])
        assert mean_silhouette(oracles.pairwise_distances(x), labels) == 0.0

    def test_single_cluster_rejected(self):
        x = np.arange(12, dtype=float).reshape(4, 3)
        with pytest.raises(ValueError, match="at least 2 clusters"):
            mean_silhouette(oracles.pairwise_distances(x), np.zeros(4, dtype=int))

    def test_select_k_scores_equal_standalone_silhouettes(self):
        matrix, _ = planted([0.2, 0.5, 0.8], per_group=6, seed=4)
        selection = select_k(matrix, range(2, 8), seed=1)
        for d in selection.diagnostics:
            labels = kmeans(matrix, d.k, seed=1).labels
            assert d.silhouette == mean_silhouette(oracles.pairwise_distances(matrix.values), labels)


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@st.composite
def cluster_inputs(draw):
    """(x, k, seed): small matrices with duplicate rows, one column or tied distances.

    14 and 60 dates are `wide_iso_records`' and the headline's widths. From 8
    dates on, numpy sums each distance in eight interleaved partial sums, not
    left to right, and the certificate's margin grows with the width.
    """
    n = draw(st.integers(1, 24))
    n_dates = draw(st.sampled_from([1, 1, 2, 3, 8, 10, 14, 60]))
    distinct = draw(st.integers(1, n))  # fewer distinct rows than points forces duplicates
    values = draw(st.sampled_from(["grid", "cents", "random"]))  # grids and cents tie many distances
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if values == "grid":
        rows = rng.integers(0, 3, (distinct, n_dates)).astype(float)
    elif values == "cents":
        rows = rng.integers(0, 101, (distinct, n_dates)) / 100
    else:
        rows = rng.random((distinct, n_dates))
    return rows[rng.integers(0, distinct, n)], k, seed


class TestMatchesOracles:
    """Seeding, `_lloyd` and `mean_silhouette` are bit-equal to the references that recompute every distance."""

    @settings(max_examples=100, deadline=None)
    @given(cluster_inputs())
    @example((np.vstack([np.full((4, 10), 0.2), np.full((4, 10), 0.8)]), 3, 0))
    @example((np.arange(6.0).reshape(6, 1), 6, 1))
    @example((np.array([[2.0, 1.0]] * 6 + [[1.0, 2.0]] + [[0.0, 0.0]] * 3), 6, 0))
    @example((np.array([[0.0], [2.0], [1.0]]), 2, 4))  # seeds at 2.0 and 0.0: the last row ties
    @pytest.mark.filterwarnings("error")
    def test_lloyd_and_silhouette_bit_equal(self, case):
        x, k, seed = case
        start = oracles.kmeanspp_reference(x, k, random.Random(f"{seed},{k},0"))
        matrix = matrix_from(x)
        assert _kmeanspp_init(matrix, k, random.Random(f"{seed},{k},0")).tobytes() == start.tobytes()
        labels, centroids, inertia = _lloyd(x, start.copy())
        ref_labels, ref_centroids, ref_inertia = oracles.lloyd_reference(x, start.copy())
        np.testing.assert_array_equal(labels, ref_labels)
        assert centroids.tobytes() == ref_centroids.tobytes()
        assert bits(inertia) == bits(ref_inertia)
        n = x.shape[0]
        dists = oracles.pairwise_distances(x)
        assert np.sqrt(matrix.sq_distances).tobytes() == dists.tobytes()
        rng = np.random.default_rng(seed)
        for labeling in (labels, rng.integers(0, max(2, k), n), rng.integers(0, 2, n)):
            if len(np.unique(labeling)) < 2:
                continue
            assert bits(mean_silhouette(dists, labeling)) == bits(oracles.mean_silhouette_reference(dists, labeling))

    @pytest.mark.parametrize(
        ("x", "centroids", "labels", "doubted"),
        [
            ([[0.0], [2.0], [1.0]], [[2.0], [0.0]], [1, 0, 0], [2]),  # an exact tie
            ([[0.0], [2.0]], [[1.0], [1.0]], [0, 0], [0, 1]),  # duplicate centroids
            ([[0.0], [np.nan]], [[0.0], [2.0]], [0, 0], [1]),  # a NaN compares false
        ],
        ids=["tie", "duplicate-centroids", "nan"],
    )
    def test_uncertified_rows_take_exact_sums_and_the_first_index(self, x, centroids, labels, doubted, monkeypatch):
        x, centroids = np.array(x), np.array(centroids)
        seen = []
        exact = cluster._sq_dists
        monkeypatch.setattr(cluster, "_sq_dists", lambda rows, c: seen.append(rows) or exact(rows, c))
        with np.errstate(invalid="ignore"):
            assert _assign(x, (x * x).sum(axis=1), centroids).tolist() == labels
        assert len(seen) == 1
        assert seen[0].tobytes() == x[doubted].tobytes()

    @pytest.mark.parametrize(
        "overrides",
        [
            # The benchmark's two workloads (perfbench/workloads.py), at seed 0.
            dict(n_days=6, lockdown_day=3),
            dict(
                n_provinces=107, municipalities_per_province=2, start_date=date(2020, 3, 23),
                n_days=14, lockdown_day=7, inter_trips_per_province=20,
                intra_trips_per_pair=40, dwell_violation_rate=0.05,
            ),
            dict(),  # the headline: 20 provinces x 60 days
        ],
        ids=["lockdown_ref", "wide_iso_records", "headline"],
    )
    def test_select_k_on_workload_matrices(self, overrides, monkeypatch):
        plan = synth.generate_plan(synth.lockdown_scenario_config(0, **overrides))
        cube = od.aggregate_to_province(plan.municipality_ods(), plan.territory.muni_to_province)
        for direction in diversity.DIRECTIONS:
            matrix = SeriesMatrix.from_diversity(diversity.diversity_series(cube, direction))
            ks = range(2, min(20, len(matrix.provinces)) + 1)
            fast = select_k(matrix, ks, seed=0)
            with monkeypatch.context() as patch:
                patch.setattr(cluster, "_kmeanspp_init", lambda m, k, rng: oracles.kmeanspp_reference(m.values, k, rng))
                patch.setattr(cluster, "_lloyd", oracles.lloyd_reference)
                patch.setattr(cluster, "mean_silhouette", oracles.mean_silhouette_reference)
                reference = select_k(matrix, ks, seed=0)
            assert [(d.k, bits(d.inertia), bits(d.silhouette)) for d in fast.diagnostics] == [
                (d.k, bits(d.inertia), bits(d.silhouette)) for d in reference.diagnostics
            ]
            assert (fast.k_star, fast.elbow_k) == (reference.k_star, reference.elbow_k)
            for name in ("labels", "centroids"):
                assert getattr(fast.clustering, name).tobytes() == getattr(reference.clustering, name).tobytes()
            assert clustering_report(fast, matrix) == clustering_report(reference, matrix)


class TestSeriesMatrix:
    def _diversity(self, rows):
        """Diversity of provinces A, B, ... with NaN for the None entries of rows."""
        values = np.array([[np.nan if v is None else v for v in row] for row in rows], dtype=float)
        provinces = tuple("ABCDEFGH"[: len(rows)])
        return ProvinceDiversity("in", provinces, tuple(DATES[: values.shape[1]]), values)

    def test_interior_gap_linearly_interpolated(self):
        matrix = SeriesMatrix.from_diversity(self._diversity([[0.2, None, 0.6, 0.6]]))
        assert matrix.values[0].tolist() == [0.2, pytest.approx(0.4), 0.6, 0.6]

    def test_edges_extended(self):
        matrix = SeriesMatrix.from_diversity(self._diversity([[None, 0.4, 0.5, None]]))
        assert matrix.values[0].tolist() == [0.4, 0.4, 0.5, 0.5]

    def test_mostly_absent_province_dropped_and_reported(self):
        diversity = self._diversity([[0.2, 0.3, 0.4, 0.5], [None, None, None, 0.5]])
        matrix = SeriesMatrix.from_diversity(diversity)
        assert matrix.provinces == ["A"]
        assert matrix.dropped == ["B"]

    def test_half_absent_province_kept(self):
        matrix = SeriesMatrix.from_diversity(self._diversity([[0.2, None, None, 0.5]]))
        assert matrix.provinces == ["A"]

    def test_input_array_left_unchanged(self):
        diversity = self._diversity([[0.2, None, 0.6]])
        SeriesMatrix.from_diversity(diversity)
        assert np.isnan(diversity.values[0, 1])

    def test_no_days_or_all_dropped_rejected(self):
        for rows in ([[], []], [[None, None, 0.1]]):
            with pytest.raises(ValueError, match="every series was dropped"):
                SeriesMatrix.from_diversity(self._diversity(rows))
