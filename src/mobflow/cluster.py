"""k-means clustering of province diversity time series with model selection.

Series are clustered on raw [0,1] diversity values with Euclidean distance (no
z-normalization: the level of a series is part of what distinguishes groups).
The number of clusters is picked by mean silhouette over a candidate range,
with the inertia elbow reported as a secondary diagnostic, because raw inertia
is non-increasing in k and cannot be minimized literally.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .diversity import DiversitySeries

MAX_ITER = 300
DEFAULT_RESTARTS = 8
DEFAULT_K_RANGE = range(2, 21)


@dataclass(frozen=True)
class SeriesMatrix:
    """Rectangular provinces x dates matrix of diversity values, absent days imputed."""

    provinces: list[str]
    dates: list
    values: np.ndarray  # shape (len(provinces), len(dates))
    dropped: list[str] = field(default_factory=list)  # provinces with too many absent days

    @classmethod
    def from_series(
        cls,
        series_list: Sequence[DiversitySeries],
        max_absent_fraction: float = 0.5,
    ) -> "SeriesMatrix":
        """Assemble a matrix from per-province series sharing one date axis.

        Absent values are filled by linear interpolation inside the series and
        edge extension at the ends; provinces with more than
        max_absent_fraction of days absent are dropped and reported.
        """
        if not series_list:
            raise ValueError("no series to assemble")
        dates = series_list[0].dates
        for series in series_list:
            if series.dates != dates:
                raise ValueError("all series must share the same date axis")
        n_days = len(dates)
        provinces: list[str] = []
        rows: list[np.ndarray] = []
        dropped: list[str] = []
        for series in series_list:
            absent = sum(1 for v in series.values if v is None)
            if n_days == 0 or absent / n_days > max_absent_fraction:
                dropped.append(series.province_id)
                continue
            rows.append(_impute(series.values))
            provinces.append(series.province_id)
        if not rows:
            raise ValueError("every series was dropped during imputation")
        return cls(provinces=provinces, dates=list(dates), values=np.vstack(rows), dropped=dropped)


def _impute(values: Sequence[float | None]) -> np.ndarray:
    arr = np.array([np.nan if v is None else v for v in values], dtype=float)
    defined = np.flatnonzero(~np.isnan(arr))
    if defined.size == 0:
        raise ValueError("cannot impute an all-absent series")
    missing = np.flatnonzero(np.isnan(arr))
    if missing.size:
        # np.interp clamps outside the defined range, which is the edge extension.
        arr[missing] = np.interp(missing, defined, arr[defined])
    return arr


@dataclass(frozen=True)
class Clustering:
    k: int
    provinces: list[str]
    labels: np.ndarray  # shape (n,), values in [0, k)
    centroids: np.ndarray  # shape (k, n_dates)
    band_std: np.ndarray  # shape (k, n_dates), per-date std of member series
    inertia: float

    @property
    def assignments(self) -> dict[str, int]:
        return {p: int(l) for p, l in zip(self.provinces, self.labels)}

    def members(self, label: int) -> list[str]:
        return [p for p, l in zip(self.provinces, self.labels) if l == label]


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    closest = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest / total)
        centroids[j] = x[idx]
        closest = np.minimum(closest, ((x - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _lloyd(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    n, k = x.shape[0], centroids.shape[0]
    labels = np.full(n, -1)
    for _ in range(MAX_ITER):
        dists = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        for j in range(k):
            if not (new_labels == j).any():
                # Empty cluster: re-seed it at the point farthest from its
                # centroid. That point is claimed outright, because duplicate
                # rows would otherwise tie back to their old centroid.
                farthest = int(dists[np.arange(n), new_labels].argmax())
                centroids[j] = x[farthest]
                dists[:, j] = ((x - centroids[j]) ** 2).sum(axis=1)
                new_labels = dists.argmin(axis=1)
                new_labels[farthest] = j
        if (new_labels == labels).all():
            break
        labels = new_labels
        for j in range(k):
            centroids[j] = x[labels == j].mean(axis=0)
    dists = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    inertia = float(dists[np.arange(n), labels].sum())
    return labels, centroids, inertia


def kmeans(
    matrix: SeriesMatrix,
    k: int,
    seed: int,
    restarts: int = DEFAULT_RESTARTS,
) -> Clustering:
    """Lloyd's algorithm with k-means++ seeding, best inertia over independent restarts.

    Deterministic given (matrix, k, seed, restarts): restart r draws from a
    generator seeded with (seed, k, r).
    """
    x = matrix.values
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for restart in range(max(1, restarts)):
        rng = np.random.default_rng([seed, k, restart])
        centroids = _kmeanspp_init(x, k, rng)
        labels, centroids, inertia = _lloyd(x, centroids.copy())
        if best is None or inertia < best[0]:
            best = (inertia, labels, centroids)
    inertia, labels, centroids = best
    band_std = np.zeros_like(centroids)
    for j in range(k):
        band_std[j] = x[labels == j].std(axis=0)
    return Clustering(
        k=k,
        provinces=list(matrix.provinces),
        labels=labels,
        centroids=centroids,
        band_std=band_std,
        inertia=inertia,
    )


def _pairwise_distances(x: np.ndarray) -> np.ndarray:
    """Euclidean distance between every pair of rows of x."""
    return np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))


def mean_silhouette(
    x: np.ndarray, labels: np.ndarray, distances: np.ndarray | None = None
) -> float:
    """Mean silhouette coefficient; points with zero separation score 0.

    `distances` may pass in the pairwise Euclidean distances between the rows
    of x, so that several labelings of the same points share one matrix.
    """
    cluster_ids = np.unique(labels)
    if len(cluster_ids) < 2:
        raise ValueError(f"silhouette needs at least 2 clusters, got {len(cluster_ids)}")
    dists = _pairwise_distances(x) if distances is None else distances
    n = x.shape[0]
    scores = np.zeros(n)
    masks = {j: labels == j for j in cluster_ids}
    for i in range(n):
        own = masks[labels[i]]
        own_size = own.sum()
        if own_size <= 1:
            scores[i] = 0.0
            continue
        a = dists[i][own].sum() / (own_size - 1)
        b = min(
            dists[i][masks[j]].mean() for j in cluster_ids if j != labels[i]
        )
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


@dataclass(frozen=True)
class KDiagnostic:
    k: int
    inertia: float
    silhouette: float


@dataclass(frozen=True)
class KSelection:
    k_star: int
    degenerate: bool
    diagnostics: list[KDiagnostic]
    elbow_k: int | None
    clustering: Clustering | None  # the run at k_star; None when degenerate


def select_k(
    matrix: SeriesMatrix,
    k_range: Iterable[int] = DEFAULT_K_RANGE,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
) -> KSelection:
    """Pick the cluster count by maximum mean silhouette over k_range.

    The elbow of the inertia curve (largest second difference) is reported as a
    diagnostic. An input of identical series makes the silhouette undefined;
    that degenerate case reports k_star = 1 with the flag set and no clustering.
    """
    ks = sorted(set(k_range))
    n = matrix.values.shape[0]
    if not ks or ks[0] < 2 or ks[-1] > n:
        raise ValueError(f"k_range must lie within [2, {n}]")
    if np.allclose(matrix.values, matrix.values[0], rtol=0.0, atol=0.0):
        return KSelection(k_star=1, degenerate=True, diagnostics=[], elbow_k=None, clustering=None)
    distances = _pairwise_distances(matrix.values)
    diagnostics: list[KDiagnostic] = []
    clusterings: dict[int, Clustering] = {}
    for k in ks:
        clustering = clusterings[k] = kmeans(matrix, k, seed=seed, restarts=restarts)
        diagnostics.append(
            KDiagnostic(
                k=k,
                inertia=clustering.inertia,
                silhouette=mean_silhouette(matrix.values, clustering.labels, distances),
            )
        )
    best = max(diagnostics, key=lambda d: d.silhouette)
    elbow_k = None
    if len(ks) >= 2:
        # Anchor the curve one k below the range so a kink at its start is visible.
        below = kmeans(matrix, ks[0] - 1, seed=seed, restarts=restarts).inertia
        inertias = [below] + [d.inertia for d in diagnostics]
        second_diff = [
            inertias[i - 1] - 2.0 * inertias[i] + inertias[i + 1]
            for i in range(1, len(inertias) - 1)
        ]
        elbow_k = ks[int(np.argmax(second_diff))]
    return KSelection(
        k_star=best.k,
        degenerate=False,
        diagnostics=diagnostics,
        elbow_k=elbow_k,
        clustering=clusterings[best.k],
    )


def clustering_report(selection: KSelection) -> dict:
    """JSON-ready report: per-k diagnostics plus the chosen clustering's content."""
    clustering = selection.clustering
    report: dict = {
        "k_star": selection.k_star,
        "degenerate": selection.degenerate,
        "elbow_k": selection.elbow_k,
        "diagnostics": [
            {"k": d.k, "inertia": d.inertia, "silhouette": d.silhouette}
            for d in selection.diagnostics
        ],
    }
    if clustering is not None:
        report["clustering"] = {
            "k": clustering.k,
            "inertia": clustering.inertia,
            "assignments": dict(sorted(clustering.assignments.items())),
            "clusters": [
                {
                    "label": j,
                    "members": clustering.members(j),
                    "centroid": [float(v) for v in clustering.centroids[j]],
                    "band_low": [float(m - s) for m, s in zip(clustering.centroids[j], clustering.band_std[j])],
                    "band_high": [float(m + s) for m, s in zip(clustering.centroids[j], clustering.band_std[j])],
                }
                for j in range(clustering.k)
            ],
        }
    return report


def write_clustering_json(report: dict, path: str | Path) -> None:
    with Path(path).open("w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_members_csv(clustering: Clustering, path: str | Path) -> None:
    """Per-cluster member list export: cluster,province."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "province"])
        for j in range(clustering.k):
            for province in clustering.members(j):
                writer.writerow([j, province])
