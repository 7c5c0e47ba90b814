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
from typing import Iterable

import numpy as np

from .diversity import ProvinceDiversity

MAX_ITER = 300
DEFAULT_RESTARTS = 8
DEFAULT_K_RANGE = range(2, 21)
MAX_ABSENT_FRACTION = 0.5  # a province absent on more of its days is not clustered


@dataclass(frozen=True)
class SeriesMatrix:
    """Rectangular provinces x dates matrix of diversity values, absent days imputed."""

    provinces: list[str]
    values: np.ndarray  # shape (len(provinces), number of dates)
    dropped: list[str] = field(default_factory=list)  # provinces with too many absent days

    @classmethod
    def from_diversity(cls, diversity: ProvinceDiversity) -> "SeriesMatrix":
        """The diversity array with absent (NaN) days imputed.

        Absent values are filled by linear interpolation inside the series and
        edge extension at the ends; provinces with more than
        MAX_ABSENT_FRACTION of days absent are dropped and reported.
        """
        n_days = len(diversity.dates)
        absent = np.isnan(diversity.values).sum(axis=1).tolist()
        provinces: list[str] = []
        rows: list[np.ndarray] = []
        dropped: list[str] = []
        for province, row, n_absent in zip(diversity.provinces, diversity.values, absent):
            if n_days == 0 or n_absent / n_days > MAX_ABSENT_FRACTION:
                dropped.append(province)
                continue
            rows.append(_impute(row))
            provinces.append(province)
        if not rows:
            raise ValueError("every series was dropped during imputation")
        return cls(provinces=provinces, values=np.vstack(rows), dropped=dropped)


def _impute(values: np.ndarray) -> np.ndarray:
    arr = values.copy()
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
        claimed: dict[int, int] = {}  # re-seeding point -> its cluster
        while np.bincount(new_labels, minlength=k).min() == 0:
            for j in range(k):
                if not (new_labels == j).any():
                    # Re-seed at the farthest unclaimed point. Claimed points keep their
                    # clusters, or duplicate rows would tie back and empty one again.
                    far = dists[np.arange(n), new_labels]
                    far[list(claimed)] = -1.0
                    farthest = int(far.argmax())
                    centroids[j] = x[farthest]
                    dists[:, j] = ((x - centroids[j]) ** 2).sum(axis=1)
                    claimed[farthest] = j
                    new_labels = dists.argmin(axis=1)
                    new_labels[list(claimed)] = list(claimed.values())
        if (new_labels == labels).all():
            break
        labels = new_labels
        # A stable sort keeps each cluster's rows in index order, so every
        # slice holds the rows of x[labels == j] in the same order, and its
        # sum divided by its size is bit-equal to their mean.
        members = x[np.argsort(labels, kind="stable")]
        counts = np.bincount(labels, minlength=k)
        ends = np.cumsum(counts).tolist()
        sums = [members[end - size:end].sum(axis=0) for end, size in zip(ends, counts.tolist())]
        centroids[:] = sums / counts[:, None]
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
    cluster_ids, own, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    if len(cluster_ids) < 2:
        raise ValueError(f"silhouette needs at least 2 clusters, got {len(cluster_ids)}")
    dists = _pairwise_distances(x) if distances is None else distances
    n = x.shape[0]
    # sums[c, i]: point i's summed distance to cluster c, each the 1-D sum of
    # one contiguous row of the cluster's gathered columns. A 2-D row-wise sum
    # adds in another order and would round differently.
    sums = np.array(
        [list(map(np.add.reduce, np.ascontiguousarray(dists[:, labels == j]))) for j in cluster_ids]
    )
    point = np.arange(n)
    own_size = sizes[own]
    a = sums[own, point] / np.maximum(own_size - 1, 1)
    mean_to = sums / sizes[:, None]
    mean_to[own, point] = np.inf
    b = mean_to.min(axis=0)
    denom = np.maximum(a, b)
    scores = np.zeros(n)
    np.divide(b - a, denom, out=scores, where=(own_size > 1) & (denom != 0.0))
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
