"""k-means clustering of province diversity time series with model selection.

Series are clustered on raw [0,1] diversity values with Euclidean distance (no
z-normalization: the level of a series is part of what distinguishes groups).
The number of clusters is picked by mean silhouette over a candidate range,
with the inertia elbow reported as a secondary diagnostic, because raw inertia
is non-increasing in k and cannot be minimized literally.

Every distance that decides a result is an exact date sum: the sum over the
dates of (a - b) ** 2, as numpy sums one row. Lloyd's labels are the argmin of
those sums, and the inertia adds them up. The expanded form
||c||^2 - 2 x.c ranks the centroids in one matrix product, and it only
certifies that argmin (see `_assign`); uncertified rows and empty-cluster
re-seeds take exact sums. The k-means++ seeding and the silhouette share one
matrix of squared distances between rows, `SeriesMatrix.sq_distances`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .diversity import ProvinceDiversity

MAX_ITER = 300
RESTARTS = 8
DEFAULT_K_RANGE = range(2, 21)  # the CLI's --k-range
MAX_ABSENT_FRACTION = 0.5  # a province absent on more of its days is not clustered
_UNIT_ROUNDOFF = 2.0**-53


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

    @cached_property
    def sq_distances(self) -> np.ndarray:
        """Squared distance between every pair of rows, shape (n, n), each an exact date sum.

        Entry [a, b] is the date sum that Lloyd's exact distances take for row a
        and a centroid equal to row b, so k-means++ reads rows of it for every
        restart and k, and the silhouette takes its square root.
        """
        return _sq_dists(self.values, self.values)


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
    inertia: float

    def members(self, label: int) -> list[str]:
        return [p for p, l in zip(self.provinces, self.labels) if l == label]


def _sq_dists(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Exact date sums: [i, j] is the sum over the dates of (x[i] - centroids[j]) ** 2."""
    return ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def _kmeanspp_init(matrix: SeriesMatrix, k: int, rng: random.Random) -> np.ndarray:
    """k-means++ seeding: k rows of the matrix, each drawn by squared distance to the nearest one before.

    The first row, and any row drawn while every distance is 0, is
    `int(rng.random() * n)`; the others are `rng.choices` weighted by those
    distances, which raises ValueError for a NaN or infinite total. Every
    centroid is a row, so the rows' distances to it are a row of
    `matrix.sq_distances`, read rather than recomputed.
    """
    n = matrix.values.shape[0]
    chosen = [int(rng.random() * n)]
    closest = None
    for _ in range(1, k):
        row = matrix.sq_distances[chosen[-1]]
        closest = row if closest is None else np.minimum(closest, row)
        if closest.any():
            chosen.append(rng.choices(range(n), weights=closest.tolist())[0])
        else:
            chosen.append(int(rng.random() * n))
    return np.asarray(matrix.values[chosen], dtype=float)  # integer series get float centroids


def _assign(x: np.ndarray, x_sq: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each row's nearest centroid by exact date sums, the first one on a tie.

    The centroids are ranked by the expanded form A[i, j] = ||c_j||^2 - 2 x_i.c_j
    (one matrix product), which differs from the real squared distance d[i, j]
    by ||x_i||^2, the same for every centroid of a row. With d dates,
    S = ||x_i||^2 + ||c_j||^2, u = 2**-53 and gamma_m = m u / (1 - m u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3-4):

    - in the exact sum D[i, j] each term carries at most d + 2 rounding
      factors (the difference's twice over in the square, the square's, and
      at most d - 1 additions in any order), so D[i, j] lies within
      gamma_{d+2} * sum (x - c)^2 <= 2 gamma_{d+2} S of d[i, j];
    - in A, for any BLAS summation order, with or without FMA, the dot
      product lies within gamma_d S / 2 of x_i.c_j (as |x c| <= (x^2 + c^2) / 2)
      and ||c_j||^2 within gamma_d S; doubling is exact and the subtraction
      adds at most u (1 + gamma_d) 2S, so A lies within
      2 (gamma_d + u (1 + gamma_d)) S <= 2 gamma_{d+2} S of d[i, j] - ||x_i||^2.

    If A's first argmin j* leads every other entry of its row by more than
    8 gamma_{d+2} S_i, with S_i = ||x_i||^2 + max_j ||c_j||^2, then D[i, j] >
    D[i, j*] for all j != j*, so j* is D's argmin. The test uses twice that
    margin, which also covers the rounding of the norms and of the test, plus
    the smallest normal float for products that underflow. A row that fails
    it (a tie, duplicate centroids, a near-tie, or a NaN, which compares
    false) takes exact sums, so `argmin`'s first-index rule holds.
    """
    n, k = x.shape[0], centroids.shape[0]
    if k == 1:
        return np.zeros(n, dtype=np.intp)
    c_sq = (centroids * centroids).sum(axis=1)
    approx = x @ (-2.0 * centroids.T)
    approx += c_sq
    labels = approx.argmin(axis=1)
    terms = x.shape[1] + 2
    gamma = terms * _UNIT_ROUNDOFF / (1.0 - terms * _UNIT_ROUNDOFF)
    margin = 16.0 * gamma * (x_sq + c_sq.max()) + np.finfo(float).tiny
    best = approx[np.arange(n), labels]
    # A NaN anywhere in a row makes its argmin the NaN, and every comparison false.
    certified = (approx <= (best + margin)[:, None]).sum(axis=1) == 1
    if not certified.all():
        doubt = np.flatnonzero(~certified)
        labels[doubt] = _sq_dists(x[doubt], centroids).argmin(axis=1)
    return labels


def _reseed_empty(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Move each empty cluster's centroid to the farthest unclaimed row; returns the new labels."""
    n, k = x.shape[0], centroids.shape[0]
    dists = _sq_dists(x, centroids)
    claimed: dict[int, int] = {}  # re-seeding point -> its cluster
    while np.bincount(labels, minlength=k).min() == 0:
        for j in range(k):
            if not (labels == j).any():
                # Re-seed at the farthest unclaimed point. Claimed points keep their
                # clusters, or duplicate rows would tie back and empty one again.
                far = dists[np.arange(n), labels]
                far[list(claimed)] = -1.0
                farthest = int(far.argmax())
                centroids[j] = x[farthest]
                dists[:, j] = ((x - centroids[j]) ** 2).sum(axis=1)
                claimed[farthest] = j
                labels = dists.argmin(axis=1)
                labels[list(claimed)] = list(claimed.values())
    return labels


def _lloyd(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    n, k = x.shape[0], centroids.shape[0]
    x_sq = (x * x).sum(axis=1)
    labels = np.full(n, -1)
    for _ in range(MAX_ITER):
        new_labels = _assign(x, x_sq, centroids)
        counts = np.bincount(new_labels, minlength=k)
        if counts.min() == 0:
            new_labels = _reseed_empty(x, centroids, new_labels)
            counts = np.bincount(new_labels, minlength=k)
        if (new_labels == labels).all():
            break
        labels = new_labels
        # A stable sort keeps each cluster's rows in index order, so every
        # slice holds the rows of x[labels == j] in the same order, and its
        # sum divided by its size is bit-equal to their mean.
        members = x[np.argsort(labels, kind="stable")]
        ends = np.cumsum(counts).tolist()
        for row, end, size in zip(centroids, ends, counts.tolist()):
            members[end - size:end].sum(axis=0, out=row)
        centroids /= counts[:, None]
    inertia = float(((x - centroids[labels]) ** 2).sum(axis=1).sum())
    return labels, centroids, inertia


def kmeans(matrix: SeriesMatrix, k: int, seed: int) -> Clustering:
    """Lloyd's algorithm with k-means++ seeding, best inertia over RESTARTS restarts.

    Deterministic given (matrix, k, seed): restart r seeds its k-means++
    draws with `random.Random(f"{seed},{k},{r}")`.
    """
    x = matrix.values
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for restart in range(RESTARTS):
        rng = random.Random(f"{seed},{k},{restart}")
        labels, centroids, inertia = _lloyd(x, _kmeanspp_init(matrix, k, rng))
        if best is None or inertia < best[0]:
            best = (inertia, labels, centroids)
    inertia, labels, centroids = best
    return Clustering(k=k, provinces=list(matrix.provinces), labels=labels, centroids=centroids, inertia=inertia)


def mean_silhouette(dists: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient of a labeling; points with zero separation score 0.

    `dists` holds the pairwise distances between the labeled points, so that
    several labelings of the same points share one matrix.
    """
    cluster_ids, own, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    if len(cluster_ids) < 2:
        raise ValueError(f"silhouette needs at least 2 clusters, got {len(cluster_ids)}")
    n = len(labels)
    # sums[c, i]: point i's summed distance to cluster c, the row sums of the
    # cluster's gathered columns made contiguous: each row then adds in the
    # order of a 1-D sum. Summed in place, the gather would round differently.
    sums = np.array([np.ascontiguousarray(dists[:, labels == j]).sum(axis=1) for j in cluster_ids])
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


def select_k(matrix: SeriesMatrix, k_range: Iterable[int], seed: int) -> KSelection:
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
    distances = np.sqrt(matrix.sq_distances)
    diagnostics: list[KDiagnostic] = []
    clusterings: dict[int, Clustering] = {}
    for k in ks:
        clustering = clusterings[k] = kmeans(matrix, k, seed=seed)
        diagnostics.append(
            KDiagnostic(
                k=k,
                inertia=clustering.inertia,
                silhouette=mean_silhouette(distances, clustering.labels),
            )
        )
    best = max(diagnostics, key=lambda d: d.silhouette)
    elbow_k = None
    if len(ks) >= 2:
        # Anchor the curve one k below the range so a kink at its start is visible.
        below = kmeans(matrix, ks[0] - 1, seed=seed).inertia
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


def clustering_report(selection: KSelection, matrix: SeriesMatrix) -> dict:
    """JSON-ready report: per-k diagnostics, the provinces `matrix` dropped, and the chosen clustering.

    Each cluster's band is its centroid plus and minus the per-date standard
    deviation of its member series, taken here for the one clustering reported.
    """
    clustering = selection.clustering
    report: dict = {
        "k_star": selection.k_star,
        "degenerate": selection.degenerate,
        "elbow_k": selection.elbow_k,
        "diagnostics": [
            {"k": d.k, "inertia": d.inertia, "silhouette": d.silhouette}
            for d in selection.diagnostics
        ],
        "dropped_provinces": matrix.dropped,
    }
    if clustering is not None:
        clusters = []
        for j, centroid in enumerate(clustering.centroids):
            std = matrix.values[clustering.labels == j].std(axis=0)
            clusters.append(
                {
                    "label": j,
                    "members": clustering.members(j),
                    "centroid": [float(v) for v in centroid],
                    "band_low": [float(m - s) for m, s in zip(centroid, std)],
                    "band_high": [float(m + s) for m, s in zip(centroid, std)],
                }
            )
        report["clustering"] = {
            "k": clustering.k,
            "inertia": clustering.inertia,
            "assignments": dict(sorted(zip(clustering.provinces, clustering.labels.tolist()))),
            "clusters": clusters,
        }
    return report


def members_table(clustering: Clustering) -> Iterator[list]:
    """Per-cluster member list: the header cluster,province, then a row per member."""
    yield ["cluster", "province"]
    for j in range(clustering.k):
        for province in clustering.members(j):
            yield [j, province]
