"""Dimensionality reduction and cluster validation.

PCA via SVD, Lloyd k-means with k-means++ seeding, the elbow heuristic
(second-difference argmax of the inertia curve), and silhouette scores of
one labelling at a time.

K-means works on the distinct rows in sorted order, each weighted by its row
count, and draws its seeds from ``[seed, restart]``; so permuting the input
rows permutes the assignments and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import (
    DegenerateColumn,
    DimensionMismatch,
    InvalidConfig,
    KTooLarge,
    RangeTooNarrow,
    SingleCluster,
    TooFewRows,
    require_int,
)
from .features import FeatureMatrix, require_finite

_N_INIT = 10  # k-means++ restarts per k; the fit of least inertia wins
_VARIANCE = 0.9  # the share of the variance PCA keeps


@dataclass
class PcaModel:
    """Orthonormal principal directions of column-centered data."""

    components: np.ndarray  # d×p, orthonormal rows
    explained_variance_ratio: np.ndarray  # d values, nonincreasing
    mean: np.ndarray  # p


@dataclass
class ClusterModel:
    """K-means result; assignments always index the nearest centroid."""

    k: int
    centroids: np.ndarray  # k×d
    assignments: np.ndarray  # one int in [0, k) per row
    inertia: float
    seed: int
    iterations: int  # Lloyd steps of the winning init
    converged: bool  # its assignments repeated within max_iters steps


@dataclass(frozen=True)
class ClusteringConfig:
    """Settings of the segment stage's k-means; the ``clustering`` config section."""

    k: Any = 3  # cluster count, or "auto" for the elbow suggestion
    k_range: tuple[int, int] = (1, 6)
    max_iters: int = 200

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_range", tuple(self.k_range))
        k_lo, k_hi = self.k_range
        require_int("k_range low", k_lo, 1)
        require_int("k_range high", k_hi, k_lo)
        if self.k != "auto":
            require_int("k", self.k, 1)
        elif k_hi - k_lo < 2:
            raise InvalidConfig(
                f"k='auto' needs a k_range spanning at least 3 values, got {list(self.k_range)}"
            )
        require_int("max_iters", self.max_iters, 1)


def _as_values(matrix) -> np.ndarray:
    """The values of a :class:`FeatureMatrix` or array; :class:`NonFiniteValue` on NaN or inf."""
    values = matrix.values if isinstance(matrix, FeatureMatrix) else np.asarray(matrix, np.float64)
    require_finite(values)
    return values


def pca_fit(matrix) -> PcaModel:
    """The fewest principal directions that keep 90% (``_VARIANCE``) of the variance."""
    values = _as_values(matrix)
    n = values.shape[0]
    if n < 2:
        raise TooFewRows(f"need at least 2 rows for PCA, got {n}")

    mean = values.mean(axis=0)
    centered = values - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    var = svals**2 / (n - 1)
    total = float(var.sum())
    if total <= 0.0:
        raise DegenerateColumn("data has no variance; PCA is undefined")
    ratio = var / total

    dim = min(int(np.searchsorted(np.cumsum(ratio), _VARIANCE - 1e-12) + 1), len(ratio))

    components = vt[:dim].copy()
    # fix the SVD sign ambiguity so repeated runs serialize identically
    for row in components:
        anchor = int(np.argmax(np.abs(row)))
        if row[anchor] < 0:
            row *= -1.0
    return PcaModel(
        components=components,
        explained_variance_ratio=ratio[:dim].copy(),
        mean=mean,
    )


def pca_transform(model: PcaModel, values: np.ndarray) -> np.ndarray:
    return (np.asarray(values, dtype=np.float64) - model.mean) @ model.components.T


def _distinct_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct row's first index, in sorted row order, and each row's distinct row."""
    order = np.lexsort(values.T[::-1])  # stable: equal rows (-0.0 equals 0.0) keep their order
    ordered = values[order]
    new = np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1)))
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _kmeans_pp(points: np.ndarray, counts: np.ndarray, k: int, rng: np.random.Generator):
    # a uniform draw picks a row in sorted order, and ends maps it to its point
    ends = np.cumsum(counts)
    n = int(ends[-1])
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[np.searchsorted(ends, rng.integers(n), side="right")]
    closest = ((points - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        mass = counts * closest  # a D² draw over the rows
        total = float(mass.sum())
        if total <= 0.0:  # every point already holds a seed
            idx = np.searchsorted(ends, rng.integers(n), side="right")
        else:
            idx = int(rng.choice(len(points), p=mass / total))
        centroids[c] = points[idx]
        dist = ((points - centroids[c]) ** 2).sum(axis=1)
        np.minimum(closest, dist, out=closest)
    return centroids


def _run_lloyd(
    points: np.ndarray, counts: np.ndarray, weighted: np.ndarray, k: int, max_iters: int, rng
) -> tuple[np.ndarray, np.ndarray, float, int, bool]:
    """Lloyd steps on count-weighted points from k-means++ seeds until the assignments repeat."""
    centroids = _kmeans_pp(points, counts, k, rng)
    sq = _squared_distances(points, centroids)
    assignments = np.argmin(sq, axis=1)
    for iterations in range(1, max_iters + 1):
        sizes = np.bincount(assignments, weights=counts, minlength=k)  # exact: integer counts
        for c, m in enumerate(sizes):
            if m:  # an empty cluster keeps its centroid
                # the members' weighted mean, formed as a step from the old centroid
                members = weighted[assignments == c]
                centroids[c] += (members.sum(axis=0) - m * centroids[c]) / m
        sq = _squared_distances(points, centroids)
        nearest = np.argmin(sq, axis=1)
        converged = bool(np.array_equal(nearest, assignments))
        assignments = nearest
        if converged:
            break
    inertia = float((counts * sq[np.arange(len(points)), assignments]).sum())
    return centroids, assignments, inertia, iterations, converged


def minibatch_kmeans(
    matrix, k: int, config: ClusteringConfig | None = None, seed: int = 0, distinct=None
) -> ClusterModel:
    """Best-of-``_N_INIT`` Lloyd k-means (named for the mini-batch solver it replaced).

    Lloyd runs on the distinct rows weighted by their row counts, so without
    repeated rows it is Lloyd on the rows, bit for bit. ``distinct`` is
    :func:`_distinct_rows` of the same rows, for callers that fit several k.
    """
    values = _as_values(matrix)
    config = config or ClusteringConfig()
    n = values.shape[0]
    if k < 1 or k > n:
        raise KTooLarge(f"need 1 <= k <= {n}, got {k}")

    first, inverse = _distinct_rows(values) if distinct is None else distinct
    points = values[first]
    counts = np.bincount(inverse).astype(np.float64)
    weighted = points * counts[:, None]
    fits = (
        _run_lloyd(points, counts, weighted, k, config.max_iters, np.random.default_rng([seed, r]))
        for r in range(_N_INIT)
    )
    centroids, point_assignments, inertia, iterations, converged = min(fits, key=lambda f: f[2])
    return ClusterModel(
        k=k,
        centroids=centroids,
        assignments=point_assignments[inverse],
        inertia=inertia,
        seed=seed,
        iterations=iterations,
        converged=converged,
    )


def elbow_k(ks: list[int], inertias: np.ndarray) -> int:
    """The k at the argmax of the inertia curve's discrete second difference.

    ``ks`` are consecutive cluster counts, at least three, and ``inertias``
    their inertias in the same order.
    """
    second_diff = inertias[:-2] - 2.0 * inertias[1:-1] + inertias[2:]
    return ks[1 + int(np.argmax(second_diff))]


def elbow_curve(matrix, k_range: tuple[int, int], seed: int = 0) -> tuple[np.ndarray, int]:
    """Inertia per k plus the second-difference elbow suggestion."""
    values = _as_values(matrix)
    k_min, k_max = int(k_range[0]), int(k_range[1])
    if k_min < 1 or k_max > values.shape[0]:
        raise KTooLarge(f"k range [{k_min}, {k_max}] outside [1, {values.shape[0]}]")
    ks = list(range(k_min, k_max + 1))
    if len(ks) < 3:
        raise RangeTooNarrow(f"need at least 3 k values, got {len(ks)}")
    distinct = _distinct_rows(values)
    inertias = np.array(
        [minibatch_kmeans(values, k, ClusteringConfig(), seed, distinct).inertia for k in ks]
    )
    return inertias, elbow_k(ks, inertias)


SILHOUETTE_BLOCK_DOUBLES = 2**20  # size of each distance buffer


def silhouette(matrix, assignments, distinct=None) -> tuple[float, np.ndarray]:
    """Mean and per-sample silhouette s = (b − a)/max(a, b) of one labelling.

    ``assignments`` holds one label per row, else :class:`DimensionMismatch`.
    Distances are exact Euclidean from coordinate differences (no Gram
    shortcut), taken only between the U distinct rows in first-appearance
    order: each row block of them, at most ``SILHOUETTE_BLOCK_DOUBLES``, meets
    in one matmul the U×k counts of each cluster's rows at each point. Each
    point is scored in each cluster and each row reads its point's score in
    its own one: exact up to summation order, and without repeated rows the
    counts are the one-hot and the bytes those of a full N×N pass.
    Singleton-cluster samples score 0. ``distinct`` is ``_distinct_rows`` of
    the same rows, for callers that already hold it.
    """
    values = _as_values(matrix)
    n, d = values.shape
    if n < 3:
        raise TooFewRows(f"need at least 3 samples, got {n}")
    labels = np.asarray(assignments)
    if labels.shape != (n,):
        raise DimensionMismatch(f"need one label for each of {n} rows, got shape {labels.shape}")
    labels = np.unique(labels, return_inverse=True)[1]
    k = int(labels.max()) + 1
    if k < 2:
        raise SingleCluster("silhouette needs at least two clusters")

    first, inverse = _distinct_rows(values) if distinct is None else distinct
    order = np.argsort(first)  # distinct points in first-appearance order
    points = values[first[order]]
    point_of = np.argsort(order)[inverse]
    u = len(points)
    weights = np.bincount(point_of * k + labels, minlength=u * k).reshape(u, k).astype(np.float64)
    sums = np.empty((u, k))  # distance sum from each point to each cluster
    rows = min(u, max(1, SILHOUETTE_BLOCK_DOUBLES // u))
    dist, diff = np.empty((2, rows, u))
    for start in range(0, u, rows):
        block, scratch = dist[: u - start], diff[: u - start]
        block.fill(0.0)
        for j in range(d):
            np.subtract(points[start : start + rows, j, None], points[:, j], out=scratch)
            block += np.square(scratch, out=scratch)
        sums[start : start + rows] = np.sqrt(block, out=block) @ weights

    counts = np.bincount(labels)
    a = sums / np.maximum(counts - 1, 1)  # mean distance to each cluster's other members
    mean_to = sums / counts
    two = np.partition(mean_to, 1, axis=1)[:, :2]  # nearest and next-nearest cluster
    b = np.where(mean_to == two[:, :1], two[:, 1:], two[:, :1])  # nearest other than each
    denom = np.maximum(a, b)
    score = np.divide(b - a, denom, out=np.zeros(a.shape), where=(counts > 1) & (denom > 0.0))
    per_sample = score[point_of, labels]
    return float(per_sample.mean()), per_sample
