"""Dimensionality reduction and cluster validation.

PCA via SVD, mini-batch k-means with k-means++ seeding, the elbow heuristic
(second-difference argmax of the inertia curve), and silhouette scores.

All seeded operations first sort samples into a canonical row order and then
shuffle by seed, so permuting the input rows permutes the outputs and
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import (
    DegenerateColumn,
    InvalidConfig,
    KTooLarge,
    RangeTooNarrow,
    SingleCluster,
    TooFewRows,
)
from .features import FeatureMatrix


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
    assignments: np.ndarray  # N ints in [0, k)
    inertia: float
    seed: int


@dataclass
class ClusteringConfig:
    """Settings of the segment stage's PCA and k-means; the ``clustering`` config section.

    :func:`minibatch_kmeans` and :func:`elbow_curve` read ``batch_size``,
    ``max_iters`` and ``n_init``.
    """

    k: Any = 3  # cluster count, or "auto" for the elbow suggestion
    k_range: tuple[int, int] = (1, 6)
    pca_variance: float | None = 0.9
    pca_dim: int | None = None
    batch_size: int = 256
    max_iters: int = 200
    n_init: int = 10

    def __post_init__(self) -> None:
        k_lo, k_hi = self.k_range
        self.k_range = (int(k_lo), int(k_hi))
        if self.k_range[0] > self.k_range[1]:
            raise InvalidConfig(f"k_range must be [low, high] with low <= high, got {self.k_range}")
        if self.k != "auto":
            self.k = int(self.k)
            if self.k < 1:
                raise InvalidConfig(f"k must be >= 1 or 'auto', got {self.k}")
        if self.pca_variance is not None and not 0.0 < self.pca_variance <= 1.0:
            raise InvalidConfig(f"pca_variance must be in (0, 1], got {self.pca_variance}")
        if self.batch_size < 1 or self.max_iters < 1 or self.n_init < 1:
            raise InvalidConfig("batch_size, max_iters and n_init must be >= 1")


def _as_values(matrix) -> np.ndarray:
    if isinstance(matrix, FeatureMatrix):
        return matrix.values
    return np.asarray(matrix, dtype=np.float64)


def pca_fit(matrix, dim: int | None = None, variance: float | None = None) -> PcaModel:
    """Principal directions targeting a fixed dimension or variance share.

    Exactly one of ``dim``/``variance`` applies; if neither is given the
    default keeps a 0.9 variance fraction.
    """
    values = _as_values(matrix)
    n, p = values.shape
    if n < 2:
        raise TooFewRows(f"need at least 2 rows for PCA, got {n}")
    if dim is None and variance is None:
        variance = 0.9
    if variance is not None and not 0.0 < variance <= 1.0:
        raise InvalidConfig(f"variance fraction must be in (0, 1], got {variance}")
    if dim is not None and not 1 <= dim <= p:
        raise InvalidConfig(f"dim must be in [1, {p}], got {dim}")

    mean = values.mean(axis=0)
    centered = values - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    var = svals**2 / (n - 1)
    total = float(var.sum())
    if total <= 0.0:
        raise DegenerateColumn("data has no variance; PCA is undefined")
    ratio = var / total

    if dim is None:
        cum = np.cumsum(ratio)
        dim = int(np.searchsorted(cum, variance - 1e-12) + 1)
        dim = min(dim, len(ratio))

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


def pca_inverse_transform(model: PcaModel, scores: np.ndarray) -> np.ndarray:
    return np.asarray(scores, dtype=np.float64) @ model.components + model.mean


def _canonical_order(values: np.ndarray) -> np.ndarray:
    """Deterministic row order independent of input permutation."""
    return np.lexsort(values.T[::-1])


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _kmeans_pp(values: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = values.shape[0]
    centroids = np.empty((k, values.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = values[first]
    closest = ((values - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[c] = values[idx]
        dist = ((values - centroids[c]) ** 2).sum(axis=1)
        np.minimum(closest, dist, out=closest)
    return centroids


def _run_minibatch(
    values: np.ndarray, k: int, config: ClusteringConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, float]:
    n = values.shape[0]
    batch_size = min(config.batch_size, n)
    centroids = _kmeans_pp(values, k, rng)
    counts = np.zeros(k)
    for _ in range(config.max_iters):
        batch_idx = rng.choice(n, size=batch_size, replace=False)
        batch = values[batch_idx]
        nearest = np.argmin(_squared_distances(batch, centroids), axis=1)
        for c in np.unique(nearest):
            members = batch[nearest == c]
            m = len(members)
            # running-mean update: equivalent to m sequential steps with
            # per-centroid learning rate 1/(count seen so far)
            counts[c] += m
            centroids[c] += (members.sum(axis=0) - m * centroids[c]) / counts[c]
    sq = _squared_distances(values, centroids)
    assignments = np.argmin(sq, axis=1)
    inertia = float(sq[np.arange(n), assignments].sum())
    return centroids, assignments, inertia


def minibatch_kmeans(
    matrix, k: int, config: ClusteringConfig | None = None, seed: int = 0
) -> ClusterModel:
    """Best-of-``n_init`` mini-batch k-means with a final full assignment pass."""
    values = _as_values(matrix)
    config = config or ClusteringConfig()
    n = values.shape[0]
    if k < 1 or k > n:
        raise KTooLarge(f"need 1 <= k <= {n}, got {k}")

    order = _canonical_order(values)
    canonical = values[order]

    best: tuple[np.ndarray, np.ndarray, float] | None = None
    for restart in range(config.n_init):
        rng = np.random.default_rng([seed, restart])
        centroids, assignments, inertia = _run_minibatch(canonical, k, config, rng)
        if best is None or inertia < best[2]:
            best = (centroids, assignments, inertia)

    centroids, canonical_assignments, inertia = best
    assignments = np.empty(n, dtype=np.int64)
    assignments[order] = canonical_assignments
    return ClusterModel(
        k=k,
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        seed=seed,
    )


def elbow_k(ks: list[int], inertias: np.ndarray) -> int:
    """The k at the argmax of the inertia curve's discrete second difference.

    ``ks`` are consecutive cluster counts, at least three, and ``inertias``
    their inertias in the same order.
    """
    second_diff = inertias[:-2] - 2.0 * inertias[1:-1] + inertias[2:]
    return ks[1 + int(np.argmax(second_diff))]


def elbow_curve(
    matrix, k_range: tuple[int, int], config: ClusteringConfig | None = None, seed: int = 0
) -> tuple[np.ndarray, int]:
    """Inertia per k plus the second-difference elbow suggestion."""
    values = _as_values(matrix)
    k_min, k_max = int(k_range[0]), int(k_range[1])
    if k_min < 1 or k_max > values.shape[0]:
        raise KTooLarge(f"k range [{k_min}, {k_max}] outside [1, {values.shape[0]}]")
    ks = list(range(k_min, k_max + 1))
    if len(ks) < 3:
        raise RangeTooNarrow(f"need at least 3 k values, got {len(ks)}")
    inertias = np.array(
        [minibatch_kmeans(values, k, config, seed).inertia for k in ks]
    )
    return inertias, elbow_k(ks, inertias)


def silhouette(matrix, assignments) -> tuple[float, np.ndarray]:
    """Mean and per-sample silhouette s = (b − a)/max(a, b).

    Distances are exact Euclidean computed from coordinate differences (no
    Gram shortcut), matching a brute-force oracle to full precision.
    Singleton-cluster samples score 0.
    """
    values = _as_values(matrix)
    labels = np.asarray(assignments)
    n = values.shape[0]
    if n < 3:
        raise TooFewRows(f"need at least 3 samples, got {n}")
    unique = np.unique(labels)
    if len(unique) < 2:
        raise SingleCluster("silhouette needs at least two clusters")

    cluster_rows = {int(c): np.flatnonzero(labels == c) for c in unique}
    per_sample = np.zeros(n)
    block = max(1, int(2**22 // max(1, n * values.shape[1])))
    for start in range(0, n, block):
        stop = min(start + block, n)
        diff = values[start:stop, None, :] - values[None, :, :]
        dist = np.sqrt(np.einsum("ijd,ijd->ij", diff, diff))
        for i_local, i in enumerate(range(start, stop)):
            own = int(labels[i])
            own_rows = cluster_rows[own]
            if len(own_rows) == 1:
                per_sample[i] = 0.0
                continue
            a = dist[i_local, own_rows].sum() / (len(own_rows) - 1)
            b = np.inf
            for c, rows in cluster_rows.items():
                if c == own:
                    continue
                b = min(b, dist[i_local, rows].mean())
            denom = max(a, b)
            per_sample[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(per_sample.mean()), per_sample
