"""Supervised rank-band classes and cluster↔class matching.

Players are classed Low/Medium/High efficiency by where their per-minute
leaderboard ranks fall inside three near-equal integer bands of the observed
rank range (rank 1 — the best — lies in the High band). Unsupervised
clusters are then labelled by matching their feature-correlation matrices to
the per-class matrices with the RV coefficient, maximizing total similarity
over all bijections. Each player's share of rows in each cluster is counted
into decile buckets per (class, cluster).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from enum import IntEnum
from itertools import permutations
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyTable,
    FeatureOrderMismatch,
    MissingRank,
    TooFewRows,
    ZeroMatrix,
)
from .features import FeatureMatrix, _scaled_deviations, require_finite
from .records import DatasetTable


class ClassLabel(IntEnum):
    """Efficiency classes, totally ordered LOW < MEDIUM < HIGH."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class RankBands:
    """Three integer bands over [rank_min, rank_max], widths differing ≤ 1.

    ``boundaries = (b1, b2)``: ranks ≤ b1 are High, ranks in (b1, b2] are
    Medium, ranks > b2 are Low.
    """

    rank_min: int
    rank_max: int
    boundaries: tuple[int, int]

    def classes_of(self, ranks: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The :class:`ClassLabel` value of each rank: 2 High, 1 Medium, 0 Low.

        That is the count of band boundaries the rank lies within, added into
        ``out`` (int64) in place when given, so no other N-length int64 array is made.
        """
        out = np.zeros(len(ranks), dtype=np.int64) if out is None else out
        for b in self.boundaries:
            out += ranks <= b
        return out


def make_rank_bands(rank_min: int, rank_max: int) -> RankBands:
    span = rank_max - rank_min + 1
    base, rem = divmod(span, 3)
    widths = [base + (1 if i < rem else 0) for i in range(3)]
    b1 = rank_min + widths[0] - 1
    b2 = b1 + widths[1]
    return RankBands(rank_min=rank_min, rank_max=rank_max, boundaries=(b1, b2))


def assign_classes(table: DatasetTable) -> tuple[dict[str, ClassLabel], RankBands]:
    """Per-player efficiency class from rank-band occupancy counts.

    Ties in the band counts resolve toward the more efficient class.
    """
    if not len(table):
        raise EmptyTable("cannot assign classes on an empty table")
    ranks = table.columns["rank"]
    if (ranks < 1).any():
        raise MissingRank("every record needs a rank >= 1")
    bands = make_rank_bands(int(ranks.min()), int(ranks.max()))

    keys = bands.classes_of(ranks, out=table.player_codes * 3)  # the one N-length array
    counts = np.bincount(keys, minlength=3 * len(table.player_ids)).reshape(-1, 3)
    result: dict[str, ClassLabel] = {}
    for player, (low, medium, high) in zip(table.player_ids, counts.tolist()):
        # argmax with ties toward the more efficient class
        result[player] = ClassLabel(max((high, 2), (medium, 1), (low, 0))[1])
    return result, bands


def correlation_matrix(matrix: FeatureMatrix) -> np.ndarray:
    """Pearson correlations with unit diagonal; constant columns zeroed.

    Raises :class:`NonFiniteValue` on a NaN or infinite cell. Memory: one N×p
    working copy, the deviations over their column norms, whose Gram is the
    result; ``matrix`` is left as it was.
    """
    values = np.array(matrix.values, dtype=np.float64, order="K")
    return _correlation_in_place(replace(matrix, values=values))


def _correlation_in_place(matrix: FeatureMatrix) -> np.ndarray:
    """:func:`correlation_matrix` of a matrix whose values the caller owns; it overwrites them."""
    n = matrix.n_rows
    if n < 2:
        raise TooFewRows(f"need at least 2 rows, got {n}")
    z = matrix.values
    require_finite(z)
    constant = _scaled_deviations(z, 1)
    if constant.any():
        names = [matrix.column_names[i] for i in np.flatnonzero(constant)]
        # stack level 3: the line that called correlation_matrix
        warnings.warn(f"constant columns have undefined correlations: {names}",
                      RuntimeWarning, stacklevel=3)
    corr = z.T @ z
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


def rv_coefficient(a: np.ndarray, b: np.ndarray) -> float:
    """Matrix similarity trace(AB)/√(trace(A²)·trace(B²)) for symmetric PSD."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"need equal square matrices, got {a.shape} vs {b.shape}")
    aa = float(np.einsum("ij,ij->", a, a))
    bb = float(np.einsum("ij,ij->", b, b))
    if aa == 0.0 or bb == 0.0:
        raise ZeroMatrix("RV coefficient is undefined for an all-zero matrix")
    ab = float(np.einsum("ij,ji->", a, b))
    return ab / np.sqrt(aa * bb)


@dataclass
class ClusterLabelling:
    """Bijection from cluster ids to class labels with its RV evidence."""

    mapping: dict[int, ClassLabel]
    similarity_matrix: np.ndarray  # rows: cluster id, cols: ClassLabel order
    method: str = "RV"


def label_clusters(
    cluster_corrs: Sequence[np.ndarray],
    class_corrs: Mapping[ClassLabel, np.ndarray],
) -> ClusterLabelling:
    """Match clusters to classes by maximizing total RV similarity."""
    if len(cluster_corrs) != 3 or len(class_corrs) != 3:
        raise DimensionMismatch(
            f"need exactly 3 cluster and 3 class matrices, got "
            f"{len(cluster_corrs)} and {len(class_corrs)}"
        )
    shape = cluster_corrs[0].shape
    all_mats = list(cluster_corrs) + [class_corrs[label] for label in ClassLabel]
    if any(m.shape != shape for m in all_mats):
        raise FeatureOrderMismatch(
            "cluster and class matrices must share one feature set and order"
        )
    similarity = np.empty((3, 3))
    for c in range(3):
        for label in ClassLabel:
            similarity[c, int(label)] = rv_coefficient(cluster_corrs[c], class_corrs[label])

    # the first bijection of greatest total similarity
    best_perm = max(permutations(range(3)), key=lambda p: similarity[range(3), p].sum())
    mapping = {c: ClassLabel(best_perm[c]) for c in range(3)}
    return ClusterLabelling(mapping=mapping, similarity_matrix=similarity)


BUCKET_EDGES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)  # deciles of a share


@dataclass
class ProportionReport:
    """Per-player cluster occupancy and its :data:`BUCKET_EDGES` histogram per (class, cluster)."""

    per_player: dict[str, np.ndarray]  # player -> k proportions, sum 1
    counts: dict[ClassLabel, np.ndarray]  # class -> k × n_buckets histogram


def proportion_buckets(
    class_map: Mapping[str, ClassLabel],
    players: Sequence[str],
    assignments: Sequence[int],
    k: int,
) -> ProportionReport:
    """Histogram, per (class, cluster), of players' in-cluster data shares.

    The buckets are the deciles of :data:`BUCKET_EDGES`, [0, 0.1), …,
    [0.9, 1] with the last edge inclusive.
    """
    if len(players) != len(assignments):
        raise DimensionMismatch(
            f"{len(players)} players vs {len(assignments)} assignments"
        )
    labels = np.asarray(assignments, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise DimensionMismatch(f"assignments must lie in [0, {k})")

    index = {player: i for i, player in enumerate(dict.fromkeys(players))}  # first-seen order
    codes = np.fromiter(map(index.__getitem__, players), np.intp, len(players))
    rows = np.bincount(codes * k + labels, minlength=len(index) * k).reshape(len(index), k)
    per_player: dict[str, np.ndarray] = {}
    n_buckets = len(BUCKET_EDGES) - 1
    counts = {label: np.zeros((k, n_buckets), dtype=np.int64) for label in ClassLabel}
    for player, own in zip(index, rows):  # each player's row count per cluster
        props = own / own.sum()  # shares in [0, 1]
        per_player[player] = props
        label = class_map[player]
        for cluster in range(k):
            bucket = int(np.searchsorted(BUCKET_EDGES, props[cluster], side="right") - 1)
            counts[label][cluster, min(bucket, n_buckets - 1)] += 1
    return ProportionReport(per_player=per_player, counts=counts)
