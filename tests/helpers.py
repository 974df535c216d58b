"""Builders and independent oracles shared across the test suite.

The oracles recompute each quantity from its defining formula (two-pass
Pearson, brute-force silhouette, quadrature distribution tails, lasso KKT
subgradient conditions) with none of the package's shortcuts, so the
implementation and its tests cannot share a bug. The scalar Gram-form
solver (``_GramSystem``, ``_gram_descent``) is the reference the batched
solver must match bit for bit: one system at a time, on Python floats.
``row_scored_errors`` scores each fold's β on its held-out rows, the
reference for the errors read from the held-out Grams. The
full N×N silhouette pass (``streamed_silhouette``) is the one the
distinct-row silhouette must match bit for bit on rows without repeats,
and Lloyd on every row (``row_kmeans``) the one that k-means on
count-weighted distinct rows must match; its draws bisect running sums of
Python floats and its ids come from a scan of the labels in row order
(``first_row_ids``). ``fold_rows`` sorts the rows by their keys as Python
ints, the reference for the CV fold split.
The row view (``OccupantRecord``, ``make_table``, ``table_records``) holds
one object per row, the oracle that ``DatasetTable``'s columns are checked
against; ``tables_equal`` compares two tables column by column.
``row_csv`` writes a table's CSV one row at a time, joining the ``repr`` of
each cell, the reference for the bytes ``emit_csv`` gathers from its tables.
``run_chain_loop`` steps the generator's two-state chain one minute at a
time, the oracle for its vectorised form.
``granger_oracle`` fits the Granger test's two models by ``lstsq`` on one
stacked lagged design, built segment by segment, the reference for the F
from the one-pass cross products; ``granger_f_longdouble`` recomputes that
F with every step in extended precision.
``standardize_formula``, ``correlation_formula`` and
``scaled_deviations_formula`` make a new array per step, the results that
the in-place forms must match bit for bit on ``awkward_matrices`` and
``blocked_matrices``. ``scanned_proportions`` finds each player's rows
by a scan of every row, the reference for the per-player counts of
``proportion_buckets``. ``traced_peak`` runs a call under tracemalloc and
returns its peak bytes, for the memory gates.
"""

from __future__ import annotations

import bisect
import datetime as dt
import io
import itertools
import random
import tracemalloc
from dataclasses import dataclass
from math import copysign
from operator import add, attrgetter, mul

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, special

from energyseg import clustering
from energyseg.clustering import ClusterModel
from energyseg.errors import DegenerateColumn, SingleCluster, TooFewRows
from energyseg.features import _BLOCK_ROWS, FeatureMatrix, _stream, standardize
from energyseg.glasso import CvResult, NeighborhoodFit, _grid_from_max, soft_threshold
from energyseg.records import (
    COLUMN_DTYPES,
    CSV_COLUMNS,
    FIELD_COLUMNS,
    STATUS_COLUMNS,
    DatasetTable,
    emit_csv,
)
from energyseg.segmentation import ClassLabel

BASE_DATE = dt.date(2018, 9, 3)


# ---------------------------------------------------------------------------
# the row view: a table as one object per row, the oracle its columns are
# checked against


@dataclass(slots=True, frozen=True)
class OccupantRecord:
    """One per-minute observation of a single player.

    ``statuses``, ``usage_today`` and ``baselines`` are indexed in
    ``RESOURCES`` order.
    """

    timestamp: dt.datetime
    player_id: str
    statuses: tuple[int, int, int, int]
    usage_today: tuple[float, float, float, float]
    baselines: tuple[float, float, float, float]
    points_total: float
    rank: int
    portal_visits: int
    humidity: float
    temperature: float
    solar_radiation: float
    is_weekend: int
    is_morning: int
    is_afternoon: int
    is_evening: int
    is_break: int
    is_midterm: int
    is_final: int

    def __getattr__(self, name: str) -> int:
        # a STATUS_COLUMNS name reads its entry of ``statuses``
        if name in STATUS_COLUMNS:
            return self.statuses[STATUS_COLUMNS.index(name)]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


# OccupantRecord's fields after the resource tuples, in CSV order
_RECORD_SCALARS = attrgetter(*FIELD_COLUMNS[12:])


def make_table(records) -> DatasetTable:
    """A table of ``records``, stably sorted by (player, timestamp)."""
    rows = sorted(records, key=lambda r: (r.player_id, r.timestamp))
    player_ids = tuple(sorted({r.player_id for r in rows}))
    code = {p: i for i, p in enumerate(player_ids)}
    values = list(
        zip(*((*r.statuses, *r.usage_today, *r.baselines, *_RECORD_SCALARS(r)) for r in rows))
    ) or [()] * len(FIELD_COLUMNS)
    return DatasetTable(
        player_ids=player_ids,
        player_codes=np.array([code[r.player_id] for r in rows], dtype=np.intp),
        timestamps=np.array([r.timestamp for r in rows], dtype="datetime64[m]"),
        columns={
            name: np.array(col, dtype=COLUMN_DTYPES[name])
            for name, col in zip(FIELD_COLUMNS, values)
        },
    )


def table_records(table: DatasetTable) -> list[OccupantRecord]:
    """The rows of ``table`` as :class:`OccupantRecord` objects."""
    cols = [table.columns[name].tolist() for name in FIELD_COLUMNS]
    return [
        OccupantRecord(ts, player, tuple(v[0:4]), tuple(v[4:8]), tuple(v[8:12]), *v[12:])
        for ts, player, *v in zip(table.timestamps.tolist(), table.row_players(), *cols)
    ]


def tables_equal(a: DatasetTable, b: DatasetTable) -> bool:
    """Whether two tables hold the same players, rows, cells and drop counts."""
    return (
        a.player_ids == b.player_ids
        and np.array_equal(a.player_codes, b.player_codes)
        and np.array_equal(a.timestamps, b.timestamps)
        and all(np.array_equal(a.columns[n], b.columns[n]) for n in FIELD_COLUMNS)
        and a.dropped_by_reason == b.dropped_by_reason
    )


def make_record(player_id: str = "p1", minute: int = 0, day: int = 0, **overrides) -> OccupantRecord:
    """A valid occupant record with sensible defaults; kwargs override fields."""
    ts = dt.datetime.combine(BASE_DATE, dt.time(0, 0)) + dt.timedelta(days=day, minutes=minute)
    fields = dict(
        timestamp=ts,
        player_id=player_id,
        statuses=(0, 0, 0, 0),
        usage_today=(0.0, 0.0, 0.0, 0.0),
        baselines=(100.0, 100.0, 100.0, 100.0),
        points_total=0.0,
        rank=1,
        portal_visits=0,
        humidity=50.0,
        temperature=20.0,
        solar_radiation=100.0,
        is_weekend=0,
        is_morning=0,
        is_afternoon=0,
        is_evening=0,
        is_break=0,
        is_midterm=0,
        is_final=0,
    )
    fields.update(overrides)
    return OccupantRecord(**fields)


def table_to_csv(table: DatasetTable) -> str:
    buf = io.StringIO()
    emit_csv(table, buf)
    return buf.getvalue()


def row_csv(table: DatasetTable) -> str:
    """The CSV text of ``table`` built one row at a time, the reference for ``emit_csv``.

    Each row joins its minute's ISO text, its player id (quoted when it holds
    a comma, a quote or a line break) and the ``repr`` of each Python cell.
    """
    def quoted(text: str) -> str:
        return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text

    stamps = np.datetime_as_string(table.timestamps, unit="m").tolist()
    cells = [table.columns[name].tolist() for name in FIELD_COLUMNS]
    rows = zip(stamps, map(quoted, table.row_players()), *cells)
    lines = [",".join(CSV_COLUMNS)] + [",".join([stamp, player, *map(repr, values)])
                                        for stamp, player, *values in rows]
    return "".join(line + "\n" for line in lines)


def fm(values, names=None, **kwargs) -> FeatureMatrix:
    values = np.asarray(values, dtype=np.float64)
    if names is None:
        names = tuple(f"c{i}" for i in range(values.shape[1]))
    return FeatureMatrix(values=values, column_names=tuple(names), **kwargs)


def std_fm(values, names=None) -> FeatureMatrix:
    return standardize(fm(values, names))


def chain_sample(rng: np.random.Generator, n: int, p: int, rho: float = 0.6) -> np.ndarray:
    """AR(1)-style chain X1 -> X2 -> ... -> Xp; the true graph is the path."""
    X = np.empty((n, p))
    X[:, 0] = rng.standard_normal(n)
    c = float(np.sqrt(1.0 - rho * rho))
    for k in range(1, p):
        X[:, k] = rho * X[:, k - 1] + c * rng.standard_normal(n)
    return X


def gaussian_blobs(rng: np.random.Generator, centers, n_per: int, scale: float = 0.7):
    centers = np.asarray(centers, dtype=np.float64)
    rows = [c + scale * rng.standard_normal((n_per, centers.shape[1])) for c in centers]
    labels = np.repeat(np.arange(len(centers)), n_per)
    return np.vstack(rows), labels


def random_psd(rng: np.random.Generator, p: int) -> np.ndarray:
    """Random symmetric PSD matrix on a correlation-like scale."""
    A = rng.standard_normal((p, p + 2))
    M = A @ A.T / (p + 2)
    return (M + M.T) / 2.0


# ---------------------------------------------------------------------------
# independent oracles


def kkt_violation(values, s, others, beta, lam) -> float:
    """Worst-case violation of the lasso subgradient optimality conditions.

    With full residual r = Y_s - sum_j Y_j beta_j and g_j = (1/N)<r, Y_j>,
    a minimizer of (1/2N)||r||^2 + lam*||beta||_1 must satisfy
    g_j = lam*sign(beta_j) on the support and |g_j| <= lam off it.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    y = values[:, s]
    X = values[:, list(others)]
    beta = np.asarray(beta, dtype=np.float64)
    r = y - X @ beta
    g = (X * r[:, None]).sum(axis=0) / n
    on = beta != 0.0
    worst = 0.0
    if on.any():
        worst = max(worst, float(np.abs(g[on] - lam * np.sign(beta[on])).max()))
    if (~on).any():
        worst = max(worst, float(np.maximum(np.abs(g[~on]) - lam, 0.0).max()))
    return worst


def brute_silhouette(values, labels) -> np.ndarray:
    """O(N^2) per-sample silhouette straight from the definition."""
    X = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    n = X.shape[0]
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            D[i, j] = float(np.sqrt(((X[i] - X[j]) ** 2).sum()))
    out = np.zeros(n)
    uniq = np.unique(labels)
    for i in range(n):
        mine = labels == labels[i]
        n_mine = int(mine.sum())
        if n_mine <= 1:
            out[i] = 0.0
            continue
        a = D[i][mine].sum() / (n_mine - 1)
        b = min(D[i][labels == c].mean() for c in uniq if c != labels[i])
        denom = max(a, b)
        out[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return out


def streamed_silhouette(matrix, assignments):
    """The silhouette as one full N×N pass: each row's distances to every row.

    Row blocks of at most ``clustering.SILHOUETTE_BLOCK_DOUBLES`` exact
    distances, read at call time, each meet the labelling's 0/1 one-hot
    columns in one matmul. With no repeated row, :func:`silhouette` must
    reproduce it bit for bit.
    """
    values = np.asarray(matrix, dtype=np.float64)
    n, d = values.shape
    if n < 3:
        raise TooFewRows(f"need at least 3 samples, got {n}")
    labels = np.unique(np.asarray(assignments), return_inverse=True)[1]
    k = labels.max() + 1
    if k < 2:
        raise SingleCluster("silhouette needs at least two clusters")

    at = np.arange(n)
    onehot = np.zeros((n, k))
    onehot[at, labels] = 1.0
    sums = np.empty((n, k))  # distance sum from each row to each cluster
    rows = min(n, max(1, clustering.SILHOUETTE_BLOCK_DOUBLES // n))
    dist, diff = np.empty((2, rows, n))
    for start in range(0, n, rows):
        block, scratch = dist[: n - start], diff[: n - start]
        block.fill(0.0)
        for j in range(d):
            np.subtract(values[start : start + rows, j, None], values[:, j], out=scratch)
            block += np.square(scratch, out=scratch)
        sums[start : start + rows] = np.sqrt(block, out=block) @ onehot

    counts = np.bincount(labels)
    own = counts[labels]
    a = sums[at, labels] / np.maximum(own - 1, 1)
    mean_to = sums / counts
    mean_to[at, labels] = np.inf
    b = mean_to.min(axis=1)
    denom = np.maximum(a, b)
    per_sample = np.divide(b - a, denom, out=np.zeros(a.shape), where=(own > 1) & (denom > 0.0))
    return float(per_sample.mean()), per_sample


def _row_draw(mass: np.ndarray, rng: random.Random) -> int:
    """Row i with probability mass[i] / total: bisection of the running sums, clamped."""
    ends = list(itertools.accumulate(mass.tolist()))
    return min(bisect.bisect_right(ends, rng.random() * ends[-1]), len(ends) - 1)


def _row_kmeans_pp(values: np.ndarray, k: int, rng: random.Random) -> np.ndarray:
    n = values.shape[0]
    centroids = np.empty((k, values.shape[1]))
    first = _row_draw(np.ones(n), rng)
    centroids[0] = values[first]
    closest = ((values - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            idx = _row_draw(np.ones(n), rng)
        else:
            idx = _row_draw(closest, rng)
        centroids[c] = values[idx]
        dist = ((values - centroids[c]) ** 2).sum(axis=1)
        np.minimum(closest, dist, out=closest)
    return centroids


def _row_squared_distances(values: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = values[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _row_lloyd(values: np.ndarray, k: int, max_iters: int, rng: random.Random):
    centroids = _row_kmeans_pp(values, k, rng)
    sq = _row_squared_distances(values, centroids)
    assignments = np.argmin(sq, axis=1)
    for iterations in range(1, max_iters + 1):
        for c in range(k):
            members = values[assignments == c]
            m = len(members)
            if m:
                centroids[c] += (members.sum(axis=0) - m * centroids[c]) / m
        sq = _row_squared_distances(values, centroids)
        nearest = np.argmin(sq, axis=1)
        converged = bool(np.array_equal(nearest, assignments))
        assignments = nearest
        if converged:
            break
    inertia = float(sq[np.arange(len(values)), assignments].sum())
    return centroids, assignments, inertia, iterations, converged


def first_row_ids(assignments, k: int) -> tuple[np.ndarray, list[int]]:
    """Labels renumbered in the order they first appear in the rows, unused ones last.

    Also returns the old label of each new one, the order to put centroids in.
    """
    order = list(dict.fromkeys(np.asarray(assignments).tolist()))
    order += [c for c in range(k) if c not in order]
    new = {old: i for i, old in enumerate(order)}
    return np.array([new[a] for a in np.asarray(assignments).tolist()], dtype=np.intp), order


def row_kmeans(values, k: int, max_iters: int = 200, seed: int = 0) -> ClusterModel:
    """Best-of-``clustering._N_INIT`` Lloyd k-means on every row, in sorted row order.

    Restart r draws k-means++ seeds over the rows from ``_stream(seed, "k-means r")``
    and moves every centroid to its members' mean with an N×k×d distance
    temporary per step. The best fit's ids are :func:`first_row_ids`. On rows
    without repeats, :func:`minibatch_kmeans` must reproduce it bit for bit.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.lexsort(values.T[::-1])
    canonical = values[order]
    best = None
    for restart in range(clustering._N_INIT):
        fit = _row_lloyd(canonical, k, max_iters, _stream(seed, f"k-means {restart}"))
        if best is None or fit[2] < best[2]:
            best = fit
    centroids, canonical_assignments, inertia, iterations, converged = best
    assignments = np.empty(len(values), dtype=np.int64)
    assignments[order] = canonical_assignments
    assignments, ids = first_row_ids(assignments, k)
    return ClusterModel(k, centroids[ids], assignments, inertia, seed, iterations, converged)


def f_tail_quad(x: float, d1: float, d2: float) -> float:
    """Upper tail of the F(d1, d2) distribution by adaptive quadrature."""
    log_norm = 0.5 * d1 * np.log(d1 / d2) - special.betaln(d1 / 2.0, d2 / 2.0)

    def pdf(t):
        return np.exp(
            log_norm
            + (d1 / 2.0 - 1.0) * np.log(t)
            - (d1 + d2) / 2.0 * np.log1p(d1 * t / d2)
        )

    val, _ = integrate.quad(pdf, x, np.inf, epsabs=1e-13, epsrel=1e-13, limit=500)
    return float(val)


def t_tail_quad(x: float, df: float) -> float:
    """Upper tail of Student's t by adaptive quadrature."""
    log_norm = (
        special.gammaln((df + 1.0) / 2.0)
        - special.gammaln(df / 2.0)
        - 0.5 * np.log(df * np.pi)
    )

    def pdf(t):
        return np.exp(log_norm - (df + 1.0) / 2.0 * np.log1p(t * t / df))

    val, _ = integrate.quad(pdf, x, np.inf, epsabs=1e-13, epsrel=1e-13, limit=500)
    return float(val)


def _lagged_rows(segments, lag: int, dtype) -> np.ndarray:
    """The stacked rows [y_{t−1..t−L}, x_{t−1..t−L}, y_t] of every segment, one per row."""
    blocks = []
    for x, y in segments:
        x, y = np.asarray(x, dtype=dtype), np.asarray(y, dtype=dtype)
        T = len(y)
        if T > lag:
            lags = [s[lag - j - 1 : T - j - 1] for s in (y, x) for j in range(lag)]
            blocks.append(np.column_stack(lags + [y[lag:]]))
    return np.vstack(blocks)


def granger_oracle(segments, lag: int):
    """(RSS_r − RSS_u, RSS_u, RSS_r, n) of the stacked lagged design, by ``lstsq``.

    RSS_r is None when ``matrix_rank`` finds the unrestricted design
    [1, own lags, cross lags] collinear; n is its row count.
    """
    rows = _lagged_rows(segments, lag, np.float64)
    y_t = rows[:, -1]
    unrestricted = np.hstack([np.ones((len(y_t), 1)), rows[:, :-1]])
    restricted = unrestricted[:, : lag + 1]

    def rss(design):
        resid = y_t - design @ np.linalg.lstsq(design, y_t, rcond=None)[0]
        return float(resid @ resid)

    if np.linalg.matrix_rank(unrestricted) < unrestricted.shape[1]:
        return None, None, None, len(y_t)
    rss_r, rss_u = rss(restricted), rss(unrestricted)
    return rss_r - rss_u, rss_u, rss_r, len(y_t)


def granger_f_longdouble(segments, lag: int) -> float:
    """The Granger F of the stacked lagged design, every step in ``np.longdouble``.

    The centred cross products are factored by a scalar Cholesky in the
    order [own, cross, y], so RSS_r − RSS_u is a sum of squares, not a
    difference in which digits cancel.
    """
    rows = _lagged_rows(segments, lag, np.longdouble)
    n, width = rows.shape
    rows -= rows.sum(axis=0) / n
    cross = [[(rows[:, i] * rows[:, k]).sum() for k in range(width)] for i in range(width)]
    factor = [[np.longdouble(0)] * width for _ in range(width)]
    for i in range(width):
        for k in range(i + 1):
            rest = cross[i][k] - sum(factor[i][m] * factor[k][m] for m in range(k))
            factor[i][k] = np.sqrt(rest) if i == k else rest / factor[k][k]
    numerator = sum(factor[-1][k] ** 2 for k in range(lag, 2 * lag))
    rss_u = factor[-1][-1] ** 2
    return float((numerator / lag) / (rss_u / (n - 2 * lag - 1)))


def standardize_formula(values) -> np.ndarray:
    """``standardize``'s values, with a new array per step."""
    means = values.mean(axis=0)
    stds = values.std(axis=0, ddof=1)
    constant = stds == 0.0
    out = (values - means) / np.where(constant, 1.0, stds)
    out[:, constant] = 0.0
    return out


def correlation_formula(values) -> np.ndarray:
    """``correlation_matrix``'s result, with a new array per step."""
    centered = values - values.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    constant = norms == 0.0
    z = centered / np.where(constant, 1.0, norms)
    corr = z.T @ z
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


@st.composite
def awkward_matrices(draw) -> np.ndarray:
    """An n×p float64 matrix, n in 2..60 and p in 1..6, with constant columns,
    -0.0 cells, repeated rows and column offsets up to 1e9."""
    n, p = draw(st.integers(2, 60)), draw(st.integers(1, 6))
    cells = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e3, 1e3))
    values = draw(hnp.arrays(np.float64, (n, p), elements=cells))
    if draw(st.booleans()):
        values = values[draw(hnp.arrays(np.intp, n, elements=st.integers(0, n - 1)))]
    for j in range(p):
        kind = draw(st.sampled_from(["as drawn", "constant", "offset"]))
        if kind == "constant":
            values[:, j] = values[0, j]
        elif kind == "offset":
            values[:, j] += draw(st.sampled_from([1.0, 1e6, -1e6, 123456.789, 1e9, -1e9]))
    return values


def scaled_deviations_formula(values, divisor: int) -> tuple[np.ndarray, np.ndarray]:
    """``_scaled_deviations``' result and constant columns, out of place and in two passes."""
    deviations = values - values.mean(axis=0)
    scales = np.sqrt(np.square(deviations).sum(axis=0) / divisor)
    constant = scales == 0.0
    out = deviations / np.where(constant, 1.0, scales)
    out[:, constant] = 0.0
    return out, constant


@st.composite
def blocked_matrices(draw) -> np.ndarray:
    """An n×p float64 matrix, C or F ordered, n below, at or across ``_BLOCK_ROWS``
    and p in 1..6, with constant, all −0.0, signed-zero, 0/1 and offset columns."""
    block = _BLOCK_ROWS
    n = draw(st.one_of(
        st.integers(2, 40), st.integers(block - 2, block + 2), st.integers(2 * block - 3, 3 * block + 5)
    ))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((n, p)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    for j in range(p):
        kinds = ["as drawn", "constant", "-0.0", "signed zeros", "0/1", "offset"]
        kind = draw(st.sampled_from(kinds))
        if kind == "constant":
            values[:, j] = values[0, j]
        elif kind == "-0.0":
            values[:, j] = -0.0
        elif kind == "signed zeros":
            values[:, j] = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        elif kind == "0/1":
            values[:, j] = rng.integers(0, 2, n)
        elif kind == "offset":
            values[:, j] += draw(st.sampled_from([1e6, -1e6, 123456.789, 1e9]))
    return np.asfortranarray(values) if draw(st.booleans()) else values


def traced_peak(call, *args, **kwargs):
    """``(call(*args, **kwargs), peak)``: the peak bytes tracemalloc saw while the call ran."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def two_pass_pearson(values) -> np.ndarray:
    """Textbook two-pass Pearson correlation matrix."""
    X = np.asarray(values, dtype=np.float64)
    n, p = X.shape
    centered = X - X.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    C = np.empty((p, p))
    for a in range(p):
        for b in range(p):
            if norms[a] == 0.0 or norms[b] == 0.0:
                C[a, b] = 1.0 if a == b else 0.0
            else:
                C[a, b] = float(
                    (centered[:, a] * centered[:, b]).sum() / (norms[a] * norms[b])
                )
    return C


class _GramSystem:
    """Sufficient statistics of regressing column ``s`` on the others.

    Holds the rows of XᵀX/N, Xᵀy/N and yᵀy/N as Python floats for the
    inner loop, taken from a Gram matrix over N rows. The columns in
    ``drop`` get zero rows, columns and Xᵀy entries.
    """

    def __init__(self, gram: np.ndarray, s: int, n: int, drop=()) -> None:
        others = [j for j in range(gram.shape[0]) if j != s]
        self.rows = (gram[np.ix_(others, others)] / n).tolist()
        self.grad0 = (gram[others, s] / n).tolist()
        for i, j in enumerate(others):
            if j in drop:
                self.rows[i] = [0.0] * len(others)
                self.grad0[i] = 0.0
                for row in self.rows:
                    row[i] = 0.0
        self.nu = [row[j] for j, row in enumerate(self.rows)]
        self.yy = float(gram[s, s]) / n

    def lambda_max(self) -> float:
        """max_j |Xᵀy|_j/N from the numbers the first sweep reads."""
        return max(map(abs, self.grad0))

    def objective(self, beta: list[float], grad: list[float], lam: float) -> float:
        """(yᵀy − βᵀXᵀy − N·βᵀgrad)/(2N) + λ‖β‖₁, with grad = (Xᵀy − XᵀXβ)/N."""
        fit = sum(map(mul, beta, map(add, self.grad0, grad)))
        return 0.5 * (self.yy - fit) + lam * sum(map(abs, beta))

    def gradient(self, beta: list[float]) -> list[float]:
        """(Xᵀy − XᵀXβ)/N, each row's products summed left to right."""
        return [g0 - sum(map(mul, row, beta)) for g0, row in zip(self.grad0, self.rows)]

    def finish(self, beta: list[float], lam: float):
        """(β, gradient, objective) of the active-set solve from ``beta``'s signs, or None.

        Solves R_AA·x_A = g0_A − λ·σ_A with inactive coordinates held at 0
        by identity rows, by the LAPACK call the batched path makes; the
        active set A and signs σ start as ``beta``'s. While x is finite but
        flips some active signs, moves from β toward x until the first of
        them reaches zero, drops it from A and solves again. Keeps the last
        x only when it is finite, keeps every sign, and leaves every
        inactive |gradient| ≤ λ.
        """
        signs = np.sign(beta).tolist()
        point = list(beta)
        while True:
            active = np.array(signs) != 0.0
            block = np.where(np.outer(active, active), np.array(self.rows), np.eye(len(beta)))
            rhs = np.where(active, np.array(self.grad0) - np.copysign(lam, signs), 0.0)
            try:
                x = np.linalg.solve(block[None], rhs[None, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                return None
            if not np.isfinite(x).all():
                return None
            x = np.where(active, x, 0.0).tolist()
            flips = [j for j, s in enumerate(signs) if s and (x[j] > 0.0) - (x[j] < 0.0) != s]
            if not flips:
                break
            # (t, j): coordinate j reaches zero a fraction t of the way from point to x;
            # one already at zero, or past it, is there at t = 0
            t, first = min(
                (point[j] / (point[j] - x[j]) if point[j] * signs[j] > 0.0 else 0.0, j)
                for j in flips
            )
            point = [b + t * (v - b) for b, v in zip(point, x)]
            point[first] = signs[first] = 0.0
        grad = self.gradient(x)
        if any(abs(g) > lam for g, b in zip(grad, x) if not b):
            return None
        return x, grad, self.objective(x, grad, lam)


def _gram_descent(
    system: _GramSystem,
    lam: float,
    tol: float,
    max_sweeps: int,
    beta0: np.ndarray | None = None,
) -> tuple[np.ndarray, float, int, bool]:
    """Gram-form cyclic coordinate descent (covariance updates).

    Same updates, objective stall test and KKT gate as
    :func:`_coordinate_descent`, but each update maintains the gradient
    rather than the residual, so a sweep costs O(p²) and never touches the
    data rows; the KKT gate reads that maintained gradient. After a sweep
    that leaves a sign pattern not tried before at this λ, the active-set
    solve (:meth:`_GramSystem.finish`) ends the descent when it is certified
    and does not raise the objective. At p ≈ 14 the cost is interpreter
    overhead, so the loop runs on Python floats.
    """
    rows, nu = system.rows, system.nu
    if beta0 is None or not beta0.any():
        beta = [0.0] * len(nu)
        grad = list(system.grad0)
    else:
        beta = beta0.tolist()
        grad = system.gradient(beta)
    kkt_tol = 5.0 * tol

    prev_obj = obj = system.objective(beta, grad, lam)
    tried = np.zeros(len(nu))
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        for j, d in enumerate(nu):
            if d == 0.0:
                continue
            old = beta[j]
            new = soft_threshold(grad[j] + old * d, lam) / d
            if new != old:
                beta[j] = new
                step = new - old
                grad = [g - step * h for g, h in zip(grad, rows[j])]
        obj = system.objective(beta, grad, lam)
        signs = np.sign(beta)
        if not np.array_equal(signs, tried):
            tried = signs
            finished = system.finish(beta, lam)
            # a certified solve may end a few ulps above the sweep's objective
            if finished is not None and finished[2] <= obj + 1e-13 * abs(obj):
                beta, grad, obj = finished
                converged = True
                break
        if prev_obj - obj < tol * max(abs(prev_obj), 1e-300):
            if all(
                abs(g - copysign(lam, b)) <= kkt_tol if b else abs(g) <= lam + kkt_tol
                for b, g in zip(beta, grad)
            ):
                converged = True
                break
        prev_obj = obj
    return np.array(beta), obj, sweeps, converged


def fold_rows(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Held-out row indices of each fold: a contiguous split of one shuffle drawn from ``seed``.

    The shuffle sorts the rows by one little-endian 64-bit key each, read from
    ``n`` × 8 bytes of the ``"folds"`` stream.
    """
    data = _stream(seed, "folds").randbytes(8 * n)
    keys = [int.from_bytes(data[8 * i : 8 * i + 8], "little") for i in range(n)]
    return np.array_split(np.array(sorted(range(n), key=keys.__getitem__), dtype=np.intp), folds)


def row_scored_errors(values, s, folds, betas) -> np.ndarray:
    """errors[k, f]: mean squared residual of fold f's β at grid index k, on its held-out rows."""
    others = [j for j in range(values.shape[1]) if j != s]
    errors = np.zeros((betas.shape[1], len(folds)))
    for f, test_rows in enumerate(folds):
        test = values[test_rows]
        X_test, y_test = test[:, others], test[:, s]
        for k, beta in enumerate(betas[f]):
            resid = y_test - X_test @ beta
            errors[k, f] = float(resid @ resid) / len(test_rows)
    return errors


def scalar_cross_validate(
    matrix, s, grid, folds=5, tol=1e-6, max_sweeps=1000, seed=0, rule="min", gram=None, drop=()
) -> CvResult:
    """Cross-validation of vertex ``s`` with one scalar solve per fold, ``drop`` columns zeroed.

    The folds are :func:`fold_rows` of ``seed``, whatever ``s`` is. Each fold's β is
    scored on the fold's held-out Gram T over n_f rows, as twice the λ = 0 objective
    of that system: (T_ss − 2βᵀT_os + βᵀT_ooβ)/n_f.
    """
    values = matrix.values
    n = values.shape[0]
    if gram is None:
        gram = values.T @ values

    errors = np.zeros((len(grid.values), folds))
    for f, test_rows in enumerate(fold_rows(n, folds, seed)):
        test = values[test_rows]
        held_out = test.T @ test
        train = _GramSystem(gram - held_out, s, n - len(test_rows), drop)
        scorer = _GramSystem(held_out, s, len(test_rows))
        beta = None
        for k, lam in enumerate(grid.values):
            beta, _, _, _ = _gram_descent(train, lam, tol, max_sweeps, beta0=beta)
            x = beta.tolist()
            errors[k, f] = 2.0 * scorer.objective(x, scorer.gradient(x), 0.0)

    cv_errors = errors.mean(axis=1)
    cv_se = errors.std(axis=1, ddof=1) / np.sqrt(folds)
    min_index = int(np.argmin(cv_errors))
    if rule == "one_se":
        threshold = cv_errors[min_index] + cv_se[min_index]
        best_index = int(np.argmax(cv_errors <= threshold))
    else:
        best_index = min_index
    return CvResult(grid.values[best_index], best_index, cv_errors, cv_se, rule)


def scalar_vertex_fits(matrix, config, seed):
    """Each vertex's (fit, CV result) as graphical_lasso defines them, solved one system at a time.

    The fit is a warm-started walk down the vertex's grid to the λ its
    cross-validation selects; a vertex with no penalty grid gets an empty
    fit and ``None``. A nonzero column equal to an earlier one up to sign is
    the regressor of no other vertex.
    """
    values = matrix.values
    n, p = values.shape
    gram = values.T @ values
    later = {
        b
        for a in range(p)
        for b in range(a + 1, p)
        if values[:, a].any()
        and any(np.array_equal(values[:, a], sign * values[:, b]) for sign in (1.0, -1.0))
    }
    out = []
    for s in range(p):
        others = tuple(j for j in range(p) if j != s)
        drop = later - {s}
        system = _GramSystem(gram, s, n, drop)
        try:
            grid = _grid_from_max(system.lambda_max(), matrix.column_names[s])
        except DegenerateColumn:
            fit = NeighborhoodFit(s, others, np.zeros(p - 1), 0.0, 0.5 * system.yy, 0, True)
            out.append((fit, None))
            continue
        cv = scalar_cross_validate(
            matrix, s, grid, config.folds, config.tol, config.max_sweeps, seed,
            config.selection, gram, drop,
        )
        beta = None
        for lam in grid.values[: cv.best_index + 1]:
            beta, loss, sweeps, converged = _gram_descent(
                system, lam, config.tol, config.max_sweeps, beta0=beta
            )
        fit = NeighborhoodFit(s, others, beta, cv.best_lambda, loss, sweeps, converged)
        out.append((fit, cv))
    return out


# ---------------------------------------------------------------------------
# the generator's two-state chain, one step at a time


def run_chain_loop(p_on, p_off, uniforms) -> np.ndarray:
    """The chain ``synthetic._run_chain`` draws, stepped in a loop from off."""
    out = np.empty(len(uniforms), dtype=np.int8)
    state = 0
    for t in range(len(uniforms)):
        if state:
            if uniforms[t] < p_off[t]:
                state = 0
        else:
            if uniforms[t] < p_on[t]:
                state = 1
        out[t] = state
    return out


def scanned_proportions(class_map, players, assignments, k, edges):
    """(per_player, counts) of ``proportion_buckets``, one scan of every row per player."""
    labels = np.asarray(assignments, dtype=np.int64)
    player_arr = np.asarray(players)
    per_player = {}
    counts = {label: np.zeros((k, len(edges) - 1), dtype=np.int64) for label in ClassLabel}
    n_buckets = len(edges) - 1
    for player in dict.fromkeys(players):
        own = labels[player_arr == player]
        props = np.bincount(own, minlength=k) / len(own)
        per_player[player] = props
        label = class_map[player]
        for cluster in range(k):
            bucket = int(np.searchsorted(edges, props[cluster], side="right") - 1)
            bucket = min(max(bucket, 0), n_buckets - 1)
            if props[cluster] < edges[0] or props[cluster] > edges[-1]:
                continue  # outside the histogram domain
            counts[label][cluster, bucket] += 1
    return per_player, counts
