"""Builders and independent oracles shared across the test suite.

The oracles recompute each quantity from its defining formula (two-pass
Pearson, brute-force silhouette, quadrature distribution tails, lasso KKT
subgradient conditions) with none of the package's shortcuts, so the
implementation and its tests cannot share a bug.
"""

from __future__ import annotations

import datetime as dt
import io

import numpy as np
from scipy import integrate, special

from energyseg.features import FeatureMatrix, standardize
from energyseg.records import DatasetTable, OccupantRecord, emit_csv

BASE_DATE = dt.date(2018, 9, 3)


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


def make_table(records) -> DatasetTable:
    return DatasetTable.from_records(records)


def table_to_csv(table: DatasetTable) -> str:
    buf = io.StringIO()
    emit_csv(table, buf)
    return buf.getvalue()


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
