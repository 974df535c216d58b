"""Granger-causality F-tests and Welch two-sample t-tests.

The Granger test compares nested least-squares models of y_t — own lags
only versus own lags plus lagged x — with

    F = ((RSS_r − RSS_u)/L) / (RSS_u/(n − 2L − 1)),   n = T − L,

and an F(L, n−2L−1) survival-function p-value. Collinear designs are
reported as inconclusive rather than raised. Distribution tails come from
the regularized incomplete beta function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import betainc

from .errors import InvalidDof, SeriesTooShort, TooFewSamples


def f_survival(x: float, d1: int, d2: int) -> float:
    """Upper-tail probability P(F(d1, d2) > x)."""
    if d1 < 1 or d2 < 1:
        raise InvalidDof(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    if x <= 0.0:
        return 1.0
    if np.isinf(x):
        return 0.0
    return float(betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x)))


def t_survival(x: float, df: float) -> float:
    """Upper-tail probability P(T(df) > x)."""
    if df < 1:
        raise InvalidDof(f"degrees of freedom must be >= 1, got {df}")
    if np.isinf(x):
        return 0.0 if x > 0 else 1.0
    tail = 0.5 * float(betainc(df / 2.0, 0.5, df / (df + x * x)))
    return tail if x >= 0 else 1.0 - tail


@dataclass
class CausalityResult:
    """Outcome of one Granger test of ``cause`` → ``effect``."""

    cause: str
    effect: str
    lag: int
    f_statistic: float
    p_value: float
    reject_h0: bool
    alpha: float
    n_effective: int
    inconclusive: bool = False

    @property
    def display_p(self) -> str:
        """Table-style p-value: values below 5e-4 print as "0"."""
        return "0" if self.p_value < 5e-4 else f"{self.p_value:.4g}"


def _lagged_design(
    segments: Sequence[tuple[np.ndarray, np.ndarray]], lag: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack y_t rows with own-lag and cross-lag regressors per segment.

    The first ``lag`` samples of every segment are dropped, so no row mixes
    observations across a segment (day) boundary.
    """
    y_rows, own_rows, cross_rows = [], [], []
    for x, y in segments:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise SeriesTooShort(f"segments need equal-length 1-D series, got {x.shape} vs {y.shape}")
        T = len(y)
        if T <= lag:
            continue
        y_rows.append(y[lag:])
        own_rows.append(np.column_stack([y[lag - j - 1 : T - j - 1] for j in range(lag)]))
        cross_rows.append(np.column_stack([x[lag - j - 1 : T - j - 1] for j in range(lag)]))
    if not y_rows:
        raise SeriesTooShort("no usable samples after lag trimming")
    return (
        np.concatenate(y_rows),
        np.vstack(own_rows),
        np.vstack(cross_rows),
    )


def _ols_rss(design: np.ndarray, y: np.ndarray) -> float:
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ coef
    return float(resid @ resid)


def granger_test_segments(
    segments: Sequence[tuple[np.ndarray, np.ndarray]],
    lag: int = 1,
    alpha: float = 0.05,
    cause: str = "x",
    effect: str = "y",
    first_difference: bool = False,
) -> CausalityResult:
    """Granger F-test pooled over independent (x, y) segments."""
    if lag < 1:
        raise InvalidDof(f"lag must be >= 1, got {lag}")
    if first_difference:
        segments = [(np.diff(x), np.diff(y)) for x, y in segments]
    for x, y in segments:
        if not (np.isfinite(np.asarray(x)).all() and np.isfinite(np.asarray(y)).all()):
            raise SeriesTooShort("series contain non-finite values")

    y_t, own, cross = _lagged_design(segments, lag)
    n = len(y_t)
    dof2 = n - 2 * lag - 1
    if dof2 < 1:
        raise SeriesTooShort(f"need T - lag > 2*lag + 1 samples, got n={n} at lag={lag}")

    intercept = np.ones((n, 1))
    restricted = np.hstack([intercept, own])
    unrestricted = np.hstack([intercept, own, cross])

    def _inconclusive() -> CausalityResult:
        return CausalityResult(
            cause=cause, effect=effect, lag=lag, f_statistic=0.0, p_value=1.0,
            reject_h0=False, alpha=alpha, n_effective=n, inconclusive=True,
        )

    if np.linalg.matrix_rank(unrestricted) < unrestricted.shape[1]:
        return _inconclusive()
    rss_r = _ols_rss(restricted, y_t)
    rss_u = _ols_rss(unrestricted, y_t)
    scale = float(y_t @ y_t) + 1.0
    if rss_u <= 1e-12 * scale:
        return _inconclusive()

    f_stat = max(0.0, (rss_r - rss_u) / lag) / (rss_u / dof2)
    p = f_survival(f_stat, lag, dof2)
    return CausalityResult(
        cause=cause, effect=effect, lag=lag, f_statistic=float(f_stat),
        p_value=float(p), reject_h0=bool(p < alpha), alpha=alpha, n_effective=n,
    )


def granger_test(
    x: np.ndarray,
    y: np.ndarray,
    lag: int = 1,
    alpha: float = 0.05,
    cause: str = "x",
    effect: str = "y",
) -> CausalityResult:
    """Granger F-test of whether lagged ``x`` helps predict ``y``."""
    return granger_test_segments([(x, y)], lag=lag, alpha=alpha, cause=cause, effect=effect)


@dataclass
class TTestResult:
    """Welch two-sample t-test summary."""

    mean_before: float
    mean_after: float
    t_statistic: float
    p_value: float
    percent_drop: float
    df: float

    @property
    def display_p(self) -> str:
        return "0" if self.p_value < 5e-4 else f"{self.p_value:.4g}"


def two_sample_ttest(before: Sequence[float], after: Sequence[float]) -> TTestResult:
    """Welch's unequal-variance two-sided t-test.

    ``percent_drop`` is 100·(mean_before − mean_after)/mean_before, defined
    when the before-mean is positive (NaN otherwise).
    """
    a = np.asarray(before, dtype=np.float64)
    b = np.asarray(after, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise TooFewSamples(f"need >= 2 samples per group, got {len(a)} and {len(b)}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise TooFewSamples("samples contain non-finite values")

    m1, m2 = float(a.mean()), float(b.mean())
    v1, v2 = float(a.var(ddof=1)), float(b.var(ddof=1))
    se1, se2 = v1 / len(a), v2 / len(b)
    denom = se1 + se2
    if denom == 0.0:
        t_stat = 0.0 if m1 == m2 else np.inf * np.sign(m1 - m2)
        df = float(len(a) + len(b) - 2)
    else:
        t_stat = (m1 - m2) / np.sqrt(denom)
        df = denom**2 / (se1**2 / (len(a) - 1) + se2**2 / (len(b) - 1))
    p = 2.0 * t_survival(abs(t_stat), df)
    drop = 100.0 * (m1 - m2) / m1 if m1 > 0 else float("nan")
    return TTestResult(
        mean_before=m1, mean_after=m2, t_statistic=float(t_stat),
        p_value=min(1.0, float(p)), percent_drop=drop, df=float(df),
    )
