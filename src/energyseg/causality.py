"""Granger-causality F-tests and Welch two-sample t-tests.

The Granger test compares nested least-squares models of y_t — own lags
only versus own lags plus lagged x — with

    F = ((RSS_r − RSS_u)/L) / (RSS_u/(n − 2L − 1)),   n = T − L,

and an F(L, n−2L−1) survival-function p-value. One pass gathers the lagged
rows [y_{t−1..t−L}, x_{t−1..t−L}, y_t] of every run of consecutive samples,
each run's first L rows serving only as lags, through one bool mask into one
float64 design, centred once (which absorbs the intercept). Each cross
product of its columns is one pairwise sum (numpy's ``add.reduce`` over a
contiguous row), whose rounding error grows with log n rather than n. The
cross-product matrix is factored by Cholesky in the order [own, cross, y]:
RSS_u is y's last pivot squared and RSS_r − RSS_u the squared norm of y's
row on the cross block, not a difference of two RSS values in which digits
cancel. No sum runs through a threaded BLAS, so the bytes do not depend on
the thread count. A regressor pivot² ≤ τ = 1e-10 of its uncentred sum of
squares, or RSS_u ≤ 1e-12·(Σ y_t² + 1), makes the test inconclusive.

Both tails are the regularized incomplete beta I_x(a, b), computed with the
standard library alone: the continued fraction of Numerical Recipes (3rd ed.,
§6.4) in the even form of DiDonato & Morris (1992, ACM TOMS 18, Algorithm
708, BFRAC), summed by the modified Lentz method on whichever of I_x(a, b)
and 1 − I_{1−x}(b, a) converges fast. The prefactor x^a·(1−x)^b/B(a, b) is
expanded about x0 = a/(a+b) with Stirling series, so at the pipeline's
d2 ≈ 2·10⁴–2·10⁵ no two log Γ values near 10⁶ cancel. For d1 ≤ 5,
d2 ≤ 3·10⁵ and t-tests with df ≤ 10⁵ the tails are within 3e-13 relative of
50-digit mpmath at the same double x wherever they exceed 1e-300 (the error
grows with −log p); smaller tails underflow to 0.0. A fraction that has not
converged in ``_CF_MAX_STEPS`` steps raises :class:`NoConvergence`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvalidConfig,
    InvalidDof,
    NoConvergence,
    NonFiniteValue,
    SeriesTooShort,
    TooFewSamples,
    require_int,
)
from .features import MINUTE_FEATURES

# B_2k/(2k(2k − 1)), the Stirling series coefficients of log Γ
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
_CF_MAX_STEPS = 10_000
_TINY = 1e-300
_PIVOT_TOL = 1e-10  # τ, the collinearity bound on a regressor's Cholesky pivot²

DEFAULT_CAUSALITY_PAIRS: tuple[tuple[str, str], ...] = (
    ("status_fan", "status_ceiling_light"),
    ("humidity", "status_fan"),
    ("status_desk_light", "status_fan"),
    ("status_ceiling_light", "status_desk_light"),
    ("is_morning", "status_desk_light"),
    ("is_afternoon", "status_fan"),
    ("is_evening", "status_ceiling_light"),
)


@dataclass(frozen=True)
class CausalityConfig:
    """Settings of the Granger tests; the ``causality`` config section."""

    pairs: tuple[tuple[str, str], ...] = DEFAULT_CAUSALITY_PAIRS
    lag: int = 1
    alpha: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple((str(a), str(b)) for a, b in self.pairs))
        unknown = sorted({name for pair in self.pairs for name in pair} - set(MINUTE_FEATURES))
        if unknown:
            raise InvalidConfig(f"causality pairs name unknown or non-minute feature(s): {unknown}")
        require_int("lag", self.lag, 1)
        if not 0.0 < self.alpha < 1.0:
            raise InvalidConfig(f"alpha must be in (0, 1), got {self.alpha}")


def _stirling_tail(z: float) -> float:
    """log Γ(z) − ((z − ½)·log z − z + ½·log 2π), to within 2e-16 for z ≥ 16."""
    return sum(c * z ** (1 - 2 * k) for k, c in enumerate(_STIRLING, 1))


def _rlog1(e: float, ratio: float) -> float:
    """e − log(1 + e) without cancellation; ``ratio`` is 1 + e computed directly."""
    if abs(e) > 0.3:
        return e - math.log(ratio)
    t = e / (2.0 + e)  # log(1 + e) = 2·atanh(t)
    t2 = t * t
    return e * e / (2.0 + e) - 2.0 * t * t2 * sum(t2**k / (2 * k + 3) for k in range(12))


def _log_front(a: float, b: float, x: float, y: float, lam: float) -> float:
    """log(x^a·y^b / B(a, b)), where y = 1 − x and lam = a − (a + b)·x."""
    lo, hi = min(a, b), max(a, b)
    if hi < 16.0:
        log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        return a * math.log(x) + b * math.log(y) - log_beta
    # = a·log(x/x0) + b·log(y/y0) + lo·log lo − lo − log Γ(lo) − ½·log(1 + lo/hi)
    #   + tail(s) − tail(hi), with x0 = a/s, y0 = b/s and Stirling for Γ(hi), Γ(s)
    s = a + b
    # −(a·log(x/x0) + b·log(y/y0)) ≥ 0, where x/x0 = 1 − lam/a and y/y0 = 1 + lam/b
    spread = a * _rlog1(-lam / a, x * s / a) + b * _rlog1(lam / b, y * s / b)
    if lo < 16.0:
        own = lo * math.log(lo) - lo - math.lgamma(lo)
    else:
        own = 0.5 * math.log(lo / (2.0 * math.pi)) - _stirling_tail(lo)
    return own - spread - 0.5 * math.log1p(lo / hi) + _stirling_tail(s) - _stirling_tail(hi)


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) from the even part of its continued fraction."""
    c, c0, c1 = 1.0 + lam, b / a, 1.0 + 1.0 / a
    value = num = c / c1  # Lentz: value = beta0 + alpha1/(beta1 + alpha2/(beta2 + ...))
    den = 0.0
    p, s = 1.0, a + 1.0
    for n in range(1, _CF_MAX_STEPS + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * w * x
        beta = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * (1.0 + y))
        p, s = 1.0 + t, s + 2.0
        den = beta + alpha * den
        den = 1.0 / (den if abs(den) > _TINY else _TINY)
        num = beta + alpha / num
        num = num if abs(num) > _TINY else _TINY
        value *= num * den
        if abs(num * den - 1.0) <= 1e-15:
            return math.exp(_log_front(a, b, x, y, lam)) / value
    raise NoConvergence(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b ≥ ½; NaN in gives NaN out."""
    if math.isnan(a) or math.isnan(b) or math.isnan(x):
        return math.nan
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    y = 1.0 - x
    lam = (a + b) * y - b if a > b else a - (a + b) * x
    if lam < x - y:  # x > (a + 1)/(a + b + 2): the fraction converges fast for I_y(b, a)
        return 1.0 - _beta_fraction(b, a, y, x, -lam)
    return _beta_fraction(a, b, x, y, lam)


def f_survival(x: float, d1: int, d2: int) -> float:
    """Upper-tail probability P(F(d1, d2) > x)."""
    if d1 < 1 or d2 < 1:
        raise InvalidDof(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    return float(_betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * x)))


def t_survival(x: float, df: float) -> float:
    """Upper-tail probability P(T(df) > x)."""
    if df < 1:
        raise InvalidDof(f"degrees of freedom must be >= 1, got {df}")
    if math.isinf(x):
        return 0.0 if x > 0 else 1.0
    tail = 0.5 * float(_betainc(df / 2.0, 0.5, df / (df + x * x)))
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


def _f_parts(cross: np.ndarray, squares: np.ndarray, lag: int) -> tuple[float, float] | None:
    """(RSS_r − RSS_u, RSS_u) from the Cholesky factor of [own, cross, y] cross products.

    None when a regressor is, to τ, a combination of the intercept and the
    regressors before it: its pivot² ≤ τ·``squares``, its uncentred sum of squares.
    """
    try:
        factor = np.linalg.cholesky(cross)
    except np.linalg.LinAlgError:  # a pivot ≤ 0
        return None
    pivots = np.square(np.diagonal(factor))
    if (pivots[:-1] <= _PIVOT_TOL * squares[:-1]).any():
        return None
    return float(np.square(factor[-1, lag:-1]).sum()), float(pivots[-1])


def granger_test_segments(
    x: np.ndarray,
    y: np.ndarray,
    lengths: Sequence[int],
    lag: int = 1,
    alpha: float = 0.05,
    cause: str = "x",
    effect: str = "y",
) -> CausalityResult:
    """Granger F-test pooled over runs of (x, y) laid end to end, ``lengths`` rows each.

    No lagged row mixes samples of two runs: each run's first ``lag`` rows
    serve only as lags. Memory: the float64 design of the lagged rows, one
    row-sized product and a row copied at the stored width of ``x`` or ``y``.
    """
    if lag < 1:
        raise InvalidDof(f"lag must be >= 1, got {lag}")
    x, y, lengths = np.asarray(x), np.asarray(y), np.asarray(lengths)
    if x.shape != y.shape or x.ndim != 1:
        raise SeriesTooShort(f"need equal-length 1-D series, got {x.shape} vs {y.shape}")
    ok = lengths.ndim == 1 and lengths.dtype.kind in "iu" and (lengths >= 0).all()
    if not (ok and lengths.sum() == len(y)):
        raise SeriesTooShort(f"run lengths must be integers >= 0 summing to the {len(y)} samples")
    # integer and bool samples are always finite; skipping them also keeps the
    # peak RSS down, as np.isfinite on the int8 statuses raised that of a
    # 4,320-row report by 128 KiB
    if not all(np.isfinite(s).all() for s in (x, y) if s.dtype.kind in "fc"):
        raise NonFiniteValue("series contain NaN or infinite values")
    target = np.ones(len(y), dtype=bool)  # the rows whose y_t is regressed
    starts = np.cumsum(lengths) - lengths
    for j in range(lag):
        target[starts[lengths > j] + j] = False
    n = int(np.count_nonzero(target))
    dof2 = n - 2 * lag - 1
    if dof2 < 1:
        raise SeriesTooShort(f"need T - lag > 2*lag + 1 samples, got n={n} at lag={lag}")

    design = np.empty((2 * lag + 1, n))  # [y_{t−1..t−L}, x_{t−1..t−L}, y_t], a variable per row
    for j in range(lag):
        source = target[j + 1 :]  # row t − j − 1 is a lag of target row t
        design[j] = y[: len(y) - j - 1][source]
        design[lag + j] = x[: len(x) - j - 1][source]
    design[-1] = y[target]
    mean = design.mean(axis=1)
    design -= mean[:, None]
    # pairwise sums over contiguous rows, in a fixed order and never through a threaded BLAS
    cross = np.empty((len(design), len(design)))
    product = np.empty(n)
    for i in range(len(design)):
        for k in range(i + 1):
            cross[i, k] = cross[k, i] = np.multiply(design[i], design[k], out=product).sum()

    squares = np.diagonal(cross) + n * mean * mean
    parts = _f_parts(cross, squares, lag)
    if parts is None or parts[1] <= 1e-12 * (squares[-1] + 1.0):
        return CausalityResult(
            cause=cause, effect=effect, lag=lag, f_statistic=0.0, p_value=1.0,
            reject_h0=False, alpha=alpha, n_effective=n, inconclusive=True,
        )
    numerator, rss_u = parts
    f_stat = (numerator / lag) / (rss_u / dof2)
    p = f_survival(f_stat, lag, dof2)
    return CausalityResult(
        cause=cause, effect=effect, lag=lag, f_statistic=float(f_stat),
        p_value=float(p), reject_h0=bool(p < alpha), alpha=alpha, n_effective=n,
    )


def granger_test(x: np.ndarray, y: np.ndarray, lag: int = 1) -> CausalityResult:
    """Granger F-test at α = 0.05 of whether lagged ``x`` helps predict ``y``."""
    return granger_test_segments(x, y, [len(y)], lag=lag)


@dataclass
class TTestResult:
    """Welch two-sample t-test summary."""

    mean_before: float
    mean_after: float
    t_statistic: float
    p_value: float
    percent_drop: float
    df: float


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
        raise NonFiniteValue("samples contain NaN or infinite values")

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
