"""Neighborhood-based sparse dependency-graph estimation.

Each vertex (feature column) is regressed on all others with an ℓ1 penalty,

    minimize (1/2N)·‖Y_s − Y_{V∖s}·β‖² + λ·‖β‖₁,

solved by cyclic coordinate descent with soft thresholding. The penalty is
searched on a 10-point log grid between λ_max (smallest penalty whose
solution is all-zero) and λ_max/100, scored by 5-fold cross-validation.
Neighborhood supports are then symmetrized (OR/AND) into an undirected
graph.

The solver comes in two forms with the same updates and stopping rule:

* Residual form, used only by :func:`fit_neighborhood`. Each coordinate
  update maintains the full residual, so one sweep costs O(pN): p inner
  products against length-N columns and nothing quadratic.
* Gram form ("covariance updates", Friedman, Hastie & Tibshirani 2010,
  JSS 33(1), §2.2), used by :func:`cross_validate` and
  :func:`graphical_lasso`. :func:`graphical_lasso` computes G = VᵀV once in
  O(Np²); a fold's training Gram is G minus the held-out rows' Gram. Each
  update maintains the gradient (Xᵀy − XᵀXβ)/N, so one sweep costs O(p²)
  whatever N is, and the objective is read from the Gram in O(p).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign
from operator import add, mul

import numpy as np

from .errors import (
    DegenerateColumn,
    InvalidConfig,
    NonFiniteValue,
    NotStandardized,
    TooFewRows,
    require_int,
    require_number,
)
from .features import FeatureMatrix, standardize

GRID_SIZE = 10
GRID_RATIO = 100.0  # lambda_max / lambda_min


def soft_threshold(theta: float, lam: float) -> float:
    """Proximal operator of the ℓ1 norm: sign(θ)·max(|θ|−λ, 0)."""
    if theta > lam:
        return theta - lam
    if theta < -lam:
        return theta + lam
    return 0.0


@dataclass(frozen=True)
class LambdaGrid:
    """Descending log-spaced penalty grid with λ_min = λ_max/100."""

    lambda_max: float
    lambda_min: float
    values: tuple[float, ...]


@dataclass
class NeighborhoodFit:
    """One vertex's penalized regression on the remaining columns.

    ``beta`` is indexed over the other columns in ascending column order
    (``others`` lists the absolute indices). ``objective_path`` holds the
    post-sweep objective values; it is nonincreasing.
    """

    vertex: int
    others: tuple[int, ...]
    beta: np.ndarray
    lam: float
    loss: float
    iterations: int
    converged: bool
    objective_path: tuple[float, ...] = ()


@dataclass
class CvResult:
    """Cross-validation curve for one vertex."""

    best_lambda: float
    best_index: int
    cv_errors: np.ndarray  # mean held-out MSE per grid value
    cv_se: np.ndarray  # standard error over folds per grid value
    rule: str


@dataclass
class GraphEstimate:
    """Symmetrized neighborhood-selection graph over named vertices."""

    vertex_names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    per_vertex_fits: list[NeighborhoodFit]
    partial_correlations: np.ndarray
    lambda_per_vertex: tuple[float, ...]
    symmetrization: str
    seed: int
    warnings: tuple[str, ...] = ()


@dataclass
class GlassoConfig:
    """Settings for :func:`graphical_lasso`; the ``glasso`` config section."""

    symmetrization: str = "OR"  # "OR" | "AND"
    tol: float = 1e-6
    max_sweeps: int = 1000
    folds: int = 5
    selection: str = "one_se"  # "min" | "one_se"

    def __post_init__(self) -> None:
        if self.symmetrization not in ("OR", "AND"):
            raise InvalidConfig(f"symmetrization must be OR or AND, got {self.symmetrization!r}")
        if self.selection not in ("min", "one_se"):
            raise InvalidConfig(f"selection must be min or one_se, got {self.selection!r}")
        require_number("tol", self.tol)
        if self.tol <= 0:
            raise InvalidConfig(f"tol must be > 0, got {self.tol}")
        require_int("max_sweeps", self.max_sweeps, 1)
        require_int("folds", self.folds, 2)


def _check_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteValue("matrix contains NaN or infinite entries")


# Rows per block when gathering design columns; a block's source rows stay
# in cache while every destination column is written.
_GATHER_ROWS = 2048


def _design(values: np.ndarray, others: list[int]) -> np.ndarray:
    """Column-major copy of ``values[:, others]``, gathered in row blocks.

    A single fancy-indexed transpose of a tall matrix streams the whole
    source once per output column when it exceeds the cache; row blocks keep
    the copy at one pass over memory, so its cost stays linear in N.
    """
    n = values.shape[0]
    X = np.empty((n, len(others)), dtype=values.dtype, order="F")
    for start in range(0, n, _GATHER_ROWS):
        X[start : start + _GATHER_ROWS] = values[start : start + _GATHER_ROWS, others]
    return X


def _grid_from_max(lam_max: float, s: int) -> LambdaGrid:
    if lam_max <= 0.0:
        raise DegenerateColumn(f"vertex {s} is orthogonal to every other column")
    grid = np.geomspace(lam_max, lam_max / GRID_RATIO, GRID_SIZE)
    return LambdaGrid(
        lambda_max=lam_max,
        lambda_min=lam_max / GRID_RATIO,
        values=tuple(float(v) for v in grid),
    )


def lambda_grid(matrix: FeatureMatrix, s: int) -> LambdaGrid:
    """Penalty grid for vertex ``s``: λ_max = (1/N)·max_j |⟨Y_j, Y_s⟩|.

    The inner products are evaluated with the same memory layout and dot
    calls as the residual-form solver's first sweep, so a
    :func:`fit_neighborhood` at λ_max is all-zero exactly, not merely within
    rounding.
    """
    values = matrix.values
    n, p = values.shape
    if p < 2:
        raise TooFewRows(f"need at least 2 columns, got {p}")
    if n < 2:
        raise TooFewRows(f"need at least 2 rows, got {n}")
    others = [j for j in range(p) if j != s]
    X = _design(values, others)
    r = values[:, s].astype(np.float64, copy=True)
    lam_max = max(abs(float(r @ X[:, k]) / n) for k in range(p - 1))
    return _grid_from_max(lam_max, s)


def _objective(r: np.ndarray, beta: np.ndarray, lam: float, n: int) -> float:
    return float(r @ r) / (2.0 * n) + lam * float(np.abs(beta).sum())


def _coordinate_descent(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float,
    max_sweeps: int,
    beta0: np.ndarray | None = None,
) -> tuple[np.ndarray, float, int, bool, list[float]]:
    """Residual-form cyclic coordinate descent for (1/2N)‖y − Xβ‖² + λ‖β‖₁.

    Maintains the full residual across coordinate updates. A sweep's
    objective stall only counts as convergence once an in-place KKT check
    (at half the certification tolerance) also passes, so every converged
    fit satisfies the subgradient conditions within 10·tol.
    """
    n, m = X.shape
    nu = np.einsum("ij,ij->j", X, X) / n  # (1/N)‖Y_j‖² per column
    beta = np.zeros(m) if beta0 is None else beta0.astype(np.float64, copy=True)
    r = y - X @ beta if beta.any() else y.astype(np.float64, copy=True)
    kkt_tol = 5.0 * tol

    path: list[float] = []
    prev_obj = _objective(r, beta, lam, n)
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        for j in range(m):
            if nu[j] == 0.0:
                continue
            col = X[:, j]
            old = beta[j]
            theta = (r @ col) / n + old * nu[j]
            new = soft_threshold(theta, lam) / nu[j]
            if new != old:
                beta[j] = new
                r -= (new - old) * col
        obj = _objective(r, beta, lam, n)
        path.append(obj)
        decrease = prev_obj - obj
        if decrease < tol * max(abs(prev_obj), 1e-300):
            grad = (X.T @ r) / n
            active = beta != 0.0
            ok = np.all(np.abs(grad[active] - lam * np.sign(beta[active])) <= kkt_tol)
            ok = ok and np.all(np.abs(grad[~active]) <= lam + kkt_tol)
            if ok:
                converged = True
                break
        prev_obj = obj
    loss = _objective(r, beta, lam, n)
    return beta, loss, sweeps, converged, path


def fit_neighborhood(
    matrix: FeatureMatrix,
    s: int,
    lam: float,
    tol: float = 1e-6,
    max_sweeps: int = 1000,
    beta0: np.ndarray | None = None,
) -> NeighborhoodFit:
    """Lasso regression of column ``s`` on all other columns (residual form)."""
    if not matrix.standardized:
        raise NotStandardized("fit_neighborhood requires a standardized matrix")
    values = matrix.values
    _check_finite(values)
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    p = values.shape[1]
    others = tuple(j for j in range(p) if j != s)
    X = _design(values, list(others))
    y = values[:, s]
    beta, loss, sweeps, converged, path = _coordinate_descent(
        X, y, lam, tol, max_sweeps, beta0
    )
    return NeighborhoodFit(
        vertex=s,
        others=others,
        beta=beta,
        lam=lam,
        loss=loss,
        iterations=sweeps,
        converged=converged,
        objective_path=tuple(path),
    )


class _GramSystem:
    """Sufficient statistics of regressing column ``s`` on the others.

    Holds the rows of XᵀX/N, Xᵀy/N and yᵀy/N as Python floats for the
    inner loop, taken from a Gram matrix over N rows.
    """

    def __init__(self, gram: np.ndarray, s: int, n: int) -> None:
        others = [j for j in range(gram.shape[0]) if j != s]
        self.rows = (gram[np.ix_(others, others)] / n).tolist()
        self.nu = [row[j] for j, row in enumerate(self.rows)]
        self.grad0 = (gram[others, s] / n).tolist()
        self.yy = float(gram[s, s]) / n

    def lambda_max(self) -> float:
        """max_j |Xᵀy|_j/N from the numbers the first sweep reads."""
        return max(map(abs, self.grad0))

    def objective(self, beta: list[float], grad: list[float], lam: float) -> float:
        """(yᵀy − βᵀXᵀy − N·βᵀgrad)/(2N) + λ‖β‖₁, with grad = (Xᵀy − XᵀXβ)/N."""
        fit = sum(map(mul, beta, map(add, self.grad0, grad)))
        return 0.5 * (self.yy - fit) + lam * sum(map(abs, beta))


def _gram_descent(
    system: _GramSystem,
    lam: float,
    tol: float,
    max_sweeps: int,
    beta0: np.ndarray | None = None,
) -> tuple[np.ndarray, float, int, bool, list[float]]:
    """Gram-form cyclic coordinate descent (covariance updates).

    Same updates, objective stall test and KKT gate as
    :func:`_coordinate_descent`, but each update maintains the gradient
    rather than the residual, so a sweep costs O(p²) and never touches the
    data rows; the KKT gate reads that maintained gradient. At p ≈ 14 the
    cost is interpreter overhead, so the loop runs on Python floats.
    """
    rows, nu = system.rows, system.nu
    if beta0 is None or not beta0.any():
        beta = [0.0] * len(nu)
        grad = list(system.grad0)
    else:
        beta = beta0.tolist()
        grad = [g0 - sum(map(mul, row, beta)) for g0, row in zip(system.grad0, rows)]
    kkt_tol = 5.0 * tol

    path: list[float] = []
    prev_obj = obj = system.objective(beta, grad, lam)
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
        path.append(obj)
        if prev_obj - obj < tol * max(abs(prev_obj), 1e-300):
            if all(
                abs(g - copysign(lam, b)) <= kkt_tol if b else abs(g) <= lam + kkt_tol
                for b, g in zip(beta, grad)
            ):
                converged = True
                break
        prev_obj = obj
    return np.array(beta), obj, sweeps, converged, path


def cross_validate(
    matrix: FeatureMatrix,
    s: int,
    grid: LambdaGrid,
    folds: int = 5,
    tol: float = 1e-6,
    max_sweeps: int = 1000,
    seed: int = 0,
    rule: str = "min",
    gram: np.ndarray | None = None,
) -> CvResult:
    """K-fold prediction error along the penalty grid for vertex ``s``.

    Folds are a contiguous split of a seeded shuffle (the stream is derived
    from (seed, s), so per-vertex results do not depend on call order).
    Each fold is fitted in Gram form on ``gram`` (VᵀV of the whole matrix,
    computed here when not given) minus the held-out rows' Gram, and scored
    on the held-out rows themselves.
    ``rule="min"`` picks the error-minimizing λ (exact ties break toward the
    larger λ); ``rule="one_se"`` picks the largest λ whose error is within
    one standard error of the minimum.
    """
    values = matrix.values
    n, p = values.shape
    if folds < 2 or folds > n:
        raise TooFewRows(f"need 2 <= folds <= {n}, got {folds}")
    if gram is None:
        gram = values.T @ values
    rng = np.random.default_rng([seed, s])
    fold_rows = np.array_split(rng.permutation(n), folds)
    others = [j for j in range(p) if j != s]

    errors = np.zeros((len(grid.values), folds))
    for f, test_rows in enumerate(fold_rows):
        test = values[test_rows]
        train = _GramSystem(gram - test.T @ test, s, n - len(test_rows))
        X_test = test[:, others]
        y_test = test[:, s]
        beta = None
        for k, lam in enumerate(grid.values):
            beta, _, _, _, _ = _gram_descent(train, lam, tol, max_sweeps, beta0=beta)
            resid = y_test - X_test @ beta
            errors[k, f] = float(resid @ resid) / len(test_rows)

    cv_errors = errors.mean(axis=1)
    cv_se = errors.std(axis=1, ddof=1) / np.sqrt(folds)
    # grid is descending, so argmin's first hit is already the largest λ
    min_index = int(np.argmin(cv_errors))
    if rule == "one_se":
        threshold = cv_errors[min_index] + cv_se[min_index]
        best_index = int(np.argmax(cv_errors <= threshold))
    else:
        best_index = min_index
    return CvResult(
        best_lambda=grid.values[best_index],
        best_index=best_index,
        cv_errors=cv_errors,
        cv_se=cv_se,
        rule=rule,
    )


def _fit_vertex(
    matrix: FeatureMatrix, gram: np.ndarray, s: int, config: GlassoConfig, seed: int
) -> tuple[NeighborhoodFit, str | None]:
    n, p = matrix.values.shape
    others = tuple(j for j in range(p) if j != s)
    system = _GramSystem(gram, s, n)
    try:
        grid = _grid_from_max(system.lambda_max(), s)
    except DegenerateColumn:
        fit = NeighborhoodFit(
            vertex=s,
            others=others,
            beta=np.zeros(p - 1),
            lam=0.0,
            loss=0.5 * system.yy,
            iterations=0,
            converged=True,
        )
        return fit, f"vertex {s} has no correlated columns; kept an empty neighborhood"
    cv = cross_validate(
        matrix,
        s,
        grid,
        folds=config.folds,
        tol=config.tol,
        max_sweeps=config.max_sweeps,
        seed=seed,
        rule=config.selection,
        gram=gram,
    )
    # warm-start down the grid to the selected λ for a well-conditioned fit;
    # at index 0 this is a cold start at λ_max, whose solution is exactly zero
    beta = None
    for lam in grid.values[: cv.best_index + 1]:
        beta, loss, sweeps, converged, path = _gram_descent(
            system, lam, config.tol, config.max_sweeps, beta0=beta
        )
    fit = NeighborhoodFit(
        vertex=s,
        others=others,
        beta=beta,
        lam=cv.best_lambda,
        loss=loss,
        iterations=sweeps,
        converged=converged,
        objective_path=tuple(path),
    )
    return fit, None


def _twin_columns(matrix: FeatureMatrix) -> list[str]:
    """A note for each pair of nonzero columns that are equal or negated copies.

    Edges through such a pair rest on roundoff: which of the two a regression
    selects, and the β it leaves on the other, depend on summation order. The
    Gram cannot show them, since its diagonal and off-diagonal entries are
    summed in different orders; equal exact |column sums| pick the pairs to
    compare. All-zero columns are skipped, as each vertex fit reports them.
    """
    values, names = matrix.values, matrix.column_names
    sums = np.abs(values.sum(axis=0))
    notes = []
    for a, b in zip(*np.triu_indices(len(names), 1)):
        x, y = values[:, a], values[:, b]
        if sums[a] == sums[b] and x.any() and (np.array_equal(x, y) or np.array_equal(x, -y)):
            notes.append(
                f"columns {names[a]} and {names[b]} are identical up to sign; "
                "edges through them depend on summation order"
            )
    return notes


def graphical_lasso(
    matrix: FeatureMatrix, config: GlassoConfig | None = None, seed: int = 0
) -> GraphEstimate:
    """Estimate the dependency graph over the matrix's columns.

    ``seed`` derives each vertex's cross-validation fold shuffle.
    """
    config = config or GlassoConfig()
    if not matrix.standardized:
        matrix = standardize(matrix)
    _check_finite(matrix.values)
    n, p = matrix.values.shape
    if p < 2:
        raise TooFewRows(f"need at least 2 columns, got {p}")
    if n < 2:
        raise TooFewRows(f"need at least 2 rows, got {n}")

    gram = matrix.values.T @ matrix.values
    fits, vertex_notes = zip(*(_fit_vertex(matrix, gram, s, config, seed) for s in range(p)))

    # coefficient matrix: coef[s, j] = β^s_j (vertex s regressed on j)
    coef = np.zeros((p, p))
    for fit in fits:
        coef[fit.vertex, list(fit.others)] = fit.beta

    # OR keeps a pair when either β is nonzero, with the larger |β|; AND when
    # both are, with the smaller; ties take β_ab
    ab, ba = coef, coef.T
    if config.symmetrization == "OR":
        present = (ab != 0.0) | (ba != 0.0)
        strength = np.where(np.abs(ab) >= np.abs(ba), ab, ba)
    else:
        present = (ab != 0.0) & (ba != 0.0)
        strength = np.where(np.abs(ab) <= np.abs(ba), ab, ba)
    rows, cols = np.nonzero(np.triu(present, 1))  # row-major upper triangle
    partial = np.zeros((p, p))
    partial[rows, cols] = partial[cols, rows] = strength[rows, cols]
    return GraphEstimate(
        vertex_names=matrix.column_names,
        edges=tuple(zip(rows.tolist(), cols.tolist())),
        per_vertex_fits=list(fits),
        partial_correlations=partial,
        lambda_per_vertex=tuple(fit.lam for fit in fits),
        symmetrization=config.symmetrization,
        seed=seed,
        warnings=(*_twin_columns(matrix), *(note for note in vertex_notes if note)),
    )


def graph_to_dict(graph: GraphEstimate) -> dict:
    """JSON-ready representation of a :class:`GraphEstimate`."""
    return {
        "vertices": list(graph.vertex_names),
        "edges": [
            {"a": a, "b": b, "weight": weight, "sign": sign}
            for a, b, weight, sign in edges_to_csv_rows(graph)
        ],
        "lambda_per_vertex": [float(v) for v in graph.lambda_per_vertex],
        "symmetrization": graph.symmetrization,
        "seed": graph.seed,
    }


def edges_to_csv_rows(graph: GraphEstimate) -> list[tuple[str, str, float, int]]:
    rows = []
    for a, b in graph.edges:
        weight = float(graph.partial_correlations[a, b])
        rows.append(
            (graph.vertex_names[a], graph.vertex_names[b], abs(weight), 1 if weight >= 0 else -1)
        )
    return rows
