"""Neighborhood-based sparse dependency-graph estimation.

Each vertex (feature column) is regressed on all others with an ℓ1 penalty,

    minimize (1/2N)·‖Y_s − Y_{V∖s}·β‖² + λ·‖β‖₁,

solved by cyclic coordinate descent with soft thresholding. The penalty is
searched on a 10-point log grid between λ_max (smallest penalty whose
solution is all-zero) and λ_max/100, scored by 5-fold cross-validation.
Neighborhood supports are then symmetrized (OR/AND) into an undirected
graph.

:func:`graphical_lasso` takes G = VᵀV and, from one K-fold split shared by
every vertex, each fold's held-out Gram T_f; no row is read after that. Each
vertex's fold systems (G − T_f, scored on T_f) and full-data system are
gathered from those Grams at once and solved in one call of
:func:`_gram_path`: Gram-form coordinate descent ("covariance updates",
Friedman, Hastie & Tibshirani 2010, JSS 33(1), §2.2) that updates one
coordinate at a time across the stack, each system warm-starting each λ of
its grid from its own solution at the last and moving on as soon as it
finishes one, so no system waits for a slower one. An update maintains the
gradient (Xᵀy − XᵀXβ)/N, so a sweep costs O(p²) whatever N is. Once descent
has found a system's active set and signs, the solution is one linear solve
away: after a sweep that leaves a sign pattern not tried yet,
:func:`_active_set_solve` solves it, and a solution that passes the KKT
conditions exactly finishes the system (the active-set view of Osborne,
Presnell & Turlach 2000, IMA J. Numer. Anal. 20). A solve that flips some
active signs takes their homotopy step instead of failing: it drops the
first coordinate to cross zero on the way from the sweep's β and solves
again. A system the solve does not finish keeps sweeping. Each system's
arithmetic is in a fixed order and its solve is its own LAPACK call, so its
result does not depend on the rest of the stack; tests keep a scalar solver
on Python floats, with the same solve, as the bit-for-bit reference.
Every vertex's held-out errors are then scored in one pass.
:func:`cross_validate` runs the same path for one vertex's folds. The
residual-form solver, used only by :func:`fit_neighborhood`, maintains the
full residual instead: one sweep costs O(pN) and nothing quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateColumn,
    DimensionMismatch,
    InvalidConfig,
    NotStandardized,
    TooFewRows,
    require_int,
    require_number,
)
from .features import FeatureMatrix, require_finite

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
    (``others`` lists the absolute indices). :func:`fit_neighborhood` fills
    ``objective_path`` with the post-sweep objective values, nonincreasing;
    :func:`graphical_lasso` leaves it empty.
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
    """Symmetrized neighborhood-selection graph over named vertices.

    ``weights[a, b]`` is the symmetrized lasso coefficient of edge (a, b):
    under OR the larger-magnitude of β_ab (vertex a regressed on b) and
    β_ba, under AND the smaller, 0 off the edges. It is a regression
    coefficient, not a partial correlation. ``cv`` holds each vertex's
    cross-validation result (``None`` for a vertex with no penalty grid);
    it stays in memory and is not serialized. ``sweeps`` and ``solves`` are
    the solver's work: the sweeps of its one stacked path, and the systems
    it passed to an active-set solve.
    """

    vertex_names: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    per_vertex_fits: list[NeighborhoodFit]
    weights: np.ndarray
    lambda_per_vertex: tuple[float, ...]
    symmetrization: str
    seed: int
    warnings: tuple[str, ...] = ()
    cv: tuple[CvResult | None, ...] = ()
    sweeps: int = 0
    solves: int = 0


@dataclass(frozen=True)
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


def _graph_input(matrix: FeatureMatrix, s: int | None = None) -> np.ndarray:
    """The values of ``matrix``, checked as every entry point of the graph layer takes them.

    Raises :class:`NotStandardized` unless it comes from ``standardize``,
    :class:`TooFewRows` below 2 rows or 2 columns, :class:`DimensionMismatch`
    unless 0 ≤ s < p (when ``s`` is given), and :class:`NonFiniteValue` on NaN or inf.
    """
    if not matrix.standardized:
        raise NotStandardized("the graph layer takes the output of standardize")
    values = matrix.values
    n, p = values.shape
    if n < 2 or p < 2:
        raise TooFewRows(f"need at least 2 rows and 2 columns, got {n} x {p}")
    if s is not None and not 0 <= s < p:
        raise DimensionMismatch(f"vertex must lie in [0, {p}), got {s}")
    require_finite(values)
    return values


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


def _grids(lam_max: np.ndarray) -> np.ndarray:
    """Row i: GRID_SIZE log-spaced λ from ``lam_max[i]`` down to ``lam_max[i]/GRID_RATIO``."""
    return np.geomspace(lam_max, lam_max / GRID_RATIO, GRID_SIZE, axis=1)


def _grid_from_max(lam_max: float, column: str) -> LambdaGrid:
    if lam_max <= 0.0:
        raise DegenerateColumn(f"column {column} is orthogonal to every other column")
    grid = _grids(np.array([lam_max]))[0].tolist()
    return LambdaGrid(lambda_max=lam_max, lambda_min=lam_max / GRID_RATIO, values=tuple(grid))


def lambda_grid(matrix: FeatureMatrix, s: int) -> LambdaGrid:
    """Penalty grid for vertex ``s``: λ_max = (1/N)·max_j |⟨Y_j, Y_s⟩|.

    The inner products are evaluated with the same memory layout and dot
    calls as the residual-form solver's first sweep, so a
    :func:`fit_neighborhood` at λ_max is all-zero exactly, not merely within
    rounding.
    """
    values = _graph_input(matrix, s)
    n, p = values.shape
    others = [j for j in range(p) if j != s]
    X = _design(values, others)
    r = values[:, s].astype(np.float64, copy=True)
    lam_max = max(abs(float(r @ X[:, k]) / n) for k in range(p - 1))
    return _grid_from_max(lam_max, matrix.column_names[s])


def _objective(r: np.ndarray, beta: np.ndarray, lam: float, n: int) -> float:
    return float(r @ r) / (2.0 * n) + lam * float(np.abs(beta).sum())


def _coordinate_descent(
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float,
    max_sweeps: int,
) -> tuple[np.ndarray, float, int, bool, list[float]]:
    """Residual-form cyclic coordinate descent for (1/2N)‖y − Xβ‖² + λ‖β‖₁.

    Starts from β = 0, with the residual a copy of ``y``, and maintains the
    full residual across coordinate updates. A sweep's objective stall only
    counts as convergence once an in-place KKT check (at half the
    certification tolerance) also passes, so every converged fit satisfies
    the subgradient conditions within 10·tol.
    """
    n, m = X.shape
    nu = np.einsum("ij,ij->j", X, X) / n  # (1/N)‖Y_j‖² per column
    beta = np.zeros(m)
    r = y.astype(np.float64, copy=True)
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
) -> NeighborhoodFit:
    """Lasso regression of column ``s`` on all other columns (residual form), at λ > 0."""
    values = _graph_input(matrix, s)
    require_number("lambda", lam)
    if lam <= 0:
        raise InvalidConfig(f"lambda must be > 0, got {lam}")
    p = values.shape[1]
    others = tuple(j for j in range(p) if j != s)
    X = _design(values, list(others))
    y = values[:, s]
    beta, loss, sweeps, converged, path = _coordinate_descent(X, y, lam, tol, max_sweeps)
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


def _systems(
    grams: np.ndarray, counts: np.ndarray, drop: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of XᵀX/N, Xᵀy/N and yᵀy/N for regressing each column on the others, per Gram.

    ``rows[s, g]``, ``grad0[s, g]`` and ``yy[s, g]`` regress column ``s`` on
    the others in Gram ``grams[g]`` over ``counts[g]`` rows, all gathered by
    one index. A column other than ``s`` flagged in ``drop`` gets a zero row
    and column: descent skips a zero diagonal, so its β stays 0 and it is no
    regressor of ``s``.
    """
    p = grams.shape[-1]
    # others[s]: every column but s
    others = np.nonzero(~np.eye(p, dtype=bool))[1].reshape(p, p - 1)
    n = np.asarray(counts)[:, None]
    rows = grams[:, others[:, :, None], others[:, None, :]]
    rows /= n[:, :, None, None]
    grad0 = grams[:, others, np.arange(p)[:, None]] / n[:, :, None]
    yy = np.diagonal(grams, axis1=1, axis2=2) / n
    if drop is not None:
        off = drop[others]
        rows[:, off[:, :, None] | off[:, None]] = 0.0
        grad0[:, off] = 0.0
    return rows.swapaxes(0, 1), grad0.swapaxes(0, 1), yy.T


def _fold_grams(values: np.ndarray, folds: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Each fold's held-out Gram and row count: a contiguous split of a shuffle drawn from ``seed``.

    Cross-validation's one pass over the rows; everything after it reads these Grams.
    Memory: one fold's rows at a time, gathered into one buffer.
    """
    n = len(values)
    if folds > n:
        raise TooFewRows(f"need folds <= {n} rows, got {folds}")
    splits = np.array_split(np.random.default_rng(seed).permutation(n), folds)
    grams = np.empty((folds, values.shape[1], values.shape[1]))
    held_out = np.empty((len(splits[0]), values.shape[1]))  # the largest fold's rows, reused
    for f, rows in enumerate(splits):
        # values[rows], gathered faster; "clip" fills out unbuffered, and no row is out of range
        test = np.take(values, rows, axis=0, out=held_out[: len(rows)], mode="clip")
        grams[f] = test.T @ test
    return grams, np.array([len(rows) for rows in splits])


def _left_sum(terms: np.ndarray) -> np.ndarray:
    """0.0 + t₀ + t₁ + … over the first axis, in that order, as Python's ``sum`` adds.

    ``np.sum`` adds pairwise, so its last bits differ. A sequential sum
    without the leading 0.0 differs only in giving −0.0 when every term is
    −0.0, which the trailing ``+ 0.0`` undoes.
    """
    return np.add.accumulate(terms)[-1] + 0.0


@dataclass
class _PathStates:
    """Every system's state at the end of each grid index of :func:`_gram_path`.

    ``beta[i, k]``, ``loss``, ``sweeps`` and ``converged`` are system ``i``'s
    at grid index ``k``. ``stack_sweeps`` counts the sweeps of the whole
    stack, ``solves`` the systems passed to :func:`_active_set_solve`.
    """

    beta: np.ndarray
    loss: np.ndarray
    sweeps: np.ndarray
    converged: np.ndarray
    stack_sweeps: int = 0
    solves: int = 0

    def fit(
        self, i: int, k: int, vertex: int, others: tuple[int, ...], lam: float
    ) -> NeighborhoodFit:
        return NeighborhoodFit(
            vertex=vertex,
            others=others,
            beta=self.beta[i, k].copy(),
            lam=lam,
            loss=float(self.loss[i, k]),
            iterations=int(self.sweeps[i, k]),
            converged=bool(self.converged[i, k]),
        )


def _gram_path(
    rows: np.ndarray,
    grad0: np.ndarray,
    yy: np.ndarray,
    lams: np.ndarray,
    tol: float,
    max_sweeps: int,
) -> _PathStates:
    """Gram-form cyclic coordinate descent (covariance updates) for a stack of systems.

    System ``i`` is (1/2)yᵀy/N − βᵀXᵀy/N + (1/2)βᵀ(XᵀX/N)β + λ‖β‖₁ with
    ``rows[i]`` = XᵀX/N, ``grad0[i]`` = Xᵀy/N and ``yy[i]`` = yᵀy/N, solved at
    each λ of its descending grid ``lams[i]`` from its solution at the one
    before. A sweep updates one coordinate at a time across the stack, each
    system at its own grid index: a system that finishes a λ moves to the
    next one before the next sweep, and leaves the stack after its last, so
    no system waits for a slower one. An update maintains the gradient
    (Xᵀy − XᵀXβ)/N, so a sweep costs O(p²) and never touches the data rows.
    A sweep whose objective stalls finishes the λ once a KKT check on that
    gradient (at half :func:`_coordinate_descent`'s certification tolerance)
    also passes. After each sweep, the systems whose sign pattern differs
    from the last one they tried at this λ try :func:`_active_set_solve`; a
    certified solution that does not raise the objective replaces the
    sweep's state and finishes the λ as converged. ``max_sweeps`` sweeps
    end a λ unconverged. Each system's arithmetic is elementwise and in a
    fixed order (sums by :func:`_left_sum`), so its result is the same bytes
    as solving it alone with the updates written on Python floats.
    """
    n_sys, n_lam = lams.shape
    m = grad0.shape[1]
    # coordinate-major layout: row j of every system is one contiguous (m, S) block
    R = np.ascontiguousarray(rows.transpose(1, 2, 0))
    g0 = np.ascontiguousarray(grad0.T)
    nu = np.ascontiguousarray(np.diagonal(rows, axis1=1, axis2=2).T)
    y = yy
    kkt_tol = 5.0 * tol
    states = _PathStates(
        beta=np.zeros((n_sys, n_lam, m)),
        loss=np.zeros((n_sys, n_lam)),
        sweeps=np.zeros((n_sys, n_lam), dtype=np.int64),
        converged=np.zeros((n_sys, n_lam), dtype=bool),
    )
    live = np.arange(n_sys)  # the system at each stack position
    k = np.full(n_sys, -1)  # each live system's grid index
    count = np.zeros(n_sys, dtype=np.int64)  # its sweeps at that index
    beta, grad, tried = np.zeros((m, n_sys)), np.zeros((m, n_sys)), np.zeros((m, n_sys))
    lam, prev = np.zeros(n_sys), np.zeros(n_sys)
    coords = None
    at = live  # the systems that start their next λ, warm from their solution at the last
    while len(live):
        if len(at):
            k[at] += 1
            count[at] = 0
            tried[:, at] = 0.0  # each system's last solved sign pattern (all-zero: none)
            lam[at] = lams[live[at], k[at]]
            start = beta[:, at]
            # a start of zeros is a cold start: −0.0 becomes 0.0
            start[:, ~start.any(axis=0)] = 0.0
            beta[:, at] = start
            grad[:, at] = g0[:, at] - _left_sum((R[:, :, at] * start).swapaxes(0, 1))
            prev[at] = _gram_objective(start, grad[:, at], g0[:, at], y[at], lam[at])
        if coords is None:  # the first sweep, or the stack just shrank
            # a fold's training diagonal is 0, or −roundoff, where the
            # column is 0 on its training rows; a coordinate whose
            # diagonal is 0 in every system is skipped
            used, positive = (nu != 0.0).any(axis=1), (nu > 0.0).all(axis=1)
            coords = [(j, positive[j]) for j in np.flatnonzero(used).tolist()]
        states.stack_sweeps += 1
        count += 1
        neglam = -lam
        for j, plain in coords:
            d, old = nu[j], beta[j]
            theta = old * d + grad[j]
            new = theta - np.minimum(np.maximum(theta, neglam), lam)  # soft threshold
            if plain:
                new /= d
            else:  # a zero diagonal skips the coordinate; an unmoved β keeps its bits
                skip = d == 0.0
                new /= np.where(skip, 1.0, d)
                new = np.where(skip | (new == old), old, new)
            step = new - old
            if np.count_nonzero(step):
                beta[j] = new
                grad -= R[j] * step
        obj = _gram_objective(beta, grad, g0, y, lam)
        signs = np.sign(beta)
        retry = np.flatnonzero((signs != tried).any(axis=0))
        solved = np.zeros(len(live), dtype=bool)
        if len(retry):  # a sign pattern not tried yet at this λ
            states.solves += len(retry)
            tried[:, retry] = signs[:, retry]
            parts = R[:, :, retry], g0[:, retry], y[retry], lam[retry], beta[:, retry]
            x, x_grad, x_obj = _active_set_solve(*parts)
            # a solve may end a few ulps above the sweep; NaN (no certified solution) fails
            ok = x_obj <= obj[retry] + 1e-13 * np.abs(obj[retry])
            if np.count_nonzero(ok):
                won = retry[ok]
                beta[:, won], grad[:, won], obj[won] = x[:, ok], x_grad[:, ok], x_obj[ok]
                solved[won] = True
        stalled = prev - obj < tol * np.maximum(np.abs(prev), 1e-300)
        done = stalled
        if np.count_nonzero(stalled):
            active = beta != 0.0
            kkt = np.where(
                active,
                np.abs(grad - np.copysign(lam, beta)) <= kkt_tol,
                np.abs(grad) <= lam + kkt_tol,
            )
            done = stalled & kkt.all(axis=0)
        done = done | solved
        prev = obj
        ended = done | (count == max_sweeps)
        if np.count_nonzero(ended):
            at = np.flatnonzero(ended)
            ids, ks = live[at], k[at]
            states.beta[ids, ks] = beta[:, at].T
            states.loss[ids, ks] = obj[at]
            states.sweeps[ids, ks] = count[at]
            states.converged[ids, ks] = done[at]
            last = ended & (k == n_lam - 1)
            if np.count_nonzero(last):  # a system leaves the stack after its last λ
                keep = ~last
                live, k, count, ended = live[keep], k[keep], count[keep], ended[keep]
                R, g0, nu, y, lam = R[:, :, keep], g0[:, keep], nu[:, keep], y[keep], lam[keep]
                beta, grad, prev, tried = beta[:, keep], grad[:, keep], prev[keep], tried[:, keep]
                coords = None
        at = np.flatnonzero(ended)
    return states


def _solve_blocks(blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x[i] solving blocks[i]·x[i] = rhs[i]; NaN for a block LAPACK finds singular.

    ``np.linalg.solve`` raises for a whole stack when one block is singular,
    so a stack that raises is solved again in two halves, each the same way.
    Each block goes through the same LAPACK call either way, so its bytes do
    not depend on the stack it sits in.
    """
    try:
        return np.linalg.solve(blocks, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(blocks) == 1:
            return np.full(rhs.shape, np.nan)
        half = len(blocks) // 2
        return np.concatenate(
            [_solve_blocks(blocks[:half], rhs[:half]), _solve_blocks(blocks[half:], rhs[half:])]
        )


def _active_set_solve(
    R: np.ndarray, grad0: np.ndarray, yy: np.ndarray, lam: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lasso minimiser with ``beta``'s signs, or fewer of them, if that pattern is optimal.

    Per system (coordinate-major, as in :func:`_gram_path`), solves
    R_AA·x_A = g0_A − λ·σ_A with x = 0 off the active set A, each inactive
    coordinate held by an identity row in an m×m block; A and the signs σ
    start as ``beta``'s. When x is finite but flips some active signs, the
    homotopy step of Osborne, Presnell & Turlach (2000, IMA J. Numer. Anal.
    20) moves from β toward x until the first of them reaches zero, drops
    that coordinate from A, keeps the other signs and solves again; each
    step drops one, so a system takes at most m of them. Returns the last
    x, the gradient (Xᵀy − XᵀXx)/N summed by :func:`_left_sum`, and the
    objective at x. The objective is NaN unless x is finite, keeps every
    sign of σ, and leaves every inactive |gradient| ≤ λ: with the active
    gradient equal to λ·σ by construction, that certifies x as a global
    minimiser.
    """
    m, n_sys = beta.shape
    eye = np.eye(m)[:, :, None]
    signs, point = np.sign(beta), beta.copy()  # the pattern and the step's start
    x, grad, obj = np.empty_like(beta), np.empty_like(beta), np.empty(n_sys)
    todo = np.arange(n_sys)
    while len(todo):
        R_t, g0_t, lam_t, sign_t = R[:, :, todo], grad0[:, todo], lam[todo], signs[:, todo]
        active = sign_t != 0.0
        blocks = np.where(active[:, None] & active[None], R_t, eye).transpose(2, 0, 1)
        rhs = np.where(active, g0_t - np.copysign(lam_t, sign_t), 0.0)
        x_t = _solve_blocks(blocks, rhs.T).T
        finite = np.isfinite(x_t).all(axis=0)
        x_t = np.where(active & finite, x_t, 0.0)
        grad_t = g0_t - _left_sum((R_t * x_t).swapaxes(0, 1))
        flips = active & (np.sign(x_t) != sign_t)
        ok = finite & ~flips.any(axis=0) & ((np.abs(grad_t) <= lam_t) | active).all(axis=0)
        obj_t = _gram_objective(x_t, grad_t, g0_t, yy[todo], lam_t)
        x[:, todo], grad[:, todo], obj[todo] = x_t, grad_t, np.where(ok, obj_t, np.nan)
        step = finite & flips.any(axis=0)
        if not np.count_nonzero(step):
            break
        todo, x_t, sign_t, flips = todo[step], x_t[:, step], sign_t[:, step], flips[:, step]
        start = point[:, todo]
        # the fraction of the way from start to x at which each flipped
        # coordinate reaches zero; one already at zero, or past it, is there at 0
        reach = flips & (start * sign_t > 0.0)
        t = np.divide(start, start - x_t, out=np.zeros_like(start), where=reach)
        first = np.argmin(np.where(flips, t, np.inf), axis=0)
        cols = np.arange(len(todo))
        start = start + t[first, cols] * (x_t - start)
        start[first, cols] = 0.0
        point[:, todo] = start
        signs[first, todo] = 0.0
    return x, grad, obj


def _gram_objective(
    beta: np.ndarray, grad: np.ndarray, grad0: np.ndarray, yy: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """(yᵀy − βᵀXᵀy − N·βᵀgrad)/(2N) + λ‖β‖₁ per system, with grad = (Xᵀy − XᵀXβ)/N."""
    fit = _left_sum(beta * (grad0 + grad))
    return 0.5 * (yy - fit) + lam * _left_sum(np.abs(beta))


def _held_out_errors(
    grams: np.ndarray, counts: np.ndarray, vertices: list[int], betas: np.ndarray
) -> np.ndarray:
    """errors[v, k, f]: mean squared error of ``vertices[v]``'s fold-f β at grid index k.

    ``betas[v, f, k]`` is that β, scored on fold f's held-out Gram
    T = ``grams[f]`` over n_f = ``counts[f]`` rows as
    (T_ss − 2βᵀT_os + βᵀT_ooβ)/n_f, twice the λ = 0 objective that
    :func:`_gram_objective` sums in a fixed order. Every vertex is scored in
    one pass.
    """
    rows, grad0, yy = (a[vertices] for a in _systems(grams, counts))
    beta = betas.transpose(3, 0, 1, 2)  # coordinate-major: beta[i, v, f, k]
    g0 = grad0.transpose(2, 0, 1)[..., None]
    R = rows.transpose(2, 3, 0, 1)[..., None]
    # Σ_i R[j, i]·β_i in _left_sum's order, one product at a time: all of
    # them at once would hold m times the size of the gradient
    Rb = R[:, 0] * beta[0]
    for i in range(1, len(beta)):
        Rb += R[:, i] * beta[i]
    grad = g0 - (Rb + 0.0)
    errors = 2.0 * _gram_objective(beta, grad, g0, yy[..., None], 0.0)
    # row-major: a row's mean adds its folds in the reference's order
    return np.ascontiguousarray(errors.transpose(0, 2, 1))


def _select(errors: np.ndarray, lams, rule: str) -> CvResult:
    """The λ of ``lams``, a descending grid, that ``rule`` picks from the held-out ``errors``."""
    cv_errors = errors.mean(axis=1)
    cv_se = errors.std(axis=1, ddof=1) / np.sqrt(errors.shape[1])
    # grid is descending, so argmin's first hit is already the largest λ
    min_index = int(np.argmin(cv_errors))
    if rule == "one_se":
        threshold = cv_errors[min_index] + cv_se[min_index]
        best_index = int(np.argmax(cv_errors <= threshold))
    else:
        best_index = min_index
    return CvResult(
        best_lambda=float(lams[best_index]),
        best_index=best_index,
        cv_errors=cv_errors,
        cv_se=cv_se,
        rule=rule,
    )


def cross_validate(
    matrix: FeatureMatrix,
    s: int,
    grid: LambdaGrid,
    folds: int = 5,
    tol: float = 1e-6,
    max_sweeps: int = 1000,
    seed: int = 0,
    rule: str = "min",
) -> CvResult:
    """K-fold prediction error along the penalty grid for vertex ``s``.

    The folds are :func:`graphical_lasso`'s split, drawn from ``seed`` alone.
    Each fold is fitted in Gram form on VᵀV of the whole matrix minus the
    held-out rows' Gram, and its held-out error is read from that Gram.
    ``rule="min"`` picks the error-minimizing λ (exact ties break toward the
    larger λ); ``rule="one_se"`` picks the largest λ whose error is within
    one standard error of the minimum. The other arguments are checked as
    :class:`GlassoConfig` checks them.
    """
    values = _graph_input(matrix, s)
    GlassoConfig(tol=tol, max_sweeps=max_sweeps, folds=folds, selection=rule)
    tests, n_test = _fold_grams(values, folds, seed)
    gram, n = values.T @ values, len(values)
    rows, grad0, yy = (a[s] for a in _systems(gram - tests, n - n_test))
    states = _gram_path(rows, grad0, yy, np.tile(grid.values, (folds, 1)), tol, max_sweeps)
    return _select(_held_out_errors(tests, n_test, [s], states.beta[None])[0], grid.values, rule)


def _twin_columns(matrix: FeatureMatrix) -> list[tuple[int, int]]:
    """Each pair (a, b), a < b, of nonzero columns that are equal or negated copies.

    Which of two such columns a regression selects, and the β it leaves on
    the other, depend on summation order, so :func:`graphical_lasso` lets
    the later one regress on no other vertex. The Gram cannot show the
    pairs, since its diagonal and off-diagonal entries are summed in
    different orders; equal exact |column sums| pick the pairs to compare.
    All-zero columns are skipped, as each vertex fit reports them.
    """
    values = matrix.values
    sums = np.abs(values.sum(axis=0))
    pairs = []
    for a, b in zip(*np.triu_indices(values.shape[1], 1)):
        x, y = values[:, a], values[:, b]
        if sums[a] == sums[b] and x.any() and (np.array_equal(x, y) or np.array_equal(x, -y)):
            pairs.append((int(a), int(b)))
    return pairs


def graphical_lasso(
    matrix: FeatureMatrix, config: GlassoConfig | None = None, seed: int = 0
) -> GraphEstimate:
    """Estimate the dependency graph over the columns of a standardized matrix.

    ``seed`` draws the one K-fold split of every vertex's cross-validation
    (none when no vertex has a penalty grid). Every vertex's fold systems
    and its full-data system go through one
    :func:`_gram_path` call; a vertex's fit is its full-data system's state
    at the λ its cross-validation selects, which is where warm starts down
    the grid to that λ lead. Of two columns identical up to sign, the later
    is the regressor of no other vertex (see :func:`_twin_columns`), so the
    pair keeps the one edge of its own regression on the earlier. A warning
    counts the (system, λ) fits of the path that stopped at ``max_sweeps``.
    """
    config = config or GlassoConfig()
    values = _graph_input(matrix)
    n, p = values.shape

    gram = values.T @ values
    fits: list[NeighborhoodFit | None] = [None] * p
    names = matrix.column_names
    twins = _twin_columns(matrix)
    notes = [
        f"columns {names[a]} and {names[b]} are identical up to sign; "
        f"{names[b]} is the regressor of no other vertex"
        for a, b in twins
    ]
    later = np.zeros(p, dtype=bool)
    later[[b for _, b in twins]] = True
    # λ_max of each vertex: the largest |Xᵀy|/N over the regressors it keeps
    lam_max = np.where(np.eye(p, dtype=bool) | later[:, None], 0.0, np.abs(gram / n)).max(axis=0)
    for s in np.flatnonzero(lam_max <= 0.0).tolist():  # no penalty grid
        fits[s] = NeighborhoodFit(
            vertex=s,
            others=tuple(j for j in range(p) if j != s),
            beta=np.zeros(p - 1),
            lam=0.0,
            loss=0.5 * float(gram[s, s] / n),
            iterations=0,
            converged=True,
        )
        notes.append(f"column {names[s]} has no correlated columns; kept an empty neighborhood")

    cvs: list[CvResult | None] = [None] * p
    sweeps = solves = 0
    ids = np.flatnonzero(lam_max > 0.0).tolist()  # the vertices with a penalty grid
    if ids:
        grids = _grids(lam_max[ids])
        tests, n_test = _fold_grams(values, config.folds, seed)
        # each vertex's fold systems, then its full-data system
        grams, counts = np.concatenate([gram - tests, gram[None]]), np.append(n - n_test, n)
        rows, grad0, yy = (a[ids].reshape(-1, *a.shape[2:]) for a in _systems(grams, counts, later))
        lams = np.repeat(grids, config.folds + 1, axis=0)
        states = _gram_path(rows, grad0, yy, lams, config.tol, config.max_sweeps)
        sweeps, solves = states.stack_sweeps, states.solves
        if not states.converged.all():
            notes.append(
                f"{np.count_nonzero(~states.converged)} of {states.converged.size} lasso fits "
                f"(fold or full-data system, λ) stopped at glasso.max_sweeps={config.max_sweeps}"
            )
        betas = states.beta.reshape(len(ids), config.folds + 1, *states.beta.shape[1:])
        errors = _held_out_errors(tests, n_test, ids, betas[:, : config.folds])
        for v, s in enumerate(ids):
            cv = cvs[s] = _select(errors[v], grids[v], config.selection)
            others = tuple(j for j in range(p) if j != s)
            full = v * (config.folds + 1) + config.folds
            fits[s] = states.fit(full, cv.best_index, s, others, cv.best_lambda)

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
    weights = np.zeros((p, p))
    weights[rows, cols] = weights[cols, rows] = strength[rows, cols]
    return GraphEstimate(
        vertex_names=matrix.column_names,
        edges=tuple(zip(rows.tolist(), cols.tolist())),
        per_vertex_fits=fits,
        weights=weights,
        lambda_per_vertex=tuple(fit.lam for fit in fits),
        symmetrization=config.symmetrization,
        seed=seed,
        warnings=tuple(notes),
        cv=tuple(cvs),
        sweeps=sweeps,
        solves=solves,
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
        weight = float(graph.weights[a, b])
        rows.append(
            (graph.vertex_names[a], graph.vertex_names[b], abs(weight), 1 if weight >= 0 else -1)
        )
    return rows
