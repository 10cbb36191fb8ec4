"""Dense linear programming via two-phase primal simplex.

Small, deterministic, dependency-free solver for the desk-scale programs used
throughout the package (transportation polytopes, martingale polytopes,
projection programs).  Pivoting uses Dantzig's rule with an automatic switch
to Bland's rule after a run of degenerate steps, which guarantees termination;
for a fixed program the pivot sequence, and hence the solution, is
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, InternalError

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
_DEGENERATE_SWITCH = 40  # consecutive degenerate pivots before Bland's rule kicks in

@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min c.x  s.t.  a_eq x = b_eq,  x >= 0."""

    objective: np.ndarray
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).ravel()
        if c.size == 0 or not np.all(np.isfinite(c)):
            raise InputError("objective must be a nonempty finite vector")
        a, b = self.a_eq, self.b_eq
        if a is None or (hasattr(a, "__len__") and len(a) == 0):
            a, b = np.zeros((0, c.size)), np.zeros(0)
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        if a.shape != (b.size, c.size):
            raise InputError(f"a_eq rows must have length {c.size} and match rhs")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise InputError("non-finite coefficient in a_eq")
        for name, arr in (("objective", c), ("a_eq", a), ("b_eq", b)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_vars(self) -> int:
        return int(self.objective.size)

    # the general form's view (no inequality rows, bounds 0 and +inf), which
    # the benchmark's HiGHS check in perfbench/tracing.py reads
    @property
    def a_ub(self) -> np.ndarray:
        return np.zeros((0, self.n_vars))

    @property
    def b_ub(self) -> np.ndarray:
        return np.zeros(0)

    @property
    def lower(self) -> np.ndarray:
        return np.zeros(self.n_vars)

    @property
    def upper(self) -> np.ndarray:
        return np.full(self.n_vars, np.inf)


@dataclass(frozen=True, eq=False)
class LpSolution:
    """``pivots`` counts the pivots of phase 1 (including those that drive
    leftover artificials out of the basis) and of phase 2; ``rebuilds``
    counts the tableaus rebuilt from the original rows after phase 1 (0 or
    1) and in the phase-2 refinement; ``dropped_rows`` counts the rows found
    dependent, by the rank pass or when phase 1 drives out the artificials.
    For a fixed program and start they are reproducible, like the solution."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    objective: Optional[float]
    max_violation: float = 0.0
    pivots: tuple = (0, 0)
    rebuilds: tuple = (0, 0)
    dropped_rows: int = 0


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col
    rhs = tableau[:-1, -1]
    rhs[(rhs < 0) & (rhs > -1e-12)] = 0.0


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, allowed: np.ndarray):
    """Iterate pivots on a tableau whose last row holds reduced costs.

    Returns ("optimal" or "unbounded", pivots made).  ``allowed`` masks
    columns eligible to enter the basis.
    """
    m = tableau.shape[0] - 1
    n_total = tableau.shape[1] - 1
    bland = False
    degenerate_run = 0
    max_iter = 5000 + 50 * (m + n_total)
    for pivots in range(max_iter):
        reduced = tableau[-1, :-1]
        if bland:
            candidates = np.flatnonzero(allowed & (reduced < -FEAS_TOL))
            if candidates.size == 0:
                return "optimal", pivots
            enter = int(candidates[0])
        else:
            masked = np.where(allowed, reduced, np.inf)
            enter = int(np.argmin(masked))
            if masked[enter] >= -FEAS_TOL:
                return "optimal", pivots
        col = tableau[:-1, enter]
        # relative threshold (Harris 1973): an entry far below the column's
        # largest is elimination noise, and pivoting on it throws the
        # iterate off its rows
        rows = np.flatnonzero(col > max(PIVOT_TOL, 1e-9 * np.max(np.abs(col), initial=0.0)))
        if rows.size == 0:
            return "unbounded", pivots
        ratios = np.maximum(tableau[rows, -1], 0.0) / col[rows]
        best = ratios.min()
        # ties must stay essentially exact: a loose tie window can pick a row
        # above the true minimum and drive basic variables negative
        ties = rows[ratios <= best + 1e-12 * (1.0 + best)]
        if bland:
            # Bland: leave on the smallest basic index among ties
            leave = int(ties[np.argmin(basis[ties])])
        else:
            # stabilizing tie-break: the largest pivot element
            leave = int(ties[np.argmax(col[ties])])
        if best <= FEAS_TOL:
            degenerate_run += 1
            if degenerate_run > _DEGENERATE_SWITCH:
                bland = True
        else:
            degenerate_run = 0
            bland = False
        _pivot(tableau, basis, leave, enter)
    raise InternalError("simplex iteration limit exceeded")


def _set_objective_row(tableau: np.ndarray, basis: np.ndarray, costs: np.ndarray) -> None:
    tableau[-1, :] = 0.0
    tableau[-1, : costs.size] = costs
    for i, b in enumerate(basis):
        cb = tableau[-1, b]
        if cb != 0.0:
            tableau[-1] -= cb * tableau[i]


def _independent_rows(a: np.ndarray, b: np.ndarray):
    """Gaussian elimination over the rows of [a | b] that share all their
    columns.

    Returns (kept row indices, None) or (None, violation) when a dependent
    row's right-hand side is inconsistent with the rows it depends on, which
    certifies infeasibility.  Dependent rows carry no information beyond their
    consistency, and keeping them lets simplex pivots corrupt the basis.

    A column is private to a row when that row holds its only nonzero (a
    slack, an epigraph variable).  No combination of other rows produces a
    row with a private column, and no combination that produces another row
    can use it, so such rows are kept as they are and the elimination runs
    over the other rows alone, in their order.  In exact arithmetic this
    keeps the rows, and reaches the verdict, of an elimination over all rows.
    """
    nonzero = a != 0.0
    private = np.zeros(a.shape[0], dtype=bool)
    private[np.argmax(nonzero[:, nonzero.sum(axis=0) == 1], axis=0)] = True
    shared = np.flatnonzero(~private)
    cols = np.flatnonzero(nonzero[shared].any(axis=0))
    n = cols.size
    work = np.column_stack([a[np.ix_(shared, cols)], b[shared]])
    reduced_rows = []
    pivot_cols = []
    kept = np.flatnonzero(private).tolist()
    worst = 0.0
    for i, row in zip(shared, work):
        row_scale = 1.0 + float(np.max(np.abs(row[:n]), initial=0.0))
        for r, pc in zip(reduced_rows, pivot_cols):
            factor = row[pc]
            if factor != 0.0:
                row -= factor * r
        mag = float(np.max(np.abs(row[:n]), initial=0.0))
        if mag > 1e-10 * row_scale:
            pc = int(np.argmax(np.abs(row[:n])))
            reduced_rows.append(row / row[pc])
            pivot_cols.append(pc)
            kept.append(int(i))
        else:
            worst = max(worst, abs(float(row[n])))
    if worst > FEAS_TOL * (1.0 + float(np.max(np.abs(b))) if b.size else 1.0):
        return None, worst
    return sorted(kept), None


def _first_tableau(a: np.ndarray, b: np.ndarray, first: np.ndarray):
    """Tableau [A | I_art | b] with an artificial column on every row that
    ``first`` leaves without a basic column (entry -1); returns it with the
    basis and the artificial rows."""
    m, n_std = a.shape
    art_rows = np.flatnonzero(first < 0)
    tableau = np.zeros((m + 1, n_std + art_rows.size + 1))
    tableau[:m, :n_std] = a
    tableau[:m, -1] = b
    basis = first.copy()
    basis[art_rows] = n_std + np.arange(art_rows.size)
    tableau[art_rows, basis[art_rows]] = 1.0
    return tableau, basis, art_rows


def _warm_start(tableau: np.ndarray, basis: np.ndarray, a: np.ndarray, b: np.ndarray) -> bool:
    """Turn the first tableau [A | I_art | b] into B^-1 [A | I_art | b] for the
    basis B on ``basis``, in place; False (nothing changed) when B is singular
    or a basic structural value is below -FEAS_TOL.

    A row whose artificial would start negative is negated in ``a`` and ``b``,
    which negates only that artificial's value: the artificial columns stay
    +e_i, so the phase-1 rebuild is unchanged.
    """
    m, n_std = a.shape
    if np.unique(basis).size < m:
        return False
    try:
        fresh = np.linalg.solve(tableau[:m, basis], tableau[:m])
    except np.linalg.LinAlgError:
        return False
    values = fresh[:, -1]
    artificial = basis >= n_std
    if not np.all(np.isfinite(fresh)) or np.any(values[~artificial] < -FEAS_TOL):
        return False
    flip = artificial & (values < 0)
    # the negated program has B' = D B D (D negates the flipped rows), so its
    # tableau is D B^-1 [A | D I_art | b]
    fresh[:, basis[flip]] *= -1.0
    fresh[flip] *= -1.0
    a[flip] *= -1.0
    b[flip] *= -1.0
    fresh[:, basis] = np.eye(m)
    np.maximum(fresh[:, -1], 0.0, out=fresh[:, -1])  # rounding negatives
    tableau[:m] = fresh
    return True


def _basis_solve(basis_cols: np.ndarray, rhs: np.ndarray, phase: str) -> np.ndarray:
    """LU solve with a basis matrix, which is square and nonsingular once the
    rank pass has dropped the dependent rows: a singular one is a defect."""
    try:
        return np.linalg.solve(basis_cols, rhs)
    except np.linalg.LinAlgError as exc:
        raise InternalError(f"{phase} basis is singular") from exc


def solve_lp(lp: LinearProgram, start=None) -> LpSolution:
    """Solve the program, returning an optimal basic solution when one exists.

    ``start`` optionally names a starting basis: one column index per row of
    ``a_eq``, or -1 where the row keeps an artificial.  Entries of rows that
    the rank pass drops as dependent are discarded.  Phase 1 then starts from
    B^-1 [A | b] and only has to drive out the artificials of the -1 rows.  A
    start whose basis is singular or infeasible (a basic value below
    -FEAS_TOL) is ignored, and the solve proceeds from the all-artificial
    basis, as it does without a start.
    """
    n = lp.n_vars
    m = m_rows = lp.a_eq.shape[0]
    first = np.full(m, -1)
    if start is not None:
        first = np.asarray(start, dtype=int).ravel()
        if first.size != m or np.any((first < -1) | (first >= n)):
            raise InputError("start must give one column index or -1 per program row")
    a = lp.a_eq.copy()
    b = lp.b_eq.copy()
    negative = b < 0
    a[negative] *= -1.0
    b[negative] *= -1.0

    # eliminate linearly dependent rows up front: they add no information and
    # noise in their direction lets pivots build a singular basis
    if m:
        kept_idx, inconsistency = _independent_rows(a, b)
        if kept_idx is None:
            return LpSolution("infeasible", None, None, max_violation=float(inconsistency))
        if len(kept_idx) < m:
            a, b, first = a[kept_idx], b[kept_idx], first[kept_idx]
            m = len(kept_idx)
    # artificial variables wherever the start names no column
    tableau, basis, art_rows = _first_tableau(a, b, first)
    if start is not None and not _warm_start(tableau, basis, a, b):
        tableau, basis, art_rows = _first_tableau(a, b, np.full(m, -1))
    n_art = art_rows.size
    total = n + n_art

    pivots1 = rebuild1 = 0
    if n_art:
        allowed = np.ones(total, dtype=bool)
        allowed[n:] = False  # artificials never re-enter
        phase1 = np.zeros(total)
        phase1[n:] = 1.0
        _set_objective_row(tableau, basis, phase1)
        status, pivots1 = _run_simplex(tableau, basis, allowed)
        if status != "optimal":
            raise InternalError("phase-1 simplex cannot be unbounded")
        if -tableau[-1, -1] > FEAS_TOL:
            return LpSolution("infeasible", None, None, max_violation=float(-tableau[-1, -1]),
                              pivots=(pivots1, 0), dropped_rows=m_rows - m)
        if np.any(basis >= n):
            # rebuild the tableau exactly from the terminal basis: the pivoted
            # rows drift, and redundancy decisions must not be made on noise
            ext = np.zeros((m, total))
            ext[:, :n] = a
            for k, i in enumerate(art_rows):
                ext[i, n + k] = 1.0
            fresh = _basis_solve(ext[:, basis], np.column_stack([ext, b]), "phase-1 rebuild")
            rebuild1 = 1
            tableau = np.zeros((m + 1, total + 1))
            tableau[:m] = fresh
            tableau[np.arange(m), basis] = 1.0
        # drive leftover artificials out of the basis; a row whose exact image
        # vanishes outside the artificial block is redundant and is dropped
        keep_rows = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n:
                row = tableau[i, :n]
                pivot_col = int(np.argmax(np.abs(row)))
                if abs(row[pivot_col]) > FEAS_TOL:
                    _pivot(tableau, basis, i, pivot_col)
                    pivots1 += 1
                else:
                    keep_rows[i] = False
        rows = np.concatenate([np.flatnonzero(keep_rows), [m]])
        # C order: the fancy-indexed slice comes out Fortran-ordered, and
        # every phase-2 pivot would stride across it
        tableau = np.ascontiguousarray(tableau[rows][:, np.r_[0:n, total]])
        basis = basis[keep_rows]
        a = a[keep_rows]
        b = b[keep_rows]

    # phase 2 with iterative basis refinement: tableau updates drift over many
    # pivots, so after each simplex run the basic solution and reduced costs
    # are recomputed exactly from the original rows; if that exact view is not
    # optimal yet, the tableau is rebuilt from the basis and pivoting resumes
    costs = lp.objective
    allowed = np.ones(n, dtype=bool)
    m_kept = a.shape[0]
    scale = 1.0 + float(np.max(np.abs(costs)))
    seen = set()
    pivots2 = rebuild2 = 0
    for _ in range(8):
        _set_objective_row(tableau, basis, costs)
        status, run = _run_simplex(tableau, basis, allowed)
        pivots2 += run
        if status == "unbounded":
            return LpSolution("unbounded", None, None, pivots=(pivots1, pivots2),
                              rebuilds=(rebuild1, rebuild2), dropped_rows=m_rows - m_kept)
        basis_cols = a[:, basis]
        # least squares gives the returned point; the dual and the rebuilds
        # only steer the simplex, and LU solves serve them
        xb, *_ = np.linalg.lstsq(basis_cols, b, rcond=None)
        dual = _basis_solve(basis_cols.T, costs[basis], "phase-2 dual")
        reduced = costs - dual @ a
        x = np.zeros(n)
        x[basis] = np.maximum(xb, 0.0)
        key = tuple(np.sort(basis))
        xb_min = float(xb.min()) if xb.size else 0.0
        if reduced.min() >= -1e-9 * scale and xb_min >= -1e-8:
            break
        if key in seen:
            break  # tableau and exact view disagree within noise; keep exact
        seen.add(key)
        fresh = _basis_solve(basis_cols, np.column_stack([a, b]), "phase-2 rebuild")
        rebuild2 += 1
        tableau = np.zeros((m_kept + 1, n + 1))
        tableau[:m_kept] = fresh
        tableau[np.arange(m_kept), basis] = 1.0
    else:
        raise InternalError("phase-2 refinement did not converge")

    objective = float(np.dot(lp.objective, x))
    violation = float(np.max(np.abs(lp.a_eq @ x - lp.b_eq))) if m_rows else 0.0
    return LpSolution("optimal", x, objective, max_violation=violation,
                      pivots=(pivots1, pivots2), rebuilds=(rebuild1, rebuild2),
                      dropped_rows=m_rows - m_kept)


def check_point(sol: LpSolution, name: str, row_scale: float = 1.0) -> None:
    """Raise InternalError unless ``sol`` is optimal and breaks no row by more
    than FEAS_TOL in units of ``row_scale``; ``name`` names the LP."""
    if sol.status != "optimal":
        raise InternalError(f"{name} LP reported {sol.status}")
    if sol.max_violation > FEAS_TOL * row_scale:
        raise InternalError(f"{name} LP point breaks its rows by {sol.max_violation:.3g}")
