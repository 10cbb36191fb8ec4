"""Classical optimal transport: exact 1-D distances, planar OT via LP, and
marginal adaptation of couplings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .lp import LinearProgram, check_point, solve_lp
from .measures import (
    MASS_DROP_TOL,
    DiscreteCoupling,
    DiscreteMeasure,
    make_coupling,
    quantile_cells,
)

PLAN_TOL = 1e-9
GRID_DROP = 1e-12  # grid masses of an LP optimum at or below this are empty cells


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Nonnegative mass matrix whose row/column sums match source/target weights."""

    source: DiscreteMeasure
    target: DiscreteMeasure
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (len(self.source), len(self.target)):
            raise InputError("plan matrix shape must match the two supports")
        if np.any(m < -PLAN_TOL):
            raise InputError("plan masses must be nonnegative")
        if np.max(np.abs(m.sum(axis=1) - self.source.weights)) > PLAN_TOL:
            raise InputError("row sums do not match the source weights")
        if np.max(np.abs(m.sum(axis=0) - self.target.weights)) > PLAN_TOL:
            raise InputError("column sums do not match the target weights")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def cost_p(self, p: float) -> float:
        """Total cost under |x - y|^p."""
        gaps = np.abs(self.source.atoms[:, None] - self.target.atoms[None, :])
        return float(np.sum(self.matrix * gaps**p))


def _require_p(p: float) -> float:
    p = float(p)
    if p < 1:
        raise InputError("the order p must be at least 1")
    return p


def w_p_1d(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 1.0) -> float:
    """Exact p-Wasserstein distance on the line via quantile-function pairing."""
    p = _require_p(p)
    (i, j), mass = quantile_cells(mu.weights, nu.weights)
    return float(mass @ np.abs(mu.atoms[i] - nu.atoms[j]) ** p) ** (1.0 / p)


def optimal_coupling_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    """Monotone (quantile) plan, optimal for |x - y|^p for every p >= 1; cells
    of mass at most MASS_DROP_TOL (rounding slivers) are dropped."""
    (i, j), mass = quantile_cells(mu.weights, nu.weights)
    matrix = np.zeros((len(mu), len(nu)))
    matrix[i, j] = np.where(mass > MASS_DROP_TOL, mass, 0.0)
    return TransportPlan(mu, nu, matrix)


def grid_rows(m: int, k: int, extra=()) -> np.ndarray:
    """Constraint rows over the masses of a row-major m x k grid.

    Returns the m row-sum rows, then the k column-sum rows, then one block of
    m rows for each m x k array in ``extra``: row i of a block carries that
    array's row i on the columns of grid row i (barycentre or deviation
    rows).  Every LP over couplings on supp mu x supp nu takes its rows from
    here.
    """
    cols = np.arange(m * k)
    grid_row = cols // k
    rows = np.zeros((m + k + m * len(extra), m * k))
    rows[grid_row, cols] = 1.0
    rows[m + cols % k, cols] = 1.0
    for n, values in enumerate(extra):
        rows[m + k + n * m + grid_row, cols] = np.ravel(values)
    return rows


def unit_gaps(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """The m x k displacements (y_j - x_i) / span and span, nu's atom range
    (1 when nu has one atom).

    Every barycentre row takes its coefficients from here, so each LP over
    couplings is the same under x -> s x + d and its rows are judged in units
    of nu's span by the simplex's absolute tolerances.
    """
    span = float(nu.atoms[-1] - nu.atoms[0]) if len(nu) > 1 else 1.0
    return (nu.atoms[None, :] - mu.atoms[:, None]) / span, span


def north_west_start(source_w: np.ndarray, target_w: np.ndarray, extra_rows: int = 0):
    """Starting basis for ``solve_lp`` from the north-west-corner (quantile)
    plan, over an LP whose variables begin with a row-major m x k grid and
    whose rows begin with ``grid_rows(m, k)``.

    The plan's m + k - 1 cells are ``quantile_cells(target_w, source_w)``: a
    staircase from (0, 0) to (m - 1, k - 1) that steps down when the source's
    cumulative mass falls short of the target's and right otherwise, so a tie
    steps right and carries zero mass.  The cells are a basis of the
    transportation rows less the last column sum (Dantzig 1963), and they meet
    every grid row.

    Returns (start, plan).  ``start`` puts the cells on the m row-sum rows and
    on column-sum rows 0..k-2; the last column sum (the row the rank pass
    drops) and the ``extra_rows`` rows after the grid rows get -1, so they
    keep an artificial.  ``plan`` is the m x k mass matrix.
    """
    (cols, rows), mass = quantile_cells(target_w, source_w)
    m, k = len(source_w), len(target_w)
    plan = np.zeros((m, k))
    plan[rows, cols] = mass
    start = np.full(m + k + extra_rows, -1)
    start[: rows.size] = rows * k + cols
    return start, plan


def grid_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure, masses: np.ndarray,
                  drop: float) -> DiscreteCoupling:
    """Coupling carrying the masses above ``drop`` of a grid over mu x nu."""
    points = [(mu.atoms[i], nu.atoms[j], masses[i, j])
              for i, j in zip(*np.nonzero(masses > drop))]
    return make_coupling(points)


def coupling_grid(pi: DiscreteCoupling):
    """The inverse of ``grid_coupling``: (mu, nu, masses) with the marginals of
    a coupling and its masses on the grid mu.atoms x nu.atoms."""
    mu, nu = pi.first_marginal, pi.second_marginal
    masses = np.zeros((len(mu), len(nu)))
    masses[np.searchsorted(mu.atoms, pi.x1), np.searchsorted(nu.atoms, pi.x2)] = pi.w
    return mu, nu, masses


def solve_transport(cost: np.ndarray, source_w: np.ndarray, target_w: np.ndarray):
    """Transportation LP: returns (optimal value, mass matrix).

    The simplex starts from the north-west-corner plan (``north_west_start``),
    a feasible basis of every row, so phase 1 makes no pivot.
    """
    cost = np.asarray(cost, dtype=float)
    n1, n2 = cost.shape
    if n1 != len(source_w) or n2 != len(target_w):
        raise InputError("cost matrix shape must match the weight vectors")
    b_eq = np.concatenate([source_w, target_w])
    start, _ = north_west_start(source_w, target_w)
    sol = solve_lp(LinearProgram(objective=cost.ravel(), a_eq=grid_rows(n1, n2), b_eq=b_eq),
                   start=start)
    check_point(sol, "transportation")
    return sol.objective, sol.x.reshape(n1, n2)


def w_p_plane(pi: DiscreteCoupling, rho: DiscreteCoupling, p: float = 1.0) -> float:
    """p-Wasserstein distance between two planar measures under the coordinate-sum cost."""
    p = _require_p(p)
    a_pts, a_w = pi.planar_points()
    b_pts, b_w = rho.planar_points()
    cost = (np.abs(a_pts[:, None, 0] - b_pts[None, :, 0]) ** p
            + np.abs(a_pts[:, None, 1] - b_pts[None, :, 1]) ** p)
    value, _ = solve_transport(cost, a_w, b_w)
    return max(value, 0.0) ** (1.0 / p)


def adapt_marginals(pi: DiscreteCoupling, mu2: DiscreteMeasure,
                    nu2: DiscreteMeasure) -> DiscreteCoupling:
    """Push a coupling onto new marginals through monotone transport kernels.

    Each support point (x1, x2) of ``pi`` spreads its mass according to the
    conditional laws of the monotone plans mu -> mu2 and nu -> nu2.  The output
    lies in Pi(mu2, nu2) and, for every p >= 1, moves no further from ``pi``
    than W_p(mu, mu2) + W_p(nu, nu2); the same quantity bounds the output's
    barycentre deviation when ``pi`` is a martingale coupling.
    """
    mu, nu = pi.first_marginal, pi.second_marginal
    z = optimal_coupling_1d(mu, mu2).matrix / mu.weights[:, None]
    h = optimal_coupling_1d(nu, nu2).matrix / nu.weights[:, None]
    rows = z[np.searchsorted(mu.atoms, pi.x1)]
    cols = h[np.searchsorted(nu.atoms, pi.x2)]
    mass = np.zeros((len(mu2), len(nu2)))
    for row, col, w in zip(rows, cols, pi.w):
        mass += w * np.outer(row, col)
    # quantile pairings of nearly identical cumulative weights can leave
    # sub-rounding slivers; drop them so matching marginals act as identity
    return grid_coupling(mu2, nu2, mass, MASS_DROP_TOL)
