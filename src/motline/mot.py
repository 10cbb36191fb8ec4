"""Martingale optimal transport solvers, the penalized reformulation, the
kernel-extended objective, and competitor searches for optimality checks."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvexOrderError, InputError, InternalError, SizeGuardError
from .lp import LinearProgram, check_point, solve_lp
from .measures import (
    ATOM_MERGE_TOL,
    DiscreteCoupling,
    DiscreteMeasure,
    make_coupling,
)
from .transport import (GRID_DROP, TransportPlan, coupling_grid, grid_coupling, grid_rows,
                        north_west_start, solve_transport, unit_gaps)

IMPROVE_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class CostSpec:
    """Cost function over supp(mu) x supp(nu): named analytic form or explicit matrix.

    kinds: "abs" -> |x2 - x1|, "square" -> (x2 - x1)^2, "call" -> (x2 - strike)^+,
    "poly" -> sum of coef * x1^i * x2^j terms, "matrix" -> explicit grid values.
    """

    kind: str
    strike: float = 0.0
    terms: tuple = ()
    values: Optional[np.ndarray] = None

    @classmethod
    def absolute(cls) -> "CostSpec":
        return cls("abs")

    @classmethod
    def squared(cls) -> "CostSpec":
        return cls("square")

    @classmethod
    def call(cls, strike: float) -> "CostSpec":
        return cls("call", strike=float(strike))

    @classmethod
    def polynomial(cls, terms: Sequence[Sequence[float]]) -> "CostSpec":
        clean = tuple((int(i), int(j), float(c)) for i, j, c in terms)
        return cls("poly", terms=clean)

    @classmethod
    def from_matrix(cls, values) -> "CostSpec":
        m = np.asarray(values, dtype=float)
        if m.ndim != 2 or not np.all(np.isfinite(m)):
            raise InputError("cost matrix must be a finite 2-D array")
        return cls("matrix", values=m)

    def evaluate(self, x1, x2):
        if self.kind == "abs":
            return np.abs(np.asarray(x2) - np.asarray(x1))
        if self.kind == "square":
            return (np.asarray(x2) - np.asarray(x1)) ** 2
        if self.kind == "call":
            return np.maximum(np.asarray(x2) - self.strike, 0.0)
        if self.kind == "poly":
            x1 = np.asarray(x1, dtype=float)
            x2 = np.asarray(x2, dtype=float)
            out = np.zeros(np.broadcast(x1, x2).shape)
            for i, j, c in self.terms:
                out = out + c * x1**i * x2**j
            return out
        raise InputError("explicit cost matrices cannot be evaluated pointwise")

    def matrix_for(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
        if self.kind == "matrix":
            if self.values.shape != (len(mu), len(nu)):
                raise InputError("cost matrix shape does not match the supports")
            return self.values
        grid = np.asarray(self.evaluate(mu.atoms[:, None], nu.atoms[None, :]), dtype=float)
        return np.broadcast_to(grid, (len(mu), len(nu))).copy()


def _martingale_system(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Equality system (marginals + martingale rows) over the mu x nu grid."""
    b = np.concatenate([mu.weights, nu.weights, np.zeros(len(mu))])
    return grid_rows(len(mu), len(nu), [unit_gaps(mu, nu)[0]]), b


def _solve_martingale_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, objective: np.ndarray):
    """The martingale LP from the north-west-corner (quantile) basis, which
    meets the marginal rows, so phase 1 repairs only the m martingale rows."""
    a, b = _martingale_system(mu, nu)
    start, _ = north_west_start(mu.weights, nu.weights, len(mu))
    return solve_lp(LinearProgram(objective=objective, a_eq=a, b_eq=b), start=start)


def mot_solve(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec):
    """Minimal expected cost over martingale couplings; returns (value, optimizer).

    The simplex starts from the north-west-corner coupling, with artificials
    only on the martingale rows.
    """
    sol = _solve_martingale_lp(mu, nu, cost.matrix_for(mu, nu).ravel())
    if sol.status == "infeasible":
        raise ConvexOrderError("marginals are not in convex order")
    check_point(sol, "martingale")
    masses = sol.x.reshape(len(mu), len(nu))
    return sol.objective, grid_coupling(mu, nu, masses, GRID_DROP)


def strassen_feasible(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """LP feasibility of the martingale polytope; agrees with the convex-order test.

    Phase 1 starts from the north-west-corner coupling, with artificials only
    on the martingale rows.
    """
    return _solve_martingale_lp(mu, nu, np.zeros(len(mu) * len(nu))).status == "optimal"


def penalized_ot(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec, L: float) -> float:
    """Penalized reformulation: ordinary transport under the dispersion
    inequalities with the barycentre deviation charged at the Lipschitz rate.

    For an L-Lipschitz cost this equals the martingale transport value.

    The simplex starts from the north-west-corner (quantile) coupling, with
    each t_i basic on the +deviation or -deviation row that the sign of that
    coupling's deviation at atom i picks, and slacks on the other rows.  For
    a convex-order pair this basis is complete and feasible, so phase 1 makes
    no pivot.
    """
    m, k = len(mu), len(nu)
    n_pi = m * k  # then one epigraph variable t_i per first-marginal atom, then 3m slacks
    gaps, span = unit_gaps(mu, nu)  # so t_i is in units of span
    rows = grid_rows(m, k, [gaps, -gaps])
    a = np.zeros((m + k + 3 * m, n_pi + 4 * m))
    a[: m + k, :n_pi] = rows[: m + k]
    ineq = a[m + k :]  # the 3m inequality rows, each with its own slack
    # upper-tail dispersion at each atom of mu: minus the deviation of rows >= i
    ineq[:m, :n_pi] = np.cumsum(rows[m + k + m :][::-1], axis=0)[::-1]
    # t_i >= +/- row deviation
    ineq[m::2, :n_pi] = rows[m + k : m + k + m]
    ineq[m + 1 :: 2, :n_pi] = rows[m + k + m :]
    ineq[m + np.arange(2 * m), n_pi + np.arange(2 * m) // 2] = -1.0
    ineq[:, n_pi + m :] = np.eye(3 * m)

    # t_i starts at |deviation_i| of the north-west plan: basic on its
    # +deviation row (program row m + k + m + 2i) or on the -deviation row
    # after it; every other inequality row starts on its slack
    start, plan = north_west_start(mu.weights, nu.weights, 3 * m)
    start[m + k :] = n_pi + m + np.arange(3 * m)
    negative = np.sum(plan * gaps, axis=1) < 0
    start[m + k + m + 2 * np.arange(m) + negative] = n_pi + np.arange(m)

    objective = np.concatenate([cost.matrix_for(mu, nu).ravel(), np.full(m, float(L) * span),
                                np.zeros(3 * m)])
    sol = solve_lp(LinearProgram(objective=objective, a_eq=a,
                                 b_eq=np.concatenate([mu.weights, nu.weights, np.zeros(3 * m)])),
                   start=start)
    if sol.status == "infeasible":
        raise ConvexOrderError("no dispersion-feasible coupling: marginals not in convex order")
    check_point(sol, "penalized")
    return sol.objective


@dataclass(frozen=True, eq=False)
class KappaSpec:
    """Reference coupling, whose kernels x1 -> law are the reference, plus a
    three-argument cost on (x1, x2, y2)."""

    reference: DiscreteCoupling
    chat: Callable[[float, float, float], float]

    def kernel(self, x1: float) -> DiscreteMeasure:
        try:
            return self.reference.kernel(x1)
        except InputError:
            raise InputError(f"kernel is not defined at first-marginal atom {x1!r}") from None


def _chat_matrix(kappa: KappaSpec, x1: float, left: DiscreteMeasure,
                 right: DiscreteMeasure) -> np.ndarray:
    return np.array([[float(kappa.chat(x1, a, b)) for b in right.atoms] for a in left.atoms])


def kappa_objective(pi: DiscreteCoupling, kappa: KappaSpec) -> float:
    """Average over x1 of the inner OT value between the reference kernel and
    the coupling's kernel under the three-argument cost."""
    total = 0.0
    for x1, weight, kernel in pi.kernel_items():
        ref = kappa.kernel(x1)
        value, _ = solve_transport(_chat_matrix(kappa, x1, ref, kernel),
                                   ref.weights, kernel.weights)
        total += weight * value
    return total


def martingale_vertices(mu: DiscreteMeasure, nu: DiscreteMeasure) -> list:
    """All vertices (basic feasible solutions) of the martingale polytope.

    Exhaustive basis enumeration with degeneracy deduplication via rounding;
    intended for desk-scale instances only.
    """
    a, b = _martingale_system(mu, nu)
    n = a.shape[1]
    rank = int(np.linalg.matrix_rank(a, tol=1e-9))
    seen = {}
    for cols in itertools.combinations(range(n), rank):
        sub = a[:, cols]
        x_b, residual, rnk, _ = np.linalg.lstsq(sub, b, rcond=None)
        if rnk < rank:
            continue
        if np.linalg.norm(sub @ x_b - b) > 1e-9:
            continue
        if np.any(x_b < -1e-9):
            continue
        full = np.zeros(n)
        full[list(cols)] = np.maximum(x_b, 0.0)
        key = tuple(np.round(full, 9))
        if key not in seen:
            seen[key] = full
    return [seen[key] for key in sorted(seen)]


def kappa_solve_bruteforce(kappa: KappaSpec, mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Minimize the kernel-extended objective over the martingale polytope.

    The objective is concave in the coupling (a pointwise infimum of linear
    functionals), so the minimum sits at a vertex; vertices are enumerated
    exhaustively.  Guarded to supports of size at most 4 x 5.
    """
    if len(mu) > 4 or len(nu) > 5:
        raise SizeGuardError("brute force is limited to supports of size 4 x 5")
    for atom in mu.atoms:
        kappa.kernel(float(atom))
    vertices = martingale_vertices(mu, nu)
    if not vertices:
        raise ConvexOrderError("martingale polytope is empty")
    best_value, best_coupling = np.inf, None
    for vertex in vertices:
        coupling = grid_coupling(mu, nu, vertex.reshape(len(mu), len(nu)), GRID_DROP)
        value = kappa_objective(coupling, kappa)
        if value < best_value - 1e-15:
            best_value, best_coupling = value, coupling
    return float(best_value), best_coupling


def _competitor_system(grid: np.ndarray, sa: DiscreteMeasure, sb: DiscreteMeasure):
    """Rows pinning the row masses, the column masses and the row barycentre
    deviations sum_j q_ij (y_j - x_i) / span (``unit_gaps``) of a grid over
    sa x sb, with the grid's own sums as right-hand sides."""
    gaps, _ = unit_gaps(sa, sb)
    # one dot per row: a matrix product may round the last bit differently
    moments = [np.dot(row, gap) for row, gap in zip(grid, gaps)]
    return (grid_rows(*grid.shape, [gaps]),
            np.concatenate([grid.sum(axis=1), grid.sum(axis=0), moments]))


def _single_competitor(rows, cols) -> bool:
    """True when the support of a sub-coupling alpha certifies that its
    competitor polytope is {alpha}, whatever the cost.

    ``rows[p]`` and ``cols[p]`` place support point p on alpha's grid: rows
    are the sorted x1 atoms, columns the sorted x2 atoms.  A row with two or
    more atoms is *wide*, and its *hull* is the run of columns from its first
    atom to its last.  When no hull column holds an atom of another row, the
    polytope of measures q >= 0 with alpha's row masses, column masses and
    row barycentres is the single point alpha (a decomposition into
    irreducible components as in Beiglboeck & Juillet 2016):

    1. take f convex, affine exactly on each hull and strictly convex
       elsewhere;
    2. the column masses fix sum_ij q_ij f(y_j), and every row of alpha meets
       Jensen's inequality for f with equality, so every row of q must too;
    3. so a one-atom row stays a Dirac at its barycentre, and a wide row
       stays inside its own hull;
    4. inside a hull only that row's mass is left.

    With one atom per row there are no hulls and the test always holds.
    Plain Python: samples have a handful of points, where numpy's per-call
    cost would dominate.
    """
    hulls = {}
    for r, c in zip(rows, cols):
        lo, hi = hulls.get(r, (c, c))
        hulls[r] = (min(lo, c), max(hi, c))
    return not any(lo <= c <= hi
                   for r, c in zip(rows, cols)
                   for wide, (lo, hi) in hulls.items() if wide != r and lo < hi)


def competitor_improve(alpha: DiscreteCoupling, cost: CostSpec,
                       tol: float = IMPROVE_TOL) -> Optional[DiscreteCoupling]:
    """Search for a cheaper measure with the same marginals and the same
    conditional barycentres; returns it when the cost drops by more than
    tol * max(1, sum of alpha * |cost|), the scale of the round-off in both
    costs, so that round-off is no saving even where the cost cancels.

    When no wide row's hull (the columns from its first atom to its last)
    holds an atom of another row, alpha is the only such measure, whatever
    the cost, and no LP is solved (see ``_single_competitor``).  That covers
    every coupling with one point per x1: its kernels are Diracs at their
    barycentres.
    """
    sa, sb, grid = coupling_grid(alpha)
    rows, cols = np.nonzero(grid)
    if _single_competitor(rows.tolist(), cols.tolist()):
        return None
    m, k = len(sa), len(sb)
    cost_matrix = cost.matrix_for(sa, sb)
    current = float(np.sum(grid * cost_matrix))
    size = float(np.sum(grid * np.abs(cost_matrix)))

    a_eq, b_eq = _competitor_system(grid, sa, sb)
    sol = solve_lp(LinearProgram(objective=cost_matrix.ravel(), a_eq=a_eq, b_eq=b_eq))
    check_point(sol, "competitor")
    if sol.objective < current - tol * max(1.0, size):
        return grid_coupling(sa, sb, sol.x.reshape(m, k), GRID_DROP)
    return None


def _merged_ranks(values: list) -> list:
    """Rank of each value among the atoms that make_coupling merges them
    into: runs of sorted values that differ by at most ATOM_MERGE_TOL, the
    chain rule of measures._merge_sorted."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    rank = 0
    for prev, p in zip(order, order[1:]):
        rank += values[p] - values[prev] > ATOM_MERGE_TOL
        ranks[p] = rank
    return ranks


def _sample_cost(cost: CostSpec, pi: DiscreteCoupling, sub: DiscreteCoupling) -> CostSpec:
    """``cost`` for a sub-coupling of pi: an explicit matrix over pi's grid is
    sliced to the sub-coupling's rows and columns; other costs are unchanged."""
    if cost.kind != "matrix":
        return cost
    mu, nu = pi.first_marginal, pi.second_marginal
    rows = np.searchsorted(mu.atoms, sub.first_marginal.atoms)
    cols = np.searchsorted(nu.atoms, sub.second_marginal.atoms)
    return CostSpec.from_matrix(cost.matrix_for(mu, nu)[np.ix_(rows, cols)])


def _sample_value(cost: CostSpec, pi: DiscreteCoupling, sub: DiscreteCoupling) -> float:
    sa, sb, grid = coupling_grid(sub)
    return float(np.sum(_sample_cost(cost, pi, sub).matrix_for(sa, sb) * grid))


def _support_dual(a: np.ndarray, c: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Multipliers y of the rows of ``a`` whose reduced costs c - y a vanish
    on the support columns, by least squares: exactly when some y does."""
    return np.linalg.lstsq(a[:, support].T, c[support], rcond=None)[0]


def _dual_witness(pi: DiscreteCoupling, cost: CostSpec):
    """Reduced costs r = c - y A of pi's competitor system over its whole
    grid, under the dual y of pi's own support (``_support_dual``).

    Returns (rows, cols, low, high): the grid row and column of each point
    of pi; r less its rounding allowance on each cell, as nested lists; and
    r plus it at each point.  The allowance is a few ulps of |c| + |y| |A|.
    When two atoms of a marginal lie within ATOM_MERGE_TOL a sample may
    merge them off pi's grid, so ``low`` is -inf and nothing is certified.
    """
    mu, nu, grid = coupling_grid(pi)
    a, _ = _competitor_system(grid, mu, nu)
    c = cost.matrix_for(mu, nu).ravel()
    y = _support_dual(a, c, np.flatnonzero(grid))
    r = c - y @ a
    allowance = 8 * np.finfo(float).eps * (np.abs(c) + np.abs(y) @ np.abs(a))
    low = (r - allowance).reshape(grid.shape)
    if np.min(np.r_[np.diff(mu.atoms), np.diff(nu.atoms)], initial=np.inf) <= ATOM_MERGE_TOL:
        low[:] = -np.inf
    rows, cols = np.searchsorted(mu.atoms, pi.x1), np.searchsorted(nu.atoms, pi.x2)
    high = (r + allowance)[rows * len(nu) + cols]
    return rows.tolist(), cols.tolist(), low.tolist(), high.tolist()


def _improvement_bound(witness, idx, w) -> float:
    """Most that any competitor of the sample of pi's points ``idx`` (masses
    ``w[idx]``, renormalized) can save, by weak duality.

    A competitor q of the sample alpha keeps alpha's row masses, column
    masses and row barycentres, which are the rows of A on alpha's cells.
    So c.q - c.alpha = r.q - r.alpha, whatever y is, and r.q is at least
    min(0, min r on those cells), as q has mass 1.  Plain Python: a sample
    has a handful of points.
    """
    rows, cols, low, high = witness
    sample_rows, sample_cols = {rows[p] for p in idx}, {cols[p] for p in idx}
    floor = min(0.0, min(low[i][j] for i in sample_rows for j in sample_cols))
    return sum(w[p] * high[p] for p in idx) / sum(w[p] for p in idx) - floor


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    samples: int
    subset_size: int
    seed: int
    violations: tuple

    @property
    def n_violations(self) -> int:
        return len(self.violations)


def monotonicity_check(pi: DiscreteCoupling, cost: CostSpec, samples: int,
                       subset_size: int, rng_seed: int,
                       tol: float = IMPROVE_TOL) -> MonotonicityReport:
    """Sample sub-supports of a martingale coupling and hunt for improving
    competitors.  Zero violations are expected for optimizers of the cost;
    violations witness suboptimality.

    A sample in which no wide row's hull holds an atom of another row admits
    no competitor, whatever the cost (see ``_single_competitor``).  Its grid
    rows and columns are read off the sampled coordinates, so it is
    certified before its sub-coupling or its LP is built.  A ``from_matrix``
    cost is read over pi's grid and sliced to each sample's rows and columns.

    Every other sample is first bounded through one dual witness of pi,
    built for the first such sample: multipliers y of pi's competitor system
    (row masses, column masses and row barycentres over pi's whole grid)
    that zero the reduced costs r = c - y A on supp pi, by least squares,
    with no LP (``_dual_witness``).  By weak duality no competitor of a
    sample saves more than its r-weighted mass less min(0, min r on its
    cells), whatever y is (``_improvement_bound``).  A sample whose bound,
    with a rounding allowance, is at most tol / 2 is certified; the rest go
    through ``competitor_improve`` and its LP.
    """
    rng = random.Random(rng_seed)
    n = len(pi)
    size = min(subset_size, n)
    x1, x2, w = pi.x1.tolist(), pi.x2.tolist(), pi.w.tolist()
    witness = None
    cache = {}
    violations = []
    for s in range(samples):
        idx = tuple(sorted(rng.sample(range(n), size)))
        if idx not in cache:
            cache[idx] = None
            if not _single_competitor(_merged_ranks([x1[i] for i in idx]),
                                      _merged_ranks([x2[i] for i in idx])):
                if witness is None:
                    witness = _dual_witness(pi, cost)
                if _improvement_bound(witness, idx, w) <= tol / 2:
                    continue
                alpha = make_coupling([(x1[i], x2[i], w[i]) for i in idx])
                better = competitor_improve(alpha, _sample_cost(cost, pi, alpha), tol)
                if better is not None:
                    cache[idx] = (idx, _sample_value(cost, pi, alpha),
                                  _sample_value(cost, pi, better))
        if cache[idx] is not None:
            violations.append((s,) + cache[idx])
    return MonotonicityReport(samples, subset_size, rng_seed, tuple(violations))


def kappa_competitor_improve(alpha: DiscreteCoupling, gammas: Sequence[TransportPlan],
                             kappa: KappaSpec, tol: float = IMPROVE_TOL):
    """Competitor search for the kernel-extended objective.

    ``gammas[i]`` must couple the reference kernel with the kernel of
    ``alpha`` at its i-th first-marginal atom.  The search jointly optimizes a
    competitor measure and fresh inner plans in one LP over the inner plans
    alone, stacked into one grid of (reference atoms) x (alpha's second
    marginal atoms): its row sums are the reference kernels scaled by alpha's
    row masses, its column sums are alpha's second marginal, and the block
    sums of its barycentre rows pin alpha's conditional barycentres.  The
    competitor is the block column sums.  Returns (competitor, new inner
    plans in the same order) when the objective drops by more than
    tol * max(1, sum of the inner plans * |objective|), else None.
    """
    sa, sb, grid = coupling_grid(alpha)
    m, k = len(sa), len(sb)
    if len(gammas) != m:
        raise InputError(f"need {m} inner plans, one per first-marginal atom, not {len(gammas)}")
    refs = []
    current = size = 0.0
    for (x1, weight, kernel), plan in zip(alpha.kernel_items(), gammas):
        ref = kappa.kernel(x1)
        if (len(plan.source) != len(ref)
                or np.max(np.abs(plan.source.atoms - ref.atoms)) > 1e-12
                or np.max(np.abs(plan.source.weights - ref.weights)) > 1e-9
                or len(plan.target) != len(kernel)
                or np.max(np.abs(plan.target.atoms - kernel.atoms)) > 1e-12
                or np.max(np.abs(plan.target.weights - kernel.weights)) > 1e-9):
            raise InputError(f"inner plan at {x1!r} does not couple the required laws")
        chat = _chat_matrix(kappa, x1, ref, kernel)
        current += weight * float(np.sum(plan.matrix * chat))
        size += weight * float(np.sum(plan.matrix * np.abs(chat)))
        refs.append(ref)

    # inner plan i is the block of source rows from starts[i]
    sizes = [len(ref) for ref in refs]
    starts, n_src = np.cumsum([0] + sizes[:-1]), sum(sizes)
    _, rhs = _competitor_system(grid, sa, sb)
    rows = grid_rows(n_src, k, [np.repeat(unit_gaps(sa, sb)[0], sizes, axis=0)])
    a_eq = np.vstack([rows[: n_src + k], np.add.reduceat(rows[n_src + k :], starts)])
    b_eq = np.concatenate([rhs[i] * ref.weights for i, ref in enumerate(refs)] + [rhs[m:]])
    objective = np.concatenate([_chat_matrix(kappa, x1, ref, sb).ravel()
                                for x1, ref in zip(sa.atoms.tolist(), refs)])

    sol = solve_lp(LinearProgram(objective=objective, a_eq=a_eq, b_eq=b_eq))
    check_point(sol, "kappa competitor")
    if sol.objective >= current - tol * max(1.0, size):
        return None
    target = np.add.reduceat(sol.x.reshape(n_src, k), starts)
    competitor = grid_coupling(sa, sb, target, GRID_DROP)
    if not np.array_equal(competitor.first_marginal.atoms, sa.atoms):
        raise InternalError("competitor does not keep the first marginal's atoms")
    # re-derive the inner plans from the competitor by exact small transports;
    # this reproduces the joint optimum given the competitor's kernels
    new_plans = []
    for x1, ref, kernel in zip(sa.atoms.tolist(), refs, competitor.kernels):
        _, matrix = solve_transport(_chat_matrix(kappa, x1, ref, kernel),
                                    ref.weights, kernel.weights)
        new_plans.append(TransportPlan(ref, kernel, np.maximum(matrix, 0.0)))
    return competitor, new_plans
