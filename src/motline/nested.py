"""Nested (bicausal) Wasserstein distance between two-period couplings and the
LP projection onto the martingale polytope."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvexOrderError, InternalError, SizeGuardError
from .lp import LinearProgram, check_point, solve_lp
from .measures import (
    DiscreteCoupling,
    barycentre_report,
    make_coupling,
    quantile_cells,
)
from .transport import (GRID_DROP, TransportPlan, _require_p, grid_coupling, grid_rows,
                        north_west_start, optimal_coupling_1d, solve_transport, unit_gaps,
                        w_p_1d)


@dataclass(frozen=True, eq=False)
class BicausalPlan:
    """Outer plan on first coordinates plus one inner plan per outer support pair.

    ``cost`` is the raw p-power objective
    sum over (i, j) of outer[i, j] * (|x1_i - y1_j|^p + inner cost); the
    distance witnessed by the plan is ``cost ** (1/p)``.
    """

    outer: TransportPlan
    inners: dict
    p: float
    cost: float


def nested_w_p(pi: DiscreteCoupling, rho: DiscreteCoupling, p: float = 1.0):
    """Nested p-Wasserstein distance, returning (value, witness plan).

    Inner conditional distances are computed in closed form on the line, all
    of them from one ``quantile_cells`` staircase over every kernel; the outer
    problem is a transportation LP with cost |x1 - y1|^p + inner value.
    """
    p = _require_p(p)
    mu, nu = pi.first_marginal, rho.first_marginal
    outer_cost = np.abs(mu.atoms[:, None] - nu.atoms[None, :]) ** p + _inner_costs(pi, rho, p)
    value, matrix = solve_transport(outer_cost, mu.weights, nu.weights)
    inners = {(int(i), int(j)): optimal_coupling_1d(pi.kernels[i], rho.kernels[j])
              for i, j in zip(*np.nonzero(matrix > GRID_DROP))}
    outer = TransportPlan(mu, nu, matrix)
    cost = float(np.sum(matrix * outer_cost))
    return max(value, 0.0) ** (1.0 / p), BicausalPlan(outer, inners, p, cost)


def _inner_costs(pi: DiscreteCoupling, rho: DiscreteCoupling, p: float) -> np.ndarray:
    """W_p^p between every kernel of ``pi`` and every kernel of ``rho``, read
    off one ``quantile_cells`` staircase over all the kernels and reduced one
    row at a time, so memory stays of the staircase's own size: one entry per
    kernel and segment."""
    index, mass = quantile_cells(*(kernel.weights for kernel in pi.kernels + rho.kernels))
    q_rho = np.array([kernel.atoms[i] for kernel, i in zip(rho.kernels, index[len(pi.kernels):])])
    return np.array([np.abs(kernel.atoms[i] - q_rho) ** p @ mass
                     for kernel, i in zip(pi.kernels, index)])


def nd_lower_bound(pi: DiscreteCoupling) -> float:
    """Barycentre deviation of the coupling: a lower bound, in nested
    1-Wasserstein distance, on how far every martingale coupling with the same
    marginals must be."""
    return barycentre_report(pi).epsilon


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Diagonal-restricted projection onto the martingale polytope.

    ``value`` is an upper value for the nested-distance projection; it always
    dominates the universal lower bound ``lower_bound``.
    """

    value: float
    projected: DiscreteCoupling
    witness: BicausalPlan
    lower_bound: float


def _projection_lp(pi: DiscreteCoupling, pairing: Optional[list] = None):
    """Projection LP in cumulative-distribution form for a fixed outer pairing.

    ``pairing[i]`` is the target-side row matched with source kernel i; the
    identity pairing yields the diagonal-restricted projection.  Requires the
    matched first-marginal masses to agree.

    Every kernel lives on the atoms y_0 < ... < y_{k-1} of the second
    marginal, and on the line W1 is the integral of |F - G|, so the inner cost
    of kernel i against target row r = pairing[i] is
    sum_b (y_{b+1} - y_b) |F_i(b) - T_r(b)|, with F_i and T_r the cumulative
    joint masses.  The variables are the target masses t[r, b] (m * k) and
    epigraph pairs e+[i, b], e-[i, b] for b < k - 1 (2 * m * (k - 1)); none
    depends on the number of support points.  The rows are
    T_r(b) + e+[i, b] - e-[i, b] = F_i(b), the target row sums mu_r, the
    column sums nu_b and the m martingale rows.  The simplex starts from the
    north-west-corner target plan, which meets every row but the martingale
    rows (see ``_north_west_start``).  Returns (inner objective
    value, target masses) or raises ConvexOrderError when the martingale
    polytope is empty.  A solver point that breaks a row by more than
    FEAS_TOL (lengths in units of the second marginal's span) raises
    InternalError instead of returning a wrong value.
    """
    mu = pi.first_marginal
    nu = pi.second_marginal
    m, k = len(mu), len(nu)
    if pairing is None:
        pairing = list(range(m))
    cdf = np.zeros((m, k))
    for i, (_, weight, kernel) in enumerate(pi.kernel_items()):
        cdf[i, np.searchsorted(nu.atoms, kernel.atoms)] = weight * kernel.weights
    cdf = np.cumsum(cdf, axis=1)[:, : k - 1]

    # lengths in units of the second marginal's span (``unit_gaps``)
    gaps, span = unit_gaps(mu, nu)
    n_tgt, n_gap = m * k, m * (k - 1)
    a_eq = np.zeros((n_gap + 2 * m + k, n_tgt + 2 * n_gap))
    # cumulative rows: T_r(b) + e+[i, b] - e-[i, b] = F_i(b)
    prefix = np.tril(np.ones((k - 1, k)))
    for i, r in enumerate(pairing):
        rows = i * (k - 1) + np.arange(k - 1)
        a_eq[rows, r * k : (r + 1) * k] = prefix
        a_eq[rows, n_tgt + rows] = 1.0
        a_eq[rows, n_tgt + n_gap + rows] = -1.0
    # target row sums, column sums and martingale rows
    a_eq[n_gap:, :n_tgt] = grid_rows(m, k, [gaps])
    b_eq = np.concatenate([cdf.ravel(), mu.weights, nu.weights, np.zeros(m)])
    objective = np.concatenate([np.zeros(n_tgt), np.tile(np.diff(nu.atoms) / span, 2 * m)])

    start = _north_west_start(mu.weights, nu.weights, cdf, pairing)
    sol = solve_lp(LinearProgram(objective=objective, a_eq=a_eq, b_eq=b_eq), start=start)
    if sol.status == "infeasible":
        raise ConvexOrderError("martingale polytope is empty: marginals not in convex order")
    check_point(sol, "projection")
    return span * sol.objective, sol.x[:n_tgt].reshape(m, k)


def _north_west_start(mu_w, nu_w, cdf, pairing):
    """Starting basis of the projection LP from the north-west-corner target.

    Its grid cells come from ``north_west_start``.  Each cumulative row
    (i, b) takes e+[i, b] or e-[i, b], whichever the sign of
    F_i(b) - T_{pairing[i]}(b) makes nonnegative.  Only the m martingale rows
    are left to artificials.
    """
    m, k = len(mu_w), len(nu_w)
    n_tgt, n_gap = m * k, m * (k - 1)
    grid, target = north_west_start(mu_w, nu_w, m)
    below = cdf < np.cumsum(target, axis=1)[pairing, : k - 1]
    return np.concatenate([n_tgt + np.arange(n_gap) + n_gap * below.ravel(), grid])


def project_to_martingale(pi: DiscreteCoupling) -> ProjectionResult:
    """Project a coupling onto the martingale couplings of its own marginals.

    Solves a single LP over the target coupling, with the outer plan fixed to
    the identity (legitimate since both couplings share the first marginal)
    and each inner W1 cost written through cumulative masses on the second
    marginal's atoms (see ``_projection_lp``).  The returned value is an upper
    value for the nested-distance projection; the exact projection is
    sandwiched between ``lower_bound`` and ``value``.
    """
    mu = pi.first_marginal
    nu = pi.second_marginal
    value, target = _projection_lp(pi)
    projected = grid_coupling(mu, nu, target, GRID_DROP)

    # kernel i of the projection must be the image of kernel i of pi: a row
    # dropped or merged on the way would shift the pairing below
    if not np.array_equal(projected.first_marginal.atoms, mu.atoms):
        raise InternalError("projected coupling does not keep the first marginal's atoms")

    # given the optimal target, the cheapest inner plans under |x2 - y2| are
    # the monotone couplings, whose marginals are exact by construction
    outer = TransportPlan(mu, mu, np.diag(mu.weights))
    inners = {}
    cost = 0.0
    pairs = zip(pi.kernel_items(), projected.kernel_items())
    for i, ((_, weight, kernel), (_, _, image)) in enumerate(pairs):
        plan = optimal_coupling_1d(kernel, image)
        inners[(i, i)] = plan
        cost += weight * plan.cost_p(1.0)
    witness = BicausalPlan(outer, inners, 1.0, cost)
    return ProjectionResult(float(value), projected, witness, nd_lower_bound(pi))


def project_bruteforce(pi: DiscreteCoupling) -> float:
    """Unrestricted bicausal projection value by outer-permutation enumeration.

    Test oracle only: requires at most 3 first-marginal atoms with uniform
    weights, where permutation matrices exhaust the outer-plan vertices.
    """
    mu = pi.first_marginal
    if len(mu) > 3:
        raise SizeGuardError("brute-force projection is limited to 3 first-marginal atoms")
    if np.max(mu.weights) - np.min(mu.weights) > 1e-12:
        raise SizeGuardError("brute-force projection requires uniform first-marginal weights")
    best = np.inf
    for perm in itertools.permutations(range(len(mu))):
        outer = float(np.dot(mu.weights, np.abs(mu.atoms - mu.atoms[list(perm)])))
        inner, _ = _projection_lp(pi, pairing=list(perm))
        best = min(best, outer + inner)
    return best
