"""Classical optimal transport: exact 1-D distances, planar OT via LP, and
marginal adaptation of couplings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalError
from .lp import FEAS_TOL, LinearProgram, solve_lp
from .measures import (
    MASS_DROP_TOL,
    DiscreteCoupling,
    DiscreteMeasure,
    make_coupling,
)

PLAN_TOL = 1e-9


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

    def to_coupling(self) -> DiscreteCoupling:
        rows, cols = np.nonzero(self.matrix > 0)
        points = [(self.source.atoms[i], self.target.atoms[j], self.matrix[i, j])
                  for i, j in zip(rows, cols)]
        return make_coupling(points)


def _require_p(p: float) -> float:
    p = float(p)
    if p < 1:
        raise InputError("the order p must be at least 1")
    return p


def _quantile_merge(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Yield (i, j, mass) quantile segments pairing the two supports in order."""
    i = j = 0
    ra, rb = float(mu.weights[0]), float(nu.weights[0])
    while True:
        take = min(ra, rb)
        if take > 0:
            yield i, j, take
        ra -= take
        rb -= take
        if ra <= 0:
            i += 1
            if i == len(mu):
                return
            ra = float(mu.weights[i])
        if rb <= 0:
            j += 1
            if j == len(nu):
                return
            rb = float(nu.weights[j])


def w_p_1d(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 1.0) -> float:
    """Exact p-Wasserstein distance on the line via quantile-function pairing."""
    p = _require_p(p)
    total = 0.0
    for i, j, mass in _quantile_merge(mu, nu):
        total += mass * abs(mu.atoms[i] - nu.atoms[j]) ** p
    return total ** (1.0 / p)


def optimal_coupling_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    """Monotone (quantile) plan; optimal for |x - y|^p simultaneously for all p >= 1."""
    matrix = np.zeros((len(mu), len(nu)))
    for i, j, mass in _quantile_merge(mu, nu):
        matrix[i, j] += mass
    return TransportPlan(mu, nu, matrix)


def solve_transport(cost: np.ndarray, source_w: np.ndarray, target_w: np.ndarray):
    """Transportation LP: returns (optimal value, mass matrix)."""
    cost = np.asarray(cost, dtype=float)
    n1, n2 = cost.shape
    if n1 != len(source_w) or n2 != len(target_w):
        raise InputError("cost matrix shape must match the weight vectors")
    a_eq = np.zeros((n1 + n2, n1 * n2))
    for i in range(n1):
        a_eq[i, i * n2 : (i + 1) * n2] = 1.0
    for j in range(n2):
        a_eq[n1 + j, j::n2] = 1.0
    b_eq = np.concatenate([source_w, target_w])
    sol = solve_lp(LinearProgram(objective=cost.ravel(), a_eq=a_eq, b_eq=b_eq))
    if sol.status != "optimal":
        raise InternalError(f"transportation LP reported {sol.status}")
    if sol.max_violation > FEAS_TOL:
        raise InternalError(f"transportation LP point breaks its rows by {sol.max_violation:.3g}")
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


def adapt_marginals(pi: DiscreteCoupling, mu2: DiscreteMeasure, nu2: DiscreteMeasure,
                    p: float = 1.0) -> DiscreteCoupling:
    """Push a coupling onto new marginals through monotone transport kernels.

    Each support point (x1, x2) of ``pi`` spreads its mass according to the
    conditional laws of the monotone plans mu -> mu2 and nu -> nu2.  The output
    lies in Pi(mu2, nu2) and moves no further from ``pi`` than
    W_p(mu, mu2) + W_p(nu, nu2); the same quantity bounds the output's
    barycentre deviation when ``pi`` is a martingale coupling.
    """
    _require_p(p)
    mu, nu = pi.first_marginal, pi.second_marginal
    z = optimal_coupling_1d(mu, mu2).matrix / mu.weights[:, None]
    h = optimal_coupling_1d(nu, nu2).matrix / nu.weights[:, None]
    mu_index = {float(a): i for i, a in enumerate(mu.atoms)}
    nu_index = {float(b): j for j, b in enumerate(nu.atoms)}
    mass = np.zeros((len(mu2), len(nu2)))
    for x1, x2, w in zip(pi.x1, pi.x2, pi.w):
        row = z[mu_index[float(x1)]]
        col = h[nu_index[float(x2)]]
        mass += w * np.outer(row, col)
    # quantile pairings of nearly identical cumulative weights can leave
    # sub-rounding slivers; drop them so matching marginals act as identity
    points = [(mu2.atoms[i], nu2.atoms[j], mass[i, j])
              for i, j in zip(*np.nonzero(mass > MASS_DROP_TOL))]
    return make_coupling(points)
