"""Discrete probability measures on the line and couplings on the plane.

All value types are immutable after construction; every operation returns a
new value.  Locations closer than ``ATOM_MERGE_TOL`` are treated as one atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

ATOM_MERGE_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12
DEFAULT_TOL_MART = 1e-9
CONVEX_ORDER_TOL = 1e-10
MASS_DROP_TOL = 1e-15


def _merge_sorted(values: np.ndarray, weights: np.ndarray):
    """Collapse runs of near-equal sorted locations into weighted-mean atoms.

    Returns the atoms and the run bounds: atom r merges the inputs from
    bounds[r] up to bounds[r + 1].
    """
    atoms, bounds = [], [0]
    n = len(values)
    while bounds[-1] < n:
        i = bounds[-1]
        j = i + 1
        while j < n and values[j] - values[j - 1] <= ATOM_MERGE_TOL:
            j += 1
        if values[j - 1] == values[i]:  # keep exact locations exact
            atoms.append(float(values[i]))
        else:
            atoms.append(float(np.dot(values[i:j], weights[i:j]) / weights[i:j].sum()))
        bounds.append(j)
    return np.array(atoms), bounds


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure: sorted atoms with positive weights."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 1 or atoms.shape != weights.shape or atoms.size == 0:
            raise InputError("atoms and weights must be equal-length nonempty 1-D arrays")
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(weights))):
            raise InputError("non-finite atom or weight")
        if np.any(np.diff(atoms) <= 0):
            raise InputError("atoms must be strictly increasing")
        if np.any(weights <= 0):
            raise InputError("weights must be positive")
        if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise InputError("weights must sum to 1 within 1e-12")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return int(self.atoms.size)

    @property
    def mean(self) -> float:
        return float(np.dot(self.atoms, self.weights))

    def moment(self, k: int) -> float:
        return float(np.dot(self.atoms**k, self.weights))

    @property
    def support_radius(self) -> float:
        return float(np.max(np.abs(self.atoms)))


def make_measure(atoms: Sequence[float], weights: Sequence[float]) -> DiscreteMeasure:
    """Sort, merge duplicate locations, drop zero weights, renormalize to mass 1."""
    a = np.asarray(atoms, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if a.size == 0:
        raise InputError("empty atom list")
    if a.shape != w.shape:
        raise InputError("atoms and weights must have the same length")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(w))):
        raise InputError("non-finite atom or weight")
    if np.any(w < 0):
        raise InputError("negative weight")
    keep = w > 0
    a, w = a[keep], w[keep]
    if a.size == 0:
        raise InputError("total weight is zero")
    order = np.argsort(a, kind="stable")
    a, w = a[order], w[order]
    atoms, bounds = _merge_sorted(a, w)
    masses = np.array([w[i:j].sum() for i, j in zip(bounds, bounds[1:])])
    return DiscreteMeasure(atoms, masses / masses.sum())


def point_mass(x: float) -> DiscreteMeasure:
    return DiscreteMeasure(np.array([float(x)]), np.array([1.0]))


def _canonical_axis(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Snap near-equal coordinates to their weighted-mean representative."""
    order = np.argsort(values, kind="stable")
    atoms, bounds = _merge_sorted(values[order], weights[order])
    out = np.empty_like(values)
    out[order] = np.repeat(atoms, np.diff(bounds))
    return out


@dataclass(frozen=True, eq=False)
class DiscreteCoupling:
    """Finitely supported probability measure on the plane.

    Points are stored sorted lexicographically by (x1, x2) with no duplicate
    pairs; the marginals and the disintegration kernel x1 -> law(x2) are
    derived lazily and cached.
    """

    x1: np.ndarray
    x2: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        x1 = np.asarray(self.x1, dtype=float)
        x2 = np.asarray(self.x2, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if not (x1.shape == x2.shape == w.shape) or x1.ndim != 1 or x1.size == 0:
            raise InputError("x1, x2, w must be equal-length nonempty 1-D arrays")
        if not all(np.all(np.isfinite(v)) for v in (x1, x2, w)):
            raise InputError("non-finite coupling entry")
        if np.any(w <= 0):
            raise InputError("point masses must be positive")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise InputError("point masses must sum to 1 within 1e-12")
        order = np.lexsort((x2, x1))
        x1, x2, w = x1[order], x2[order], w[order]
        same = (np.diff(x1) == 0) & (np.diff(x2) == 0)
        if np.any(same):
            raise InputError("duplicate (x1, x2) support points")
        for arr in (x1, x2, w):
            arr.setflags(write=False)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "w", w)

    def __len__(self) -> int:
        return int(self.w.size)

    @cached_property
    def first_marginal(self) -> DiscreteMeasure:
        atoms, idx = np.unique(self.x1, return_inverse=True)
        weights = np.bincount(idx, weights=self.w)
        return DiscreteMeasure(atoms, weights / weights.sum())

    @cached_property
    def second_marginal(self) -> DiscreteMeasure:
        atoms, idx = np.unique(self.x2, return_inverse=True)
        weights = np.bincount(idx, weights=self.w)
        return DiscreteMeasure(atoms, weights / weights.sum())

    @cached_property
    def kernels(self) -> tuple:
        """Conditional laws of the second coordinate, one per first-marginal
        atom in order; kernel i is the slice of the sorted points at atom i."""
        mu = self.first_marginal
        bounds = np.searchsorted(self.x1, mu.atoms).tolist() + [len(self)]
        return tuple(DiscreteMeasure(self.x2[a:b], self.w[a:b] / weight)
                     for a, b, weight in zip(bounds, bounds[1:], mu.weights))

    def kernel(self, x1: float) -> DiscreteMeasure:
        """Conditional law of the second coordinate given the first."""
        atoms = self.first_marginal.atoms
        i = int(np.searchsorted(atoms, x1))
        if i == len(atoms) or atoms[i] != x1:
            raise InputError(f"{x1!r} is not an atom of the first marginal")
        return self.kernels[i]

    def kernel_items(self):
        """Iterate (x1 atom, its marginal weight, conditional law)."""
        mu = self.first_marginal
        return list(zip(mu.atoms.tolist(), mu.weights.tolist(), self.kernels))

    def planar_points(self):
        """Support as an (N, 2) array plus the mass vector."""
        return np.column_stack([self.x1, self.x2]), self.w


def make_coupling(points: Iterable[Sequence[float]]) -> DiscreteCoupling:
    """Build a coupling from (x1, x2, mass) triples.

    Coordinates within 1e-12 are snapped together, duplicate pairs merged,
    zero-mass points dropped and the total mass renormalized to 1.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.size == 0:
        raise InputError("empty point list")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InputError("points must be (x1, x2, mass) triples")
    if not np.all(np.isfinite(pts)):
        raise InputError("non-finite coupling entry")
    x1, x2, w = pts[:, 0], pts[:, 1], pts[:, 2]
    if np.any(w < 0):
        raise InputError("negative point mass")
    keep = w > 0
    x1, x2, w = x1[keep], x2[keep], w[keep]
    if w.size == 0:
        raise InputError("total mass is zero")
    x1 = _canonical_axis(x1, w)
    x2 = _canonical_axis(x2, w)
    order = np.lexsort((x2, x1))
    x1, x2, w = x1[order], x2[order], w[order]
    # merge exact duplicates produced by snapping
    new_group = np.concatenate([[True], (np.diff(x1) != 0) | (np.diff(x2) != 0)])
    gid = np.cumsum(new_group) - 1
    gx1 = x1[new_group]
    gx2 = x2[new_group]
    gw = np.bincount(gid, weights=w)
    return DiscreteCoupling(gx1, gx2, gw / gw.sum())


def product_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteCoupling:
    """Independent coupling mu (x) nu."""
    x1 = np.repeat(mu.atoms, len(nu))
    x2 = np.tile(nu.atoms, len(mu))
    w = np.outer(mu.weights, nu.weights).ravel()
    return DiscreteCoupling(x1, x2, w / w.sum())


def identity_coupling(mu: DiscreteMeasure) -> DiscreteCoupling:
    """Diagonal coupling of mu with itself."""
    return DiscreteCoupling(mu.atoms.copy(), mu.atoms.copy(), mu.weights.copy())


@dataclass(frozen=True, eq=False)
class BarycentreReport:
    """Per-atom conditional-mean deviations of a coupling and their classes.

    ``deviations[i]`` is the kernel barycentre shift at ``atoms[i]``; atoms are
    split into plus/zero/minus classes by comparing against ``tol_mart``.
    ``epsilon`` is the mu-weighted absolute total deviation.
    """

    atoms: np.ndarray
    deviations: np.ndarray
    weighted: np.ndarray
    epsilon: float
    plus: tuple
    zero: tuple
    minus: tuple

    def deviation(self, x1: float) -> float:
        idx = np.searchsorted(self.atoms, x1)
        if idx >= len(self.atoms) or self.atoms[idx] != x1:
            raise InputError(f"{x1!r} is not an atom of the first marginal")
        return float(self.deviations[idx])


def barycentre_report(pi: DiscreteCoupling, tol_mart: float = DEFAULT_TOL_MART) -> BarycentreReport:
    """Compute conditional-mean deviations, their weighted total, and classes."""
    mu = pi.first_marginal
    atoms, idx = np.unique(pi.x1, return_inverse=True)
    weighted = np.bincount(idx, weights=(pi.x2 - pi.x1) * pi.w)
    deviations = weighted / mu.weights
    epsilon = float(np.dot(mu.weights, np.abs(deviations)))
    plus = tuple(float(a) for a, d in zip(atoms, deviations) if d > tol_mart)
    minus = tuple(float(a) for a, d in zip(atoms, deviations) if d < -tol_mart)
    zero = tuple(float(a) for a, d in zip(atoms, deviations) if abs(d) <= tol_mart)
    return BarycentreReport(atoms, deviations, weighted, epsilon, plus, zero, minus)


def is_martingale(pi: DiscreteCoupling, tol_mart: float = DEFAULT_TOL_MART) -> bool:
    """True iff every conditional-mean deviation has magnitude <= tol_mart."""
    report = barycentre_report(pi, tol_mart)
    return not report.plus and not report.minus


def convex_order(mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = CONVEX_ORDER_TOL) -> bool:
    """Convex-order test: equal means and dominated call values at every atom,
    both within tol * max(1, nu's span), the frame of ``transport.unit_gaps``,
    plus a few ulps of the radius for the rounding of the atoms themselves.

    The call-value gap is piecewise linear with kinks only at atoms, so
    checking strikes in the union of the two supports is exact.
    """
    tol = (tol * max(1.0, float(nu.atoms[-1] - nu.atoms[0]))
           + 16 * np.finfo(float).eps * max(mu.support_radius, nu.support_radius))
    if abs(mu.mean - nu.mean) > tol:
        return False
    strikes = np.union1d(mu.atoms, nu.atoms)
    mu_calls = np.maximum(mu.atoms[None, :] - strikes[:, None], 0.0) @ mu.weights
    nu_calls = np.maximum(nu.atoms[None, :] - strikes[:, None], 0.0) @ nu.weights
    return bool(np.all(mu_calls <= nu_calls + tol))


def check_dispersion(pi: DiscreteCoupling, tol: float = DEFAULT_TOL_MART) -> bool:
    """Barycentre dispersion test: all upper tails of (x2 - x1) are >= -tol.

    The tail function is constant between atoms of the first marginal, so
    evaluating at those atoms is exact.
    """
    report = barycentre_report(pi)
    tails = np.cumsum(report.weighted[::-1])[::-1]
    return bool(np.all(tails >= -tol))


def is_monotone_support(pi: DiscreteCoupling) -> bool:
    """True iff x1 < y1 implies x2 <= y2 over all pairs of support points."""
    running_max = -np.inf
    for _, _, kernel in pi.kernel_items():
        if kernel.atoms[0] < running_max:
            return False
        running_max = max(running_max, float(kernel.atoms[-1]))
    return True


def quantile_cells(*weights):
    """Joint quantile staircase of weight vectors over sorted supports.

    Merges the cumulative weights of all the vectors, ties broken in argument
    order; each breakpoint but a vector's last steps that vector to its next
    atom.  Returns (index, mass): ``index[n, s]`` is the atom of vector n on
    segment s, ``mass[s]`` the segment's length.  Zero-length segments are
    kept: for two vectors they are the north-west-corner plan's degenerate
    basis cells.
    """
    cums = [list(accumulate(map(float, w))) for w in weights]
    at, upper, low = [0] * len(cums), [cum[0] for cum in cums], 0.0
    cells, mass = [tuple(at)], []
    for c, n in sorted((c, n) for n, cum in enumerate(cums) for c in cum[:-1]):
        mass.append(max(min(upper) - low, 0.0))
        at[n] += 1
        upper[n], low = cums[n][at[n]], c
        cells.append(tuple(at))
    mass.append(max(min(upper) - low, 0.0))
    return np.array(cells).T, np.array(mass)


def hoeffding_frechet(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteCoupling:
    """Comonotone (quantile) coupling; cells of mass at most MASS_DROP_TOL are dropped."""
    (i, j), mass = quantile_cells(mu.weights, nu.weights)
    keep = mass > MASS_DROP_TOL
    return make_coupling(zip(mu.atoms[i[keep]], nu.atoms[j[keep]], mass[keep]))
