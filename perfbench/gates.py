"""Correctness gates that do not trust the solver under test.

Every check works on plain ``(x1, x2, mass)`` arrays with numpy arithmetic
only, so a defect in the package's LP, measures or rearrangement code cannot
make its own output look right.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9  # relative tolerance of the certified-value comparisons
MASS_TOL = 1e-9  # absolute tolerance on marginal masses (total mass is 1)


def points_of(coupling) -> np.ndarray:
    """(N, 3) array of a coupling's support points and masses."""
    return np.column_stack([coupling.x1, coupling.x2, coupling.w])


def close(a: float, b: float) -> bool:
    """Equal to REL_TOL relative to the larger magnitude (absolute below 1)."""
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _marginal(x: np.ndarray, w: np.ndarray):
    atoms, idx = np.unique(x, return_inverse=True)
    return atoms, np.bincount(idx, weights=w)


def marginal_kept(atoms: np.ndarray, mass: np.ndarray, x: np.ndarray, w: np.ndarray) -> bool:
    """The law of ``x`` under masses ``w`` is the measure (atoms, mass): every
    location sits on an atom (to 1e-12 relative) and every atom gets its mass."""
    got_atoms, got_mass = _marginal(x, w)
    slot = np.clip(np.searchsorted(atoms, got_atoms), 0, len(atoms) - 1)
    left = np.maximum(slot - 1, 0)
    slot = np.where(np.abs(got_atoms - atoms[left]) < np.abs(got_atoms - atoms[slot]), left, slot)
    if np.any(np.abs(got_atoms - atoms[slot]) > 1e-12 * (1.0 + float(np.max(np.abs(atoms))))):
        return False
    placed = np.bincount(slot, weights=got_mass, minlength=len(atoms))
    return bool(np.max(np.abs(placed - mass)) <= MASS_TOL)


def marginals_kept(src: np.ndarray, out: np.ndarray) -> bool:
    """Both marginals of the coupling ``out`` equal those of ``src``."""
    return all(marginal_kept(*_marginal(src[:, axis], src[:, 2]), out[:, axis], out[:, 2])
               for axis in (0, 1))


def martingale_residual(pts: np.ndarray) -> float:
    """Largest conditional-mean shift |E[x2 | x1] - x1| over the atoms x1."""
    atoms, idx = np.unique(pts[:, 0], return_inverse=True)
    mass = np.bincount(idx, weights=pts[:, 2])
    shift = np.bincount(idx, weights=(pts[:, 1] - pts[:, 0]) * pts[:, 2])
    return float(np.max(np.abs(shift / mass)))


def deviation(pts: np.ndarray) -> float:
    """Barycentre deviation: sum over x1 of |E[(x2 - x1) 1{x1}]|."""
    _, idx = np.unique(pts[:, 0], return_inverse=True)
    return float(np.sum(np.abs(np.bincount(idx, weights=(pts[:, 1] - pts[:, 0]) * pts[:, 2]))))


def _w1(a_atoms, a_mass, b_atoms, b_mass) -> float:
    """W1 between two discrete laws on the line: the integral of |F - G|."""
    grid = np.union1d(a_atoms, b_atoms)
    f = np.cumsum(np.bincount(np.searchsorted(grid, a_atoms), a_mass, len(grid)))
    g = np.cumsum(np.bincount(np.searchsorted(grid, b_atoms), b_mass, len(grid)))
    return float(np.sum(np.abs(f - g)[:-1] * np.diff(grid)))


def kernelwise_w1(src: np.ndarray, out: np.ndarray) -> float:
    """sum over x1 of mu(x1) * W1(law of x2 under src, law of x2 under out),
    both conditioned on x1: the inner cost of the identity outer plan."""
    total = 0.0
    for x1 in np.unique(src[:, 0]):
        a = src[src[:, 0] == x1]
        b = out[out[:, 0] == x1]
        if len(b) == 0:
            return float("inf")
        wa, wb = a[:, 2].sum(), b[:, 2].sum()
        total += wa * _w1(a[:, 1], a[:, 2] / wa, b[:, 1], b[:, 2] / wb)
    return total


def check_projection(src, out, value, tol_mart, exact=None) -> list:
    """Gates for one projection; returns the names of the gates missed."""
    dev = deviation(src)
    missed = []
    if not marginals_kept(src, out):
        missed.append("marginals")
    if martingale_residual(out) > tol_mart:
        missed.append("martingale")
    if dev > value and not close(dev, value):
        missed.append("sandwich")
    if not close(kernelwise_w1(src, out), value):
        missed.append("witness_cost")
    if exact is not None and not (close(dev, exact["epsilon"])
                                  and close(value, exact["projection"])):
        missed.append("family_exact")
    return missed


def check_rearrangement(src, out, summary, tol_mart, exact=None) -> list:
    """Gates for one rearrangement summary as written by the CLI."""
    dev = deviation(src)
    bound = summary["cost_bound"]
    missed = []
    if not marginals_kept(src, out):
        missed.append("marginals")
    if martingale_residual(out) > tol_mart:
        missed.append("martingale")
    if not close(summary["epsilon_initial"], dev):
        missed.append("deviation")
    if dev > bound and not close(dev, bound):
        missed.append("sandwich")
    if exact is not None and not (close(dev, exact["epsilon"])
                                  and close(bound, exact["projection"])):
        missed.append("family_exact")
    return missed


def check_mot_bundle(src, mu, nu, opt, result, tol_mart) -> list:
    """Gates for one mot-batch pair: ``opt`` is the MOT optimizer's points,
    ``result`` holds the MOT and penalized values, the monotonicity
    violations and the nested distance from ``src`` to the optimizer."""
    missed = []
    if not (marginal_kept(mu.atoms, mu.weights, opt[:, 0], opt[:, 2])
            and marginal_kept(nu.atoms, nu.weights, opt[:, 1], opt[:, 2])):
        missed.append("marginals")
    if martingale_residual(opt) > tol_mart:
        missed.append("martingale")
    if not close(float(np.sum(np.abs(opt[:, 1] - opt[:, 0]) * opt[:, 2])), result["value"]):
        missed.append("optimizer_cost")
    if not close(result["value"], result["penalized"]):
        missed.append("mot_equals_penalized")
    if result["violations"]:
        missed.append("monotonicity")
    # the optimizer is a martingale coupling of the same marginals, so the
    # deviation of src bounds its nested distance from below
    dev = deviation(src)
    if result["distance"] < dev and not close(result["distance"], dev):
        missed.append("distance_below_deviation")
    return missed
