"""Instance generators, counterexample families, and experiment drivers.

Random generation is backed by the standard library Mersenne Twister
(``random.Random``), which is seedable, portable, and has documented
constants, so every generator is bit-reproducible per seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, InternalError
from .measures import (
    DiscreteCoupling,
    DiscreteMeasure,
    convex_order,
    make_coupling,
    make_measure,
)
from .mot import CostSpec, mot_solve
from .nested import nd_lower_bound, project_to_martingale
from .transport import adapt_marginals, w_p_1d

MONOTONE_SLACK = 1e-9
_PERTURB_RETRIES = 50


def example1_family1(n: int):
    """First counterexample family: uniform marginals on 1..n, each interior
    atom split one step left/right, the two edge atoms split inward.

    Returns the coupling together with its exact deviation (1/n) and exact
    martingale-projection value ((n-1)/n).
    """
    if n < 2:
        raise InputError("family 1 needs n >= 2")
    half = 1.0 / (2 * n)
    points = [(1, 1, half), (1, 2, half), (n, n - 1, half), (n, n, half)]
    for i in range(2, n):
        points.append((i, i - 1, half))
        points.append((i, i + 1, half))
    expected = {"epsilon": 1.0 / n, "projection": (n - 1.0) / n}
    return make_coupling(points), expected


def example1_family2(n: int):
    """Second family: marginals uniform on {-n^2, ..., -n, 0, n, ..., n^2}
    (multiples of n), interior atoms split one grid step either way, edges
    split inward.  Deviation n/(2n+1); projection value 2n^2/(2n+1)."""
    if n < 1:
        raise InputError("family 2 needs n >= 1")
    half = 1.0 / (2 * (2 * n + 1))
    points = [(-n * n, -n * n, half), (-n * n, -n * (n - 1), half),
              (n * n, n * (n - 1), half), (n * n, n * n, half)]
    for i in range(-n + 1, n):
        points.append((i * n, (i - 1) * n, half))
        points.append((i * n, (i + 1) * n, half))
    expected = {"epsilon": n / (2.0 * n + 1), "projection": 2.0 * n * n / (2 * n + 1)}
    return make_coupling(points), expected


def random_convex_pair(seed: int, m: int, k: int, radius: float = 10.0):
    """Convex-ordered pair: draw nu, then take mu as the law of the
    conditional expectation of nu over a random m-block partition of its
    atoms.  The construction guarantees mu below nu in convex order."""
    if not 1 <= m <= k:
        raise InputError("need 1 <= m <= k")
    rng = random.Random(seed)
    atoms = []
    while len(atoms) < k:
        x = rng.uniform(-radius, radius)
        if all(abs(x - y) > 1e-3 * radius for y in atoms):
            atoms.append(x)
    weights = [rng.uniform(0.2, 1.0) for _ in range(k)]
    nu = make_measure(atoms, weights)

    indices = list(range(k))
    rng.shuffle(indices)
    blocks = [[indices[b]] for b in range(m)]
    for idx in indices[m:]:
        blocks[rng.randrange(m)].append(idx)
    mu_atoms, mu_weights = [], []
    for block in blocks:
        w = sum(float(nu.weights[i]) for i in block)
        mu_atoms.append(sum(float(nu.atoms[i] * nu.weights[i]) for i in block) / w)
        mu_weights.append(w)
    return make_measure(mu_atoms, mu_weights), nu


def random_coupling(seed: int, mu: DiscreteMeasure, nu: DiscreteMeasure,
                    blend: int = 3) -> DiscreteCoupling:
    """Random element of Pi(mu, nu): a mixture of greedy fill plans built on
    independently shuffled atom orders.  Marginals are exact."""
    rng = random.Random(seed)
    m, k = len(mu), len(nu)
    total = np.zeros((m, k))
    for _ in range(max(1, blend)):
        rows = list(range(m))
        cols = list(range(k))
        rng.shuffle(rows)
        rng.shuffle(cols)
        left = [float(w) for w in mu.weights]
        right = [float(w) for w in nu.weights]
        i = j = 0
        while i < m and j < k:
            take = min(left[rows[i]], right[cols[j]])
            total[rows[i], cols[j]] += take / max(1, blend)
            left[rows[i]] -= take
            right[cols[j]] -= take
            if left[rows[i]] <= 0:
                i += 1
            if right[cols[j]] <= 0:
                j += 1
    points = [(mu.atoms[i], nu.atoms[j], total[i, j])
              for i, j in zip(*np.nonzero(total > 0))]
    return make_coupling(points)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Rows of one perturbation sweep plus run metadata.

    Rows are dictionaries sharing a fixed key set and are sorted by the
    perturbation scale, largest first.
    """

    rows: tuple
    metadata: dict

    @property
    def monotone(self) -> bool:
        """Weak decrease of |delta| along shrinking scales (1e-9 slack)."""
        deltas = [row["delta"] for row in self.rows if row.get("ok", True) and "delta" in row]
        return all(deltas[i] + MONOTONE_SLACK >= deltas[i + 1] for i in range(len(deltas) - 1))

    def to_csv(self) -> str:
        if not self.rows:
            return ""
        keys = list(self.rows[0])
        lines = [",".join(keys)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(row[key]) for key in keys))
        return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _spread_atoms(atoms: np.ndarray, centre: float, magnitudes: Sequence[float],
                  h: float, outward: bool) -> np.ndarray:
    """Shift each atom away from (or toward) the centre by h times its
    magnitude; the mean is not preserved (``_perturb_measure`` re-centres)."""
    direction = np.sign(atoms - centre)
    direction[direction == 0] = 1.0
    if not outward:
        direction = -direction
    shifted = atoms + h * np.asarray(magnitudes) * direction
    return shifted


def _perturb_measure(rng: random.Random, base: DiscreteMeasure, h: float,
                     against: Optional[DiscreteMeasure], outward: bool,
                     magnitudes: Sequence[float]):
    """Outward (or inward) perturbation with mean re-centering, redrawn until
    convex order against the partner measure is restored.

    Magnitudes are kept at most h/2 so the re-centered displacement of every
    atom stays within h."""
    mags = list(magnitudes)
    for _ in range(_PERTURB_RETRIES):
        shifted = _spread_atoms(base.atoms, base.mean, mags, h, outward)
        candidate = make_measure(shifted, base.weights)
        candidate = make_measure(candidate.atoms - (candidate.mean - base.mean),
                                 candidate.weights)
        if against is None:
            return candidate
        ordered = convex_order(against, candidate) if outward else convex_order(candidate, against)
        if ordered:
            return candidate
        mags = [rng.uniform(0.0, 0.5) for _ in base.atoms]
    return None


def continuity_sweep(mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostSpec,
                     p: float, scales: Sequence[float], seed: int) -> SweepResult:
    """Martingale-transport value under shrinking perturbations of nu.

    One outward direction vector is drawn per seed and scaled by each h, so
    the perturbed family moves along a fixed path; each row reports the
    marginal displacements and |delta| = |C_h - C|.  Rows where convex order
    could not be restored are marked not ok.
    """
    if not convex_order(mu, nu):
        raise InputError("marginals must be in convex order")
    rng = random.Random(seed)
    magnitudes = [rng.uniform(0.25, 0.5) for _ in nu.atoms]
    base_value, _ = mot_solve(mu, nu, cost)
    rows = []
    for h in sorted(scales, reverse=True):
        if h == 0:
            rows.append({"h": 0.0, "w_mu": 0.0, "w_nu": 0.0,
                         "value": base_value, "delta": 0.0, "ok": True})
            continue
        nu_h = _perturb_measure(rng, nu, h, mu, outward=True, magnitudes=magnitudes)
        if nu_h is None:
            rows.append({"h": float(h), "w_mu": 0.0, "w_nu": float("nan"),
                         "value": float("nan"), "delta": float("nan"), "ok": False})
            continue
        value, _ = mot_solve(mu, nu_h, cost)
        rows.append({
            "h": float(h),
            "w_mu": 0.0,
            "w_nu": w_p_1d(nu, nu_h, p),
            "value": value,
            "delta": abs(value - base_value),
            "ok": True,
        })
    return SweepResult(tuple(rows), {"cost": cost.kind, "p": float(p), "seed": seed})


def projection_stability(pi: DiscreteCoupling, scales: Sequence[float],
                         seed: int) -> SweepResult:
    """Deviation and projection value of a coupling pushed onto perturbed
    marginals (mu shrunk toward its mean, nu spread outward, both by <= h).

    Every row is checked against the certified sandwich: the deviation never
    exceeds the projection value.  A violation raises, signalling a defect.
    """
    mu, nu = pi.first_marginal, pi.second_marginal
    if not convex_order(mu, nu):
        raise InputError("marginals must be in convex order")
    rng = random.Random(seed)
    mags_mu = [rng.uniform(0.25, 0.5) for _ in mu.atoms]
    mags_nu = [rng.uniform(0.25, 0.5) for _ in nu.atoms]
    rows = []
    for h in sorted(scales, reverse=True):
        if h == 0:
            mu_h, nu_h = mu, nu
        else:
            mu_h = _perturb_measure(rng, mu, h, None, outward=False, magnitudes=mags_mu)
            nu_h = _perturb_measure(rng, nu, h, mu_h, outward=True, magnitudes=mags_nu)
            if nu_h is None or not convex_order(mu_h, nu_h):
                rows.append({"h": float(h), "w_mu": float("nan"), "w_nu": float("nan"),
                             "epsilon": float("nan"), "projection": float("nan"),
                             "delta": float("nan"), "ok": False})
                continue
        pi_h = adapt_marginals(pi, mu_h, nu_h)
        eps_h = nd_lower_bound(pi_h)
        proj_h = project_to_martingale(pi_h).value
        if eps_h > proj_h + 1e-9:
            raise InternalError("sandwich violated: deviation exceeds projection value")
        rows.append({
            "h": float(h),
            "w_mu": w_p_1d(mu, mu_h, 1.0),
            "w_nu": w_p_1d(nu, nu_h, 1.0),
            "epsilon": eps_h,
            "projection": proj_h,
            "delta": proj_h,
            "ok": True,
        })
    return SweepResult(tuple(rows), {"p": 1.0, "seed": seed})
