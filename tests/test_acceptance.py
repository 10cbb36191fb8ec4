"""Acceptance suite: one test per criterion, printed pass lines included.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary.  Tolerances are fixed here and nowhere else.
"""

import itertools
import random

import numpy as np
import pytest

from motline import (
    CascadeStep,
    CostSpec,
    KappaSpec,
    SwitchStep,
    check_dispersion,
    convex_order,
    example1_family1,
    example1_family2,
    hoeffding_frechet,
    is_martingale,
    kappa_objective,
    kappa_solve_bruteforce,
    make_coupling,
    make_measure,
    martingale_vertices,
    monotonicity_check,
    mot_solve,
    nd_lower_bound,
    nested_w_p,
    penalized_ot,
    point_mass,
    project_bruteforce,
    project_to_martingale,
    random_convex_pair,
    random_coupling,
    rearrange,
    solve_transport,
    strassen_feasible,
    w_p_1d,
)
from motline.lab import continuity_sweep
from motline.lp import LinearProgram, solve_lp

from conftest import coupling_cost, transport_bruteforce, transport_system


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_01_family1_values():
    for n in range(2, 11):
        pi, _ = example1_family1(n)
        assert abs(nd_lower_bound(pi) - 1.0 / n) <= 1e-12
        assert abs(project_to_martingale(pi).value - (n - 1.0) / n) <= 1e-7
        assert abs(rearrange(pi).cost_bound - (n - 1.0) / n) <= 1e-7
    _report(1, "family 1, n=2..10: deviation 1/n, projection and bound (n-1)/n")


def test_criterion_02_family2_values():
    for n in range(1, 7):
        pi, _ = example1_family2(n)
        assert abs(nd_lower_bound(pi) - n / (2.0 * n + 1)) <= 1e-12
        assert abs(project_to_martingale(pi).value - 2.0 * n * n / (2 * n + 1)) <= 1e-7
    _report(2, "family 2, n=1..6: deviation n/(2n+1), projection 2n^2/(2n+1)")


def test_criterion_03_sandwich_on_random_instances():
    for seed in range(200):
        m = 2 + seed % 5  # <= 6
        k = m + 1 + seed % 3  # <= 8
        mu, nu = random_convex_pair(1000 + seed, m=m, k=k, radius=10.0)
        pi = random_coupling(2000 + seed, mu, nu)
        eps = nd_lower_bound(pi)
        value = project_to_martingale(pi).value
        bound = rearrange(pi).cost_bound
        assert eps - 1e-9 <= value
        assert value <= bound + 1e-7
    _report(3, "200 random instances: deviation <= projection <= rearrangement bound")


def test_criterion_04_dispersion_equality():
    for seed in range(100):
        mu, nu = random_convex_pair(3000 + seed, m=2 + seed % 5, k=6 + seed % 3, radius=10.0)
        pi = hoeffding_frechet(mu, nu)
        eps = nd_lower_bound(pi)
        result = rearrange(pi)
        assert abs(result.cost_bound - eps) <= 1e-7
        assert abs(project_to_martingale(pi).value - eps) <= 1e-7
        assert all(isinstance(step, SwitchStep) for step in result.trace)
    _report(4, "100 quantile couplings: projection = bound = deviation, switches only")


def test_criterion_05_quantile_coupling_dispersion():
    for seed in range(500):
        mu, nu = random_convex_pair(4000 + seed, m=2 + seed % 5, k=6 + seed % 3, radius=10.0)
        assert check_dispersion(hoeffding_frechet(mu, nu))
    _report(5, "500 quantile couplings of convex-ordered pairs pass the dispersion test")


def test_criterion_06_strassen_agreement():
    checked = 0
    for seed in range(250):
        mu, nu = random_convex_pair(5000 + seed, m=2 + seed % 4, k=5 + seed % 4, radius=10.0)
        assert convex_order(mu, nu)
        assert strassen_feasible(mu, nu)
        assert strassen_feasible(nu, mu) == convex_order(nu, mu)
        checked += 2
    assert checked == 500
    _report(6, "500 pairs (ordered and reversed): LP feasibility = convex-order test")


def test_criterion_07_quadratic_identity():
    for seed in range(100):
        mu, nu = random_convex_pair(6000 + seed, m=2 + seed % 4, k=5 + seed % 4, radius=10.0)
        value, _ = mot_solve(mu, nu, CostSpec.squared())
        assert abs(value - (nu.moment(2) - mu.moment(2))) <= 1e-9
    _report(7, "100 instances: squared-cost value equals the second-moment gap")


def test_criterion_08_penalized_equals_mot():
    for seed in range(50):
        mu, nu = random_convex_pair(7000 + seed, m=2 + seed % 4, k=5 + seed % 3, radius=10.0)
        direct, _ = mot_solve(mu, nu, CostSpec.absolute())
        relaxed = penalized_ot(mu, nu, CostSpec.absolute(), 1.0)
        assert abs(direct - relaxed) <= 1e-7
    _report(8, "50 instances: penalized reformulation matches the martingale value")


def test_criterion_09_continuity():
    scales = [0.1, 0.01, 0.001]
    for seed in range(20):
        mu, nu = random_convex_pair(8000 + seed, m=2 + seed % 3, k=4 + seed % 4, radius=5.0)
        sweep = continuity_sweep(mu, nu, CostSpec.absolute(), 1.0, scales, seed)
        assert all(row["ok"] for row in sweep.rows)
        assert sweep.monotone
    # closed form: point mass vs symmetric two-point measure stretched by h
    for h in scales:
        value, _ = mot_solve(point_mass(0), make_measure([-1 - h, 1 + h], [0.5, 0.5]),
                             CostSpec.absolute())
        assert abs(value - (1 + h)) <= 1e-12
    _report(9, "20 sweeps weakly decreasing; stretched instance gives delta = h exactly")


def test_criterion_10_monotonicity_evidence():
    for seed in range(20):
        mu, nu = random_convex_pair(9000 + seed, m=2 + seed % 3, k=4 + seed % 3, radius=8.0)
        cost = CostSpec.absolute() if seed % 2 else CostSpec.call(0.5)
        _, optimal = mot_solve(mu, nu, cost)
        report = monotonicity_check(optimal, cost, samples=100, subset_size=4,
                                    rng_seed=seed, tol=1e-7)
        assert report.n_violations == 0
    suboptimal = make_coupling([(-1, -3, 0.25), (-1, 1, 0.25), (1, -1, 0.25), (1, 3, 0.25)])
    assert is_martingale(suboptimal)
    optimum, _ = mot_solve(suboptimal.first_marginal, suboptimal.second_marginal,
                           CostSpec.absolute())
    assert optimum < coupling_cost(suboptimal, lambda a, b: abs(b - a)) - 1e-6
    report = monotonicity_check(suboptimal, CostSpec.absolute(), samples=100,
                                subset_size=4, rng_seed=11, tol=1e-7)
    assert report.n_violations > 0
    _report(10, "optimizers give zero violations; planted suboptimal coupling is caught")


def test_criterion_11_cascade_mass_bound():
    worst = 0.0
    instances = [example1_family1(n)[0] for n in range(2, 11)]
    instances += [example1_family2(n)[0] for n in range(1, 7)]
    for seed in range(120):
        m = 2 + seed % 5
        mu, nu = random_convex_pair(1000 + seed, m=m, k=m + 1 + seed % 3, radius=10.0)
        instances.append(random_coupling(2000 + seed, mu, nu))
    cascades = 0
    for pi in instances:
        result = rearrange(pi)
        radius = result.support_radius
        for step in result.trace:
            if isinstance(step, CascadeStep):
                cascades += 1
                assert step.a * step.m**2 <= radius + 1e-9
                worst = max(worst, step.a * step.m**2 / radius)
    assert cascades > 0
    _report(11, f"{cascades} cascades: a * m^2 <= support radius (worst ratio {worst:.3f})")


def test_criterion_12_oracle_equivalence():
    # closed-form 1-D distance vs transport LP on 200 pairs
    for seed in range(200):
        p = [1.0, 1.5, 2.0][seed % 3]
        mu, nu = random_convex_pair(seed, m=2 + seed % 3, k=4 + seed % 3, radius=10.0)
        cost = np.abs(mu.atoms[:, None] - nu.atoms[None, :]) ** p
        value, _ = solve_transport(cost, mu.weights, nu.weights)
        assert abs(w_p_1d(mu, nu, p) ** p - value) <= 1e-9
    # LP vs exhaustive vertex enumeration on 50 tiny transport programs
    rng = random.Random(12)
    for _ in range(50):
        n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
        sw = np.array([rng.uniform(0.1, 1.0) for _ in range(n1)])
        tw = np.array([rng.uniform(0.1, 1.0) for _ in range(n2)])
        sw /= sw.sum()
        tw /= tw.sum()
        cost = np.array([[rng.uniform(0.0, 5.0) for _ in range(n2)] for _ in range(n1)])
        a, b = transport_system(sw, tw)
        sol = solve_lp(LinearProgram(objective=cost.ravel(), a_eq=a, b_eq=b))
        assert abs(sol.objective - transport_bruteforce(cost, sw, tw)) <= 1e-9
    # unrestricted bicausal projection vs the diagonal restriction
    pyrng = random.Random(77)
    tested = 0
    while tested < 12:
        m = 2 + tested % 2
        atoms = sorted(pyrng.uniform(-5, 5) for _ in range(m))
        mu = make_measure(atoms, [1.0 / m] * m)
        pts = []
        for a, w in zip(mu.atoms, mu.weights):
            s = pyrng.uniform(0.5, 2.0)
            pts += [(a, a - s, w / 2), (a, a + s, w / 2)]
        nu = make_coupling(pts).second_marginal
        pi = random_coupling(500 + tested, mu, nu)
        brute = project_bruteforce(pi)
        diagonal = project_to_martingale(pi).value
        assert brute >= diagonal - 1e-9
        assert abs(brute - diagonal) <= 1e-9
        tested += 1
    _report(12, "closed form = LP (200), LP = vertex scan (50), brute bicausal = diagonal (12)")


def test_criterion_13_kappa_extension():
    for seed in range(50):
        mu, nu = random_convex_pair(9500 + seed, m=2 + seed % 3, k=4 + seed % 3, radius=8.0)
        pi = random_coupling(9600 + seed, mu, nu)
        reference = random_coupling(9700 + seed, mu, nu)
        cost = CostSpec.absolute()
        spec = KappaSpec(reference,
                                       lambda x1, x2, y2: float(cost.evaluate(x1, y2)))
        direct = coupling_cost(pi, lambda a, b: abs(b - a))
        assert abs(kappa_objective(pi, spec) - direct) <= 1e-9
    for seed in range(10):
        mu, nu = random_convex_pair(9800 + seed, m=2 + seed % 2, k=3 + seed % 2, radius=4.0)
        reference = random_coupling(9900 + seed, mu, nu)
        spec = KappaSpec(reference, lambda x1, x2, y2: abs(x2 - y2))
        value, _ = kappa_solve_bruteforce(spec, mu, nu)
        oracle = min(kappa_objective(vertex, spec)
                     for vertex in _independent_martingale_vertices(mu, nu))
        assert abs(value - oracle) <= 1e-9
    _report(13, "kernel objective matches plain cost (50); brute force = vertex scan (10)")


def _independent_martingale_vertices(mu, nu):
    """Vertex scan of the martingale polytope, written apart from the library's
    own enumeration: basis subsets solved by least squares."""
    m, k = len(mu), len(nu)
    rows = []
    rhs = []
    for i in range(m):
        row = np.zeros(m * k)
        row[i * k : (i + 1) * k] = 1.0
        rows.append(row)
        rhs.append(float(mu.weights[i]))
    for j in range(k):
        row = np.zeros(m * k)
        row[j::k] = 1.0
        rows.append(row)
        rhs.append(float(nu.weights[j]))
    for i in range(m):
        row = np.zeros(m * k)
        row[i * k : (i + 1) * k] = nu.atoms - mu.atoms[i]
        rows.append(row)
        rhs.append(0.0)
    a = np.array(rows)
    b = np.array(rhs)
    rank = int(np.linalg.matrix_rank(a, tol=1e-9))
    seen = set()
    for cols in itertools.combinations(range(m * k), rank):
        sub = a[:, cols]
        x, _, rnk, _ = np.linalg.lstsq(sub, b, rcond=None)
        if rnk < rank or np.linalg.norm(sub @ x - b) > 1e-9 or np.any(x < -1e-9):
            continue
        full = np.zeros(m * k)
        full[list(cols)] = np.maximum(x, 0.0)
        key = tuple(np.round(full, 9))
        if key in seen:
            continue
        seen.add(key)
        yield make_coupling([(mu.atoms[i], nu.atoms[j], full[i * k + j])
                             for i in range(m) for j in range(k)
                             if full[i * k + j] > 1e-12])
