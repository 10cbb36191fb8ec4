"""Shared test oracles and instance helpers.

The oracles here are deliberately independent of the library's own solvers:
vertex enumeration goes through numpy least squares, 1-D transport costs are
cross-checked against LPs built from scratch, and so on.
"""

import itertools

import numpy as np
import pytest

from motline import make_coupling, make_measure, random_convex_pair, random_coupling


def vertex_minimum(a_eq, b_eq, objective, tol=1e-9):
    """Brute-force LP oracle: minimum of the objective over all basic feasible
    solutions of an equality-constrained program with nonnegative variables."""
    a_eq = np.asarray(a_eq, float)
    b_eq = np.asarray(b_eq, float)
    objective = np.asarray(objective, float)
    n = a_eq.shape[1]
    rank = int(np.linalg.matrix_rank(a_eq, tol=tol))
    best = np.inf
    for cols in itertools.combinations(range(n), rank):
        sub = a_eq[:, cols]
        x, _, rnk, _ = np.linalg.lstsq(sub, b_eq, rcond=None)
        if rnk < rank or np.linalg.norm(sub @ x - b_eq) > tol or np.any(x < -tol):
            continue
        full = np.zeros(n)
        full[list(cols)] = np.maximum(x, 0.0)
        best = min(best, float(objective @ full))
    return best


def highs(objective, a_eq, b_eq):
    """HiGHS on min c.x s.t. a_eq x = b_eq, x >= 0, with feasibility
    tolerances of 1e-10.  Its default tolerances are absolute (1e-7), so on
    masses and atoms of order 1e-3 its optimum is off by 1e-4 relative and it
    would flag a correct solver."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    return linprog(objective, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                   options={"primal_feasibility_tolerance": 1e-10,
                            "dual_feasibility_tolerance": 1e-10})


def transport_system(source_w, target_w):
    """Equality system of the transportation polytope."""
    n1, n2 = len(source_w), len(target_w)
    a = np.zeros((n1 + n2, n1 * n2))
    for i in range(n1):
        a[i, i * n2 : (i + 1) * n2] = 1.0
    for j in range(n2):
        a[n1 + j, j::n2] = 1.0
    return a, np.concatenate([source_w, target_w])


def transport_bruteforce(cost, source_w, target_w):
    """Transportation LP value by exhaustive vertex enumeration."""
    a, b = transport_system(source_w, target_w)
    return vertex_minimum(a, b, np.asarray(cost, float).ravel())


def coupling_cost(pi, fn):
    return sum(w * fn(a, b) for a, b, w in zip(pi.x1, pi.x2, pi.w))


@pytest.fixture
def family1():
    from motline import example1_family1

    return example1_family1


@pytest.fixture
def family2():
    from motline import example1_family2

    return example1_family2


def seeded_pair(seed, m=None, k=None, radius=10.0):
    if m is None:
        m = 2 + seed % 4
    if k is None:
        k = m + 1 + seed % 3
    return random_convex_pair(seed, m=m, k=k, radius=radius)


def seeded_instance(seed, radius=10.0):
    """Random coupling with convex-ordered marginals (|mu| <= 6, |nu| <= 8)."""
    m = 2 + seed % 5
    k = m + 1 + seed % 3
    mu, nu = random_convex_pair(seed, m=m, k=k, radius=radius)
    return random_coupling(seed + 10_000, mu, nu)
