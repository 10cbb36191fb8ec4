"""Differential tests of the projection LP against an independent reference.

The reference is the per-point formulation of the projection: one inner
transport plan per (support point, second-marginal atom) pair, tied to the
target coupling row it is paired with.  It is solved by HiGHS, so neither the
formulation nor the solver is shared with the cumulative-distribution LP
under test.
"""

import itertools

import numpy as np
import pytest

from motline import (
    example1_family1,
    example1_family2,
    make_coupling,
    make_measure,
    project_bruteforce,
    project_to_martingale,
    random_convex_pair,
    random_coupling,
)
from motline.errors import InternalError
from motline.lp import LpSolution
from motline.nested import _projection_lp

from conftest import highs

wasserstein_distance = pytest.importorskip("scipy.stats").wasserstein_distance

REL = 1e-9


def pointwise_projection_value(pi, pairing=None):
    """Per-point projection LP: inner plans rho[i][a, b] from the support point
    (x1_i, x2_a) to the atom y_b, whose target marginals are the paired target
    row, plus the martingale target coupling itself; solved with HiGHS."""
    mu, nu = pi.first_marginal, pi.second_marginal
    m, k = len(mu), len(nu)
    if pairing is None:
        pairing = list(range(m))
    items = pi.kernel_items()
    sizes = [len(kernel) for _, _, kernel in items]
    offsets = np.concatenate([[0], np.cumsum(sizes) * k])
    tgt0 = int(offsets[-1])
    n_vars = tgt0 + m * k
    rows, rhs = [], []
    cost = np.zeros(n_vars)
    for i, (_, weight, kernel) in enumerate(items):
        for a, x2 in enumerate(kernel.atoms):
            row = np.zeros(n_vars)
            start = offsets[i] + a * k
            row[start : start + k] = 1.0
            rows.append(row)
            rhs.append(weight * kernel.weights[a])
            cost[start : start + k] = np.abs(x2 - nu.atoms)
        for b in range(k):
            row = np.zeros(n_vars)
            row[offsets[i] + b : offsets[i + 1] : k] = 1.0
            row[tgt0 + pairing[i] * k + b] = -1.0
            rows.append(row)
            rhs.append(0.0)
    for b in range(k):
        row = np.zeros(n_vars)
        row[tgt0 + b :: k] = 1.0
        rows.append(row)
        rhs.append(nu.weights[b])
    for r in range(m):
        row = np.zeros(n_vars)
        row[tgt0 + r * k : tgt0 + (r + 1) * k] = nu.atoms - mu.atoms[r]
        rows.append(row)
        rhs.append(0.0)
    res = highs(cost, np.array(rows), np.array(rhs))
    assert res.status == 0, res.message
    return float(res.fun)


def transformed(pi, scale, shift):
    return make_coupling([(scale * a + shift, scale * b + shift, w)
                          for a, b, w in zip(pi.x1, pi.x2, pi.w)])


def kernelwise_w1(pi, rho):
    """sum_i mu_i W1(pi(x1_i, .), rho(x1_i, .)) over the shared first marginal."""
    total = 0.0
    for (x1, weight, kernel), (y1, _, other) in zip(pi.kernel_items(), rho.kernel_items()):
        assert x1 == y1
        total += weight * wasserstein_distance(kernel.atoms, other.atoms,
                                               kernel.weights, other.weights)
    return total


def assert_matches_reference(pi):
    result = project_to_martingale(pi)
    expected = pointwise_projection_value(pi)
    assert result.value == pytest.approx(expected, rel=REL, abs=1e-15)
    assert kernelwise_w1(pi, result.projected) == pytest.approx(result.value, rel=REL,
                                                                abs=1e-15)


@pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (1e-3, 0.0), (1.0, 25.0), (1e-3, -0.04),
                                          (1.0, 412.0), (1e-3, -0.0375)])
def test_projection_matches_pointwise_reference_seeded(scale, shift):
    for seed in range(12):
        m = 3 + seed % 6
        mu, nu = random_convex_pair(seed, m=m, k=m + 1 + seed % 4, radius=1.0)
        assert_matches_reference(transformed(random_coupling(seed + 70, mu, nu), scale, shift))


def test_projection_matches_pointwise_reference_on_families():
    for n in range(2, 7):
        pi, expected = example1_family1(n)
        assert_matches_reference(pi)
        assert project_to_martingale(pi).value == pytest.approx(expected["projection"], rel=REL)
    for n in range(1, 4):
        pi, expected = example1_family2(n)
        assert_matches_reference(pi)
        assert project_to_martingale(pi).value == pytest.approx(expected["projection"], rel=REL)


def _uniform_mu_coupling(seed, m):
    """Random coupling with a uniform first marginal, each atom spread
    symmetrically in the second marginal so convex order holds."""
    mu, _ = random_convex_pair(seed, m=m, k=m + 3)
    uniform = make_measure(mu.atoms, [1.0 / m] * m)
    nu = make_measure([a + s for a in mu.atoms for s in (-1.5, 1.5)], [0.5 / m] * (2 * m))
    return random_coupling(seed + 3, uniform, nu)


@pytest.mark.parametrize("m", [2, 3])
def test_every_bruteforce_pairing_matches_reference(m):
    for seed in range(4):
        pi = _uniform_mu_coupling(900 + seed, m)
        mu = pi.first_marginal
        best = np.inf
        for perm in itertools.permutations(range(m)):
            inner, _ = _projection_lp(pi, pairing=list(perm))
            expected = pointwise_projection_value(pi, pairing=list(perm))
            assert inner == pytest.approx(expected, rel=REL, abs=1e-15)
            outer = float(np.dot(mu.weights, np.abs(mu.atoms - mu.atoms[list(perm)])))
            best = min(best, outer + expected)
        assert project_bruteforce(pi) == pytest.approx(best, rel=REL)


def test_projection_lp_columns_do_not_depend_on_support_size(monkeypatch):
    import motline.nested as nested

    shapes = []
    original = nested.solve_lp

    def record(lp, start=None):
        shapes.append(lp.a_eq.shape)
        return original(lp, start=start)

    monkeypatch.setattr(nested, "solve_lp", record)
    mu, nu = random_convex_pair(3, m=4, k=7)
    sparse = random_coupling(5, mu, nu, blend=1)
    dense = random_coupling(5, mu, nu, blend=6)
    assert len(dense) > len(sparse)
    project_to_martingale(sparse)
    project_to_martingale(dense)
    m, k = 4, 7
    assert shapes == [(m * (k - 1) + 2 * m + k, m * k + 2 * m * (k - 1))] * 2


def test_projection_lp_rejects_point_that_breaks_its_rows(monkeypatch):
    import motline.nested as nested

    original = nested.solve_lp

    def off_rows(lp, start=None):
        sol = original(lp, start=start)
        return LpSolution(sol.status, sol.x, sol.objective, max_violation=2e-3)

    monkeypatch.setattr(nested, "solve_lp", off_rows)
    mu, nu = random_convex_pair(3, m=4, k=7)
    with pytest.raises(InternalError, match="breaks its rows"):
        project_to_martingale(random_coupling(5, mu, nu))


def test_projection_rejects_target_that_loses_a_first_marginal_atom(monkeypatch):
    import motline.nested as nested

    original = nested._projection_lp

    def merge_first_row(pi, pairing=None):
        value, target = original(pi, pairing)
        target = target.copy()
        target[1] += target[0]
        target[0] = 0.0
        return value, target

    monkeypatch.setattr(nested, "_projection_lp", merge_first_row)
    mu, nu = random_convex_pair(3, m=4, k=7)
    with pytest.raises(InternalError, match="first marginal"):
        project_to_martingale(random_coupling(5, mu, nu))
