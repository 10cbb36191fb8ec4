import random

import numpy as np
import pytest

from motline import (
    InputError,
    InternalError,
    LpSolution,
    adapt_marginals,
    barycentre_report,
    is_martingale,
    make_coupling,
    make_measure,
    optimal_coupling_1d,
    point_mass,
    random_convex_pair,
    random_coupling,
    solve_transport,
    w_p_1d,
    w_p_plane,
)

from motline.measures import MASS_DROP_TOL
from motline.transport import grid_rows, north_west_start

from conftest import transport_bruteforce, transport_system

TOL = 1e-9


@pytest.mark.parametrize("m, k", [(1, 1), (1, 4), (3, 1), (3, 5), (6, 4)])
def test_grid_rows_layout(m, k):
    rng = np.random.default_rng(m * 10 + k)
    extra = [rng.normal(size=(m, k)), rng.normal(size=(m, k))]
    rows = grid_rows(m, k, extra)
    assert rows.shape == (3 * m + k, m * k)
    assert np.array_equal(rows[: m + k], transport_system(np.ones(m), np.ones(k))[0])
    assert np.array_equal(grid_rows(m, k), rows[: m + k])
    # block n, row i: the i-th row of extra[n] on grid row i's columns, zero elsewhere
    for n, values in enumerate(extra):
        block = rows[m + k + n * m : m + k + (n + 1) * m].reshape(m, m, k)
        for i in range(m):
            assert np.array_equal(block[i, i], values[i])
            assert not np.any(np.delete(block[i], i, axis=0))


def test_w1_point_masses():
    assert abs(w_p_1d(point_mass(0), point_mass(1), 1) - 1.0) <= TOL


def test_w2_self_distance_zero():
    mu = make_measure([-1, 0, 3], [0.2, 0.5, 0.3])
    assert w_p_1d(mu, mu, 2) == 0.0


def test_w1_two_to_one():
    # oracle: the 2x1 transport LP has a single feasible plan of cost 1
    mu = make_measure([0, 2], [0.5, 0.5])
    assert abs(w_p_1d(mu, point_mass(1), 1) - 1.0) <= TOL


def test_w_p_rejects_p_below_one():
    mu = point_mass(0)
    with pytest.raises(InputError):
        w_p_1d(mu, mu, 0.5)
    with pytest.raises(InputError):
        w_p_plane(make_coupling([(0, 0, 1.0)]), make_coupling([(0, 0, 1.0)]), 0.5)


def test_closed_form_matches_lp():
    rng = random.Random(5)
    for trial in range(40):
        p = rng.choice([1.0, 1.5, 2.0])
        mu, nu = random_convex_pair(trial, m=2 + trial % 3, k=4 + trial % 3)
        cost = np.abs(mu.atoms[:, None] - nu.atoms[None, :]) ** p
        value, _ = solve_transport(cost, mu.weights, nu.weights)
        assert abs(w_p_1d(mu, nu, p) ** p - value) <= TOL


def test_optimal_coupling_1d_examples():
    nu = make_measure([-1, 0, 2], [0.2, 0.3, 0.5])
    plan = optimal_coupling_1d(point_mass(0), nu)
    assert np.allclose(plan.matrix, nu.weights[None, :])

    plan = optimal_coupling_1d(make_measure([0, 1], [0.5, 0.5]), make_measure([2, 3], [0.5, 0.5]))
    assert np.allclose(plan.matrix, np.diag([0.5, 0.5]))

    plan = optimal_coupling_1d(make_measure([0, 1], [0.25, 0.75]), make_measure([0, 2], [0.5, 0.5]))
    assert np.allclose(plan.matrix, [[0.25, 0.0], [0.25, 0.5]])


def test_sliver_cells_are_dropped_from_plans_and_kept_in_the_start_basis():
    # 0.1 + 0.2 and 0.3 differ by rounding only, which leaves a sliver cell
    mu = make_measure([0, 1, 2], [0.1, 0.2, 0.7])
    nu = make_measure([0.5, 1.5], [0.3, 0.7])
    start, plan = north_west_start(mu.weights, nu.weights)
    assert start[: len(mu) + len(nu) - 1].tolist() == [0, 2, 3, 5]
    assert 0 < plan[1, 1] <= MASS_DROP_TOL
    matrix = optimal_coupling_1d(mu, nu).matrix
    assert matrix[1, 1] == 0.0
    assert np.count_nonzero(matrix) == 3


def test_optimal_coupling_cost_matches_distance():
    for seed in range(10):
        mu, nu = random_convex_pair(seed, m=2 + seed % 4, k=4 + seed % 4)
        plan = optimal_coupling_1d(mu, nu)
        for p in (1.0, 2.0):
            assert abs(plan.cost_p(p) - w_p_1d(mu, nu, p) ** p) <= TOL


def test_w_p_plane_examples():
    pi = make_coupling([(0, 0, 1.0)])
    rho = make_coupling([(1, 1, 1.0)])
    assert w_p_plane(pi, pi, 1) <= TOL
    assert abs(w_p_plane(pi, rho, 1) - 2.0) <= TOL


def test_w_p_plane_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(10):
        pts_a = [(rng.uniform(-2, 2), rng.uniform(-2, 2), w) for w in (0.2, 0.3, 0.5)]
        pts_b = [(rng.uniform(-2, 2), rng.uniform(-2, 2), w) for w in (0.4, 0.4, 0.2)]
        pi, rho = make_coupling(pts_a), make_coupling(pts_b)
        a_pts, a_w = pi.planar_points()
        b_pts, b_w = rho.planar_points()
        cost = (np.abs(a_pts[:, None, 0] - b_pts[None, :, 0])
                + np.abs(a_pts[:, None, 1] - b_pts[None, :, 1]))
        assert abs(w_p_plane(pi, rho, 1) - transport_bruteforce(cost, a_w, b_w)) <= TOL


def test_triangle_inequality():
    for seed in range(8):
        mus = [random_convex_pair(seed * 3 + i, m=2, k=4)[1] for i in range(3)]
        for p in (1.0, 2.0):
            d01 = w_p_1d(mus[0], mus[1], p)
            d12 = w_p_1d(mus[1], mus[2], p)
            d02 = w_p_1d(mus[0], mus[2], p)
            assert d02 <= d01 + d12 + TOL


def test_adapt_marginals_identity():
    mu, nu = random_convex_pair(2, m=3, k=5)
    pi = random_coupling(3, mu, nu)
    out = adapt_marginals(pi, mu, nu)
    assert np.array_equal(out.x1, pi.x1) and np.array_equal(out.x2, pi.x2)
    assert np.max(np.abs(out.w - pi.w)) <= TOL


def test_adapt_marginals_point_shift():
    pi = make_coupling([(0, 0, 1.0)])
    out = adapt_marginals(pi, point_mass(1), point_mass(2))
    assert (out.x1.tolist(), out.x2.tolist(), out.w.tolist()) == ([1.0], [2.0], [1.0])


def test_adapt_marginals_has_requested_marginals():
    mu, nu = random_convex_pair(7, m=3, k=5)
    pi = random_coupling(8, mu, nu)
    mu2, nu2 = random_convex_pair(9, m=3, k=6)
    out = adapt_marginals(pi, mu2, nu2)
    assert np.allclose(out.first_marginal.atoms, mu2.atoms)
    assert np.allclose(out.first_marginal.weights, mu2.weights, atol=TOL)
    assert np.allclose(out.second_marginal.atoms, nu2.atoms)
    assert np.allclose(out.second_marginal.weights, nu2.weights, atol=TOL)


def test_adapt_marginals_deviation_bound_for_martingale_input():
    # perturbing both marginals of a martingale coupling by distance <= h
    # leaves a barycentre deviation of at most the sum of the two shifts
    base = make_coupling([(0, -1, 0.25), (0, 1, 0.25), (2, 1, 0.25), (2, 3, 0.25)])
    assert is_martingale(base)
    h = 0.1
    mu2 = make_measure(base.first_marginal.atoms + h, base.first_marginal.weights)
    nu2 = make_measure(base.second_marginal.atoms - h, base.second_marginal.weights)
    out = adapt_marginals(base, mu2, nu2)
    shift = w_p_1d(base.first_marginal, mu2, 1) + w_p_1d(base.second_marginal, nu2, 1)
    assert shift <= 2 * h + TOL
    assert barycentre_report(out).epsilon <= shift + TOL


def test_solve_transport_rejects_point_that_breaks_its_rows(monkeypatch):
    import motline.transport as transport

    original = transport.solve_lp

    def off_rows(lp, start=None):
        sol = original(lp, start=start)
        return LpSolution(sol.status, sol.x, sol.objective, max_violation=2e-3)

    monkeypatch.setattr(transport, "solve_lp", off_rows)
    cost = np.abs(np.arange(3.0)[:, None] - np.arange(4.0)[None, :])
    with pytest.raises(InternalError, match="breaks its rows"):
        solve_transport(cost, np.full(3, 1 / 3), np.full(4, 0.25))
