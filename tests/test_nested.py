import tracemalloc

import numpy as np
import pytest

from motline import (
    ConvexOrderError,
    CostSpec,
    barycentre_report,
    identity_coupling,
    is_martingale,
    make_coupling,
    make_measure,
    mot_solve,
    nd_lower_bound,
    nested_w_p,
    point_mass,
    product_coupling,
    project_bruteforce,
    project_to_martingale,
    random_convex_pair,
    random_coupling,
    rearrange,
    solve_transport,
    w_p_1d,
    w_p_plane,
)

TOL = 1e-9


def test_nested_self_distance_zero():
    pi = make_coupling([(0, 1, 0.5), (1, 0, 0.5)])
    value, plan = nested_w_p(pi, pi, 1)
    assert value <= TOL
    assert plan.cost <= TOL


def test_nested_family1_vs_diagonal(family1):
    pi, _ = family1(5)
    diag = identity_coupling(pi.first_marginal)
    value, plan = nested_w_p(pi, diag, 1)
    assert abs(value - 0.8) <= TOL
    assert abs(plan.cost - 0.8) <= TOL


def test_nested_product_couplings_reduce_to_second_marginal_distance():
    mu = make_measure([0, 1], [0.4, 0.6])
    nu = make_measure([-1, 1], [0.5, 0.5])
    nu2 = make_measure([-2, 3], [0.5, 0.5])
    for p in (1.0, 2.0):
        value, _ = nested_w_p(product_coupling(mu, nu), product_coupling(mu, nu2), p)
        assert abs(value - w_p_1d(nu, nu2, p)) <= TOL


def test_nested_plan_cost_consistency():
    for seed in range(5):
        mu, nu = random_convex_pair(seed, m=2 + seed % 3, k=4)
        pi = random_coupling(seed + 50, mu, nu)
        rho = random_coupling(seed + 90, mu, nu)
        value, plan = nested_w_p(pi, rho, 1)
        total = 0.0
        a_items = pi.kernel_items()
        b_items = rho.kernel_items()
        for (i, j), inner in plan.inners.items():
            outer_mass = plan.outer.matrix[i, j]
            total += outer_mass * (abs(a_items[i][0] - b_items[j][0]) + inner.cost_p(1.0))
        assert abs(total - plan.cost) <= 1e-7
        assert abs(value - plan.cost) <= 1e-7  # p = 1


def _nested_lp_oracle(pi, rho, p):
    # the definition written out: every inner cost a transportation LP under
    # |x - y|^p, then the outer LP over |x1 - y1|^p + inner cost
    a_items, b_items = pi.kernel_items(), rho.kernel_items()
    cost = np.zeros((len(a_items), len(b_items)))
    for i, (x, _, ka) in enumerate(a_items):
        for j, (y, _, kb) in enumerate(b_items):
            inner = np.abs(ka.atoms[:, None] - kb.atoms[None, :]) ** p
            cost[i, j] = abs(x - y) ** p + solve_transport(inner, ka.weights, kb.weights)[0]
    value, _ = solve_transport(cost, pi.first_marginal.weights, rho.first_marginal.weights)
    return max(value, 0.0) ** (1.0 / p)


@pytest.mark.parametrize("m", range(3, 11))
def test_nested_matches_the_lp_oracle(m):
    mu, nu = random_convex_pair(m, m, 2 * m)
    pi = random_coupling(m + 100, mu, nu)
    rho = mot_solve(mu, nu, CostSpec.absolute())[1]
    for p in (1.0, 2.0):
        value, plan = nested_w_p(pi, rho, p)
        assert value == pytest.approx(_nested_lp_oracle(pi, rho, p), rel=1e-12)
        assert plan.cost == pytest.approx(value**p, rel=1e-12)


def test_nested_memory_stays_of_the_outer_lp_size():
    # two 40 x 40 product couplings: the joint staircase has 1 + 80 * 39
    # segments, and an m x m x segments broadcast of it would take 40 MB;
    # the outer LP's tableau alone has (40 + 40) rows x 1600 columns
    rng = np.random.default_rng(5)
    pi, rho = (product_coupling(make_measure(np.sort(rng.normal(size=40)), rng.random(40) + 0.1),
                                make_measure(np.sort(rng.normal(size=40)), rng.random(40) + 0.1))
               for _ in range(2))
    tableau_bytes = 80 * 1600 * 8
    tracemalloc.start()
    try:
        value, _ = nested_w_p(pi, rho, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value > 0
    assert peak <= 8 * tableau_bytes


def test_nested_dominates_plane():
    for seed in range(6):
        mu, nu = random_convex_pair(seed, m=2 + seed % 3, k=4)
        pi = random_coupling(seed + 11, mu, nu)
        rho = random_coupling(seed + 22, mu, nu)
        assert nested_w_p(pi, rho, 1)[0] >= w_p_plane(pi, rho, 1) - TOL


def test_nested_identical_kernels_reduce_to_first_marginal_cost():
    # same conditional law everywhere: inner distances vanish on the pairing
    nu = make_measure([-1, 1], [0.5, 0.5])
    mu_a = make_measure([0, 2], [0.5, 0.5])
    mu_b = make_measure([1, 3], [0.5, 0.5])
    pi = product_coupling(mu_a, nu)
    rho = product_coupling(mu_b, nu)
    value, _ = nested_w_p(pi, rho, 1)
    assert abs(value - w_p_1d(mu_a, mu_b, 1)) <= TOL


def test_nd_lower_bound_examples(family1, family2):
    mart = product_coupling(point_mass(0), make_measure([-1, 1], [0.5, 0.5]))
    assert nd_lower_bound(mart) == 0.0
    pi, _ = family1(4)
    assert abs(nd_lower_bound(pi) - 0.25) <= 1e-12
    pi, _ = family2(2)
    assert abs(nd_lower_bound(pi) - 0.4) <= 1e-12


def test_project_martingale_input_is_fixed_point():
    pi = make_coupling([(0, -1, 0.25), (0, 1, 0.25), (2, 1, 0.25), (2, 3, 0.25)])
    result = project_to_martingale(pi)
    assert result.value <= TOL
    projected = result.projected
    assert np.array_equal(projected.x1, pi.x1) and np.array_equal(projected.x2, pi.x2)
    assert np.max(np.abs(projected.w - pi.w)) <= 1e-8


def test_project_family_values(family1, family2):
    pi, expected = family1(5)
    result = project_to_martingale(pi)
    assert abs(result.value - expected["projection"]) <= 1e-7
    pi, expected = family2(2)
    result = project_to_martingale(pi)
    assert abs(result.value - 1.6) <= 1e-7


def test_project_output_contract():
    for seed in range(8):
        mu, nu = random_convex_pair(seed, m=2 + seed % 4, k=6 + seed % 3)
        pi = random_coupling(seed + 5, mu, nu)
        result = project_to_martingale(pi)
        assert is_martingale(result.projected, 1e-8)
        assert np.allclose(result.projected.first_marginal.atoms, mu.atoms)
        assert np.allclose(result.projected.first_marginal.weights, mu.weights, atol=1e-8)
        assert np.allclose(result.projected.second_marginal.atoms, nu.atoms)
        assert np.allclose(result.projected.second_marginal.weights, nu.weights, atol=1e-8)
        # witness realizes the reported value
        assert abs(result.witness.cost - result.value) <= 1e-7
        assert result.lower_bound <= result.value + TOL


def test_project_rejects_unordered_marginals():
    pi = make_coupling([(-1, 0, 0.5), (1, 0, 0.5)])  # spread mu, point nu
    with pytest.raises(ConvexOrderError):
        project_to_martingale(pi)


def test_sandwich_on_random_instances():
    for seed in range(15):
        mu, nu = random_convex_pair(seed, m=2 + seed % 3, k=4 + seed % 2)
        pi = random_coupling(seed + 31, mu, nu)
        eps = nd_lower_bound(pi)
        value = project_to_martingale(pi).value
        bound = rearrange(pi).cost_bound
        assert eps - 1e-9 <= value <= bound + 1e-7


def _uniform_mu_instance(seed, m):
    """Random coupling whose first marginal is uniform on m atoms and whose
    marginals are in convex order (nu is a martingale spread of mu)."""
    import random as pyrandom

    rng = pyrandom.Random(seed)
    mu = make_measure(sorted(rng.uniform(-5, 5) for _ in range(m)), [1.0 / m] * m)
    pts = []
    for a, w in zip(mu.atoms, mu.weights):
        s = rng.uniform(0.5, 2.0)
        pts += [(a, a - s, w / 2), (a, a + s, w / 2)]
    nu = make_coupling(pts).second_marginal
    return random_coupling(seed + 1, mu, nu)


def test_bruteforce_matches_diagonal_on_uniform_instances(family1):
    pi, expected = family1(3)
    assert abs(project_bruteforce(pi) - expected["projection"]) <= 1e-9
    for seed in range(8):
        pi = _uniform_mu_instance(600 + seed, 2 + seed % 2)
        bf = project_bruteforce(pi)
        dg = project_to_martingale(pi).value
        assert bf >= dg - 1e-9
        assert abs(bf - dg) <= 1e-9
