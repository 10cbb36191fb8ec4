import numpy as np
import pytest

from motline import (
    CostSpec,
    InputError,
    barycentre_report,
    continuity_sweep,
    convex_order,
    example1_family1,
    example1_family2,
    make_measure,
    mot_solve,
    nd_lower_bound,
    point_mass,
    project_to_martingale,
    projection_stability,
    random_convex_pair,
    random_coupling,
    rearrange,
    strassen_feasible,
    w_p_1d,
)

TOL = 1e-9


@pytest.mark.parametrize("n,eps,proj", [(2, 0.5, 0.5), (4, 0.25, 0.75), (10, 0.1, 0.9)])
def test_family1_expected_values(n, eps, proj):
    pi, expected = example1_family1(n)
    assert expected == {"epsilon": pytest.approx(eps), "projection": pytest.approx(proj)}
    assert nd_lower_bound(pi) == pytest.approx(eps, abs=1e-12)
    assert project_to_martingale(pi).value == pytest.approx(proj, abs=1e-7)


@pytest.mark.parametrize("n,eps,proj", [(1, 1 / 3, 2 / 3), (2, 0.4, 1.6), (3, 3 / 7, 18 / 7)])
def test_family2_expected_values(n, eps, proj):
    pi, expected = example1_family2(n)
    assert expected["epsilon"] == pytest.approx(eps)
    assert expected["projection"] == pytest.approx(proj)
    assert nd_lower_bound(pi) == pytest.approx(eps, abs=1e-12)
    assert project_to_martingale(pi).value == pytest.approx(proj, abs=1e-7)


def test_family_guards():
    with pytest.raises(InputError):
        example1_family1(1)
    with pytest.raises(InputError):
        example1_family2(0)


def test_families_through_rearrange():
    for n in (3, 6):
        pi, expected = example1_family1(n)
        assert rearrange(pi).cost_bound == pytest.approx(expected["projection"], abs=1e-9)
    pi, expected = example1_family2(2)
    assert rearrange(pi).cost_bound == pytest.approx(expected["projection"], abs=1e-9)


def test_random_convex_pair_blocks():
    # one block: mu collapses to the mean of nu
    mu, nu = random_convex_pair(5, m=1, k=5)
    assert len(mu) == 1
    assert mu.atoms[0] == pytest.approx(nu.mean, abs=1e-12)
    # singleton blocks: mu equals nu
    mu, nu = random_convex_pair(6, m=5, k=5)
    assert np.allclose(mu.atoms, nu.atoms)
    assert np.allclose(mu.weights, nu.weights, atol=1e-12)


def test_random_convex_pair_is_ordered():
    mu, nu = random_convex_pair(42, m=3, k=6)
    assert convex_order(mu, nu)
    for seed in range(30):
        mu, nu = random_convex_pair(seed, m=2 + seed % 4, k=5 + seed % 4)
        assert convex_order(mu, nu)
        assert strassen_feasible(mu, nu)


def test_generators_deterministic():
    a = random_convex_pair(9, m=3, k=6)
    b = random_convex_pair(9, m=3, k=6)
    assert a[0].atoms.tolist() == b[0].atoms.tolist()
    assert a[1].weights.tolist() == b[1].weights.tolist()
    pi1 = random_coupling(11, *a)
    pi2 = random_coupling(11, *b)
    for coords in ("x1", "x2", "w"):
        assert np.array_equal(getattr(pi1, coords), getattr(pi2, coords))


def test_random_coupling_has_exact_marginals():
    mu, nu = random_convex_pair(3, m=4, k=6)
    pi = random_coupling(4, mu, nu)
    assert np.allclose(pi.first_marginal.atoms, mu.atoms)
    assert np.max(np.abs(pi.first_marginal.weights - mu.weights)) <= 1e-12
    assert np.allclose(pi.second_marginal.atoms, nu.atoms)
    assert np.max(np.abs(pi.second_marginal.weights - nu.weights)) <= 1e-12


def test_continuity_sweep_zero_scale():
    mu, nu = random_convex_pair(1, m=2, k=4)
    sweep = continuity_sweep(mu, nu, CostSpec.absolute(), 1.0, [0.0], seed=1)
    assert sweep.rows[0]["delta"] == 0.0


def test_continuity_sweep_closed_form():
    # mu a point mass, nu stretched symmetrically: unique coupling, value 1 + h
    mu = point_mass(0)
    for h in (0.1, 0.01, 0.001):
        nu_h = make_measure([-1 - h, 1 + h], [0.5, 0.5])
        value, _ = mot_solve(mu, nu_h, CostSpec.absolute())
        assert value == pytest.approx(1 + h, abs=1e-12)


def test_continuity_sweep_monotone_rows():
    for seed in range(6):
        mu, nu = random_convex_pair(400 + seed, m=2 + seed % 3, k=4 + seed % 3, radius=5.0)
        sweep = continuity_sweep(mu, nu, CostSpec.absolute(), 1.0, [0.1, 0.01, 0.001], seed)
        assert all(row["ok"] for row in sweep.rows)
        assert sweep.monotone
        hs = [row["h"] for row in sweep.rows]
        assert hs == sorted(hs, reverse=True)
        for row in sweep.rows:
            assert row["w_nu"] <= row["h"] + 1e-12


def test_continuity_sweep_rejects_unordered():
    nu = make_measure([-1, 1], [0.5, 0.5])
    with pytest.raises(InputError):
        continuity_sweep(nu, point_mass(0), CostSpec.absolute(), 1.0, [0.1], 0)


def test_sweep_csv_shape():
    mu, nu = random_convex_pair(2, m=2, k=4)
    sweep = continuity_sweep(mu, nu, CostSpec.absolute(), 1.0, [0.1, 0.01], seed=2)
    lines = sweep.to_csv().strip().splitlines()
    assert lines[0].split(",")[0] == "h"
    assert len(lines) == 3


def test_projection_stability_zero_scale():
    mu, nu = random_convex_pair(3, m=2, k=4)
    pi = random_coupling(4, mu, nu)
    sweep = projection_stability(pi, [0.0], seed=3)
    row = sweep.rows[0]
    assert row["epsilon"] == pytest.approx(nd_lower_bound(pi), abs=TOL)
    assert row["projection"] == pytest.approx(project_to_martingale(pi).value, abs=1e-7)


def test_projection_stability_sandwich_rows():
    for seed in range(4):
        mu, nu = random_convex_pair(500 + seed, m=2 + seed % 2, k=4, radius=5.0)
        pi = random_coupling(seed, mu, nu)
        sweep = projection_stability(pi, [0.1, 0.01], seed=seed)
        for row in sweep.rows:
            if row["ok"]:
                assert row["epsilon"] <= row["projection"] + 1e-9


def test_projection_stability_family1_small_perturbation(family1):
    pi, expected = family1(5)
    sweep = projection_stability(pi, [1e-3], seed=7)
    row = sweep.rows[0]
    assert row["ok"]
    assert abs(row["projection"] - expected["projection"]) <= 0.05


def test_projection_stability_martingale_deviation_bound():
    # deviation after adapting a martingale coupling is at most the marginal motion
    mu, nu = random_convex_pair(8, m=3, k=5, radius=5.0)
    _, mart = mot_solve(mu, nu, CostSpec.absolute())
    for h in (0.05, 0.2):
        sweep = projection_stability(mart, [h], seed=_seed_for(h))
        row = sweep.rows[0]
        if row["ok"]:
            assert row["epsilon"] <= row["w_mu"] + row["w_nu"] + 1e-9
            assert row["epsilon"] <= 2 * h + 1e-9


def _seed_for(h):
    return int(1000 * h) + 17
