"""Symmetries of the line as relations between certified values.

A relation such as "reflecting both measures leaves their distance
unchanged" holds whichever vertex or pivot path a solver takes, so these
tests judge a change of engine that the golden corpus cannot.
"""

import numpy as np
import pytest

import motline.mot as mot
import motline.nested as nested
from motline import (
    CostSpec,
    KappaSpec,
    competitor_improve,
    convex_order,
    kappa_competitor_improve,
    make_coupling,
    make_measure,
    monotonicity_check,
    mot_solve,
    nested_w_p,
    optimal_coupling_1d,
    penalized_ot,
    project_to_martingale,
    random_convex_pair,
    random_coupling,
    strassen_feasible,
    w_p_1d,
)

from conftest import built_lp

REL = 1e-13
SEEDS = range(12)


def _affine_measure(mu, s, d):
    return make_measure(s * mu.atoms + d, mu.weights)


def _affine_coupling(pi, s, d):
    return make_coupling(zip(s * pi.x1 + d, s * pi.x2 + d, pi.w))


def _reflect_measure(mu):
    return _affine_measure(mu, -1.0, 0.0)


def _reflect_coupling(pi):
    return _affine_coupling(pi, -1.0, 0.0)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_reflection_keeps_w_p_1d(p):
    for seed in SEEDS:
        m = 3 + seed % 8
        mu, nu = random_convex_pair(seed, m, 2 * m)
        value = w_p_1d(mu, nu, p)
        assert w_p_1d(_reflect_measure(mu), _reflect_measure(nu), p) == pytest.approx(
            value, rel=REL)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_reflection_keeps_nested_w_p(p):
    for seed in SEEDS:
        m = 3 + seed % 8
        mu, nu = random_convex_pair(seed, m, 2 * m)
        pi = random_coupling(seed + 100, mu, nu)
        rho = random_coupling(seed + 200, mu, nu)
        value, _ = nested_w_p(pi, rho, p)
        reflected, plan = nested_w_p(_reflect_coupling(pi), _reflect_coupling(rho), p)
        assert reflected == pytest.approx(value, rel=REL)
        assert plan.cost == pytest.approx(value**p, rel=REL)


# x -> s x + d with s > 0 keeps convex order and the martingale property and
# scales every degree-1 cost by s: the MOT and projection values scale by s,
# and penalized_ot equals mot_solve, as the abs cost is 1-Lipschitz
SCALES = [1e-6, 1e-3, 1.0, 1e3, 1e6]


@pytest.mark.parametrize("seed", range(6))
def test_affine_maps_scale_the_values(seed):
    cost = CostSpec.absolute()
    m = 3 + seed
    mu, nu = random_convex_pair(seed, m, 2 * m)
    pi = random_coupling(seed + 100, mu, nu)
    value = mot_solve(mu, nu, cost)[0]
    projected = project_to_martingale(pi).value
    for s in SCALES:
        for d in (0.0, -37.5 * s, 1e3 * s):
            mu_s, nu_s = _affine_measure(mu, s, d), _affine_measure(nu, s, d)
            assert convex_order(mu_s, nu_s) and strassen_feasible(mu_s, nu_s), (s, d)
            scaled = mot_solve(mu_s, nu_s, cost)[0]
            assert scaled == pytest.approx(s * value, rel=1e-12), (s, d)
            assert penalized_ot(mu_s, nu_s, cost, 1.0) == pytest.approx(scaled, rel=1e-12)
            assert project_to_martingale(_affine_coupling(pi, s, d)).value == pytest.approx(
                s * projected, rel=1e-12), (s, d)


@pytest.mark.parametrize("s, d", [(1e6, 0.0), (1.0, 1e6), (1e3, 1e9),
                                  (1e-6, 0.0), (1e4, 0.0), (1e5, 0.0)])
def test_wide_and_far_pairs_keep_convex_order(s, d):
    # the pair of the scale table in ROADMAP item 3; mot_solve raised
    # ConvexOrderError at s = 1e6 and at (1e3, 1e9).  A shift of 1e6 s rounds
    # the atoms themselves by about 1e-10 s, so the values agree to 1e-9
    cost = CostSpec.absolute()
    mu, nu = random_convex_pair(3, 4, 8)
    value = mot_solve(mu, nu, cost)[0]
    mu_s, nu_s = _affine_measure(mu, s, d), _affine_measure(nu, s, d)
    assert convex_order(mu_s, nu_s) and strassen_feasible(mu_s, nu_s)
    assert mot_solve(mu_s, nu_s, cost)[0] == pytest.approx(s * value, rel=1e-9)
    assert penalized_ot(mu_s, nu_s, cost, 1.0) == pytest.approx(s * value, rel=1e-9)


@pytest.mark.parametrize("seed", [231, 262])
def test_penalized_ot_prices_radius_1e5_pairs(seed):
    # these raised "phase-2 dual basis is singular" and "penalized LP
    # reported unbounded" while the barycentre rows carried raw atoms
    cost = CostSpec.absolute()
    mu, nu = random_convex_pair(seed, 14, 28, radius=1e5)
    assert penalized_ot(mu, nu, cost, 1.0) == pytest.approx(mot_solve(mu, nu, cost)[0],
                                                            rel=1e-12)


@pytest.mark.parametrize("shift", [1e6, 1e9])
def test_shifted_pair_with_a_mean_gap_is_not_in_convex_order(shift):
    # the means differ by 7.5e-5 on a support 2 wide: a tolerance scaled by
    # the radius rather than the span would let the pair through
    mu = make_measure([shift], [1.0])
    nu = make_measure([shift - 1.0, shift + 1.00015], [0.5, 0.5])
    assert not convex_order(mu, nu)
    assert not strassen_feasible(mu, nu)


@pytest.mark.parametrize("seed", range(6))
def test_no_savings_where_the_cost_cancels(seed):
    # x1 y2 - x1^2 sums to 0 over a martingale and is fixed by the pinned
    # barycentres, so no competitor saves anything; at radius 1e5 its cells
    # are of order 1e10 while the net cost is round-off, and a threshold
    # relative to the net cost read that round-off as savings
    mu, nu = random_convex_pair(seed, 5, 10, radius=1e5)
    alpha = mot_solve(mu, nu, CostSpec.squared())[1]
    assert competitor_improve(alpha, CostSpec.polynomial([(1, 1, 1.0), (2, 0, -1.0)])) is None
    spec = KappaSpec(random_coupling(seed + 50, mu, nu), lambda x1, x2, y2: x1 * y2 - x1 * x1)
    gammas = [optimal_coupling_1d(spec.kernel(x1), kernel)
              for x1, _, kernel in alpha.kernel_items()]
    assert kappa_competitor_improve(alpha, gammas, spec) is None


def test_no_violations_on_radius_1e5_couplings():
    # the marginals and the barycentres fix these costs, so every competitor
    # costs the same and 0 is the exact answer; round-off in costs of order
    # 1e10 read as savings, and competitor LPs broke their rows
    square, poly = CostSpec.squared(), CostSpec.polynomial([(1, 1, -1.0), (0, 2, 0.5)])
    optimizer = mot_solve(*random_convex_pair(2, 6, 12, radius=1e5), square)[1]
    pi = random_coupling(280, *random_convex_pair(180, 4, 8, radius=1e5))
    for rng_seed in range(6):
        for coupling, cost in ((optimizer, square), (pi, square), (pi, poly)):
            assert monotonicity_check(coupling, cost, 40, 4, rng_seed).n_violations == 0


def _lps(monkeypatch, s, d):
    """The last program each LP kind hands to solve_lp,
    on random_convex_pair(5, 5, 10) mapped by x -> s x + d."""
    pair = random_convex_pair(5, 5, 10)
    mu, nu = (_affine_measure(measure, s, d) for measure in pair)
    alpha = _affine_coupling(random_coupling(4, *pair), s, d)
    spec = KappaSpec(_affine_coupling(random_coupling(5, *pair), s, d),
                     lambda x1, x2, y2: abs(x2 - y2))
    gammas = [optimal_coupling_1d(spec.kernel(x1), kernel)
              for x1, _, kernel in alpha.kernel_items()]
    calls = {
        "martingale": (mot, lambda: mot_solve(mu, nu, CostSpec.absolute())),
        "strassen": (mot, lambda: strassen_feasible(mu, nu)),
        "penalized": (mot, lambda: penalized_ot(mu, nu, CostSpec.absolute(), 1.0)),
        "projection": (nested, lambda: project_to_martingale(alpha)),
        "competitor": (mot, lambda: competitor_improve(alpha, CostSpec.absolute())),
        "kappa competitor": (mot, lambda: kappa_competitor_improve(alpha, gammas, spec)),
    }
    return {name: built_lp(monkeypatch, module, call)[0] for name, (module, call) in calls.items()}


def test_lp_rows_do_not_depend_on_scale(monkeypatch):
    # every barycentre row is written in units of nu's span, so a pair and
    # its image under x -> 1e4 x + 3e5 build the same programs
    unit, image = _lps(monkeypatch, 1.0, 0.0), _lps(monkeypatch, 1e4, 3e5)
    assert unit.keys() == image.keys() and len(unit) == 6
    for name, lp in unit.items():
        for got, want in ((image[name].a_eq, lp.a_eq), (image[name].b_eq, lp.b_eq)):
            assert got.shape == want.shape, name
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
