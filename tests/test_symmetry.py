"""Symmetries of the line as relations between certified values.

A relation such as "reflecting both measures leaves their distance
unchanged" holds whichever vertex or pivot path a solver takes, so these
tests judge a change of engine that the golden corpus cannot.
"""

import pytest

from motline import (
    make_coupling,
    make_measure,
    nested_w_p,
    random_convex_pair,
    random_coupling,
    w_p_1d,
)

REL = 1e-13
SEEDS = range(12)


def _reflect_measure(mu):
    return make_measure(-mu.atoms, mu.weights)


def _reflect_coupling(pi):
    return make_coupling(zip(-pi.x1, -pi.x2, pi.w))


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
