import dataclasses

import numpy as np
import pytest

from motline import (
    CascadeStep,
    InputError,
    SwitchStep,
    barycentre_report,
    cascade,
    example1_family1,
    example1_family2,
    find_exchange_tuples,
    find_switch_pair,
    hoeffding_frechet,
    identity_coupling,
    is_martingale,
    make_coupling,
    make_measure,
    nd_lower_bound,
    nested_w_p,
    random_convex_pair,
    random_coupling,
    rearrange,
    switch_assignment,
    trace_to_bicausal_plan,
)

TOL = 1e-9
EXACT = 1e-12

ANTI = [(0, 2, 0.5), (2, 0, 0.5)]

# no direct switch pair; the first cascade's shift is capped by the smaller
# endpoint deviation (0.02 < 0.05 and < both link caps), rectifying atom 3
ENDPOINT_CAP = [
    (1, 1, 0.20), (1, 2, 0.05),
    (2, 1, 0.125), (2, 3, 0.125),
    (3, 2, 0.135), (3, 4, 0.115),
    (4, 3, 0.03), (4, 4, 0.22),
]


def _replay(pi, trace):
    """Reapply a recorded trace step by step, yielding every intermediate."""
    states = [pi]
    current = pi
    for step in trace:
        records = step.links if isinstance(step, CascadeStep) else (step.record,)
        for rec in records:
            current, _ = switch_assignment(current, rec.x1_minus, rec.x1_plus,
                                           rec.x2_minus, rec.x2_plus, lam=rec.mass_moved)
        states.append(current)
    return states


def test_switch_full_correction():
    pi = make_coupling(ANTI)
    out, rec = switch_assignment(pi, 2.0, 0.0, 0.0, 2.0)
    assert rec.mass_moved == pytest.approx(0.5, abs=EXACT)
    assert is_martingale(out)
    assert (out.x1.tolist(), out.x2.tolist()) == ([0.0, 2.0], [0.0, 2.0])


def test_switch_zero_override_is_noop():
    pi = make_coupling(ANTI)
    out, rec = switch_assignment(pi, 2.0, 0.0, 0.0, 2.0, lam=0.0)
    assert rec.mass_moved == 0.0
    assert out is pi


def test_switch_deviation_accounting():
    for seed in range(6):
        mu, nu = random_convex_pair(seed, m=3, k=5)
        pi = random_coupling(seed + 3, mu, nu)
        rep = barycentre_report(pi)
        pair = find_switch_pair(pi, rep)
        if pair is None:
            continue
        x1m, x1p, x2m, x2p = pair
        out, rec = switch_assignment(pi, *pair)
        new = barycentre_report(out)
        drop_minus = abs(rep.deviation(x1m)) - abs(new.deviation(x1m))
        drop_plus = rep.deviation(x1p) - new.deviation(x1p)
        assert drop_minus >= -TOL and drop_plus >= -TOL
        mu_w = dict(zip(pi.first_marginal.atoms, pi.first_marginal.weights))
        expected = rep.epsilon - drop_minus * mu_w[x1m] - drop_plus * mu_w[x1p]
        assert new.epsilon == pytest.approx(expected, abs=1e-10)


def test_family1_n2_direct_switch(family1):
    pi, _ = family1(2)
    res = rearrange(pi)
    assert res.steps == 1 and isinstance(res.trace[0], SwitchStep)
    assert res.cost_bound == pytest.approx(0.5, abs=TOL)
    assert is_martingale(res.output)


def test_find_switch_pair_cases(family1):
    mart = identity_coupling(make_measure([0, 1], [0.5, 0.5]))
    assert find_switch_pair(mart) is None
    pi, _ = family1(4)
    assert find_switch_pair(pi) is None  # supports separate the deviation classes
    assert find_switch_pair(make_coupling(ANTI)) == (2.0, 0.0, 0.0, 2.0)


def test_exchange_tuples_family1_n5(family1):
    pi, _ = family1(5)
    tuples = find_exchange_tuples(pi)
    assert tuples.t1() == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert tuples.t2() == (2.0, 1.0, 3.0, 2.0, 4.0, 3.0, 5.0, 4.0)
    assert tuples.m == 3
    assert tuples.link_gaps() == (1.0, 1.0, 1.0, 1.0)


def test_exchange_tuples_family2(family2):
    pi, _ = family2(2)
    tuples = find_exchange_tuples(pi)
    assert tuples.chain == (-2.0, 0.0, 2.0)
    assert tuples.x2_plus == -2.0 and tuples.x2_minus == 2.0


def test_exchange_tuples_single_bridge():
    # one interior atom whose kernel straddles both endpoint supports
    # (affine image of the first counterexample family at n = 3)
    pi = make_coupling([
        (0, 0, 1 / 6), (0, 2, 1 / 6),
        (2, 0, 1 / 6), (2, 4, 1 / 6),
        (4, 2, 1 / 6), (4, 4, 1 / 6),
    ])
    rep = barycentre_report(pi)
    assert find_switch_pair(pi, rep) is None
    tuples = find_exchange_tuples(pi, rep)
    assert tuples.chain == (2.0,)
    assert tuples.m == 1
    assert tuples.x2_plus == 2.0 and tuples.x2_minus == 2.0


def test_cascade_family1_n5(family1):
    pi, _ = family1(5)
    out, step = cascade(pi, find_exchange_tuples(pi))
    assert step.a == pytest.approx(0.1, abs=EXACT)
    assert 2 * (step.m + 1) * step.a == pytest.approx(0.8, abs=TOL)
    assert is_martingale(out)


def test_cascade_family2_n2(family2):
    pi, _ = family2(2)
    out, step = cascade(pi, find_exchange_tuples(pi))
    assert 2 * (step.m + 1) * step.a == pytest.approx(1.6, abs=TOL)
    assert is_martingale(out)


def test_cascade_endpoint_cap_binds():
    pi = make_coupling(ENDPOINT_CAP)
    rep = barycentre_report(pi)
    assert find_switch_pair(pi, rep) is None
    tuples = find_exchange_tuples(pi, rep)
    out, step = cascade(pi, tuples)
    assert step.a == pytest.approx(0.02, abs=EXACT)
    after = barycentre_report(out)
    assert abs(after.deviation(tuples.x1_minus)) <= TOL  # endpoint rectified
    assert after.deviation(tuples.x1_plus) > TOL  # other side still off


def test_rearrange_martingale_input_is_trivial():
    pi = make_coupling([(0, -1, 0.25), (0, 1, 0.25), (2, 1, 0.25), (2, 3, 0.25)])
    res = rearrange(pi)
    assert res.steps == 0
    assert res.cost_bound == 0.0
    for coords in ("x1", "x2", "w"):
        assert np.array_equal(getattr(res.output, coords), getattr(pi, coords))


def test_rearrange_dispersion_cost_equals_epsilon():
    for seed in range(25):
        mu, nu = random_convex_pair(seed, m=2 + seed % 4, k=5 + seed % 3)
        pi = hoeffding_frechet(mu, nu)
        res = rearrange(pi)
        assert res.cost_bound == pytest.approx(nd_lower_bound(pi), abs=1e-9)
        assert all(isinstance(step, SwitchStep) for step in res.trace)
        assert is_martingale(res.output, 1e-8)


def test_rearrange_family1_values(family1):
    for n in range(2, 11):
        pi, expected = family1(n)
        res = rearrange(pi)
        assert res.cost_bound == pytest.approx(expected["projection"], abs=1e-9)
        assert res.epsilon_initial == pytest.approx(expected["epsilon"], abs=EXACT)


def test_rearrange_output_marginals_conserved():
    for seed in range(10):
        mu, nu = random_convex_pair(seed, m=2 + seed % 4, k=4 + seed % 4)
        pi = random_coupling(seed + 17, mu, nu)
        res = rearrange(pi)
        out = res.output
        assert np.allclose(out.first_marginal.atoms, mu.atoms)
        assert np.allclose(out.first_marginal.weights, mu.weights, atol=1e-8)
        assert np.allclose(out.second_marginal.atoms, nu.atoms)
        assert np.allclose(out.second_marginal.weights, nu.weights, atol=1e-8)
        assert is_martingale(out, 1e-8)


def test_rearrange_trace_invariants():
    """Step-by-step replay: exact marginal bookkeeping, monotone deviation,
    monotone classes, shrinking zero-class kernel ranges, case-1 never
    reappearing after a cascade."""
    instances = []
    from motline import example1_family1, example1_family2

    instances += [example1_family1(n)[0] for n in (2, 5, 8)]
    instances += [example1_family2(n)[0] for n in (1, 3)]
    for seed in range(12):
        mu, nu = random_convex_pair(seed, m=2 + seed % 4, k=4 + seed % 4)
        instances.append(random_coupling(seed + 4, mu, nu))
    instances.append(make_coupling(ENDPOINT_CAP))

    for pi in instances:
        res = rearrange(pi)
        assert not res.case1_after_case2
        states = _replay(pi, res.trace)
        last = res.presnap or res.output
        assert np.array_equal(states[-1].x1, last.x1) and np.array_equal(states[-1].x2, last.x2)

        prev_eps = None
        prev_zero = None
        prev_ranges = None
        seen_cascade = False
        for idx, state in enumerate(states):
            rep = barycentre_report(state)
            mu0 = pi.first_marginal
            assert np.allclose(state.first_marginal.atoms, mu0.atoms)
            assert np.max(np.abs(state.first_marginal.weights - mu0.weights)) <= 1e-12
            assert np.allclose(state.second_marginal.atoms, pi.second_marginal.atoms)
            assert np.max(np.abs(state.second_marginal.weights
                                 - pi.second_marginal.weights)) <= 1e-12
            if prev_eps is not None:
                assert rep.epsilon <= prev_eps + 1e-12
                assert rep.epsilon < prev_eps  # recorded steps always move mass
            prev_eps = rep.epsilon
            zero = set(rep.zero)
            if prev_zero is not None:
                assert prev_zero <= zero
            ranges = {x1: (kern.atoms[0], kern.atoms[-1])
                      for x1, _, kern in state.kernel_items() if x1 in zero}
            if prev_ranges is not None:
                for x1, (lo, hi) in prev_ranges.items():
                    if x1 in ranges:
                        assert ranges[x1][0] >= lo - EXACT
                        assert ranges[x1][1] <= hi + EXACT
            prev_zero = zero
            prev_ranges = ranges
            if idx < len(res.trace):
                if isinstance(res.trace[idx], CascadeStep):
                    seen_cascade = True
                    assert find_switch_pair(state) is None
                elif seen_cascade:
                    pytest.fail("direct switch recorded after a cascade")


def test_cascade_per_step_cost_accounting():
    for builder, n in ((0, 5), (1, 2)):
        from motline import example1_family1, example1_family2

        pi = (example1_family1 if builder == 0 else example1_family2)(n)[0]
        res = rearrange(pi)
        for step in res.trace:
            if isinstance(step, CascadeStep):
                link_cost = sum(2 * rec.mass_moved * (rec.x2_plus - rec.x2_minus)
                                for rec in step.links)
                assert link_cost == pytest.approx(2 * (step.m + 1) * step.a, abs=1e-10)
                assert step.a * step.m**2 <= res.support_radius + TOL


def test_rearrange_sandwich():
    for seed in range(10):
        mu, nu = random_convex_pair(seed, m=2 + seed % 3, k=4 + seed % 3)
        pi = random_coupling(seed + 13, mu, nu)
        res = rearrange(pi)
        eps = nd_lower_bound(pi)
        nested, _ = nested_w_p(pi, res.output, 1)
        assert eps - TOL <= nested <= res.cost_bound + 1e-7
        assert res.cost_bound >= res.epsilon_initial - TOL


def test_trace_plan_empty():
    pi = make_coupling([(0, -1, 0.5), (0, 1, 0.5)])
    res = rearrange(pi)
    plan = trace_to_bicausal_plan(pi, res)
    assert plan.cost <= EXACT


def test_trace_plan_family1(family1):
    pi, _ = family1(5)
    res = rearrange(pi)
    plan = trace_to_bicausal_plan(pi, res)
    assert plan.cost == pytest.approx(0.8, abs=TOL)
    assert plan.cost <= res.cost_bound + TOL


def test_trace_plan_dispersion_attains_epsilon():
    for seed in range(8):
        mu, nu = random_convex_pair(seed + 60, m=2 + seed % 3, k=5)
        pi = hoeffding_frechet(mu, nu)
        res = rearrange(pi)
        plan = trace_to_bicausal_plan(pi, res)
        assert plan.cost == pytest.approx(nd_lower_bound(pi), abs=1e-8)
        assert plan.cost <= res.cost_bound + 1e-8


def test_trace_plan_bounds_random():
    for seed in range(8):
        mu, nu = random_convex_pair(seed + 80, m=2 + seed % 3, k=4 + seed % 2)
        pi = random_coupling(seed + 21, mu, nu)
        res = rearrange(pi)
        plan = trace_to_bicausal_plan(pi, res)
        assert plan.cost <= res.cost_bound + 1e-8
        nested, _ = nested_w_p(pi, res.output, 1)
        assert nested <= plan.cost + 1e-8


def test_switch_rejects_bad_arguments():
    pi = make_coupling(ANTI)
    with pytest.raises(InputError):
        switch_assignment(pi, 2.0, 0.0, 2.0, 0.0)  # x2 order reversed
    with pytest.raises(InputError):
        switch_assignment(pi, 2.0, 0.0, 1.0, 2.0)  # (2.0, 1.0) carries no mass
    with pytest.raises(InputError):
        switch_assignment(pi, 2.0, 0.0, 0.0, 2.0, lam=0.75)  # exceeds donor mass


def test_rearrange_skips_snap_on_martingale_output():
    for seed in range(12):
        mu, nu = random_convex_pair(seed + 40, m=2 + seed % 5, k=6 + seed % 3)
        pi = random_coupling(seed + 41, mu, nu)
        res = rearrange(pi)
        assert res.snap_plan is None and res.presnap is None
        assert res.snap_value == 0.0
        assert is_martingale(res.output)


# both couplings have a weighted deviation below tol_mart = 0.05, so the loop
# stops at once.  LIGHT_ATOM: a mass-0.01 atom deviates by +1 on its own, next
# to a heavy one deviating by -0.0101.  SMALL_RESIDUAL: per-atom deviations
# +-0.01 pass is_martingale at tol_mart but are far above the certificate's
# slack.  The snap must run on both.
LIGHT_ATOM = [(0, -1, 0.50), (0, 1, 0.49), (1, 2, 0.01)]
SMALL_RESIDUAL = [(0, -1, 0.25), (0, 1.02, 0.25), (1, 0, 0.25), (1, 1.98, 0.25)]


@pytest.mark.parametrize("points", [LIGHT_ATOM, SMALL_RESIDUAL],
                         ids=["light_atom", "small_residual"])
def test_rearrange_snaps_under_large_tol_mart(points):
    pi = make_coupling(points)
    tol_mart = 0.05
    assert barycentre_report(pi).epsilon <= tol_mart
    res = rearrange(pi, tol_mart=tol_mart)
    assert res.steps == 0
    assert res.presnap is not None and res.snap_plan is not None
    for coords in ("x1", "x2", "w"):
        assert np.array_equal(getattr(res.presnap, coords), getattr(pi, coords))
    assert is_martingale(res.output)
    assert res.snap_value > 0.0
    assert res.cost_bound == res.snap_value
    assert res.cost_bound >= res.epsilon_initial
    assert nd_lower_bound(pi) - TOL <= res.snap_value
    plan = trace_to_bicausal_plan(pi, res)
    assert plan.cost <= res.cost_bound + TOL


@pytest.mark.parametrize("points", [LIGHT_ATOM, SMALL_RESIDUAL],
                         ids=["light_atom", "small_residual"])
def test_snap_bound_does_not_rest_on_the_lp_last_bits(points, monkeypatch):
    # a snap LP whose value rounds just below the residual deviation must not
    # pull the bound below epsilon_initial: the residual bounds any snap
    import motline.rearrangement as rearrangement

    project = rearrangement.project_to_martingale

    def rounded_low(pi):
        result = project(pi)
        return dataclasses.replace(result, value=result.value - 1e-15)

    monkeypatch.setattr(rearrangement, "project_to_martingale", rounded_low)
    res = rearrange(make_coupling(points), tol_mart=0.05)
    assert res.presnap is not None
    assert res.cost_bound == res.snap_value
    assert res.cost_bound >= res.epsilon_initial


def _stepping_couplings():
    cases = [example1_family1(n)[0] for n in range(2, 9)]
    cases += [example1_family2(n)[0] for n in (1, 2, 3)]
    for seed in range(20):
        mu, nu = random_convex_pair(seed, m=2 + seed % 5, k=6 + seed % 4)
        cases.append(random_coupling(seed + 7, mu, nu))
    return cases + [make_coupling(ENDPOINT_CAP)]


def test_loop_and_helpers_take_the_same_step():
    kinds = set()
    for pi in _stepping_couplings():
        first = rearrange(pi).trace[0]
        kinds.add(type(first))
        pair = find_switch_pair(pi)
        if pair is not None:
            _, record = switch_assignment(pi, *pair)
            assert isinstance(first, SwitchStep)
            assert first.record == record
        else:
            _, step = cascade(pi, find_exchange_tuples(pi))
            assert isinstance(first, CascadeStep)
            assert first.tuples == step.tuples and first.links == step.links
            assert (first.a, first.epsilon_after) == (step.a, step.epsilon_after)
    assert kinds == {SwitchStep, CascadeStep}


def test_rearrange_coordinates_chained_within_merge_tol():
    # each coordinate becomes a run of three values 6e-13 apart, which
    # make_coupling merges into one atom although the run spans more than
    # ATOM_MERGE_TOL; the steps then compare the merged atoms' columns
    for seed in range(6):
        mu, nu = random_convex_pair(seed, m=3 + seed % 3, k=7)
        base = random_coupling(seed + 5, mu, nu)
        pi = make_coupling([(a + s * 6e-13, b + t * 6e-13, w / 9)
                            for a, b, w in zip(base.x1, base.x2, base.w)
                            for s in range(3) for t in range(3)])
        assert len(pi) == len(base)
        res = rearrange(pi)
        assert res.steps > 0
        assert is_martingale(res.output)
        assert trace_to_bicausal_plan(pi, res).cost <= res.cost_bound + EXACT
