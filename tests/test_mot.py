import random
from pathlib import Path

import numpy as np
import pytest

from motline import (
    ConvexOrderError,
    CostSpec,
    InputError,
    InternalError,
    KappaSpec,
    LpSolution,
    SizeGuardError,
    competitor_improve,
    convex_order,
    identity_coupling,
    is_martingale,
    kappa_competitor_improve,
    kappa_objective,
    kappa_solve_bruteforce,
    make_coupling,
    make_measure,
    martingale_vertices,
    monotonicity_check,
    mot_solve,
    optimal_coupling_1d,
    penalized_ot,
    point_mass,
    random_convex_pair,
    random_coupling,
    strassen_feasible,
)
from motline.measures import ATOM_MERGE_TOL, DiscreteCoupling
from motline.mot import _merged_ranks, _single_competitor
from motline.transport import coupling_grid

from conftest import coupling_cost, highs

TOL = 1e-9

# hand-built suboptimal martingale coupling for |x2 - x1| on a 2x4 grid:
# both kernels use the far atoms although nearer mean-preserving splits exist
SUBOPTIMAL = [(-1, -3, 0.25), (-1, 1, 0.25), (1, -1, 0.25), (1, 3, 0.25)]


def test_mot_solve_unique_coupling():
    mu = point_mass(0)
    nu = make_measure([-1, 1], [0.5, 0.5])
    value, plan = mot_solve(mu, nu, CostSpec.absolute())
    assert abs(value - 1.0) <= TOL
    assert (plan.x1.tolist(), plan.x2.tolist()) == ([0.0, 0.0], [-1.0, 1.0])


def test_mot_solve_equal_marginals_forces_identity():
    mu = make_measure([-1, 0, 2], [0.25, 0.5, 0.25])
    for cost in (CostSpec.absolute(), CostSpec.call(0.3), CostSpec.squared()):
        value, plan = mot_solve(mu, mu, cost)
        direct = float(np.dot(mu.weights, cost.evaluate(mu.atoms, mu.atoms)))
        assert abs(value - direct) <= TOL
        identity = identity_coupling(mu)
        assert np.array_equal(plan.x1, identity.x1) and np.array_equal(plan.x2, identity.x2)


def test_mot_solve_square_cost_is_second_moment_gap():
    for seed in range(10):
        mu, nu = random_convex_pair(seed, m=2 + seed % 3, k=4 + seed % 3)
        value, _ = mot_solve(mu, nu, CostSpec.squared())
        assert abs(value - (nu.moment(2) - mu.moment(2))) <= TOL


def test_mot_solve_affine_cost_shift():
    # adding b*x2 moves the value by b*mean(nu); adding b*x1 by b*mean(mu)
    mu, nu = random_convex_pair(3, m=3, k=5)
    base, _ = mot_solve(mu, nu, CostSpec.absolute())
    shifted = CostSpec.polynomial([(0, 1, 2.5)])
    combo, _ = mot_solve(mu, nu, CostSpec.from_matrix(
        CostSpec.absolute().matrix_for(mu, nu) + shifted.matrix_for(mu, nu)))
    assert abs(combo - base - 2.5 * nu.mean) <= 1e-8
    shifted = CostSpec.polynomial([(1, 0, -1.5)])
    combo, _ = mot_solve(mu, nu, CostSpec.from_matrix(
        CostSpec.absolute().matrix_for(mu, nu) + shifted.matrix_for(mu, nu)))
    assert abs(combo - base + 1.5 * mu.mean) <= 1e-8


def test_mot_solve_rejects_unordered():
    nu = make_measure([-1, 1], [0.5, 0.5])
    with pytest.raises(ConvexOrderError):
        mot_solve(nu, point_mass(0), CostSpec.absolute())


def test_strassen_examples():
    d0 = point_mass(0)
    pm1 = make_measure([-1, 1], [0.5, 0.5])
    assert strassen_feasible(d0, pm1)
    assert not strassen_feasible(pm1, d0)


def test_strassen_agrees_with_convex_order():
    for seed in range(40):
        mu, nu = random_convex_pair(seed, m=2 + seed % 3, k=4 + seed % 3)
        assert strassen_feasible(mu, nu) == convex_order(mu, nu)
        assert strassen_feasible(nu, mu) == convex_order(nu, mu)
    # larger pairs, from the north-west-corner start: shrinking nu towards
    # its mean puts some of them just outside convex order
    disagreements = []
    for seed in range(150):
        m = 3 + seed % 10
        mu, nu = random_convex_pair(seed, m=m, k=m + 1 + seed % (m + 1), radius=10.0)
        mean = float(np.dot(nu.weights, nu.atoms))
        for shrink in (1.0, 0.97, 0.9):
            shrunk = make_measure(mean + shrink * (nu.atoms - mean), nu.weights)
            for a, b in ((mu, shrunk), (shrunk, mu)):
                if strassen_feasible(a, b) != convex_order(a, b):
                    disagreements.append((seed, shrink, a is mu))
    assert disagreements == []


def test_penalized_unique_coupling():
    value = penalized_ot(point_mass(0), make_measure([-1, 1], [0.5, 0.5]),
                         CostSpec.absolute(), 1.0)
    assert abs(value - 1.0) <= TOL


def test_penalized_equal_marginals_zero():
    mu = make_measure([0, 1], [0.5, 0.5])
    assert abs(penalized_ot(mu, mu, CostSpec.absolute(), 1.0)) <= TOL


def test_penalized_matches_mot():
    for seed in range(20):
        mu, nu = random_convex_pair(seed, m=2 + seed % 3, k=4 + seed % 3)
        direct, _ = mot_solve(mu, nu, CostSpec.absolute())
        relaxed = penalized_ot(mu, nu, CostSpec.absolute(), 1.0)
        assert abs(direct - relaxed) <= 1e-7


def test_kappa_objective_target_only_cost():
    mu, nu = random_convex_pair(1, m=3, k=5)
    pi = random_coupling(2, mu, nu)
    ref = random_coupling(3, mu, nu)
    cost = CostSpec.absolute()
    spec = KappaSpec(ref, lambda x1, x2, y2: float(cost.evaluate(x1, y2)))
    assert abs(kappa_objective(pi, spec) - coupling_cost(pi, lambda a, b: abs(b - a))) <= TOL


def test_kappa_objective_own_kernel_is_zero():
    mu, nu = random_convex_pair(4, m=3, k=5)
    pi = random_coupling(5, mu, nu)
    spec = KappaSpec(pi, lambda x1, x2, y2: abs(x2 - y2))
    assert kappa_objective(pi, spec) <= TOL


def test_kappa_objective_reference_kernel_distance():
    mu, nu = random_convex_pair(6, m=3, k=5)
    pi = random_coupling(7, mu, nu)
    ref = random_coupling(8, mu, nu)
    spec = KappaSpec(ref, lambda x1, x2, y2: abs(x2 - y2))
    expected = 0.0
    from motline import w_p_1d

    for x1, weight, kernel in pi.kernel_items():
        expected += weight * w_p_1d(ref.kernel(x1), kernel, 1)
    assert abs(kappa_objective(pi, spec) - expected) <= TOL


def test_kappa_objective_missing_kernel_atom():
    mu, nu = random_convex_pair(9, m=3, k=5)
    pi = random_coupling(10, mu, nu)
    spec = KappaSpec(make_coupling([(0.123, 0.0, 1.0)]), lambda x1, x2, y2: 0.0)
    with pytest.raises(InputError):
        kappa_objective(pi, spec)


def test_kappa_bruteforce_target_only_matches_mot():
    mu, nu = random_convex_pair(11, m=3, k=4, radius=4.0)
    ref = random_coupling(12, mu, nu)
    cost = CostSpec.absolute()
    spec = KappaSpec(ref, lambda x1, x2, y2: float(cost.evaluate(x1, y2)))
    value, _ = kappa_solve_bruteforce(spec, mu, nu)
    direct, _ = mot_solve(mu, nu, cost)
    assert abs(value - direct) <= TOL


def test_kappa_bruteforce_singleton_mu():
    mu = point_mass(0)
    nu = make_measure([-1, 1], [0.5, 0.5])
    spec = KappaSpec(make_coupling([(0, -1, 0.5), (0, 1, 0.5)]), lambda x1, x2, y2: abs(x2 - y2))
    value, plan = kappa_solve_bruteforce(spec, mu, nu)
    assert value <= TOL
    assert (plan.x1.tolist(), plan.x2.tolist()) == ([0.0, 0.0], [-1.0, 1.0])


def test_kappa_bruteforce_attains_zero_at_reference_martingale():
    mu, nu = random_convex_pair(13, m=3, k=4, radius=4.0)
    _, mart = mot_solve(mu, nu, CostSpec.absolute())
    spec = KappaSpec(mart, lambda x1, x2, y2: abs(x2 - y2))
    value, plan = kappa_solve_bruteforce(spec, mu, nu)
    assert value <= TOL
    assert kappa_objective(plan, spec) <= TOL


def test_kappa_bruteforce_size_guard():
    mu, nu = random_convex_pair(14, m=5, k=7)
    spec = KappaSpec(random_coupling(15, mu, nu), lambda x1, x2, y2: 0.0)
    with pytest.raises(SizeGuardError):
        kappa_solve_bruteforce(spec, mu, nu)


def test_martingale_vertices_satisfy_constraints():
    mu, nu = random_convex_pair(16, m=3, k=4, radius=4.0)
    for vertex in martingale_vertices(mu, nu):
        grid = vertex.reshape(len(mu), len(nu))
        assert np.allclose(grid.sum(axis=1), mu.weights, atol=1e-8)
        assert np.allclose(grid.sum(axis=0), nu.weights, atol=1e-8)
        gaps = nu.atoms[None, :] - mu.atoms[:, None]
        assert np.max(np.abs((grid * gaps).sum(axis=1))) <= 1e-8


def test_competitor_square_cost_is_invariant():
    pi = make_coupling(SUBOPTIMAL)
    assert competitor_improve(pi, CostSpec.squared()) is None


def test_competitor_single_point():
    assert competitor_improve(make_coupling([(0.5, 1.5, 1.0)]), CostSpec.absolute()) is None


def test_competitor_finds_cheaper_arrangement():
    alpha = make_coupling(SUBOPTIMAL)
    # each row's hull holds an atom of the other row: no certificate
    assert not _single_competitor(*_sample_support(alpha, [0, 1, 2, 3]))
    better = competitor_improve(alpha, CostSpec.absolute())
    assert better is not None
    # same marginals, same conditional barycentres, strictly cheaper
    assert np.allclose(better.first_marginal.atoms, alpha.first_marginal.atoms)
    assert np.allclose(better.first_marginal.weights, alpha.first_marginal.weights, atol=TOL)
    assert np.allclose(better.second_marginal.atoms, alpha.second_marginal.atoms)
    assert np.allclose(better.second_marginal.weights, alpha.second_marginal.weights, atol=TOL)
    for x1, weight, kernel in alpha.kernel_items():
        assert abs(better.kernel(x1).mean - kernel.mean) <= TOL
    old = coupling_cost(alpha, lambda a, b: abs(b - a))
    new = coupling_cost(better, lambda a, b: abs(b - a))
    assert new < old - 1e-7


def test_competitor_never_moves_marginals_or_barycentres():
    for seed in range(10):
        mu, nu = random_convex_pair(seed, m=2 + seed % 3, k=4 + seed % 2)
        alpha = random_coupling(seed + 77, mu, nu)
        better = competitor_improve(alpha, CostSpec.absolute(), tol=1e-12)
        if better is None:
            continue
        assert np.allclose(better.first_marginal.weights, alpha.first_marginal.weights, atol=TOL)
        assert np.allclose(better.second_marginal.weights, alpha.second_marginal.weights, atol=TOL)
        for x1, _, kernel in alpha.kernel_items():
            assert abs(better.kernel(x1).mean - kernel.mean) <= TOL


def test_monotonicity_check_zero_on_optimizers():
    for seed in range(5):
        mu, nu = random_convex_pair(seed, m=2 + seed % 3, k=4 + seed % 3)
        cost = CostSpec.absolute()
        _, optimal = mot_solve(mu, nu, cost)
        report = monotonicity_check(optimal, cost, samples=60, subset_size=4, rng_seed=seed)
        assert report.n_violations == 0


def test_monotonicity_check_identity_coupling():
    mu = make_measure([0, 1, 3], [0.3, 0.3, 0.4])
    pi = identity_coupling(mu)
    for cost in (CostSpec.absolute(), CostSpec.squared(), CostSpec.call(1.0)):
        report = monotonicity_check(pi, cost, samples=40, subset_size=3, rng_seed=1)
        assert report.n_violations == 0


def test_monotonicity_check_flags_suboptimal_coupling():
    pi = make_coupling(SUBOPTIMAL)
    assert is_martingale(pi)
    value, _ = mot_solve(pi.first_marginal, pi.second_marginal, CostSpec.absolute())
    assert value < coupling_cost(pi, lambda a, b: abs(b - a)) - 1e-6
    report = monotonicity_check(pi, CostSpec.absolute(), samples=100, subset_size=4, rng_seed=11)
    assert report.n_violations > 0


def test_kappa_competitor_reduces_to_plain_competitor():
    mu, nu = random_convex_pair(42, m=3, k=5, radius=5.0)
    alpha = random_coupling(43, mu, nu)
    cost = CostSpec.absolute()
    ref = random_coupling(44, mu, nu)
    spec = KappaSpec(ref, lambda x1, x2, y2: float(cost.evaluate(x1, y2)))
    gammas = [optimal_coupling_1d(spec.kernel(x1), kern)
              for x1, _, kern in alpha.kernel_items()]
    out = kappa_competitor_improve(alpha, gammas, spec)
    plain = competitor_improve(alpha, cost)
    assert (out is None) == (plain is None)
    if out is not None:
        improved, _ = out
        assert abs(coupling_cost(improved, lambda a, b: abs(b - a))
                   - coupling_cost(plain, lambda a, b: abs(b - a))) <= TOL


def test_kappa_competitor_zero_value_is_minimal():
    mu, nu = random_convex_pair(45, m=3, k=4)
    alpha = random_coupling(46, mu, nu)
    spec = KappaSpec(alpha, lambda x1, x2, y2: abs(x2 - y2))
    gammas = [optimal_coupling_1d(spec.kernel(x1), kern)
              for x1, _, kern in alpha.kernel_items()]
    assert kappa_competitor_improve(alpha, gammas, spec) is None


def _plan_cost(spec, x1, plan):
    chat = [[spec.chat(x1, a, b) for b in plan.target.atoms] for a in plan.source.atoms]
    return float(np.sum(plan.matrix * np.array(chat)))


KAPPA_CHATS = [lambda x1, x2, y2: abs(x2 - y2),
               lambda x1, x2, y2: abs(y2 - x1) + 0.5 * abs(x2 - y2)]


def test_kappa_competitor_plans_price_the_competitor():
    improved = 0
    for seed in range(24):
        m = 2 + seed % 4
        mu, nu = random_convex_pair(300 + seed, m=m, k=m + 2 + seed % 3, radius=4.0)
        alpha = random_coupling(400 + seed, mu, nu)
        spec = KappaSpec(random_coupling(500 + seed, mu, nu), KAPPA_CHATS[seed % 2])
        gammas = [optimal_coupling_1d(spec.kernel(x1), kern)
                  for x1, _, kern in alpha.kernel_items()]
        current = sum(w * _plan_cost(spec, x1, plan)
                      for (x1, w, _), plan in zip(alpha.kernel_items(), gammas))
        out = kappa_competitor_improve(alpha, gammas, spec)
        if out is None:
            continue
        improved += 1
        competitor, plans = out
        # one plan per first-marginal atom, in order, coupling the reference
        # kernel with the competitor's kernel, and priced at the objective
        assert len(plans) == m
        priced = 0.0
        for (x1, w, kernel), plan in zip(competitor.kernel_items(), plans):
            for law, expected in ((plan.source, spec.kernel(x1)), (plan.target, kernel)):
                assert np.array_equal(law.atoms, expected.atoms)
                assert np.array_equal(law.weights, expected.weights)
            priced += w * _plan_cost(spec, x1, plan)
        value = kappa_objective(competitor, spec)
        assert priced == pytest.approx(value, rel=1e-12, abs=1e-12)
        assert value < current - 1e-7
        # the competitor keeps alpha's marginals and row barycentres
        for old, new in ((alpha.first_marginal, competitor.first_marginal),
                         (alpha.second_marginal, competitor.second_marginal)):
            assert np.array_equal(old.atoms, new.atoms)
            assert np.max(np.abs(old.weights - new.weights)) <= 1e-9
        for before, after in zip(alpha.kernels, competitor.kernels):
            assert abs(before.mean - after.mean) <= 1e-9
    assert improved >= 20


def test_kappa_competitor_rejects_competitor_that_loses_an_atom(monkeypatch):
    import motline.mot as mot

    original = mot.grid_coupling

    def merge_first_row(mu, nu, masses, drop):
        masses = masses.copy()
        masses[1] += masses[0]
        masses[0] = 0.0
        return original(mu, nu, masses, drop)

    mu, nu = random_convex_pair(301, m=3, k=6, radius=4.0)
    alpha = random_coupling(401, mu, nu)
    spec = KappaSpec(random_coupling(501, mu, nu), KAPPA_CHATS[1])
    gammas = [optimal_coupling_1d(spec.kernel(x1), kern)
              for x1, _, kern in alpha.kernel_items()]
    assert kappa_competitor_improve(alpha, gammas, spec) is not None
    monkeypatch.setattr(mot, "grid_coupling", merge_first_row)
    with pytest.raises(InternalError, match="first marginal"):
        kappa_competitor_improve(alpha, gammas, spec)


def test_kappa_competitor_rejects_mismatched_plans():
    mu, nu = random_convex_pair(47, m=2, k=3)
    alpha = random_coupling(48, mu, nu)
    other = random_coupling(49, mu, nu)
    spec = KappaSpec(alpha, lambda x1, x2, y2: abs(x2 - y2))
    bad = [optimal_coupling_1d(spec.kernel(x1), kern)
           for x1, _, kern in other.kernel_items()]
    with pytest.raises(InputError):
        kappa_competitor_improve(alpha, bad, spec)
    good = [optimal_coupling_1d(spec.kernel(x1), kern)
            for x1, _, kern in alpha.kernel_items()]
    for wrong_length in (good[:-1], good + good[:1]):
        with pytest.raises(InputError, match="one per first-marginal atom"):
            kappa_competitor_improve(alpha, wrong_length, spec)


def _competitor_system(alpha):
    """Equality rows of the competitor polytope of alpha: measures on alpha's
    grid with alpha's marginals and conditional barycentres."""
    sa = alpha.first_marginal
    sb = alpha.second_marginal
    m, k = len(sa), len(sb)
    grid = np.zeros((m, k))
    ai = {float(x): i for i, x in enumerate(sa.atoms)}
    bj = {float(y): j for j, y in enumerate(sb.atoms)}
    for x1, x2, w in zip(alpha.x1, alpha.x2, alpha.w):
        grid[ai[float(x1)], bj[float(x2)]] = w
    rows = []
    rhs = []
    for i in range(m):
        row = np.zeros(m * k)
        row[i * k : (i + 1) * k] = 1.0
        rows.append(row)
        rhs.append(grid[i].sum())
    for j in range(k):
        row = np.zeros(m * k)
        row[j::k] = 1.0
        rows.append(row)
        rhs.append(grid[:, j].sum())
    for i in range(m):
        row = np.zeros(m * k)
        row[i * k : (i + 1) * k] = sb.atoms
        rows.append(row)
        rhs.append(float(np.dot(grid[i], sb.atoms)))
    return sa, sb, grid, np.array(rows), np.array(rhs)


def _competitor_vertices(alpha):
    """Vertices of the competitor polytope of alpha (basis enumeration)."""
    import itertools

    sa, sb, _, a, b = _competitor_system(alpha)
    m, k = len(sa), len(sb)
    rank = int(np.linalg.matrix_rank(a, tol=1e-9))
    seen = set()
    out = []
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
        out.append(make_coupling([(sa.atoms[i], sb.atoms[j], full[i * k + j])
                                  for i in range(m) for j in range(k)
                                  if full[i * k + j] > 1e-12]))
    return out


def test_kappa_competitor_agrees_with_vertex_search():
    mu, nu = random_convex_pair(50, m=2, k=3, radius=3.0)
    alpha = random_coupling(51, mu, nu)
    ref = random_coupling(52, mu, nu)
    spec = KappaSpec(ref, lambda x1, x2, y2: abs(x2 - y2))
    gammas = [optimal_coupling_1d(spec.kernel(x1), kern)
              for x1, _, kern in alpha.kernel_items()]
    current = kappa_objective(alpha, spec)
    out = kappa_competitor_improve(alpha, gammas, spec, tol=1e-12)
    achieved = current if out is None else kappa_objective(out[0], spec)
    # oracle: the objective is concave over the competitor polytope, so its
    # minimum is attained at one of the enumerated vertices
    oracle = min(kappa_objective(comp, spec) for comp in _competitor_vertices(alpha))
    assert achieved <= oracle + 1e-9
    assert oracle <= achieved + 1e-9


def _dirac_subsets(pi, size, seed, count):
    """Seeded sub-couplings of pi with one support point per x1, drawn the way
    monotonicity_check draws its samples."""
    rng = random.Random(seed)
    out = []
    for _ in range(50 * count):
        idx = sorted(rng.sample(range(len(pi)), size))
        if np.all(np.diff(pi.x1[idx]) > ATOM_MERGE_TOL):
            out.append(make_coupling([(pi.x1[i], pi.x2[i], pi.w[i]) for i in idx]))
            if len(out) == count:
                break
    assert len(out) == count
    return out


DIRAC = make_coupling([(0.0, 1.0, 0.3), (1.0, -2.0, 0.2), (2.0, 5.0, 0.5)])
# one wide row (x1 = 0) whose hull [-1, 2] holds no atom of another row
WIDE = make_coupling([(0.0, -1.0, 0.2), (0.0, 0.5, 0.1), (0.0, 2.0, 0.1),
                      (1.0, -2.0, 0.3), (2.0, 3.0, 0.3)])
SHORTCUT_COSTS = [CostSpec.absolute(), CostSpec.squared(), CostSpec.call(0.5),
                  CostSpec.polynomial([(1, 2, 1.0), (3, 1, -0.5)]),
                  CostSpec.from_matrix(np.arange(9.0).reshape(3, 3) % 4)]


def test_competitor_skips_lp_on_dirac_kernels(monkeypatch):
    import motline.mot as mot

    def no_lp(lp):
        raise AssertionError("a competitor LP was built for Dirac kernels")

    monkeypatch.setattr(mot, "solve_lp", no_lp)
    for cost in SHORTCUT_COSTS:
        assert competitor_improve(DIRAC, cost) is None
        assert competitor_improve(WIDE, cost) is None
    with pytest.raises(AssertionError, match="Dirac"):
        competitor_improve(make_coupling(SUBOPTIMAL), CostSpec.absolute())

    calls = []
    monkeypatch.setattr(mot, "competitor_improve", lambda *args: calls.append(args))
    pi = identity_coupling(make_measure([0, 1, 3, 4, 7], [0.1, 0.2, 0.3, 0.2, 0.2]))
    report = monotonicity_check(pi, CostSpec.absolute(), samples=30, subset_size=3, rng_seed=2)
    assert report.n_violations == 0 and calls == []


@pytest.mark.parametrize("seed", range(6))
def test_dirac_kernels_admit_no_competitor_highs(seed):
    # the theorem behind the shortcut, checked with an independent solver:
    # the competitor LP's optimum is the current cost for every cost
    mu, nu = random_convex_pair(seed, m=4 + seed % 3, k=8 + seed % 4, radius=3.0)
    rng = np.random.default_rng(seed)
    couplings = [random_coupling(seed + 10, mu, nu, blend=3),  # not a martingale
                 mot_solve(mu, nu, CostSpec.absolute())[1]]
    assert not is_martingale(couplings[0])
    for pi in couplings:
        for alpha in _dirac_subsets(pi, size=min(4, len(mu)), seed=seed, count=4):
            sa, sb, grid, a_eq, b_eq = _competitor_system(alpha)
            random_matrix = CostSpec.from_matrix(rng.normal(size=grid.shape))
            for cost in SHORTCUT_COSTS[:4] + [random_matrix]:
                cmat = cost.matrix_for(sa, sb)
                current = float(np.sum(grid * cmat))
                res = highs(cmat.ravel(), a_eq, b_eq)
                assert res.status == 0
                assert abs(res.fun - current) <= 1e-12 * max(1.0, abs(current))


def _cell_range_highs(a_eq, b_eq):
    """Min and max of every variable over {q >= 0 : a_eq q = b_eq}."""
    low, high = [], []
    for c in range(a_eq.shape[1]):
        unit = np.zeros(a_eq.shape[1])
        unit[c] = 1.0
        for sign, out in ((1.0, low), (-1.0, high)):
            res = highs(sign * unit, a_eq, b_eq)
            assert res.status == 0
            out.append(sign * res.fun)
    return np.array(low), np.array(high)


def _sample_support(pi, idx):
    """Grid rows and columns of the points idx of pi, as monotonicity_check
    reads them off the coordinates."""
    return (_merged_ranks([float(pi.x1[i]) for i in idx]),
            _merged_ranks([float(pi.x2[i]) for i in idx]))


def _grid_support(alpha):
    rows, cols = np.nonzero(coupling_grid(alpha)[2])
    return rows.tolist(), cols.tolist()


def _certified_subsets(pi, size, seed, count):
    """Seeded sub-couplings of pi, drawn the way monotonicity_check draws its
    samples, that the certificate passes although some row is wide."""
    rng = random.Random(seed)
    out = []
    for _ in range(200 * count):
        idx = sorted(rng.sample(range(len(pi)), size))
        if np.all(np.diff(pi.x1[idx]) > ATOM_MERGE_TOL):
            continue
        if _single_competitor(*_sample_support(pi, idx)):
            out.append(make_coupling([(pi.x1[i], pi.x2[i], pi.w[i]) for i in idx]))
            if len(out) == count:
                break
    assert len(out) == count
    return out


@pytest.mark.parametrize("seed", range(4))
def test_certified_competitor_polytope_is_one_point_highs(seed):
    # the theorem behind the certificate, checked with an independent solver:
    # over the competitor polytope, every grid cell has min = max = alpha
    mu, nu = random_convex_pair(seed, m=5 + seed % 3, k=10 + seed % 4, radius=3.0)
    alphas = []
    for pi in (random_coupling(seed + 10, mu, nu, blend=3),
               mot_solve(mu, nu, CostSpec.absolute())[1]):
        alphas += _certified_subsets(pi, size=4, seed=seed, count=3)
    # random support patterns on small grids, kept where the certificate fires
    rng = np.random.default_rng(seed)
    for _ in range(2000):
        if len(alphas) == 12:
            break
        m, k = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        pattern = rng.random((m, k)) < 0.4
        pattern[np.arange(m), rng.integers(0, k, m)] = True
        pattern[rng.integers(0, m, k), np.arange(k)] = True
        if (_single_competitor(*(ix.tolist() for ix in np.nonzero(pattern)))
                and np.any(pattern.sum(axis=1) > 1)):
            y = np.sort(rng.normal(size=k)) * 3.0
            alphas.append(make_coupling([(float(i), y[j], rng.uniform(0.1, 1.0))
                                         for i, j in zip(*np.nonzero(pattern))]))
    assert len(alphas) == 12
    for alpha in alphas:
        _, _, grid, a_eq, b_eq = _competitor_system(alpha)
        assert _single_competitor(*_grid_support(alpha))
        low, high = _cell_range_highs(a_eq, b_eq)
        assert np.max(np.abs(low - grid.ravel())) <= 1e-9
        assert np.max(np.abs(high - grid.ravel())) <= 1e-9


def test_sample_support_matches_make_coupling():
    # coordinates closer than ATOM_MERGE_TOL merge in chains: 0, 0.6e-12 and
    # 1.2e-12 are one atom, while 0 and 1.2e-12 alone are two
    step = 0.6 * ATOM_MERGE_TOL
    x1 = np.array([0.0, 0.0, step, step, 2 * step, 1.0, 1.0 + step, 3.0])
    x2 = np.array([-1.0, 2.0, -1.0 + step, 5.0, 2.0 + 2 * step, 1.0, 1.0 + 3 * step, 3.0 - step])
    rng = np.random.default_rng(5)
    close = DiscreteCoupling(x1, x2, np.full(8, 0.125))
    mu, nu = random_convex_pair(6, m=4, k=8)
    for pi in (close, random_coupling(7, mu, nu), make_coupling(SUBOPTIMAL)):
        n = len(pi)
        for size in range(1, min(n, 5) + 1):
            for _ in range(30):
                idx = sorted(rng.choice(n, size, replace=False).tolist())
                sample = make_coupling([(pi.x1[i], pi.x2[i], pi.w[i]) for i in idx])
                rows, cols = _grid_support(sample)
                assert set(zip(*_sample_support(pi, idx))) == set(zip(rows, cols)), idx


def _golden_martingales():
    from motline.jsonio import load_coupling

    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    return [load_coupling(str(inputs / f"mart{s}.json")) for s in (1, 2, 3)]


def test_monotonicity_check_same_without_certificate(monkeypatch):
    import motline.mot as mot

    poly = CostSpec.polynomial([(1, 1, -1.0), (0, 2, 0.5)])
    cases = [(pi, CostSpec.absolute(), s) for s, pi in enumerate(_golden_martingales())]
    for seed in range(3):
        mu, nu = random_convex_pair(seed, m=5 + seed, k=10 + seed)
        matrix = CostSpec.from_matrix(np.random.default_rng(seed).normal(size=(len(mu), len(nu))))
        for source in (CostSpec.absolute(), CostSpec.squared(), CostSpec.call(0.3), poly, matrix):
            optimizer = mot_solve(mu, nu, source)[1]
            checks = [source] if source.kind != "matrix" else []
            cases += [(optimizer, cost, seed) for cost in checks + [CostSpec.absolute(), poly]]
        cases.append((make_coupling(SUBOPTIMAL), CostSpec.absolute(), seed))
    reports = [monotonicity_check(pi, cost, 40, 4, seed) for pi, cost, seed in cases]
    monkeypatch.setattr(mot, "_single_competitor", lambda rows, cols: False)
    for (pi, cost, seed), report in zip(cases, reports):
        assert monotonicity_check(pi, cost, 40, 4, seed).violations == report.violations
    assert sum(report.n_violations for report in reports) > 0


def test_competitor_lp_count_pinned(monkeypatch):
    # random_convex_pair(7, 12, 24, radius=10), as on the mot-batch benchmark:
    # 19 competitor LPs when only one point per x1 was certified, 7 now
    import motline.mot as mot

    mu, nu = random_convex_pair(7, 12, 24, radius=10.0)
    cost = CostSpec.absolute()
    optimizer = mot_solve(mu, nu, cost)[1]
    original, calls = mot.solve_lp, []

    def counted(lp, start=None):
        calls.append(lp)
        return original(lp, start=start)

    monkeypatch.setattr(mot, "solve_lp", counted)
    assert monotonicity_check(optimizer, cost, 40, 4, 7).n_violations == 0
    assert len(calls) == 7
    calls.clear()
    monkeypatch.setattr(mot, "_single_competitor", lambda rows, cols: len(set(rows)) == len(rows))
    assert monotonicity_check(optimizer, cost, 40, 4, 7).n_violations == 0
    assert len(calls) == 19


# monotonicity_check violations under the abs cost, recorded before the Dirac
# shortcut existed: (sample, indices, current cost, competitor cost)
PINNED_VIOLATIONS = {
    "optimizer_call_0": (
        (2, (1, 4, 5, 7), 1.556177504620138, 1.4886593330895184),
        (4, (1, 4, 5, 7), 1.556177504620138, 1.4886593330895184),
        (6, (1, 3, 4, 5), 1.9183634221648087, 1.8349413090133873),
        (7, (1, 2, 3, 5), 1.7342656650646153, 1.6607697883438606),
        (10, (0, 1, 3, 5), 1.1454953533023955, 1.0935800325263403)),
    "random_0": (
        (1, (9, 12, 15, 16), 6.664554411280947, 6.563895654798646),
        (2, (6, 11, 15, 18), 5.785815744780079, 5.512355822000686),
        (12, (2, 7, 10, 15), 4.391882537745107, 4.312200920698111)),
    "optimizer_call_1": (
        (9, (3, 7, 8, 9), 3.0622574662278135, 2.9409539716027613),),
    "random_1": (
        (0, (2, 4, 8, 18), 7.958078768808723, 7.954683166323226),
        (2, (3, 6, 12, 15), 3.548547703421285, 2.2587754494721173),
        (5, (3, 7, 10, 18), 8.447218138210415, 8.025950762320733),
        (10, (0, 7, 9, 14), 4.482374882331722, 4.371438340755817),
        (13, (10, 13, 16, 22), 2.315708103385613, 1.8124583591869459),
        (14, (6, 9, 16, 21), 4.089495100715073, 3.5414733582469897),
        (15, (9, 15, 16, 18), 6.9126979775524715, 6.768593058788232)),
    "suboptimal": tuple((s, (0, 1, 2, 3), 2.0, 1.3333333333333324) for s in range(4)),
}


# grid masses of the optimizers that mot_solve returned for
# random_convex_pair(seed, m=4 + seed, k=7 + seed) under CostSpec.call(0.3),
# frozen: the call cost integrates only marginal data, so every martingale
# coupling is optimal and the vertex mot_solve reaches depends on its pivot
# path; frozen, the pins above test monotonicity_check and not that path
OPTIMIZER_CALL = (
    [(-4.821664994140733, -4.821664994140733, 0.2081539101879466),
     (-0.7264840223206018, -1.9013172509917133, 0.09559010033728699),
     (-0.7264840223206018, -1.5885683833831, 0.0497676434837247),
     (-0.7264840223206018, 0.22549442737217085, 0.13564396183999006),
     (-0.7264840223206018, 5.159088058806049, 0.0044305301983309274),
     (2.1752300592724114, -1.5885683833831, 0.10002063053561806),
     (2.1752300592724114, 5.159088058806049, 0.1261646812623851),
     (6.106261799125463, 5.675971780695452, 0.18077864485851866),
     (6.106261799125463, 6.888437030500963, 0.09944989729619941)],
    [(-4.646609096972481, -7.312715117751976, 0.04174386603883214),
     (-4.646609096972481, -4.898619485211566, 0.053384276218658835),
     (-4.646609096972481, -0.09129825816118142, 0.0014897278454236607),
     (-4.646609096972481, 3.031859454455258, 0.015362541444465359),
     (-0.8970692599681652, -7.312715117751976, 0.022866466250445527),
     (-0.8970692599681652, -1.010178704225238, 0.04737007925810193),
     (-0.8970692599681652, -0.09129825816118142, 0.18871509706866826),
     (2.686084246412816, -4.898619485211566, 0.07490590044140047),
     (2.686084246412816, 3.031859454455258, 0.11529892447269167),
     (2.686084246412816, 5.275492379532281, 0.20401247151624183),
     (5.7744670227102635, 5.7744670227102635, 0.18254987424005498),
     (6.9486747387446535, 6.9486747387446535, 0.05230077520501563)],
)


def _pinned_cases():
    for seed in (0, 1):
        mu, nu = random_convex_pair(seed, m=4 + seed, k=7 + seed)
        optimizer = make_coupling(OPTIMIZER_CALL[seed])
        for got, want in ((optimizer.first_marginal, mu), (optimizer.second_marginal, nu)):
            assert np.array_equal(got.atoms, want.atoms)
            assert np.allclose(got.weights, want.weights, rtol=0, atol=1e-12)
        assert is_martingale(optimizer)
        yield f"optimizer_call_{seed}", optimizer, seed
        yield f"random_{seed}", random_coupling(seed + 50, mu, nu), seed
    yield "suboptimal", make_coupling(SUBOPTIMAL), 1


def test_monotonicity_check_violations_pinned():
    for name, pi, seed in _pinned_cases():
        samples = 4 if name == "suboptimal" else 16
        report = monotonicity_check(pi, CostSpec.absolute(), samples, 4, seed)
        assert report.violations == PINNED_VIOLATIONS[name], name
        # square and call costs integrate only marginal and barycentre data
        for cost in (CostSpec.squared(), CostSpec.call(0.3)):
            assert monotonicity_check(pi, cost, samples, 4, seed).violations == ()


def _row_checked_args(caller):
    mu, nu = random_convex_pair(3, m=4, k=7)
    if caller in ("mot_solve", "penalized_ot"):
        return (mu, nu, CostSpec.absolute()) + ((1.0,) if caller == "penalized_ot" else ())
    alpha = random_coupling(4, mu, nu)  # several points per x1, so the LP is built
    if caller == "competitor_improve":
        return alpha, CostSpec.absolute()
    spec = KappaSpec(random_coupling(5, mu, nu), lambda x1, x2, y2: abs(x2 - y2))
    gammas = [optimal_coupling_1d(spec.kernel(x1), kern)
              for x1, _, kern in alpha.kernel_items()]
    return alpha, gammas, spec


@pytest.mark.parametrize("caller", ["mot_solve", "penalized_ot", "competitor_improve",
                                    "kappa_competitor_improve"])
def test_mot_lps_reject_point_that_breaks_their_rows(monkeypatch, caller):
    import motline.mot as mot

    original = mot.solve_lp

    def off_rows(lp, start=None):
        sol = original(lp, start=start)
        return LpSolution(sol.status, sol.x, sol.objective, max_violation=2e-3)

    args = _row_checked_args(caller)
    monkeypatch.setattr(mot, "solve_lp", off_rows)
    with pytest.raises(InternalError, match="breaks its rows"):
        getattr(mot, caller)(*args)


def test_mot_row_checks_scale_with_the_atoms(monkeypatch):
    # at radius 1e4 an accurate vertex breaks the barycentre rows by ~1e-9
    # through rounding alone; both pairs raised under an absolute FEAS_TOL
    import motline.mot as mot

    original = mot.solve_lp
    gaps = []

    def against_highs(lp, start=None):
        sol = original(lp, start=start)
        expected = highs(lp.objective, lp.a_eq, lp.b_eq).fun
        gaps.append(abs(sol.objective - expected) / max(abs(expected), 1e-300))
        return sol

    monkeypatch.setattr(mot, "solve_lp", against_highs)
    cost = CostSpec.absolute()
    mu, nu = random_convex_pair(1230251019, 11, 22, radius=1e4)
    mot_solve(mu, nu, cost)
    mu, nu = random_convex_pair(1784566698, 8, 16, radius=1e4)
    _, optimizer = mot_solve(mu, nu, cost)
    monotonicity_check(optimizer, cost, 40, 4, 688261701)
    assert len(gaps) > 2 and max(gaps) <= 1e-9


# mot-batch benchmark pool slots, random_convex_pair(seed, m, 2m, radius=10),
# on which mot_solve or penalized_ot returned a point off its rows: phase 2
# pivoted on an elimination-noise entry just above the absolute pivot
# tolerance.  The last one failed only once these LPs took a start.
NOISE_PIVOT_PAIRS = [(12, 1534784944), (12, 76664365), (13, 1843471492), (14, 1822211109),
                     (15, 544519940), (15, 1177650963), (15, 327106869), (15, 373515609)]


def _martingale_highs(mu, nu, cmat):
    m, k = len(mu), len(nu)
    a_eq = np.zeros((2 * m + k, m * k))
    for i in range(m):
        a_eq[i, i * k : (i + 1) * k] = 1.0
        a_eq[m + k + i, i * k : (i + 1) * k] = nu.atoms - mu.atoms[i]
    for j in range(k):
        a_eq[m + j, j::k] = 1.0
    b_eq = np.concatenate([mu.weights, nu.weights, np.zeros(m)])
    res = highs(cmat.ravel(), a_eq, b_eq)
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("m, seed", NOISE_PIVOT_PAIRS)
def test_noise_pivot_pairs_price_alike(m, seed):
    mu, nu = random_convex_pair(seed, m, 2 * m, radius=10.0)
    cost = CostSpec.absolute()
    value, _ = mot_solve(mu, nu, cost)
    relaxed = penalized_ot(mu, nu, cost, 1.0)
    assert relaxed == pytest.approx(value, rel=1e-9)
    assert value == pytest.approx(_martingale_highs(mu, nu, cost.matrix_for(mu, nu)), rel=1e-9)


def test_penalized_ot_fails_loudly_off_its_rows():
    # a benchmark pool slot where the simplex returned a point off the
    # penalized LP's rows (value 2.46565 against the MOT value 2.32145)
    mu, nu = random_convex_pair(1843471492, 13, 26, radius=10.0)
    value, _ = mot_solve(mu, nu, CostSpec.absolute())
    try:
        relaxed = penalized_ot(mu, nu, CostSpec.absolute(), 1.0)
    except InternalError as err:
        assert "breaks its rows" in str(err)
    else:
        assert relaxed == pytest.approx(value, rel=1e-9)


# random_convex_pair(seed, m, 2m, radius=1e4) with m = 4 + seed % 8, on which
# penalized_ot raised under an absolute FEAS_TOL: its accurate points broke
# the atom-sized deviation rows by rounding alone (1.1e-9 to 1.6e-7)
PENALIZED_WIDE_SEEDS = [2, 10, 37, 62, 84]


@pytest.mark.parametrize("seed", PENALIZED_WIDE_SEEDS)
def test_penalized_row_check_scales_with_the_atoms(seed):
    m = 4 + seed % 8
    mu, nu = random_convex_pair(seed, m, 2 * m, radius=1e4)
    value, _ = mot_solve(mu, nu, CostSpec.absolute())
    assert penalized_ot(mu, nu, CostSpec.absolute(), 1.0) == pytest.approx(value, rel=1e-9)


# (radius, seed) of random_convex_pair(seed, m, 2m, radius), m = 4 + seed % 8
# at 1e4 and 3 + seed % 8 at 1e5, on which penalized_ot raised "penalized LP
# point breaks its rows by" 25.9 to 5.2e3: once the phase-2 refinement had
# rebuilt its tableau by least squares, the simplex went on to bases of
# condition 5e16 to 6e22.  Rebuilt by LU solves, no basis passes 4e11
PENALIZED_ILL_CONDITIONED = [(1e4, 8), (1e4, 12), (1e4, 53), (1e4, 96),
                             (1e5, 1), (1e5, 2), (1e5, 10), (1e5, 16), (1e5, 25)]


@pytest.mark.parametrize("radius, seed", PENALIZED_ILL_CONDITIONED)
def test_penalized_ot_survives_ill_conditioned_bases(radius, seed):
    m = (4 if radius == 1e4 else 3) + seed % 8
    mu, nu = random_convex_pair(seed, m, 2 * m, radius=radius)
    value, _ = mot_solve(mu, nu, CostSpec.absolute())
    assert penalized_ot(mu, nu, CostSpec.absolute(), 1.0) == pytest.approx(value, rel=1e-9)


def test_monotonicity_check_takes_a_matrix_cost():
    # an uncertified sample used to raise "cost matrix shape does not match
    # the supports": the matrix is over pi's grid, the sample's LP over its own
    mu, nu = random_convex_pair(0, 5, 10)
    cost = CostSpec.from_matrix(np.random.default_rng(0).normal(size=(5, 10)))
    optimizer = mot_solve(mu, nu, cost)[1]
    report = monotonicity_check(optimizer, cost, 40, 4, 0)
    assert report.samples == 40 and report.n_violations == 0


def test_matrix_cost_slices_like_the_analytic_cost():
    # the abs cost written out as a matrix over pi's grid finds exactly the
    # violations of CostSpec.absolute()
    cases = [make_coupling(SUBOPTIMAL)]
    for seed in range(3):
        mu, nu = random_convex_pair(seed, m=5 + seed, k=10 + seed)
        matrix = np.random.default_rng(seed).normal(size=(len(mu), len(nu)))
        cases.append(mot_solve(mu, nu, CostSpec.from_matrix(matrix))[1])
    total = 0
    for seed, pi in enumerate(cases):
        mu, nu = pi.first_marginal, pi.second_marginal
        as_matrix = CostSpec.from_matrix(np.abs(nu.atoms[None, :] - mu.atoms[:, None]))
        expected = monotonicity_check(pi, CostSpec.absolute(), 40, 4, seed)
        assert monotonicity_check(pi, as_matrix, 40, 4, seed).violations == expected.violations
        total += expected.n_violations
    assert total > 0
