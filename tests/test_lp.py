import math
import random

import numpy as np
import pytest

import motline.lp as lp_module
import motline.mot as mot
import motline.nested as nested
import motline.transport as transport
from motline import (
    CostSpec,
    InputError,
    InternalError,
    KappaSpec,
    LinearProgram,
    competitor_improve,
    kappa_competitor_improve,
    make_coupling,
    monotonicity_check,
    mot_solve,
    optimal_coupling_1d,
    penalized_ot,
    project_to_martingale,
    random_convex_pair,
    random_coupling,
    solve_lp,
    solve_transport,
    strassen_feasible,
)
from motline.cli import main
from motline.jsonio import save
from motline.lp import FEAS_TOL, _independent_rows
from motline.transport import grid_rows, north_west_start

from conftest import built_lp, highs, transport_bruteforce, transport_system

TOL = 1e-9


def test_lower_bound_via_inequality():
    # x >= 3 written as -x + s = -3 with a slack s: the row is negated to a
    # nonnegative right-hand side before the solve
    sol = solve_lp(LinearProgram(objective=[1.0, 0.0], a_eq=[[-1.0, 1.0]], b_eq=[-3.0]))
    assert sol.status == "optimal"
    assert abs(sol.x[0] - 3.0) <= TOL and abs(sol.objective - 3.0) <= TOL
    assert sol.max_violation <= TOL


def test_two_by_two_transport():
    # mu = nu = (1/2, 1/2), cost |i - j|: identity plan, zero cost
    a, b = transport_system([0.5, 0.5], [0.5, 0.5])
    sol = solve_lp(LinearProgram(objective=[0, 1, 1, 0], a_eq=a, b_eq=b))
    assert sol.status == "optimal"
    assert abs(sol.objective) <= TOL
    assert np.allclose(sol.x, [0.5, 0, 0, 0.5], atol=TOL)


def test_infeasible_equalities():
    sol = solve_lp(LinearProgram(objective=[0, 0], a_eq=[[1, 1], [1, -1]], b_eq=[1, 3]))
    assert sol.status == "infeasible"


def test_unbounded():
    sol = solve_lp(LinearProgram(objective=[-1.0, 0.0]))
    assert sol.status == "unbounded"


def test_matches_vertex_enumeration_on_random_transport():
    rng = random.Random(7)
    for _ in range(50):
        n1 = rng.randint(2, 4)
        n2 = rng.randint(2, 4)
        sw = np.array([rng.uniform(0.1, 1.0) for _ in range(n1)])
        tw = np.array([rng.uniform(0.1, 1.0) for _ in range(n2)])
        sw /= sw.sum()
        tw /= tw.sum()
        cost = np.array([[rng.uniform(0, 5) for _ in range(n2)] for _ in range(n1)])
        a, b = transport_system(sw, tw)
        sol = solve_lp(LinearProgram(objective=cost.ravel(), a_eq=a, b_eq=b))
        assert sol.status == "optimal"
        assert abs(sol.objective - transport_bruteforce(cost, sw, tw)) <= TOL
        assert sol.max_violation <= TOL


def test_bit_identical_resolve():
    rng = random.Random(3)
    cost = np.array([[rng.uniform(0, 5) for _ in range(4)] for _ in range(3)])
    a, b = transport_system([0.2, 0.3, 0.5], [0.25, 0.25, 0.25, 0.25])
    lp = LinearProgram(objective=cost.ravel(), a_eq=a, b_eq=b)
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first.objective == second.objective
    assert first.x.tolist() == second.x.tolist()


def test_redundant_rows_are_tolerated():
    # transportation systems carry one dependent row by construction
    a, b = transport_system([1.0], [0.4, 0.6])
    sol = solve_lp(LinearProgram(objective=[1.0, 2.0], a_eq=a, b_eq=b))
    assert sol.status == "optimal"
    assert abs(sol.objective - (0.4 + 1.2)) <= TOL


def test_duplicated_consistent_row_preserves_optimum():
    a, b = transport_system([0.3, 0.7], [0.5, 0.5])
    a2 = np.vstack([a, a[0]])
    b2 = np.concatenate([b, [b[0]]])
    cost = np.array([1.0, 3.0, 2.0, 0.5])
    plain = solve_lp(LinearProgram(objective=cost, a_eq=a, b_eq=b))
    doubled = solve_lp(LinearProgram(objective=cost, a_eq=a2, b_eq=b2))
    assert doubled.status == "optimal"
    assert abs(doubled.objective - plain.objective) <= TOL


def test_inconsistent_dependent_row_is_infeasible():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    sol = solve_lp(LinearProgram(objective=[1.0, 1.0], a_eq=a, b_eq=[1.0, 2.5]))
    assert sol.status == "infeasible"


def test_rejects_malformed_programs():
    with pytest.raises(InputError):
        LinearProgram(objective=[1.0], a_eq=[[1.0, 2.0]], b_eq=[1.0])
    with pytest.raises(InputError):
        LinearProgram(objective=[np.inf])


def test_program_leaves_the_callers_arrays_writable():
    # the program freezes views of its inputs, not the caller's arrays
    c, a, b = np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0])
    lp = LinearProgram(objective=c, a_eq=a, b_eq=b)
    for arr in (lp.objective, lp.a_eq, lp.b_eq):
        assert not arr.flags.writeable
    c[0], a[0, 0], b[0] = 3.0, 3.0, 3.0  # raises on a read-only array


def test_pivot_counts_are_pinned(monkeypatch):
    # pivot sequences are deterministic: these counts move only when the
    # simplex, or a program or start handed to it, changes.  Each program is
    # solved cold and from its caller's start: the transport and penalized
    # LPs start complete and feasible, and phase 1 of the martingale and
    # projection LPs repairs only the martingale rows.  Each count is
    # (pivots, rebuilds, dropped rows): the marginal rows of a grid hold one
    # dependent row, the martingale rows one more
    rng = np.random.default_rng(6)
    cost, sw, tw = rng.random((6, 6)), rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
    mu, nu = random_convex_pair(5, m=5, k=10)
    pi = random_coupling(6, mu, nu, blend=3)
    calls = {
        "transport": (transport, lambda: solve_transport(cost, sw, tw),
                      ((17, 11), 0, 1), ((0, 9), 0, 1)),
        "mot_solve": (mot, lambda: mot_solve(mu, nu, CostSpec.absolute()),
                      ((34, 13), 0, 2), ((6, 7), 0, 2)),
        "strassen": (mot, lambda: strassen_feasible(mu, nu),
                     ((34, 0), 0, 2), ((6, 0), 0, 2)),
        "penalized": (mot, lambda: penalized_ot(mu, nu, CostSpec.absolute(), 1.0),
                      ((53, 19), 0, 1), ((0, 8), 0, 1)),
        "projection": (nested, lambda: project_to_martingale(pi),
                       ((119, 7), 0, 2), ((17, 22), 0, 2)),
    }
    for name, (module, call, cold, warm) in calls.items():
        lp, start = built_lp(monkeypatch, module, call)
        counts = [(sol.pivots, sol.rebuilds, sol.dropped_rows)
                  for sol in (solve_lp(lp), solve_lp(lp, start=start))]
        assert counts == [cold, warm], name


def test_lps_without_a_start_are_unchanged(monkeypatch):
    # the competitor LPs take no start: their pivot paths, and so their
    # optima, are the ones they had before any caller took a start.  The kappa
    # competitor LP is over the stacked inner plans alone: n_src + k + m rows
    # and n_src * k columns
    mu, nu = random_convex_pair(5, m=5, k=10)
    alpha = random_coupling(4, mu, nu)
    spec = KappaSpec(random_coupling(5, mu, nu), lambda x1, x2, y2: abs(x2 - y2))
    gammas = [optimal_coupling_1d(spec.kernel(x1), kern)
              for x1, _, kern in alpha.kernel_items()]
    calls = [(lambda: competitor_improve(alpha, CostSpec.absolute()),
              (33, 18), "0x1.495bffbd504b5p+1"),
             (lambda: kappa_competitor_improve(alpha, gammas, spec),
              (66, 33), "0x1.afb8cbeff4276p+0")]
    for call, pivots, objective in calls:
        lp, start = built_lp(monkeypatch, mot, call)
        sol = solve_lp(lp)
        assert start is None
        assert (sol.pivots, sol.objective.hex()) == (pivots, objective)
    n_src = sum(len(spec.kernel(x1)) for x1 in mu.atoms)
    assert lp.a_eq.shape == (n_src + len(nu) + len(mu), n_src * len(nu)) == (40, 250)


def _highs_value(lp):
    res = highs(lp.objective, lp.a_eq, lp.b_eq)
    assert res.status == 0
    return res.fun


# seeded m x 2m pairs, plus a 40 x 40 transport on random weights
WARM_CASES = [(1, 4), (2, 7), (3, 10), (4, 13), (5, 15), (6, 20)]


@pytest.mark.parametrize("seed, m", WARM_CASES + [(40, 40)])
def test_transport_start_needs_no_phase_1(monkeypatch, seed, m):
    if m == 40:
        rng = np.random.default_rng(seed)
        sw, tw, cost = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m)), rng.random((m, m))
    else:
        mu, nu = random_convex_pair(seed, m=m, k=2 * m)
        sw, tw = mu.weights, nu.weights
        # a concave cost, so the north-west corner is not already optimal
        cost = np.sqrt(np.abs(mu.atoms[:, None] - nu.atoms[None, :]))
    value, _ = solve_transport(cost, sw, tw)
    lp, start = built_lp(monkeypatch, transport, lambda: solve_transport(cost, sw, tw))
    sol = solve_lp(lp, start=start)
    assert sol.pivots[0] == 0 and sol.objective == value
    assert value == pytest.approx(_highs_value(lp), rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("seed, m", WARM_CASES)
def test_penalized_start_needs_no_phase_1(monkeypatch, seed, m):
    mu, nu = random_convex_pair(seed, m=m, k=2 * m)
    value = penalized_ot(mu, nu, CostSpec.absolute(), 1.0)
    lp, start = built_lp(monkeypatch, mot,
                          lambda: penalized_ot(mu, nu, CostSpec.absolute(), 1.0))
    sol = solve_lp(lp, start=start)
    assert sol.pivots[0] == 0 and sol.objective == value
    assert value == pytest.approx(_highs_value(lp), rel=1e-9)


def _assert_same_optimum(lp, start):
    cold, warm = solve_lp(lp), solve_lp(lp, start=start)
    assert cold.status == warm.status == "optimal"
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12, abs=1e-15)
    expected = highs(lp.objective, lp.a_eq, lp.b_eq).fun
    assert warm.objective == pytest.approx(expected, rel=1e-9, abs=1e-12)
    assert max(cold.max_violation, warm.max_violation) <= FEAS_TOL


SCALES = [(1.0, 0.0), (1e-3, 0.0), (1.0, 25.0), (1e-3, -0.04)]


@pytest.mark.parametrize("scale, shift", SCALES)
def test_start_basis_keeps_the_transport_optimum(scale, shift):
    for seed in range(12):
        m = 3 + seed % 6
        mu, nu = random_convex_pair(seed, m=m, k=m + 1 + seed % 4, radius=1.0)
        x, y = scale * mu.atoms + shift, scale * nu.atoms + shift
        # a concave cost, so the north-west corner is not already optimal
        cost = np.sqrt(np.abs(x[:, None] - y[None, :]))
        lp = LinearProgram(objective=cost.ravel(), a_eq=grid_rows(len(mu), len(nu)),
                           b_eq=np.r_[mu.weights, nu.weights])
        _assert_same_optimum(lp, north_west_start(mu.weights, nu.weights)[0])


@pytest.mark.parametrize("scale, shift", SCALES)
def test_start_basis_keeps_the_projection_optimum(monkeypatch, scale, shift):
    for seed in range(12):
        m = 3 + seed % 6
        mu, nu = random_convex_pair(seed, m=m, k=m + 1 + seed % 4, radius=1.0)
        pi = random_coupling(seed + 70, mu, nu)
        pi = make_coupling([(scale * a + shift, scale * b + shift, w)
                            for a, b, w in zip(pi.x1, pi.x2, pi.w)])
        lp, start = built_lp(monkeypatch, nested, lambda: project_to_martingale(pi))
        _assert_same_optimum(lp, start)


def test_singular_or_infeasible_start_falls_back_to_the_default_basis():
    sw, tw = np.array([0.6, 0.3, 0.1]), np.array([0.1, 0.3, 0.6])
    cost = np.array([[4.0, 1.0, 2.0], [0.5, 3.0, 1.0], [2.0, 2.5, 0.1]])
    lp = LinearProgram(objective=cost.ravel(), a_eq=grid_rows(3, 3), b_eq=np.r_[sw, tw])
    cold = solve_lp(lp)
    # cells (0,0), (0,1), (1,0), (1,1) close a cycle, so their columns are
    # dependent; the south-west staircase needs x[1,0] = 0.1 - 0.6 - 0.3 < 0
    for start in ([0, 1, 3, 4, 8, -1], [0, 3, 6, 7, 8, -1]):
        warm = solve_lp(lp, start=start)
        assert warm.status == "optimal"
        assert warm.x.tolist() == cold.x.tolist() and warm.pivots == cold.pivots
    assert solve_lp(lp, start=north_west_start(sw, tw)[0]).objective == pytest.approx(
        cold.objective, rel=1e-12)


def test_rejects_malformed_start():
    lp = LinearProgram(objective=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    for start in ([0, 1], [2], [-2]):
        with pytest.raises(InputError):
            solve_lp(lp, start=start)


def _full_elimination(a, b):
    """Gaussian elimination over every row of [a | b], in order, rows with a
    private column included: the reference for ``_independent_rows``."""
    m, n = a.shape
    work = np.column_stack([a, b]).astype(float)
    reduced_rows, pivot_cols, kept, worst = [], [], [], 0.0
    for i in range(m):
        row = work[i].copy()
        for r, pc in zip(reduced_rows, pivot_cols):
            if row[pc] != 0.0:
                row -= row[pc] * r
        if np.max(np.abs(row[:n])) > 1e-10 * (1.0 + np.max(np.abs(a[i]))):
            pc = int(np.argmax(np.abs(row[:n])))
            reduced_rows.append(row / row[pc])
            pivot_cols.append(pc)
            kept.append(i)
        else:
            worst = max(worst, abs(float(row[n])))
    if worst > FEAS_TOL * (1.0 + float(np.max(np.abs(b)))):
        return None, worst
    return kept, None


def _assert_rank_pass_matches(a, b):
    kept, inconsistency = _independent_rows(a, b)
    ref_kept, ref_inconsistency = _full_elimination(a, b)
    assert kept == ref_kept
    assert (inconsistency is None) == (ref_inconsistency is None)


@pytest.mark.parametrize("radius", [1e-3, 1.0, 1e3])
def test_rank_pass_matches_full_elimination_on_caller_lps(monkeypatch, radius):
    programs = []

    def record(a, b):
        programs.append((a.copy(), b.copy()))
        return _independent_rows(a, b)

    monkeypatch.setattr(lp_module, "_independent_rows", record)
    for seed in range(4):
        m = 3 + seed
        mu, nu = random_convex_pair(seed, m=m, k=2 * m, radius=radius)
        solve_transport(np.sqrt(np.abs(mu.atoms[:, None] - nu.atoms[None, :])),
                        mu.weights, nu.weights)
        mot_solve(mu, nu, CostSpec.absolute())
        strassen_feasible(mu, nu)
        penalized_ot(mu, nu, CostSpec.absolute(), 1.0)
        project_to_martingale(random_coupling(seed + 20, mu, nu))
        competitor_improve(random_coupling(seed + 40, mu, nu), CostSpec.absolute())
    assert len(programs) >= 24
    for a, b in programs:
        _assert_rank_pass_matches(a, b)


@pytest.mark.parametrize("seed", range(6))
def test_rank_pass_matches_full_elimination_on_planted_rows(seed):
    rng = np.random.default_rng(seed)
    m, n = 8 + seed, 14 + 2 * seed
    base = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.3)
    b = base @ rng.random(n)
    rows, rhs, planted = list(base), list(b), []
    for _ in range(4):
        i, j = rng.choice(m, size=2, replace=False)
        c1, c2 = rng.uniform(-2.0, 2.0, size=2)
        at = int(rng.integers(0, len(rows) + 1))
        rows.insert(at, c1 * base[i] + c2 * base[j])
        rhs.insert(at, c1 * b[i] + c2 * b[j])
        planted = [k + (k >= at) for k in planted] + [at]
    a, consistent = np.array(rows), np.array(rhs)
    # the last planted row made inconsistent with the rows it depends on
    inconsistent = consistent.copy()
    inconsistent[planted[-1]] += 1.0
    with_slacks = np.hstack([a, np.eye(len(rows))[:, rng.random(len(rows)) < 0.4]])
    for program in (a, with_slacks):
        for b in (consistent, inconsistent):
            _assert_rank_pass_matches(program, b)
    assert len(_independent_rows(a, consistent)[0]) <= len(rows) - 4
    assert _independent_rows(a, inconsistent)[0] is None


def test_rank_pass_on_zero_rows_and_private_columns():
    a, b = transport_system([0.3, 0.7], [0.2, 0.5, 0.3])
    zero = np.vstack([a, np.zeros(a.shape[1])])
    # an all-zero row is infeasible when b != 0 and dropped when b == 0
    assert _independent_rows(zero, np.r_[b, 0.5])[0] is None
    assert _independent_rows(zero, np.r_[b, 0.0])[0] == [0, 1, 2, 3]
    _assert_rank_pass_matches(zero, np.r_[b, 0.5])
    # no row of a transportation system has a private column
    _assert_rank_pass_matches(a, b)
    # every row has a private column: all are kept, even duplicates on the
    # other columns
    private = np.hstack([np.vstack([a, a]), np.eye(2 * a.shape[0])])
    assert _independent_rows(private, np.r_[b, b])[0] == list(range(10))
    _assert_rank_pass_matches(private, np.r_[b, b])


def test_singular_basis_raises_internal_error(monkeypatch, tmp_path, capsys):
    # the cold penalized LP of this pair ends phase 1 with an artificial in
    # its basis, so it rebuilds its tableau; a singular basis there is a
    # defect, not a reason to fall back to least squares
    mu, nu = random_convex_pair(3, m=4, k=8)
    lp, _ = built_lp(monkeypatch, mot, lambda: penalized_ot(mu, nu, CostSpec.absolute(), 1.0))
    assert solve_lp(lp).rebuilds == 1
    files = []
    for name, measure in (("mu", mu), ("nu", nu)):
        files.append(str(tmp_path / f"{name}.json"))
        save(files[-1], {"atoms": measure.atoms.tolist(), "weights": measure.weights.tolist()})

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(InternalError, match="phase-1 rebuild basis is singular"):
        solve_lp(lp)
    # the CLI's start needs a solve too, so it falls back to the cold start
    assert main(["mot", "penalized", *files]) == 4
    assert "phase-1 rebuild basis is singular" in capsys.readouterr().err


def test_phase_2_basis_off_its_optimum_raises_internal_error(monkeypatch):
    # phase 2 runs the simplex once and reads its basis off the original
    # rows: a basis that is not optimal there is a defect, not a point to
    # return, so a phase 2 stopped before its last pivot must raise
    rng = np.random.default_rng(7)
    a, b = transport_system(np.full(4, 0.25), np.full(5, 0.2))
    lp = LinearProgram(objective=rng.random(20), a_eq=a, b_eq=b)
    assert solve_lp(lp).pivots[1] >= 1
    original = lp_module._run_simplex

    def stop_phase_2(tableau, basis, allowed):
        if allowed.all():  # phase 1 never lets an artificial enter
            return "optimal", 0
        return original(tableau, basis, allowed)

    monkeypatch.setattr(lp_module, "_run_simplex", stop_phase_2)
    with pytest.raises(InternalError, match="phase-2 basis is not optimal in the exact view"):
        solve_lp(lp)


def test_values_match_highs_through_the_rebuilds(monkeypatch):
    # the phase-1 rebuilds only steer the simplex: every value they lead to
    # is HiGHS's, on competitor, martingale and penalized LPs, including a
    # wide penalized LP and a narrow one on which HiGHS at its default
    # tolerances is 1e-4 off
    solved = []
    original = mot.solve_lp

    def against_highs(lp, start=None):
        sol = original(lp, start=start)
        assert sol.objective == pytest.approx(_highs_value(lp), rel=1e-9, abs=1e-12)
        solved.append(sol)
        return sol

    monkeypatch.setattr(mot, "solve_lp", against_highs)
    # every monotonicity sample past the hull test goes to its competitor LP
    monkeypatch.setattr(mot, "_improvement_bound", lambda *args: math.inf)
    cost = CostSpec.absolute()
    for seed in range(8):
        m = 3 + seed % 6
        mu, nu = random_convex_pair(seed, m=m, k=2 * m)
        _, optimizer = mot_solve(mu, nu, cost)
        penalized_ot(mu, nu, cost, 1.0)
        monotonicity_check(optimizer, cost, 10, 4, seed)
    mu, nu = random_convex_pair(8, m=4, k=8, radius=1e4)
    penalized_ot(mu, nu, cost, 1.0)
    mu, nu = random_convex_pair(37, m=8, k=16, radius=1e-3)
    penalized_ot(mu, nu, cost, 1.0)
    assert sum(sol.rebuilds for sol in solved) >= 5
