import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motline import (
    InputError,
    barycentre_report,
    check_dispersion,
    convex_order,
    example1_family1,
    example1_family2,
    hoeffding_frechet,
    identity_coupling,
    is_martingale,
    is_monotone_support,
    make_coupling,
    make_measure,
    point_mass,
    product_coupling,
    random_convex_pair,
)
from motline.measures import MASS_DROP_TOL, quantile_cells
from motline.transport import north_west_start

TOL = 1e-12


def test_make_measure_merges_duplicates():
    m = make_measure([1, 1, 2], [0.25, 0.25, 0.5])
    assert np.allclose(m.atoms, [1, 2])
    assert np.allclose(m.weights, [0.5, 0.5])


def test_make_measure_point_mass():
    m = make_measure([0], [1])
    assert m.atoms.tolist() == [0.0] and m.weights.tolist() == [1.0]


def test_make_measure_sorts():
    m = make_measure([3, 1], [0.5, 0.5])
    assert m.atoms.tolist() == [1.0, 3.0]


def test_make_measure_drops_zero_weights_and_renormalizes():
    m = make_measure([0, 1, 2], [0.0, 1.0, 3.0])
    assert m.atoms.tolist() == [1.0, 2.0]
    assert abs(m.weights.sum() - 1.0) <= TOL
    assert np.allclose(m.weights, [0.25, 0.75])


@pytest.mark.parametrize("atoms,weights", [([], []), ([0, 1], [0.5, -0.5])])
def test_make_measure_rejects_bad_input(atoms, weights):
    with pytest.raises(InputError):
        make_measure(atoms, weights)


def test_convex_order_examples():
    d0 = point_mass(0)
    pm1 = make_measure([-1, 1], [0.5, 0.5])
    assert convex_order(d0, pm1)
    assert not convex_order(pm1, d0)
    assert convex_order(pm1, pm1)


def test_convex_order_rejects_mean_mismatch():
    assert not convex_order(point_mass(0), make_measure([0, 1], [0.5, 0.5]))


def test_barycentre_report_martingale_is_zero():
    pi = product_coupling(point_mass(0), make_measure([-1, 1], [0.5, 0.5]))
    rep = barycentre_report(pi)
    assert rep.epsilon == 0.0
    assert rep.zero == (0.0,) and not rep.plus and not rep.minus


def test_barycentre_report_family_values(family1, family2):
    pi, _ = family1(4)
    assert abs(barycentre_report(pi).epsilon - 0.25) <= TOL
    pi, _ = family2(2)
    assert abs(barycentre_report(pi).epsilon - 0.4) <= TOL


def test_barycentre_report_epsilon_consistency():
    for seed in range(5):
        m, k = 2 + seed, 4 + seed
        mu, nu = random_convex_pair(seed, m=m, k=k)
        pi = hoeffding_frechet(mu, nu)
        rep = barycentre_report(pi)
        recomputed = float(np.dot(pi.first_marginal.weights, np.abs(rep.deviations)))
        assert abs(rep.epsilon - recomputed) <= TOL
        assert len(rep.plus) + len(rep.zero) + len(rep.minus) == len(pi.first_marginal)


def test_check_dispersion_martingale_true():
    pi = identity_coupling(make_measure([0, 1, 2], [0.3, 0.3, 0.4]))
    assert check_dispersion(pi)


def test_check_dispersion_antimonotone_false():
    pi = make_coupling([(0, 2, 0.5), (2, 0, 0.5)])
    assert not check_dispersion(pi)


def test_check_dispersion_hoeffding_frechet():
    for seed in range(20):
        mu, nu = random_convex_pair(seed, m=2 + seed % 4, k=5 + seed % 3)
        pi = hoeffding_frechet(mu, nu)
        assert is_monotone_support(pi)
        assert check_dispersion(pi)


def test_hoeffding_frechet_quantile_pairing():
    pi = hoeffding_frechet(make_measure([0, 1], [0.5, 0.5]), make_measure([2, 3], [0.5, 0.5]))
    assert (pi.x1.tolist(), pi.x2.tolist(), pi.w.tolist()) == ([0.0, 1.0], [2.0, 3.0], [0.5, 0.5])


def test_hoeffding_frechet_from_point_mass_is_product():
    nu = make_measure([-1, 0, 2], [0.2, 0.3, 0.5])
    pi = hoeffding_frechet(point_mass(0), nu)
    product = product_coupling(point_mass(0), nu)
    for coords in ("x1", "x2", "w"):
        assert np.array_equal(getattr(pi, coords), getattr(product, coords))


def test_hoeffding_frechet_breakpoint_merge():
    pi = hoeffding_frechet(make_measure([0, 1], [0.25, 0.75]), make_measure([0, 2], [0.5, 0.5]))
    assert (pi.x1.tolist(), pi.x2.tolist()) == ([0.0, 1.0, 1.0], [0.0, 0.0, 2.0])
    assert np.max(np.abs(pi.w - [0.25, 0.25, 0.5])) <= TOL


def test_hoeffding_frechet_drops_sliver_cells():
    # the cumulative weights 0.1 + 0.2 and 0.3 differ by rounding only: the
    # staircase has a sliver cell at (1, 1.5) that carries no real mass
    mu = make_measure([0, 1, 2], [0.1, 0.2, 0.7])
    nu = make_measure([0.5, 1.5], [0.3, 0.7])
    _, mass = quantile_cells(mu.weights, nu.weights)
    assert 0 < mass[2] <= MASS_DROP_TOL
    pi = hoeffding_frechet(mu, nu)
    assert (pi.x1.tolist(), pi.x2.tolist()) == ([0.0, 1.0, 2.0], [0.5, 0.5, 1.5])


# positive weight vectors of 1..6 atoms, normalised to mass 1
_WEIGHTS = st.lists(st.integers(1, 1000), min_size=1, max_size=6).map(
    lambda w: np.array(w, dtype=float) / sum(w))


@settings(max_examples=200, deadline=None)
@given(_WEIGHTS, _WEIGHTS)
def test_quantile_cells_of_two_vectors_are_a_staircase(a, b):
    (i, j), mass = quantile_cells(a, b)
    m, k = len(a), len(b)
    assert i.size == j.size == mass.size == m + k - 1
    assert (i[0], j[0], i[-1], j[-1]) == (0, 0, m - 1, k - 1)
    assert np.all(np.diff(i) + np.diff(j) == 1) and np.all(np.diff(i) >= 0)
    assert np.all(mass >= 0)
    assert np.max(np.abs(np.bincount(i, mass, minlength=m) - a)) <= 1e-15
    assert np.max(np.abs(np.bincount(j, mass, minlength=k) - b)) <= 1e-15


def test_quantile_cells_break_ties_in_argument_order():
    # on an exact tie the first vector steps first; north_west_start passes
    # the target first, so its staircase steps right: (0,0), (0,1), (1,1)
    (i, j), mass = quantile_cells([0.5, 0.5], [0.5, 0.5])
    assert (i.tolist(), j.tolist(), mass.tolist()) == ([0, 1, 1], [0, 0, 1], [0.5, 0.0, 0.5])
    start, plan = north_west_start(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert start.tolist() == [0, 1, 3, -1]
    assert plan.tolist() == [[0.5, 0.0], [0.0, 0.5]]


@settings(max_examples=100, deadline=None)
@given(st.lists(_WEIGHTS, min_size=3, max_size=4))
def test_quantile_cells_of_many_vectors_refine_every_pair(weights):
    index, mass = quantile_cells(*weights)
    assert index.shape == (len(weights), mass.size)
    for a in range(len(weights)):
        for b in range(a + 1, len(weights)):
            (i, j), pair_mass = quantile_cells(weights[a], weights[b])
            joint = np.zeros((len(weights[a]), len(weights[b])))
            np.add.at(joint, (index[a], index[b]), mass)
            pair = np.zeros_like(joint)
            pair[i, j] = pair_mass
            assert np.max(np.abs(joint - pair)) <= 1e-15


def test_is_monotone_support():
    mu = make_measure([0, 1], [0.5, 0.5])
    nu = make_measure([2, 3], [0.5, 0.5])
    assert is_monotone_support(hoeffding_frechet(mu, nu))
    assert not is_monotone_support(make_coupling([(0, 3, 0.5), (1, 2, 0.5)]))
    assert is_monotone_support(product_coupling(point_mass(0), nu))


def test_is_martingale_examples(family1):
    mu = make_measure([0, 1], [0.5, 0.5])
    assert is_martingale(identity_coupling(mu))
    pi, _ = family1(3)
    assert not is_martingale(pi)
    assert is_martingale(product_coupling(point_mass(0), make_measure([-1, 1], [0.5, 0.5])))


def test_martingale_iff_zero_epsilon():
    for seed in range(10):
        pi = _random_pi(seed)
        assert is_martingale(pi) == (barycentre_report(pi).epsilon <= 1e-9)


def _random_pi(seed):
    from motline import random_coupling

    mu, nu = random_convex_pair(seed, m=2 + seed % 3, k=4 + seed % 3)
    return random_coupling(seed + 1, mu, nu)


def test_coupling_marginals_match_points():
    for seed in range(10):
        pi = _random_pi(seed)
        mu = pi.first_marginal
        grouped = {}
        for a, w in zip(pi.x1, pi.w):
            grouped[a] = grouped.get(a, 0.0) + w
        for atom, weight in zip(mu.atoms, mu.weights):
            assert abs(grouped[float(atom)] - weight) <= TOL


def test_coupling_kernel_reconstructs():
    for seed in range(10):
        pi = _random_pi(seed)
        x1, x2, w = [], [], []
        for atom, weight, kernel in pi.kernel_items():
            x1 += [atom] * len(kernel)
            x2 += kernel.atoms.tolist()
            w += (weight * kernel.weights).tolist()
        assert (x1, x2) == (pi.x1.tolist(), pi.x2.tolist())
        assert np.max(np.abs(np.array(w) - pi.w)) <= 1e-14


def _mask_kernels(pi):
    """Kernels built the way a float-keyed lookup used to build them: one
    ``x1 == atom`` mask per first-marginal atom."""
    mu = pi.first_marginal
    return [(pi.x2[pi.x1 == atom], pi.w[pi.x1 == atom] / weight)
            for atom, weight in zip(mu.atoms, mu.weights)]


def _kernel_cases():
    from motline import random_coupling

    cases = [_random_pi(seed) for seed in range(12)]
    cases += [example1_family1(n)[0] for n in (2, 3, 7)]
    cases += [example1_family2(n)[0] for n in (1, 2, 4)]
    # every coordinate split into a run of three values 6e-13 apart, which
    # make_coupling merges into one atom
    mu, nu = random_convex_pair(3, m=4, k=6)
    base = random_coupling(4, mu, nu)
    cases.append(make_coupling([(a + 6e-13 * s, b - 6e-13 * s, w / 3)
                                for a, b, w in zip(base.x1, base.x2, base.w)
                                for s in (-1, 0, 1)]))
    assert len(cases[-1].first_marginal) == len(mu) and len(cases[-1]) == len(base)
    return cases


def test_kernels_by_position_match_masks():
    for pi in _kernel_cases():
        mu = pi.first_marginal
        expected = _mask_kernels(pi)
        assert len(pi.kernels) == len(expected) == len(mu)
        items = pi.kernel_items()
        for i, (atom, weight) in enumerate(zip(mu.atoms, mu.weights)):
            x2, w = expected[i]
            for kernel in (pi.kernels[i], pi.kernel(atom), pi.kernel(float(atom)), items[i][2]):
                assert kernel.atoms.tobytes() == x2.tobytes()
                assert kernel.weights.tobytes() == w.tobytes()
            assert items[i][:2] == (float(atom), float(weight))
        gaps = np.diff(mu.atoms) / 2 if len(mu) > 1 else np.array([0.5])
        for x1 in (mu.atoms[0] - 1.0, mu.atoms[-1] + 1.0, mu.atoms[0] + gaps[0], np.nan):
            with pytest.raises(InputError, match="not an atom of the first marginal"):
                pi.kernel(x1)


def test_make_coupling_rejects_bad_input():
    with pytest.raises(InputError):
        make_coupling([])
    with pytest.raises(InputError):
        make_coupling([(0, 0, -0.5), (1, 1, 1.5)])


def test_measures_immutable():
    m = make_measure([0, 1], [0.5, 0.5])
    with pytest.raises(ValueError):
        m.atoms[0] = 5.0
