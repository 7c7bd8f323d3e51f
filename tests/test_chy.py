import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posgeom.chy import (
    WrongCountError,
    _derivatives,
    _homotopy,
    _newton_polish,
    _root_distance,
    _solve_n4,
    _solve_n5,
    chy_amplitude,
    minors,
    moduli_coordinates,
    scattering_potential,
    solve_scattering,
)
from posgeom.kinematics import (
    kinematics_from_planar,
    polygon_diagonals,
    sample_abhy_kinematics,
    sample_kinematics,
)
from posgeom.trees import tree_amplitude

GOLDEN = (1 + math.sqrt(5)) / 2


def test_minor_polynomials_n5():
    ms = minors(5)
    as_strings = {pair: str(p) for pair, p in ms.items()}
    assert as_strings[(1, 2)] == "1"
    assert as_strings[(1, 3)] == "x + 1"
    assert as_strings[(1, 4)] == "x + y + 1"
    assert as_strings[(2, 3)] == "x"
    assert as_strings[(2, 4)] == "x + y"
    assert as_strings[(3, 4)] == "y"
    for i in range(1, 5):
        assert as_strings[(i, 5)] == "1"


def test_minor_polynomials_n4():
    ms = minors(4)
    assert str(ms[(1, 2)]) == "1"
    assert str(ms[(1, 3)]) == "x + 1"
    assert str(ms[(2, 3)]) == "x"
    assert all(str(ms[(i, 4)]) == "1" for i in range(1, 4))


def test_last_column_minors_always_one():
    for n in (4, 5, 6, 7):
        ms = minors(n)
        for i in range(1, n):
            assert ms[(i, n)].is_constant and ms[(i, n)].constant_value() == 1


def test_four_point_single_root():
    k = sample_kinematics(4, 5)
    pts = solve_scattering(k, tol=1e-10)
    assert len(pts) == 1
    value = chy_amplitude(k, pts)
    tree = float(tree_amplitude(k))
    assert abs(value - tree) / abs(tree) < 1e-12


def test_five_point_two_roots_golden_point():
    # all planar variables equal to one: the critical points sit at the
    # golden ratio and the amplitude is exactly five
    k = kinematics_from_planar(5, {d: F(1) for d in polygon_diagonals(5)})
    pts = solve_scattering(k, tol=1e-10)
    assert len(pts) == 2
    xs = sorted(p.coords[0].real for p in pts)
    assert xs[0] == pytest.approx(-GOLDEN, abs=1e-12)
    assert xs[1] == pytest.approx(GOLDEN - 1, abs=1e-12)
    assert all(p.coords[1] == pytest.approx(1.0, abs=1e-12) for p in pts)
    value = chy_amplitude(k, pts)
    assert value.real == pytest.approx(5.0, rel=1e-12)


@pytest.mark.parametrize("n,expected", [(5, 2), (6, 6)])
def test_root_counts_and_tree_agreement(n, expected):
    for seed in range(20):
        k = sample_kinematics(n, seed)
        pts = solve_scattering(k, tol=1e-10, seed=seed)
        assert len(pts) == expected
        value = chy_amplitude(k, pts)
        tree = float(tree_amplitude(k))
        assert abs(value - tree) / abs(tree) < 1e-9
        assert abs(value.imag) <= 1e-9 * abs(value) + 1e-12


def test_residuals_verified_independently():
    k = sample_kinematics(6, 2)
    pot = scattering_potential(k)
    s, kk, c = pot.arrays()
    for pt in solve_scattering(k, tol=1e-10, seed=2):
        x = np.array(pt.coords)
        p = kk + c @ x
        residual = np.max(np.abs((s / p) @ c))
        assert residual < 1e-10
        assert pt.residual < 1e-10
        h = np.array(pt.hessian)
        assert np.allclose(h, h.T)


def test_solver_determinism():
    k = sample_kinematics(6, 3)
    a = solve_scattering(k, tol=1e-10, seed=11)
    b = solve_scattering(k, tol=1e-10, seed=11)
    assert [p.coords for p in a] == [p.coords for p in b]
    firsts = [p.coords[0] for p in a]
    assert firsts == sorted(firsts, key=lambda z: (z.real, z.imag))


def test_degenerate_kinematics_raise_wrong_count():
    # a vanishing three-particle invariant drives a root onto the boundary
    planar = {d: F(1) for d in polygon_diagonals(6)}
    planar[(1, 3)] = F(-2)  # forces s with vanishing subset invariants
    k = kinematics_from_planar(6, planar)
    from posgeom.kinematics import is_generic

    if is_generic(k):
        pytest.skip("constructed point unexpectedly generic")
    with pytest.raises(WrongCountError):
        solve_scattering(k, tol=1e-10, seed=0)


def test_sign_convention_regression():
    # the Hessian-determinant sum carries the pinned sign (-1)^(n-3)
    for n in (4, 5, 6):
        k = sample_kinematics(n, 1)
        pts = solve_scattering(k, tol=1e-10, seed=1)
        raw = sum(1.0 / np.linalg.det(np.array(p.hessian)) for p in pts)
        tree = float(tree_amplitude(k))
        assert abs((-1) ** (n - 3) * raw - tree) / abs(tree) < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seven_point(seed):
    k = sample_kinematics(7, seed)
    pts = solve_scattering(k, tol=1e-9, seed=seed)
    assert len(pts) == 24
    value = chy_amplitude(k, pts)
    tree = float(tree_amplitude(k))
    assert abs(value - tree) / abs(tree) < 1e-9


def _tracked_roots(k, seed):
    """Endpoints of the first gamma's homotopy paths, unpolished."""
    pot = scattering_potential(k)
    return pot, next(_homotopy(pot, np.random.default_rng(seed)))


@pytest.mark.parametrize("n,closed_form", [(4, _solve_n4), (5, _solve_n5)])
def test_homotopy_endpoints_match_closed_forms(n, closed_form):
    for seed in range(20):
        k = sample_kinematics(n, seed)
        _, ends = _tracked_roots(k, seed)
        exact = closed_form(k)
        assert len(ends) == len(exact)
        for root in exact:
            assert min(_root_distance(root, e) for e in ends) < 1e-10
        for end in ends:
            assert min(_root_distance(end, r) for r in exact) < 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_homotopy_reaches_every_eight_point_root(seed):
    # path completeness apart from the residual acceptance: every chamber's
    # path ends on its own critical point, and together they give the tree
    k = sample_kinematics(8, seed)
    pot, ends = _tracked_roots(k, seed)
    assert len(ends) == 120 and all(np.all(np.isfinite(e)) for e in ends)
    for a in range(len(ends)):
        for b in range(a + 1, len(ends)):
            assert _root_distance(ends[a], ends[b]) > 1e-9
    raw = sum(1.0 / np.linalg.det(pot.theta_hessian(e)) for e in ends)
    tree = float(tree_amplitude(k))
    assert abs((-1) ** (8 - 3) * raw - tree) / abs(tree) < 1e-9


def test_minors_are_cached_but_returned_fresh():
    k = sample_kinematics(5, 3)
    before = [p.coords for p in solve_scattering(k, tol=1e-10)]
    ms = minors(5)
    ms[(1, 3)] = ms[(2, 3)]
    del ms[(3, 4)]
    again = minors(5)
    assert str(again[(1, 3)]) == "x + 1" and str(again[(3, 4)]) == "y"
    assert again is not minors(5)
    assert [p.coords for p in solve_scattering(k, tol=1e-10)] == before


def _residual(pot, x):
    return np.abs(_derivatives(pot, x)[1]).max(axis=-1)


def test_batched_polish_matches_row_by_row():
    # perturbed roots, so every row takes several Newton steps
    rng = np.random.default_rng(0)
    for n, seed in ((5, 0), (5, 7), (6, 2)):
        k = sample_kinematics(n, seed)
        pot = scattering_potential(k)
        roots = np.array([p.coords for p in solve_scattering(k, tol=1e-10, seed=seed)])
        rows = roots * (1 + 1e-4 * rng.standard_normal(roots.shape))
        stacked, residual = _newton_polish(pot, rows, 1e-10)
        for row, polished, res in zip(rows, stacked, residual):
            alone, res_alone = _newton_polish(pot, row[None], 1e-10)
            assert np.abs(alone[0] - polished).max() <= 1e-14 * np.abs(polished).max()
            assert res == pytest.approx(res_alone[0], rel=1e-14, abs=1e-15)
            assert res < 1e-10 and np.isclose(polished, roots, rtol=1e-9).all(axis=1).any()


def test_polish_singular_row_keeps_input():
    # s12 = 3, s23 = 1, s13 = -4: the Jacobian 4/(x+1)^2 - 1/x^2 of
    # L = s13 log(x+1) + s23 log x vanishes exactly at x = 1
    k = kinematics_from_planar(4, {(1, 3): F(3), (2, 4): F(1)})
    pot = scattering_potential(k)
    good = np.array([[0.3 + 0.01j]])
    rows = np.array([[1.0 + 0j], good[0]])
    polished, residual = _newton_polish(pot, rows, 1e-12)
    assert polished[0, 0] == 1.0 and residual[0] == _residual(pot, rows[0])
    alone, res_alone = _newton_polish(pot, good, 1e-12)
    assert polished[1, 0] == alone[0, 0] and residual[1] == res_alone[0]
    assert polished[1, 0] == pytest.approx(1 / 3, abs=1e-15)


POLISH_POT = scattering_potential(sample_kinematics(5, 11))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-1, 1), st.floats(-1, 1)),
                min_size=1, max_size=4))
def test_polish_never_raises_the_residual(points):
    rows = np.array([[complex(a, c), complex(b, d)] for a, b, c, d in points])
    polished, residual = _newton_polish(POLISH_POT, rows, 1e-10)
    with np.errstate(all="ignore"):  # rows may sit on a pole
        before, after = _residual(POLISH_POT, rows), _residual(POLISH_POT, polished)
    for b, a, r in zip(before, after, residual):
        if np.isfinite(b):
            assert r <= b and r == a


@pytest.mark.parametrize(
    "n,seed,positive,tol",
    [
        (5, 10, True, 1e-10),  # sample_abhy_kinematics seeds
        (5, 1, True, 1e-12),
        (6, 471, False, 1e-10),
        (7, 1, False, 1e-10),
        (7, 36, False, 1e-10),
        (7, 20, True, 1e-10),
        (7, 44, True, 1e-10),
    ],
)
def test_lowest_residual_polish_recovers_dropped_roots(n, seed, positive, tol):
    # before the batched polish kept its lowest-residual iterate, one root
    # of each of these stayed above tol and the solve raised WrongCountError
    k = sample_abhy_kinematics(seed) if n == 5 else sample_kinematics(n, seed, positive=positive)
    pts = solve_scattering(k, tol=tol)
    assert len(pts) == math.factorial(n - 3)
    tree = float(tree_amplitude(k))
    assert abs(chy_amplitude(k, pts) - tree) / abs(tree) < 1e-9
