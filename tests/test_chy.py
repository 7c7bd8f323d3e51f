import cmath
import math
from fractions import Fraction as F

import numpy as np
import pytest

from posgeom.chy import (
    WrongCountError,
    _homotopy,
    _root_distance,
    _solve_n4,
    _solve_n5,
    chy_amplitude,
    minors,
    moduli_coordinates,
    scattering_potential,
    solve_scattering,
)
from posgeom.kinematics import kinematics_from_planar, polygon_diagonals, sample_kinematics
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
