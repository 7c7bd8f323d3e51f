import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posgeom.exact import PoleError, RationalFunction, rf_equal
from posgeom.kinematics import (
    cyclic_relabel,
    kinematics_from_planar,
    planar_variables,
    polygon_diagonals,
    sample_kinematics,
)
from posgeom.trees import (
    N5_MANDELSTAM_NAMES,
    Triangulation,
    crossing,
    enumerate_triangulations,
    tree_amplitude,
    tree_amplitude_symbolic,
)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_triangulation_counts_match_catalan():
    for n in range(3, 11):
        assert len(enumerate_triangulations(n)) == catalan(n - 2)


def test_pentagon_has_five():
    ts = enumerate_triangulations(5)
    assert len(ts) == 5
    expected = {
        frozenset({(1, 3), (1, 4)}),
        frozenset({(1, 3), (3, 5)}),
        frozenset({(2, 4), (2, 5)}),
        frozenset({(1, 4), (2, 4)}),
        frozenset({(2, 5), (3, 5)}),
    }
    assert {frozenset(t.diagonals) for t in ts} == expected


def test_triangulation_validation():
    with pytest.raises(ValueError):
        Triangulation(5, ((1, 3), (2, 4)))  # crossing diagonals
    assert crossing((1, 3), (2, 4))
    assert not crossing((1, 3), (1, 4))


def test_octagon_count():
    assert len(enumerate_triangulations(8)) == 132


def test_four_point_amplitude():
    k = sample_kinematics(4, 3)
    x = planar_variables(k)
    assert tree_amplitude(k) == 1 / x[(1, 3)] + 1 / x[(2, 4)]


def test_all_unit_planar_gives_five():
    k = kinematics_from_planar(5, {d: F(1) for d in polygon_diagonals(5)})
    assert tree_amplitude(k) == 5


def test_symbolic_five_point_in_mandelstams():
    amp = tree_amplitude_symbolic(5, N5_MANDELSTAM_NAMES)
    v = {name: RationalFunction.variable(name) for name in ("s12", "s23", "s34", "s45", "s15")}
    reference = (
        1 / (v["s12"] * v["s45"])
        + 1 / (v["s23"] * v["s15"])
        + 1 / (v["s12"] * v["s34"])
        + 1 / (v["s23"] * v["s45"])
        + 1 / (v["s15"] * v["s34"])
    )
    assert rf_equal(amp, reference)


def test_pole_on_vanishing_planar_variable():
    planar = {d: F(1) for d in polygon_diagonals(5)}
    planar[(1, 3)] = F(0)
    k = kinematics_from_planar(5, planar)
    with pytest.raises(PoleError):
        tree_amplitude(k)


def test_cyclic_invariance():
    for n in (5, 6):
        for seed in range(5):
            k = sample_kinematics(n, seed)
            value = tree_amplitude(k)
            for shift in range(1, n):
                assert tree_amplitude(cyclic_relabel(k, shift)) == value


def test_symbolic_cyclic_invariance_n5():
    # relabeling i -> i+1 permutes the planar variable names
    amp = tree_amplitude_symbolic(5)
    names = {(i, j): f"X{(i % 5) + 1}{(j % 5) + 1}" for (i, j) in polygon_diagonals(5)}
    rotated_names = {}
    for (i, j), nm in names.items():
        a, b = sorted((((i) % 5) + 1, ((j) % 5) + 1))
        rotated_names[(i, j)] = f"X{a}{b}"
    rotated = tree_amplitude_symbolic(5, rotated_names)
    assert rf_equal(amp, rotated)


# --------------------------------------------------------------------------
# property tests: the integer tree sum against a Fraction reference
# --------------------------------------------------------------------------

PROPERTY = settings(max_examples=30, derandomize=True, database=None, deadline=None)
NONZERO = st.builds(F, st.integers(1, 40) | st.integers(-40, -1), st.integers(1, 9))


@st.composite
def planar_points(draw):
    n = draw(st.integers(4, 9))
    return n, {d: draw(NONZERO) for d in polygon_diagonals(n)}


def reference_tree_sum(n, planar):
    total = F(0)
    for t in enumerate_triangulations(n):
        term = F(1)
        for d in t.diagonals:
            term /= planar[d]
        total += term
    return total


@PROPERTY
@given(planar_points())
def test_tree_amplitude_is_the_fraction_triangulation_sum(point):
    n, planar = point
    value = tree_amplitude(kinematics_from_planar(n, planar))
    assert type(value) is F
    assert value == reference_tree_sum(n, planar)


@PROPERTY
@given(planar_points(), st.data())
def test_vanishing_planar_variable_raises_pole_error(point, data):
    n, planar = point
    d = data.draw(st.sampled_from(polygon_diagonals(n)))
    planar[d] = F(0)
    with pytest.raises(PoleError) as info:
        tree_amplitude(kinematics_from_planar(n, planar))
    assert str(info.value) == f"planar variable X{d} vanishes at this kinematic point"


def test_triangulation_lists_are_fresh_copies():
    k = sample_kinematics(6, 2)
    value = tree_amplitude(k)
    first = enumerate_triangulations(6)
    expected = list(first)
    first.pop()
    first.reverse()
    assert enumerate_triangulations(6) == expected
    assert enumerate_triangulations(6) is not enumerate_triangulations(6)
    assert tree_amplitude(k) == value
