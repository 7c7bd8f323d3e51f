import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from posgeom.exact import det, matrix_rank, solve_linear
from posgeom.grassmann import (
    PLUECKER_ORDER,
    PlueckerLine,
    ZMatrix,
    _open_cone_nonempty,
    adjoint_interpolation,
    brackets,
    centroid_stab_line,
    cone_facets,
    count_sign_flips,
    membership,
    random_member,
    random_totally_positive_2xn,
    special_line,
    stabs,
    twisted_cubic_z,
)

Z = twisted_cubic_z([1, 2, 3, 4, 5])


def reference_open_cone(constraints):
    """Whether some (lam, mu) is strictly positive on every constraint pair:
    empty iff zero is a nontrivial nonnegative combination of the pairs,
    checked over pairs and triples, which suffices in the plane."""
    # a zero constraint row means the whole line lies inside that facet
    # hyperplane, so strict feasibility fails
    for alpha, beta in constraints:
        if alpha == 0 and beta == 0:
            return False
    # antiparallel pair of constraint normals
    for (a1, b1), (a2, b2) in combinations(constraints, 2):
        if a1 * b2 - a2 * b1 == 0 and a1 * a2 + b1 * b2 < 0:
            return False
    # zero interior to a triangle of normals
    for trio in combinations(constraints, 3):
        m = [[trio[0][0], trio[1][0], trio[2][0]], [trio[0][1], trio[1][1], trio[2][1]]]
        for vec in solve_linear(m).kernel:
            vals = [F(v) for v in vec]
            if all(v > 0 for v in vals) or all(v < 0 for v in vals):
                return False
    return True


def reference_stabs(line, z):
    """Stabbing by the pairs-and-triples test on the Fraction facet normals."""
    a, b = (tuple(F(x) for x in p) for p in (line.point_pair() if isinstance(line, PlueckerLine) else line))
    constraints = [(sum(x * y for x, y in zip(f, a)), sum(x * y for x, y in zip(f, b))) for f in cone_facets(z)]
    return reference_open_cone(constraints)


def test_twisted_cubic_rows_and_minor():
    assert Z.rows[1] == (1, 2, 4, 8)
    assert det([Z.row(1), Z.row(2), Z.row(3), Z.row(4)]) == 12


def test_twisted_cubic_positivity():
    for subset in combinations(range(1, 6), 4):
        assert det([Z.row(i) for i in subset]) > 0
    z2 = twisted_cubic_z([0, 1, 2, 3, 4])
    for subset in combinations(range(1, 6), 4):
        assert det([z2.row(i) for i in subset]) > 0
    with pytest.raises(ValueError):
        twisted_cubic_z([1, 1, 2, 3, 4])


def test_pluecker_relation_and_roundtrip():
    rng = random.Random(0)
    for _ in range(30):
        a = tuple(F(rng.randint(-9, 9)) for _ in range(4))
        b = tuple(F(rng.randint(-9, 9)) for _ in range(4))
        try:
            line = PlueckerLine.from_points(a, b)
        except ValueError:
            continue
        p12, p13, p14, p23, p24, p34 = line.p
        assert p12 * p34 - p13 * p24 + p14 * p23 == 0
        c, d = line.point_pair()
        again = PlueckerLine.from_points(c, d)
        # same projective point on the Pluecker quadric
        assert all(line.p[i] * again.p[j] == line.p[j] * again.p[i] for i in range(6) for j in range(6))


def test_laplace_pairing_convention():
    rng = random.Random(1)
    for _ in range(20):
        rows = [[F(rng.randint(-9, 9)) for _ in range(4)] for _ in range(4)]
        try:
            p = PlueckerLine.from_points(rows[0], rows[1]).p
            q = PlueckerLine.from_points(rows[2], rows[3]).p
        except ValueError:
            continue
        pairing = p[0] * q[5] - p[1] * q[4] + p[2] * q[3] + p[3] * q[2] - p[4] * q[1] + p[5] * q[0]
        assert pairing == det(rows)


def test_membership_of_random_images():
    for seed in range(300):
        line = random_member(Z, seed)
        assert membership(line, Z).member


def test_membership_invariances():
    a, b = random_member(Z, 7)
    base = membership((a, b), Z)
    scaled = membership((tuple(3 * x for x in a), tuple(F(1, 5) * x for x in b)), Z)
    respanned = membership(
        (tuple(x + y for x, y in zip(a, b)), tuple(2 * x - y for x, y in zip(a, b))), Z
    )
    assert base.member and scaled.member and respanned.member
    assert base.flip_count == scaled.flip_count == respanned.flip_count == 2


def test_totally_positive_sampler():
    for seed in range(20):
        row1, row2 = random_totally_positive_2xn(5, seed)
        for i in range(5):
            for j in range(i + 1, 5):
                assert row1[i] * row2[j] - row1[j] * row2[i] > 0


def test_sign_flip_counter_ignores_zeros():
    assert count_sign_flips([F(1), F(0), F(-1), F(1)]) == 2
    assert count_sign_flips([F(1), F(1)]) == 0
    assert count_sign_flips([F(-1), F(1), F(-1)]) == 2


def test_centroid_line_fails_membership_but_stabs():
    line = centroid_stab_line(Z)
    verdict = membership(line, Z)
    assert not verdict.member
    br = brackets(*line, Z)
    assert br[(1, 2)] * br[(3, 4)] < 0
    assert stabs(line, Z)


def test_far_line_neither_member_nor_stab():
    far = ((F(1), F(0), F(0), F(100)), (F(0), F(1), F(0), F(100)))
    assert not membership(far, Z).member
    assert not stabs(far, Z)


def test_members_stab():
    for seed in range(120):
        assert stabs(random_member(Z, seed), Z)


def test_degenerate_line_rejected():
    with pytest.raises(ValueError):
        membership(((F(1), F(2), F(3), F(4)), (F(2), F(4), F(6), F(8))), Z)


def test_cone_facets_count():
    # five points on the twisted cubic span a simplicial 3-polytope with 6 facets
    assert len(cone_facets(Z)) == 6


def test_cone_facet_lists_are_fresh_copies():
    line = centroid_stab_line(Z)
    facets = cone_facets(Z)
    expected = list(facets)
    facets.clear()
    facets.append((F(-1), F(0), F(0), F(0)))
    assert cone_facets(Z) == expected
    assert stabs(line, Z)
    assert all(stabs(random_member(Z, seed), Z) for seed in range(3))


def test_special_lines_incidences():
    for i in range(1, 6):
        line = special_line(i, Z)
        a, b = line.point_pair()
        assert matrix_rank([list(a), list(b), list(Z.row(i))]) == 2
        assert det([a, b, Z.row(i + 1), Z.row(i + 2)]) == 0
        assert det([a, b, Z.row(i + 3), Z.row(i + 4)]) == 0


def test_adjoint_interpolation_reference_configuration():
    coefficients = adjoint_interpolation(Z)
    assert coefficients == (593, -330, 49, 143, -30, 5)
    # the same six numbers listed colexicographically, the other common
    # enumeration of the label pairs
    colex = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    by_label = dict(zip(PLUECKER_ORDER, coefficients))
    assert [by_label[p] for p in colex] == [593, -330, 143, 49, -30, 5]
    # vanishing on every interpolation line
    for i in range(1, 6):
        line = special_line(i, Z)
        assert sum(c * p for c, p in zip(coefficients, line.p)) == 0


def test_adjoint_scale_invariance():
    base = adjoint_interpolation(Z)
    scaled = ZMatrix(tuple(tuple(7 * x for x in row) for row in Z.rows))
    assert adjoint_interpolation(scaled) == base
    other = adjoint_interpolation(twisted_cubic_z([0, 1, 2, 3, 4]))
    assert other[-1] > 0
    assert len(other) == 6


def test_extended_membership_flag():
    z6 = twisted_cubic_z([1, 2, 3, 4, 5, 6])
    with pytest.raises(ValueError):
        membership(random_member(z6, 0), z6)
    verdict = membership(random_member(z6, 0), z6, extended=True)
    assert verdict.extended and verdict.member


@pytest.mark.parametrize(
    "normals, expected",
    [
        ([], True),
        ([(3, -1)], True),
        ([(1, 0), (0, 0)], False),  # a (0, 0) constraint
        ([(1, 1), (1, -1), (0, 0)], False),  # the others lie in a half-plane
        ([(1, 2), (-2, -4)], False),  # antiparallel pair
        ([(1, 2), (-1, -2), (5, -1)], False),
        ([(1, 2), (2, 4), (3, 6)], True),  # collinear, one direction
        ([(1, 2), (2, 4), (-1, -2)], False),  # collinear, both directions
        ([(1, 0), (0, 1), (-1, 0)], False),  # a gap of exactly pi
        ([(1, 0), (0, 1), (-1, 1)], True),  # a gap wider than pi
        ([(1, 0), (-1, 1), (-1, -1)], False),  # zero strictly inside a triangle
        ([(1, 0), (-1, 1), (-1, -1), (1, 1)], False),
        ([(2, -1), (1, 1), (-1, 3), (0, 1)], True),
        ([(0, -1), (1, -1), (-1, -1)], True),  # all in the lower half-plane
    ],
)
def test_open_cone_built_cases(normals, expected):
    assert _open_cone_nonempty(normals) == reference_open_cone(normals) == expected


def test_line_in_a_facet_hyperplane_does_not_stab():
    # the edge Z1 Z2 lies in every facet through it: a (0, 0) constraint
    line = (Z.row(1), Z.row(2))
    assert not stabs(line, Z) and not reference_stabs(line, Z)


POINT = st.lists(st.integers(-6, 6), min_size=4, max_size=4)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(5, 7),
    nodes=st.lists(st.integers(-9, 9), min_size=7, max_size=7, unique=True),
    weights=st.lists(st.lists(st.integers(-2, 4), min_size=7, max_size=7), min_size=2, max_size=2),
    shift=st.tuples(POINT, POINT),
)
def test_stabs_matches_reference(n, nodes, weights, shift):
    """Lines spanned by combinations of the rows of a twisted cubic, moved
    off the cone by integer offsets."""
    z = twisted_cubic_z(sorted(nodes[:n]))
    a, b = (
        [sum(w * r[c] for w, r in zip(ws, z.rows)) + s[c] for c in range(4)] for ws, s in zip(weights, shift)
    )
    assume(any(a[i] * b[j] - a[j] * b[i] for i, j in combinations(range(4), 2)))
    assert stabs((a, b), z) == reference_stabs((a, b), z)


def test_brackets_are_determinants():
    rng = random.Random(3)
    for n in (5, 6, 7):
        z = twisted_cubic_z([F(t, 2) for t in sorted(rng.sample(range(-15, 15), n))])
        for _ in range(5):
            a, b = ([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)] for _ in range(2))
            br = brackets(a, b, z)
            assert list(br) == list(combinations(range(1, n + 1), 2))
            for (i, j), value in br.items():
                assert type(value) is F and value == det([a, b, z.row(i), z.row(j)])
