import math
import random
from fractions import Fraction as F
from functools import cmp_to_key
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from posgeom.exact import (
    PoleError,
    Polynomial,
    RationalFunction,
    _integer_row,
    det,
    matrix_rank,
    rf_equal,
    solve_linear,
)
from posgeom.kinematics import (
    abhy_constants,
    abhy_mesh,
    abhy_planar_forms,
    kinematics_from_planar,
    planar_variables,
    sample_abhy_kinematics,
    sample_kinematics,
)
from posgeom.polytope import (
    Polytope,
    abhy_associahedron,
    abhy_facet_forms,
    abhy_identity_symbolic,
    abhy_pentagon,
    adjoint,
    canonical_function,
    canonical_parts,
    canonical_vertex_sum,
    cone_facet_normals,
    default_variables,
    dual_volume_oracle,
    facet_form,
    _lattice_base,
    _wall_key,
    polar_dual,
    simplex_canonical,
)
from posgeom.trees import tree_amplitude


def moment_polygon(seed, nvert, spread=12):
    """Random convex polygon: points on a parabola, generically no two
    parallel edges."""
    rng = random.Random(seed)
    nodes = sorted(rng.sample(range(-6 * spread, 6 * spread), nvert))
    pts = [(F(t, spread), F(t, spread) ** 2) for t in nodes]
    return Polytope.from_vertices(pts)


def interior_point(poly, seed):
    rng = random.Random(seed)
    weights = [F(rng.randint(1, 9)) for _ in poly.vertices]
    total = sum(weights)
    return tuple(
        sum(w * v[i] for w, v in zip(weights, poly.vertices)) / total for i in range(poly.dim)
    )


def test_segment_canonical():
    seg = Polytope.from_vertices([(1,), (4,)])
    x = RationalFunction.variable("x")
    assert rf_equal(simplex_canonical(seg, ("x",)), 3 / ((x - 1) * (4 - x)))


def test_standard_triangle():
    tri = Polytope.from_vertices([(0, 0), (1, 0), (0, 1)])
    x1, x2 = RationalFunction.variable("x1"), RationalFunction.variable("x2")
    c = simplex_canonical(tri)
    assert rf_equal(c, 1 / (x1 * x2 * (1 - x1 - x2)))
    assert rf_equal(canonical_function(tri), c)
    assert rf_equal(canonical_vertex_sum(tri), c)
    assert adjoint(tri) == 1


def test_simplex_centroid_value():
    # at the centroid all barycentrics are 1/(n+1), so the value is
    # (n+1)^(n+1) / (n! vol)
    rng = random.Random(5)
    done = 0
    while done < 5:
        pts = [(F(rng.randint(-9, 9)), F(rng.randint(-9, 9))) for _ in range(3)]
        try:
            tri = Polytope.from_vertices(pts)
        except ValueError:
            continue
        done += 1
        centroid = tuple(sum(v[i] for v in tri.vertices) / 3 for i in range(2))
        value = simplex_canonical(tri).evaluate({"x1": centroid[0], "x2": centroid[1]})
        assert value == F(27) / (2 * tri.volume())


def test_unit_square():
    sq = Polytope.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
    x1, x2 = RationalFunction.variable("x1"), RationalFunction.variable("x2")
    c = canonical_function(sq)
    assert rf_equal(c, 1 / (x1 * x2 * (1 - x1) * (1 - x2)))
    center = {"x1": F(1, 2), "x2": F(1, 2)}
    # normalized value is 2! times the polar-dual area 8
    assert polar_dual(sq, (F(1, 2), F(1, 2))).volume() == 8
    assert c.evaluate(center) == 16
    assert dual_volume_oracle(sq, (F(1, 2), F(1, 2))) == 16
    # opposite edges are parallel, so the affine adjoint degenerates to a constant
    assert adjoint(sq) == 1


def test_pole_error_on_facet():
    sq = Polytope.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
    with pytest.raises(PoleError):
        canonical_function(sq).evaluate({"x1": F(0), "x2": F(1, 2)})


def test_triangulation_independence_50_polygons():
    for seed in range(50):
        poly = moment_polygon(seed, 4 + seed % 3)
        base = canonical_function(poly)
        for apex in (1, 2):
            assert rf_equal(canonical_function(poly, apex=apex), base)


def test_vertex_sum_agrees_with_fan():
    for seed in range(20):
        poly = moment_polygon(seed, 4 + seed % 3)
        assert rf_equal(canonical_vertex_sum(poly), canonical_function(poly))


def test_normalization_oracle():
    done = 0
    seed = 0
    while done < 20:
        seed += 1
        poly = moment_polygon(seed, 4 + seed % 3)
        x0 = interior_point(poly, seed)
        value = canonical_function(poly).evaluate({"x1": x0[0], "x2": x0[1]})
        assert value == dual_volume_oracle(poly, x0)
        done += 1


def counterclockwise(poly):
    """Vertices of a polygon in counterclockwise order about its centroid,
    by half-plane and then cross product."""
    c = poly.centroid()
    dirs = {v: (v[0] - c[0], v[1] - c[1]) for v in poly.vertices}

    def half(u):
        return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1

    def cmp(v, w):
        u, t = dirs[v], dirs[w]
        if half(u) != half(t):
            return half(u) - half(t)
        cross = u[0] * t[1] - u[1] * t[0]
        return -1 if cross > 0 else int(cross < 0)

    return sorted(poly.vertices, key=cmp_to_key(cmp))


def reference_fan_parts(poly, apex=0, variables=("x1", "x2")):
    """The fan route summed triangle by triangle over the boundary cycle:
    each triangle's canonical function is added over the product of all
    triangle denominators, of degree 3(k - 2); returned unreduced."""
    cyc = counterclockwise(poly)
    k = len(cyc)
    apex %= k
    pieces = []
    for i in range(k):
        j = (i + 1) % k
        if apex not in (i, j):
            rf = simplex_canonical([cyc[apex], cyc[i], cyc[j]], variables)
            pieces.append((rf.num, rf.den))
    num, den = pieces[0]
    for n, d in pieces[1:]:
        num, den = num * d + n * den, den * d
    return num, den


RATIONAL_COORDS = st.fractions(min_value=-6, max_value=6, max_denominator=3)


@st.composite
def convex_polygons(draw):
    """Convex rational polygons with 3 to 9 vertices: rational points of a
    circle under a random rational affine map, or the hull of a point cloud."""
    if draw(st.booleans()):
        k = draw(st.sampled_from(range(9, 2, -1)))
        ts = draw(st.lists(st.fractions(-4, 4, max_denominator=4), min_size=k, max_size=k, unique=True))
        a, b, c, d = (draw(st.integers(-3, 3)) for _ in range(4))
        assume(a * d != b * c)
        shift = (draw(RATIONAL_COORDS), draw(RATIONAL_COORDS))
        circle = [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]
        points = [(a * x + b * y + shift[0], c * x + d * y + shift[1]) for x, y in circle]
    else:
        points = draw(st.lists(st.tuples(RATIONAL_COORDS, RATIONAL_COORDS), min_size=3, max_size=12))
    try:
        poly = Polytope.from_vertices(points)
    except ValueError:  # collinear points
        assume(False)
    assume(len(poly.vertices) <= 9)
    return poly


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(convex_polygons(), st.integers(0, 8))
def test_fan_over_distinct_walls_matches_the_triangle_by_triangle_sum(poly, apex):
    num_ref, den_ref = reference_fan_parts(poly, apex)
    target = Polynomial.const(1, ("x1", "x2"))
    for f in poly.facets:
        target = target * facet_form(f, ("x1", "x2"))
    # the denominator is the facet product, so the numerator is the unique
    # polynomial over it
    for a in range(len(poly.vertices)):
        num, den = canonical_parts(poly, apex=a)
        assert den == target and num * den_ref == num_ref * target
    assert rf_equal(RationalFunction(num_ref, den_ref), canonical_vertex_sum(poly))


def shoelace_area(poly):
    cyc = counterclockwise(poly)
    return abs(sum(p[0] * q[1] - p[1] * q[0] for p, q in zip(cyc, cyc[1:] + cyc[:1]))) / 2


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(convex_polygons())
def test_volume_matches_the_shoelace_formula(poly):
    assert poly.volume() == shoelace_area(poly)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.lists(RATIONAL_COORDS, min_size=2, max_size=6, unique=True))
def test_segment_volume_is_max_minus_min(xs):
    assert Polytope.from_vertices([(x,) for x in xs]).volume() == max(xs) - min(xs)


def test_fan_route_stands_alone(monkeypatch):
    # the three routes of the table stay independent: the fan never calls
    # the vertex sum or the dual-volume oracle
    import posgeom.polytope as polytope

    def forbidden(*args, **kwargs):
        raise AssertionError("the fan route called another route")

    polys = [moment_polygon(4, 7), abhy_associahedron(6, random_mesh(6, random.Random(6)))]
    expected = [canonical_parts(poly) for poly in polys]
    for name in ("canonical_vertex_sum", "dual_volume_oracle", "polar_dual"):
        monkeypatch.setattr(polytope, name, forbidden)
    monkeypatch.setattr(Polytope, "active_facets", forbidden)
    for poly, (num0, den0) in zip(polys, expected):
        for apex in range(len(poly.vertices)):
            num, den = canonical_parts(poly, apex=apex)
            assert (num.terms, den.terms) == (num0.terms, den0.terms)


def test_adjoint_degree_is_v_minus_3():
    for nvert in (4, 5, 6):
        for seed in range(5):
            poly = moment_polygon(100 + seed, nvert)
            assert adjoint(poly).total_degree() == nvert - 3


def test_adjoint_positive_inside():
    poly = moment_polygon(9, 5)
    x0 = interior_point(poly, 2)
    assert adjoint(poly).evaluate({"x1": x0[0], "x2": x0[1]}) > 0


def random_polytope(rng, d):
    while True:
        count = d + 1 + rng.randint(0, 4)
        points = [tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d)) for _ in range(count)]
        try:
            return Polytope.from_vertices(points)
        except ValueError:  # a lower-dimensional draw
            continue


def redundant_halfspaces(poly, rng):
    """H-data of poly that is not its facet list: each facet scaled by a
    positive rational and some repeated, plus valid halfspaces that are no
    facets (sums of two facets, tight on a lower face or nowhere, and
    shifted facets), shuffled."""
    hs = []
    for a, b in poly.facets:
        s = F(rng.randint(1, 9), rng.randint(1, 4))
        hs.append((tuple(s * x for x in a), s * b))
        if rng.random() < 0.3:
            hs.append((a, b))
        if rng.random() < 0.3:
            hs.append((a, b + rng.randint(1, 3)))
    for _ in range(3):
        (a1, b1), (a2, b2) = rng.sample(poly.facets, 2)
        hs.append((tuple(x + y for x, y in zip(a1, a2)), b1 + b2))
    rng.shuffle(hs)
    return hs


def test_hrep_vrep_roundtrip():
    polytopes = [moment_polygon(seed, 5) for seed in range(10)]
    polytopes += [random_polytope(random.Random(seed), d) for d in (1, 2, 3) for seed in range(10)]
    for seed, poly in enumerate(polytopes):
        assert Polytope.from_halfspaces(poly.facets) == poly
        assert Polytope.from_halfspaces(redundant_halfspaces(poly, random.Random(seed))) == poly


@st.composite
def full_dimensional_polytopes(draw):
    d = draw(st.integers(1, 3))
    coords = st.fractions(min_value=-6, max_value=6, max_denominator=3)
    points = draw(st.lists(st.tuples(*[coords] * d), min_size=d + 1, max_size=d + 5))
    try:
        return Polytope.from_vertices(points)
    except ValueError:
        assume(False)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(full_dimensional_polytopes(), st.integers(0, 2**32))
def test_hrep_vrep_roundtrip_property(poly, seed):
    assert Polytope.from_halfspaces(redundant_halfspaces(poly, random.Random(seed))) == poly


def test_from_halfspaces_unbounded_and_empty():
    with pytest.raises(ValueError):
        Polytope.from_halfspaces([((F(-1), F(0)), F(0)), ((F(0), F(-1)), F(0))])
    with pytest.raises(ValueError):
        Polytope.from_halfspaces(
            [((F(1), F(0)), F(-1)), ((F(-1), F(0)), F(-1)), ((F(0), F(1)), F(1)), ((F(0), F(-1)), F(1))]
        )


def test_malformed_polytope_data():
    square = [((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)]
    for bad in ([((-1,), 0)], [((-1, 0, 5), 0)]):
        with pytest.raises(ValueError, match="mixed dimension"):
            Polytope.from_halfspaces(square + bad)
    with pytest.raises(ValueError, match="dimension 0"):
        Polytope.from_halfspaces([((), 1)])
    with pytest.raises(ValueError, match="dimension 0"):
        Polytope.from_vertices([()])
    with pytest.raises(ValueError, match="lower-dimensional"):
        Polytope.from_halfspaces(square + [((1, -1), 0), ((-1, 1), 0)])


# The subset-enumeration builders the double description replaced, kept as
# the reference: C(N, k - 1) kernels for the cone facets, C(m, d) solves for
# the vertices of an H-description and C(m, d - 1) kernels for its
# boundedness.


def _dot(a, x):
    return sum((u * v for u, v in zip(a, x)), F(0))


def reference_cone_facet_normals(rows):
    normals = {}
    for subset in combinations(rows, len(rows[0]) - 1):
        kernel = solve_linear(subset).kernel
        if len(kernel) != 1:
            continue
        w = tuple(F(x) for x in kernel[0])
        sides = [_dot(w, r) for r in rows]
        if all(s >= 0 for s in sides):
            normals[w] = None
        elif all(s <= 0 for s in sides):
            normals[tuple(-x for x in w)] = None
    return list(normals)


def reference_from_vertices(points):
    points = sorted({tuple(F(x) for x in p) for p in points})
    if not points:
        raise ValueError("no points given")
    d = len(points[0])
    if any(len(p) != d for p in points):
        raise ValueError("points of mixed dimension")
    if d == 0:
        raise ValueError("points of dimension 0")
    base = points[0]
    if matrix_rank([[p[i] - base[i] for i in range(d)] for p in points[1:]]) < d:
        raise ValueError("point set is lower-dimensional")
    normals = reference_cone_facet_normals([(*p, -1) for p in points])
    facets = tuple(sorted((tuple(-x for x in w[:d]), -w[d]) for w in normals))
    vertices = []
    for p in points:
        active = [a for (a, b) in facets if _dot(a, p) == b]
        if len(active) >= d and matrix_rank(active) == d:
            vertices.append(p)
    return Polytope(d, facets, tuple(sorted(vertices)))


def reference_from_halfspaces(halfspaces):
    hs = [(tuple(F(x) for x in a), F(b)) for a, b in halfspaces]
    if not hs:
        raise ValueError("no halfspaces given")
    d = len(hs[0][0])
    if any(len(a) != d for a, _ in hs):
        raise ValueError("halfspaces of mixed dimension")
    if d == 0:
        raise ValueError("halfspaces of dimension 0")
    if d == 1:
        if not any(a[0] > 0 for a, _ in hs) or not any(a[0] < 0 for a, _ in hs):
            raise ValueError("unbounded halfline")
    else:
        for subset in combinations([a for a, _ in hs], d - 1):
            for v in solve_linear([list(a) for a in subset]).kernel:
                for sgn in (1, -1):
                    ray = [sgn * x for x in v]
                    if all(_dot(a, ray) <= 0 for a, _ in hs):
                        raise ValueError("halfspace intersection is unbounded")
    verts = set()
    for subset in combinations(hs, d):
        sol = solve_linear([list(a) for a, _ in subset], [b for _, b in subset])
        if sol.status == "unique" and all(_dot(a, sol.solution) <= b for a, b in hs):
            verts.add(tuple(sol.solution))
    if not verts:
        raise ValueError("halfspace intersection is empty")
    if matrix_rank([(*v, 1) for v in verts]) <= d:
        raise ValueError("point set is lower-dimensional")
    facets = set()
    for a, b in hs:
        if matrix_rank([(*v, 1) for v in verts if _dot(a, v) == b]) == d:
            ints, _ = _integer_row((*a, b))
            g = math.gcd(*ints)
            facets.add((tuple(F(x // g) for x in ints[:d]), F(ints[d] // g)))
    return Polytope(d, tuple(sorted(facets)), tuple(sorted(verts)))


def outcome(build, data):
    """The polytope built, or the message of the ValueError raised."""
    try:
        return build(data)
    except ValueError as exc:
        return str(exc)


OCTAHEDRON = [tuple(s * int(i == j) for j in range(3)) for i in range(3) for s in (1, -1)]
SQUARE_PYRAMID = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)]
# a pyramid over the octahedron, with its centre and an edge midpoint
OCTAHEDRAL_PYRAMID = [(*p, 0) for p in OCTAHEDRON] + [(0, 0, 0, 1), (0, 0, 0, 0), (F(1, 2), F(1, 2), 0, 0)]


@st.composite
def point_sets(draw):
    """d + 1 to six points in dimension d = 1-4 together with repeats of
    some of them, midpoints of pairs (edge points when the pair is an edge)
    and the centroid (interior when the hull is full-dimensional)."""
    d = draw(st.sampled_from((1, 2, 3, 4)))
    coords = st.fractions(min_value=-4, max_value=4, max_denominator=2)
    points = draw(st.lists(st.tuples(*[coords] * d), min_size=d + 1, max_size=6))
    index = st.integers(0, len(points) - 1)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
        points.append(tuple((x + y) / 2 for x, y in zip(points[i], points[j])))
    if draw(st.booleans()):
        points.append(tuple(sum(c) / len(points) for c in zip(*points)))
    points += draw(st.lists(st.sampled_from(points), max_size=2))
    return points


def h_variant(poly, rng, kind):
    """H-data of poly: every facet scaled, one repeated, one shifted outward
    and one sum of two facets (both redundant), and zero-normal halfspaces
    0 <= 1 and 0 <= 0 that hold everywhere; with kind 1 also 0 <= -1, which
    holds nowhere, and with kind 2 a facet reversed, which leaves the facet."""
    zero = tuple(F(0) for _ in range(poly.dim))
    hs = []
    for a, b in poly.facets:
        s = F(rng.randint(1, 9), rng.randint(1, 4))
        hs.append((tuple(s * x for x in a), s * b))
    (a1, b1), (a2, b2) = rng.choice(poly.facets), rng.choice(poly.facets)
    hs += [(a1, b1), (a2, b2 + 1), (tuple(x + y for x, y in zip(a1, a2)), b1 + b2), (zero, F(1)), (zero, F(0))]
    hs += [[], [(zero, F(-1))], [(tuple(-x for x in a1), -b1)]][kind]
    rng.shuffle(hs)
    return hs


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(point_sets(), st.integers(0, 2**32), st.integers(0, 2))
@example(OCTAHEDRON, 0, 0)
@example(SQUARE_PYRAMID, 1, 2)
@example(OCTAHEDRAL_PYRAMID, 2, 0)
def test_double_description_matches_the_subset_enumeration(points, seed, kind):
    poly = outcome(Polytope.from_vertices, points)
    assert poly == outcome(reference_from_vertices, points)
    if isinstance(poly, Polytope):
        hs = h_variant(poly, random.Random(seed), kind)
        assert outcome(Polytope.from_halfspaces, hs) == outcome(reference_from_halfspaces, hs)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.sampled_from((1, 2, 3, 4)).flatmap(lambda d: st.lists(
    st.tuples(st.tuples(*[st.integers(-3, 3)] * d), st.integers(-3, 4)), min_size=d, max_size=d + 7)))
def test_random_halfspaces_match_the_subset_enumeration(halfspaces):
    # unbounded, empty and lower-dimensional intersections raise the same
    # message as the reference (at least d halfspaces, see below)
    assert outcome(Polytope.from_halfspaces, halfspaces) == outcome(reference_from_halfspaces, halfspaces)


def test_too_few_halfspaces_are_unbounded():
    # with fewer than d - 1 halfspaces the reference finds no subset to
    # certify a recession ray and reports an empty set
    one = [((1, 0, 0), 1)]
    assert outcome(reference_from_halfspaces, one) == "halfspace intersection is empty"
    assert outcome(Polytope.from_halfspaces, one) == "halfspace intersection is unbounded"


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(point_sets().flatmap(lambda pts: st.permutations(pts).map(lambda perm: (pts, perm))))
def test_cone_facet_normals_ignore_the_row_order(pair):
    points, permuted = pair
    rows = [(*p, -1) for p in points]
    assume(matrix_rank(rows) == len(rows[0]))  # the search's domain: rows spanning R^k
    expected = sorted(reference_cone_facet_normals(rows))
    assert cone_facet_normals(rows) == expected
    assert cone_facet_normals([(*p, -1) for p in permuted]) == expected


def test_cone_facet_normals_discovery_order():
    # cone over a square; the repeated and the interior row change nothing
    rows = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (1, 1, 1), (0, 0, 1), (-1, -1, 1)]
    assert cone_facet_normals(rows) == [(-1, 0, 1), (0, -1, 1), (0, 1, 1), (1, 0, 1)]


def test_cone_facet_normals_need_spanning_rows():
    # rows in a plane of R^3: the cone {w : w.r >= 0} contains a line and
    # has no extreme rays (the subset search returned a direction of that line)
    rows = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    assert reference_cone_facet_normals(rows) == [(0, 0, 1)]
    assert cone_facet_normals(rows) == []


def random_mesh(n, rng):
    """Random positive mesh constants for the n-point ABHY chart."""
    return [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range((n - 2) * (n - 3) // 2)]


def chart_planar(n, mesh, y):
    """The planar variables of the n-point ABHY chart at the point y."""
    forms = abhy_planar_forms(n, mesh)
    return {d: sum(c * v for c, v in zip(coeffs, y)) + const for d, (coeffs, const) in forms.items()}


@pytest.mark.parametrize("n, facets, vertices", [(6, 9, 14), (7, 14, 42), (8, 20, 132), (9, 27, 429)])
def test_abhy_associahedron_from_halfspaces(n, facets, vertices):
    p = abhy_associahedron(n, random_mesh(n, random.Random(n)))
    assert (p.dim, len(p.facets), len(p.vertices)) == (n - 3, facets, vertices)
    assert p.is_simple()
    if n >= 7:
        assert Polytope.from_vertices(p.vertices) == p


def test_abhy_pentagon_is_the_five_point_chart():
    # the pentagon against its corners, written out independently of the chart
    for seed in range(100):
        k = sample_abhy_kinematics(seed)
        c13, c14, c24 = abhy_constants(k)
        corners = [(c24, 0), (c13 + c14 + c24, 0), (c13, c14 + c24), (0, c14 + c24), (0, c24)]
        p = abhy_associahedron(5, abhy_mesh(k))
        assert p == abhy_pentagon(c13, c14, c24) == Polytope.from_vertices(corners)
        assert p.contains((k.entry(2, 3), k.entry(3, 4)), strict=True)


@pytest.mark.parametrize("n", range(5, 10))
def test_abhy_planar_forms_reproduce_the_planar_variables(n):
    # the chart is an identity on the kinematic space, whatever the signs
    for seed in range(4):
        k = sample_kinematics(n, seed, positive=seed < 2)
        planar = planar_variables(k)
        point = [planar[(i, i + 2)] for i in range(2, n - 1)]
        assert chart_planar(n, abhy_mesh(k), point) == planar


@pytest.mark.parametrize("n", [6, 7])
def test_abhy_vertex_sum_is_the_tree_amplitude(n):
    mesh = random_mesh(n, random.Random(10 + n))
    p = abhy_associahedron(n, mesh)
    y = interior_point(p, n)
    planar = chart_planar(n, mesh, y)
    assert all(v > 0 for v in planar.values())
    k = kinematics_from_planar(n, planar)
    assert abhy_mesh(k) == tuple(mesh)
    point = dict(zip(default_variables(n - 3), y))
    value = canonical_vertex_sum(p).evaluate(point)
    assert value == tree_amplitude(k)
    if n == 6:
        assert canonical_function(p).evaluate(point) == value


def test_abhy_mesh_validation():
    mesh = random_mesh(6, random.Random(0))
    for bad in (0, F(-1, 2)):
        with pytest.raises(ValueError):
            abhy_associahedron(6, mesh[:2] + [bad] + mesh[3:])
    with pytest.raises(ValueError):
        abhy_associahedron(6, mesh[:-1])


def test_abhy_pentagon_unit_constants():
    p = abhy_pentagon(1, 1, 1)
    assert set(p.vertices) == {
        (F(1), F(0)),
        (F(3), F(0)),
        (F(0), F(1)),
        (F(0), F(2)),
        (F(1), F(2)),
    }
    assert p.is_simple()
    for v in p.vertices:
        active = p.active_facets(v)
        assert abs(det([list(a) for a, _ in active])) == 1


def test_abhy_positivity_validation():
    with pytest.raises(ValueError):
        abhy_pentagon(0, 1, 1)
    with pytest.raises(ValueError):
        abhy_pentagon(1, -2, 1)


def test_abhy_facet_forms_label_the_planar_variables():
    forms = abhy_facet_forms(F(2), F(3), F(5), ("a", "b"))
    a, b = F(1, 2), F(7, 3)
    values = {lab: f.evaluate({"a": a, "b": b}) for lab, f in forms.items()}
    assert values[(2, 4)] == a
    assert values[(3, 5)] == b
    assert values[(2, 5)] == a + b - 5
    assert values[(1, 4)] == 3 + 5 - b
    assert values[(1, 3)] == 2 + 3 + 5 - a - b


def test_abhy_canonical_is_five_term_sum():
    # symbolic identity in (a, b, c13, c14, c24)
    fan, amplitude = abhy_identity_symbolic()
    assert rf_equal(fan, amplitude)


def test_abhy_canonical_matches_expected_value():
    p = abhy_pentagon(1, 1, 1)
    c = canonical_function(p, ("a", "b"))
    assert c.evaluate({"a": F(1), "b": F(1)}) == 5
    assert dual_volume_oracle(p, (F(1), F(1))) == 5


CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
SIMPLEX_3 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


@pytest.mark.parametrize(
    "points, volume",
    [
        (CUBE, 1),
        (SIMPLEX_3, F(1, 6)),
        (OCTAHEDRON, F(4, 3)),
        ([tuple(k >> i & 1 for i in range(4)) for k in range(16)], 1),
        ([(0, 0, 0, 0)] + [tuple(int(i == j) for j in range(4)) for i in range(4)], F(1, 24)),
    ],
    ids=["cube", "simplex", "octahedron", "4-cube", "4-simplex"],
)
def test_volume_in_dimensions_3_and_4(points, volume):
    assert Polytope.from_vertices(points).volume() == volume


@pytest.mark.parametrize("name", ["cube", "simplex", "octahedron", "abhy6"])
def test_canonical_function_in_dimension_3(name):
    # the octahedron is not simple; the ABHY associahedron at six points is,
    # and its canonical function is the tree amplitude
    if name == "abhy6":
        mesh = random_mesh(6, random.Random(6))
        p = abhy_associahedron(6, mesh)
    else:
        p = Polytope.from_vertices({"cube": CUBE, "simplex": SIMPLEX_3, "octahedron": OCTAHEDRON}[name])
    num, den = canonical_parts(p)
    for apex in range(1, len(p.vertices)):
        other = canonical_parts(p, apex=apex)
        assert (other[0].terms, other[1].terms) == (num.terms, den.terms), apex
    fan = RationalFunction(num, den)
    assert p.is_simple() == (name != "octahedron")
    if p.is_simple():
        assert rf_equal(fan, canonical_vertex_sum(p))
    x0 = interior_point(p, 3)
    value = fan.evaluate(dict(zip(("x1", "x2", "x3"), x0)))
    assert value == dual_volume_oracle(p, x0)
    if name == "abhy6":
        assert value == tree_amplitude(kinematics_from_planar(6, chart_planar(6, mesh, x0)))


CUBE_4 = [tuple(k >> i & 1 for i in range(4)) for k in range(16)]
CROSS_4 = [tuple(s * int(i == j) for j in range(4)) for i in range(4) for s in (1, -1)]


@pytest.mark.parametrize("name", ["4-cube", "4-cross", "abhy7"])
def test_canonical_function_in_dimension_4(name):
    # the 4-cross-polytope is not simple; the ABHY associahedron at seven
    # points is, and its canonical function is the tree amplitude
    if name == "abhy7":
        mesh = random_mesh(7, random.Random(7))
        p = abhy_associahedron(7, mesh)
    else:
        p = Polytope.from_vertices(CUBE_4 if name == "4-cube" else CROSS_4)
    num, den = canonical_parts(p)
    other = canonical_parts(p, apex=len(p.vertices) - 1)
    assert (other[0].terms, other[1].terms) == (num.terms, den.terms)
    if name == "4-cube":
        assert num == 1  # its facets pair up in parallel
    fan = RationalFunction(num, den)
    assert p.is_simple() == (name != "4-cross")
    if p.is_simple():
        assert rf_equal(fan, canonical_vertex_sum(p))
    x0 = interior_point(p, 4)
    value = fan.evaluate(dict(zip(default_variables(4), x0)))
    assert value == dual_volume_oracle(p, x0)
    if name == "abhy7":
        assert value == tree_amplitude(kinematics_from_planar(7, chart_planar(7, mesh, x0)))


def test_lattice_base_moves_off_the_walls(monkeypatch):
    # the unit square's centroid (1/2, 1/2) rounds down onto the vertex
    # (0, 0), where two facets vanish, so the base point has to move
    import posgeom.polytope as polytope

    calls = []

    def spy(start, *args):
        base, at = _lattice_base(start, *args)
        calls.append((start, base, at))
        return base, at

    monkeypatch.setattr(polytope, "_lattice_base", spy)
    square = Polytope.from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
    x1, x2 = RationalFunction.variable("x1"), RationalFunction.variable("x2")
    for apex in range(4):
        num, den = canonical_parts(square, apex=apex)
        assert num == 1 and rf_equal(RationalFunction(num, den), 1 / (x1 * x2 * (1 - x1) * (1 - x2)))
    assert len(calls) == 4
    for start, base, at in calls:
        assert start == [0, 0] and base != start
        assert all(all(values) for values in at)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 4), st.integers(1, 12), st.data())
def test_wall_key_is_the_primitive_kernel(d, scale, data):
    # the fan's rows are (scale * v, scale) for integer scale * v; their
    # signed maximal minors span the kernel of the rows (v, 1)
    coords = st.integers(-5, 5)
    points = [data.draw(st.lists(coords, min_size=d, max_size=d)) for _ in range(d + 1)]
    assume(det([[F(x) for x in p] + [1] for p in points]) != 0)
    for i in range(d + 1):
        others = points[:i] + points[i + 1 :]
        key = _wall_key([(*p, scale) for p in others])
        assert key == solve_linear([[F(x, scale) for x in p] + [1] for p in others]).kernel[0]
