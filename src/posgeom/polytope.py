"""Polytopes with exact rational data and their canonical functions.

A polytope carries both an H-representation (irredundant facets a.x <= b,
(a, b) primitive integers) and a V-representation (irredundant vertices).
One integer double-description search, _extreme_rays, finds the extreme
rays of {w : r.w >= 0 for every row r} with the rows each is tight on.  It
serves cone_facet_normals (so the configurations of grassmann.py too),
from_vertices on the rows (p, -1), whose rays are the facets, and
from_halfspaces on the rows (-a, b) and (0, ..., 0, 1), whose rays are the
vertices.  Its cost follows the rays it meets, not the row subsets:
abhy_associahedron, {X_D >= 0} in the ABHY chart of kinematics.py, builds at
ten points (35 halfspaces in dimension 7, 1430 vertices) in under a second.

The canonical function adopted here is d! * vol((P - x) polar), i.e. the
normalized dual volume.  For a simplex it is the closed form

    1 / (d! * vol(S) * prod of barycentric coordinates),

and a general polytope is handled by summing its pulling triangulation
from one vertex, in every dimension; the same simplices give the volume.
The numerator over the facet product has known degree, so the exact values
of the sum on a lattice fix it, interpolated by forward differences.
Simple polytopes admit a second route, the sum over vertices of |det of the
active facet normals| / product of the active facet forms; the two routes
agree exactly and the test suite insists on it.  This is the unique
normalization for which the associahedron has unit numerators over its
vertices, so its canonical function reproduces the tree amplitude; the
pentagon, abhy_pentagon, is its five-point case.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import (
    Polynomial,
    RationalFunction,
    _integer_det,
    _integer_row,
    _primitive_integer,
    det,
)
from .kinematics import abhy_planar_forms
from .trees import enumerate_triangulations

Vector = tuple[Fraction, ...]
Facet = tuple[Vector, Fraction]  # (a, b) meaning a.x <= b


def _fracvec(v: Sequence) -> Vector:
    return tuple(Fraction(x) for x in v)


def _dot(a: Sequence, x: Sequence) -> Fraction:
    return sum((u * v for u, v in zip(a, x)), Fraction(0))


def _wall_key(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The kernel of k - 1 integer rows of length k and rank k - 1: their
    signed maximal minors, primitive with first nonzero entry positive."""
    return _primitive_integer(
        [(-1) ** j * _integer_det([[*r[:j], *r[j + 1 :]] for r in rows]) for j in range(len(rows) + 1)]
    )


def _join(a: int, u: Sequence[int], b: int, v: Sequence[int]) -> tuple[int, ...]:
    """a u + b v scaled to coprime integers."""
    w = [a * x + b * y for x, y in zip(u, v)]
    g = math.gcd(*w)
    return tuple(x // g for x in w)


def _extreme_rays(rows: Sequence[Sequence[int]]) -> list[tuple[tuple[int, ...], int]] | None:
    """Extreme rays of {w : r.w >= 0 for every integer row r} by the double
    description method (Motzkin et al. 1953; Fukuda-Prodon 1996): pairs of
    w, primitive integer, and the bitmask of rows with r.w = 0; None if the
    rows do not span R^k.  A row not zero on the lineality space L (R^k at
    first) turns a direction of L into a ray; any other row keeps the rays on
    its side and joins each adjacent pair across its hyperplane: a common
    zero set of k - 2 - dim L or more rows, in no third ray's zero set."""
    k = len(rows[0])
    lineality = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    rays: list[tuple[tuple[int, ...], int]] = []
    for i, row in enumerate(rows):
        bit = 1 << i
        signed = [(sum(x * y for x, y in zip(row, w)), w, z) for w, z in rays]
        dots = [sum(x * y for x, y in zip(row, u)) for u in lineality]
        j = next((j for j, s in enumerate(dots) if s), None)
        if j is not None:
            # v is zero on every row so far and becomes a ray positive on row i
            v, sv = lineality.pop(j), dots.pop(j)
            v, sv = (v, sv) if sv > 0 else (tuple(-x for x in v), -sv)
            lineality = [_join(sv, u, -su, v) for u, su in zip(lineality, dots)]
            rays = [(_join(sv, w, -s, v), z | bit) for s, w, z in signed] + [(v, bit - 1)]
            continue
        kept = [(w, z if s else z | bit) for s, w, z in signed if s >= 0]
        minus = [t for t in signed if t[0] < 0]
        zsets = [z for _, z in rays]
        for sp, wp, zp in (t for t in signed if t[0] > 0):
            for sn, wn, zn in minus:
                common = zp & zn
                if common.bit_count() >= k - 2 - len(lineality) and sum(z & common == common for z in zsets) == 2:
                    kept.append((_join(sp, wn, -sn, wp), common | bit))
        rays = kept
    return None if lineality else rays


def cone_facet_normals(rows: Sequence[Sequence]) -> list[Vector]:
    """Inward facet normals w (w.r >= 0 for every row) of the cone over rows
    spanning R^k, as primitive integer vectors in sorted order: the extreme
    rays of {w : w.r >= 0 for every row r}.  Other rows give none."""
    rays = _extreme_rays([_integer_row(r)[0] for r in rows]) or []
    return [tuple(Fraction(x) for x in w) for w in sorted(w for w, _ in rays)]


@dataclass(frozen=True)
class Polytope:
    """Bounded full-dimensional polytope with matching H- and V-data."""

    dim: int
    facets: tuple[Facet, ...]
    vertices: tuple[Vector, ...]

    # ------------------------------------------------------------ builders
    @classmethod
    def from_vertices(cls, points: Sequence[Sequence]) -> "Polytope":
        points = sorted({_fracvec(p) for p in points})
        if not points:
            raise ValueError("no points given")
        d = len(points[0])
        if any(len(p) != d for p in points):
            raise ValueError("points of mixed dimension")
        if d == 0:
            raise ValueError("points of dimension 0")
        # w.(p, -1) >= 0 for every point is the facet a.x <= b with (a, b) = -w
        rays = _extreme_rays([_integer_row((*p, -1))[0] for p in points])
        if rays is None:
            raise ValueError("point set is lower-dimensional")
        facets = sorted((tuple(Fraction(-x) for x in w[:d]), Fraction(-w[d])) for w, _ in rays)
        # a point is a vertex when no other point lies on every facet through
        # it, that is, when no other point's facet set contains its own
        on = [functools.reduce(operator.and_, (z for _, z in rays if z >> i & 1), -1) for i in range(len(points))]
        vertices = [p for i, p in enumerate(points) if on[i] == 1 << i]
        return cls(d, tuple(facets), tuple(vertices))

    @classmethod
    def from_halfspaces(cls, halfspaces: Sequence[tuple[Sequence, object]]) -> "Polytope":
        hs = [(_fracvec(a), Fraction(b)) for a, b in halfspaces]
        if not hs:
            raise ValueError("no halfspaces given")
        d = len(hs[0][0])
        if any(len(a) != d for a, _ in hs):
            raise ValueError("halfspaces of mixed dimension")
        if d == 0:
            raise ValueError("halfspaces of dimension 0")
        # the cone {(x, t) : a.x <= b t, t >= 0} has the rays (v, 1) at the
        # vertices, and a ray with t = 0 is a recession direction of P
        rows = [_integer_row((*(-x for x in a), b))[0] for a, b in hs]
        rays = _extreme_rays(rows + [(0,) * d + (1,)])
        if rays is None or any(w[d] == 0 for w, _ in rays):
            raise ValueError("unbounded halfline" if d == 1 else "halfspace intersection is unbounded")
        if not rays:
            raise ValueError("halfspace intersection is empty")
        # the vertices each row is tight on (0.x <= b: on all or none); a
        # row with a != 0 tight on all is an equation of P, and the facets are
        # the rows whose tight sets are maximal, scaled to primitive integers
        tight = [
            (r, sum(1 << j for j, (_, z) in enumerate(rays) if z >> i & 1))
            for i, r in enumerate(rows)
            if any(r[:d])
        ]
        if any(t == (1 << len(rays)) - 1 for _, t in tight):
            raise ValueError("point set is lower-dimensional")
        facets = {
            (tuple(Fraction(-x, math.gcd(*r)) for x in r[:d]), Fraction(r[d], math.gcd(*r)))
            for r, t in tight
            if t and not any(t != u and t & u == t for _, u in tight)
        }
        vertices = sorted(tuple(Fraction(x, w[d]) for x in w[:d]) for w, _ in rays)
        return cls(d, tuple(sorted(facets)), tuple(vertices))

    # ----------------------------------------------------------- predicates
    def contains(self, x: Sequence, strict: bool = False) -> bool:
        x = _fracvec(x)
        if strict:
            return all(_dot(a, x) < b for a, b in self.facets)
        return all(_dot(a, x) <= b for a, b in self.facets)

    def active_facets(self, v: Sequence) -> list[Facet]:
        v = _fracvec(v)
        return [(a, b) for (a, b) in self.facets if _dot(a, v) == b]

    def is_simple(self) -> bool:
        return all(len(self.active_facets(v)) == self.dim for v in self.vertices)

    def centroid(self) -> Vector:
        n = len(self.vertices)
        return tuple(sum(v[i] for v in self.vertices) / n for i in range(self.dim))

    # -------------------------------------------------------- triangulation
    def _pulling_triangulation(self, apex: int) -> tuple[list[list[int]], list[list[int]], int]:
        """Simplices, as vertex indices, of the pulling triangulation from
        vertex apex: the cone from apex over every facet that misses it,
        each facet triangulated the same way from its own first vertex, down
        to faces that are simplices.  A face is the bitmask of its vertices;
        the facets of a face are the inclusion-maximal proper nonempty sets
        face & facet.  Returned with the vertices scaled to integers by
        their common denominator, and the scale, which the incidence uses."""
        flat, scale = _integer_row([x for v in self.vertices for x in v])
        points = [flat[i : i + self.dim] for i in range(0, len(flat), self.dim)]
        incidence = []
        for a, b in self.facets:
            *row, rhs = _integer_row((*a, b))[0]
            incidence.append(sum(1 << i for i, p in enumerate(points) if sum(map(operator.mul, row, p)) == rhs * scale))

        def pull(face: int, top: int, dim: int) -> list[int]:
            if face.bit_count() == dim + 1:
                return [face]
            meets = {face & m for m in incidence} - {0, face}
            return [
                simplex | 1 << top
                for f in sorted(meets)
                if not f >> top & 1 and not any(f != g and f & g == f for g in meets)
                for simplex in pull(f, (f & -f).bit_length() - 1, dim - 1)
            ]

        simplices = pull((1 << len(points)) - 1, apex % len(points), self.dim)
        return [[i for i in range(len(points)) if s >> i & 1] for s in simplices], points, scale

    def volume(self) -> Fraction:
        """|det| of the rows (v, 1) over the pulling triangulation, over d!."""
        simplices, points, scale = self._pulling_triangulation(0)
        total = sum(abs(_integer_det([[*points[i], 1] for i in s])) for s in simplices)
        return Fraction(total, scale**self.dim * math.factorial(self.dim))

    # ----------------------------------------------------------------- JSON
    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "H": [{"a": [str(v) for v in a], "b": str(b)} for a, b in self.facets],
            "V": [[str(x) for x in v] for v in self.vertices],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Polytope":
        if data.get("V"):
            return cls.from_vertices(data["V"])
        return cls.from_halfspaces([(f["a"], f["b"]) for f in data["H"]])


def default_variables(dim: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(dim))


def facet_form(facet: Facet, variables: Sequence[str]) -> Polynomial:
    """The linear form b - a.x, positive on the interior."""
    a, b = facet
    return _linear_polynomial((*(-x for x in a), b), tuple(variables))


def _linear_polynomial(coeffs: Sequence, variables: tuple[str, ...]) -> Polynomial:
    """coeffs[0] x_1 + ... + coeffs[d-1] x_d + coeffs[d]."""
    *linear, const = coeffs
    terms = {tuple(0 for _ in variables): const}
    for j, coeff in enumerate(linear):
        terms[tuple(1 if t == j else 0 for t in range(len(variables)))] = coeff
    return Polynomial(variables, terms)


def simplex_canonical(
    simplex: Polytope | Sequence[Sequence], variables: Sequence[str] | None = None
) -> RationalFunction:
    """Canonical function of a simplex: 1/(d! vol * product of barycentrics)."""
    verts = simplex.vertices if isinstance(simplex, Polytope) else tuple(_fracvec(p) for p in simplex)
    d = len(verts[0])
    if len(verts) != d + 1:
        raise ValueError("a d-simplex has d + 1 vertices")
    variables = tuple(variables) if variables else default_variables(d)
    m = [list(v) + [Fraction(1)] for v in verts]
    big = det(m)
    if big == 0:
        raise ValueError("degenerate simplex")

    denominator = Polynomial.const(1, variables)
    for i in range(d + 1):
        # det of m with row i replaced by (x, 1), expanded along that row
        coeffs = []
        for j in range(d + 1):
            minor = [row[:j] + row[j + 1 :] for r, row in enumerate(m) if r != i]
            coeffs.append((-1) ** (i + j) * det(minor))
        denominator = denominator * _linear_polynomial(coeffs, variables)
    scale = big ** (d + 1) / abs(big)
    return RationalFunction(Polynomial.const(scale, variables), denominator)


def _lattice_base(start: list[int], forms: list, lattice: list, scale: int) -> tuple[list[int], list[list[int]]]:
    """A base point q and, at each lattice point a, the values row . (q + a,
    scale) of the forms, none zero: q = start + t (1, N, ..., N^(d-1)) for the
    least t >= 0 that works, N = 2 max |normal entry| + 1, so every normal has a
    nonzero rate (base-N digits) and each form and point rule out at most one t."""
    d = len(start)
    big = 2 * max(abs(x) for row in forms for x in row[:d]) + 1
    rates = [sum(x * big**j for j, x in enumerate(row[:d])) for row in forms]
    ys = [(*map(operator.add, start, a), scale) for a in lattice]
    at = [[sum(map(operator.mul, row, y)) for row in forms] for y in ys]
    bad = {-v // r for vals in at for v, r in zip(vals, rates) if v % r == 0}
    t = next(t for t in itertools.count() if t not in bad)
    return [q + t * big**j for j, q in enumerate(start)], [[v + t * r for v, r in zip(vals, rates)] for vals in at]


def canonical_parts(
    p: Polytope, variables: Sequence[str] | None = None, apex: int = 0
) -> tuple[Polynomial, Polynomial]:
    """(numerator, facet-product denominator), both positive on the interior,
    of the canonical function from the pulling triangulation from the vertex
    p.vertices[apex].

    Its walls are the facets of P and the interior walls through the apex,
    keyed by _wall_key on the integer rows (s v, s), s the common
    denominator of the vertices.  A simplex with walls w_i opposite its
    vertices v_i contributes c / (product of the w_i), c = product of the
    w_i(v_i) over |det (v, 1)|, or the same on the rows (s v, s).

    The numerator A, the canonical function times the facet product, has
    degree m = #facets - d - 1 (Warren, Adv. Comput. Math. 6, 1996), so its
    exact values on the principal lattice x = (q + a) / s, a >= 0 integer
    with |a| <= m, fix it; no wall vanishes there (_lattice_base).  Forward
    differences along each coordinate give A in the basis
    prod binom(s x_i - q_i, b_i), and falling factorials give its monomials.
    """
    variables = tuple(variables) if variables else default_variables(p.dim)
    d, m, nf = p.dim, len(p.facets) - p.dim - 1, len(p.facets)
    # wall key -> integer row over (x, 1); facets first, as the builders store them
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    target = Polynomial.const(1, variables)
    for a, b in p.facets:
        row = tuple(map(int, (*(-x for x in a), b)))
        rows[_primitive_integer(row)] = row
        target = target * _linear_polynomial(row, variables)
    simplices, points, scale = p._pulling_triangulation(apex)
    by_facet: dict[tuple[int, ...], list] = {}  # the facet opposite the apex -> its simplices
    for simplex in simplices:
        vrows = [(*points[i], scale) for i in simplex]
        num, keys = 1, []
        for i, vrow in enumerate(vrows):
            # the wall opposite vertex i is the kernel of the other rows
            key = _wall_key(vrows[:i] + vrows[i + 1 :])
            num *= sum(map(operator.mul, rows.setdefault(key, key), vrow))
            keys.append(key)
        c = Fraction(num, abs(_integer_det([list(r) for r in vrows])))
        by_facet.setdefault(keys[simplex.index(apex % len(points))], []).append((c, keys))
    # each c as an integer over dets, each wall as its position in rows
    dets = math.lcm(*(c.denominator for cone in by_facet.values() for c, _ in cone))
    index = {key: i for i, key in enumerate(rows)}
    cones = [[((c * dets).numerator, [index[k] for k in ks]) for c, ks in cone] for cone in by_facet.values()]
    cones = [({i for _, s in cone for i in s}, cone) for cone in cones]
    # at x = (q + a) / scale a form is row . (q + a, scale) over scale, so
    # A(x) scale^m is the facet product times the sum of c over the walls
    # of each simplex, all at q + a: an integer over the product of all
    # walls, summed cone by cone over their own walls to keep divisions short
    lattice = [a for a in itertools.product(range(m + 1), repeat=d) if sum(a) <= m]
    base, at = _lattice_base([sum(col) // len(points) for col in zip(*points)], list(rows.values()), lattice, scale)
    values = []
    for w in at:
        full, total = math.prod(w), 0
        for ids, cone in cones:
            part = math.prod(w[i] for i in ids)
            total += full // part * sum(c * (part // math.prod(w[i] for i in s)) for c, s in cone)
        values.append(Fraction(total, dets * math.prod(w[nf:])))
    # the values as integers over one denominator, then forward differences
    den = math.lcm(*(v.denominator for v in values))
    coeffs = {a: v.numerator * (den // v.denominator) for a, v in zip(lattice, values)}
    for i in range(d):
        for k in range(1, m + 1):
            coeffs = {a: v - coeffs[(*a[:i], a[i] - 1, *a[i + 1 :])] if a[i] >= k else v for a, v in coeffs.items()}
    # binom(y, b) = (m! / b!) ff_b(y) / m!, ff_b(y) = y (y - 1) ... (y - b + 1):
    # each coordinate in turn trades b_i for the exponent of x_i
    for i, q in enumerate(base):
        ff = [[math.factorial(m)]]  # (m! / b!) ff_b(scale x - q) in x, lowest first
        for b in range(m):
            ff.append([(scale * u - (q + b) * v) // (b + 1) for u, v in zip([0, *ff[-1]], [*ff[-1], 0])])
        out: dict[tuple[int, ...], int] = {}
        for b, c in coeffs.items():
            for e, x in enumerate(ff[b[i]]):
                key = (*b[:i], e, *b[i + 1 :])
                out[key] = out.get(key, 0) + c * x
        coeffs = out
    den *= math.factorial(m) ** d * scale**m
    return Polynomial(variables, {e: Fraction(c, den) for e, c in coeffs.items()}), target


def canonical_function(
    p: Polytope, variables: Sequence[str] | None = None, apex: int = 0
) -> RationalFunction:
    """Canonical function via the pulling triangulation from the vertex
    p.vertices[apex], returned over the facet-product denominator (all poles
    simple, on facets only).

    The result is independent of the apex; tests verify this exactly.
    """
    return RationalFunction(*canonical_parts(p, variables, apex))


def canonical_vertex_sum(p: Polytope, variables: Sequence[str] | None = None) -> RationalFunction:
    """Second route for simple polytopes: sum over vertices of
    |det of active normals| / product of active facet forms, assembled over
    the common denominator of all facet forms."""
    actives = [p.active_facets(v) for v in p.vertices]
    if any(len(active) != p.dim for active in actives):
        raise ValueError("vertex-sum formula requires a simple polytope")
    variables = tuple(variables) if variables else default_variables(p.dim)
    forms = {f: facet_form(f, variables) for f in p.facets}
    numerator = Polynomial.zero(variables)
    for active in actives:
        weight = abs(det([list(a) for a, _ in active]))
        term = Polynomial.const(weight, variables)
        for f in p.facets:
            if f not in active:
                term = term * forms[f]
        numerator = numerator + term
    denominator = Polynomial.const(1, variables)
    for f in p.facets:
        denominator = denominator * forms[f]
    return RationalFunction(numerator, denominator)


def adjoint(p: Polytope, variables: Sequence[str] | None = None) -> Polynomial:
    """Numerator of the canonical function over the full facet product,
    with integer content removed; positive on the interior of P."""
    return canonical_parts(p, variables)[0].primitive()


def polar_dual(p: Polytope, x0: Sequence) -> Polytope:
    """Polar dual of P - x0 for an interior point x0."""
    x0 = _fracvec(x0)
    if not p.contains(x0, strict=True):
        raise ValueError("polar dual needs a strictly interior base point")
    halfspaces = [(tuple(v[i] - x0[i] for i in range(p.dim)), Fraction(1)) for v in p.vertices]
    return Polytope.from_halfspaces(halfspaces)


def dual_volume_oracle(p: Polytope, x0: Sequence) -> Fraction:
    """d! times the exact volume of (P - x0) polar: the independent check
    that pins the normalization of canonical_function."""
    return math.factorial(p.dim) * polar_dual(p, x0).volume()


# --------------------------------------------------------------------------
# the ABHY associahedron
# --------------------------------------------------------------------------


def abhy_associahedron(n: int, mesh: Sequence) -> Polytope:
    """The ABHY associahedron {X_D >= 0 for every diagonal D} of the n-point
    chart with the given mesh constants (kinematics.abhy_planar_forms), in
    the coordinates X_{i,i+2}, 2 <= i <= n-2.  Requires positive constants."""
    mesh = _fracvec(mesh)
    if any(c <= 0 for c in mesh):
        raise ValueError("mesh constants must be positive")
    forms = abhy_planar_forms(n, mesh).values()
    return Polytope.from_halfspaces([(tuple(-x for x in coeffs), const) for coeffs, const in forms])


def abhy_pentagon(c13, c14, c24) -> Polytope:
    """Pentagon in coordinates (a, b) whose five facet forms are the planar
    variables: X24 = a, X35 = b, X25 = a+b-c24, X14 = c14+c24-b,
    X13 = c13+c14+c24-a-b.  The n = 5 case of abhy_associahedron."""
    return abhy_associahedron(5, (c13, c14, c24))


def abhy_facet_forms(c13, c14, c24, variables: Sequence[str] = ("a", "b")) -> dict:
    """The five facet linear forms keyed by their planar-variable label, read
    from the n = 5 chart; the constants may be numbers or Polynomials."""
    mesh = [c if isinstance(c, Polynomial) else Fraction(c) for c in (c13, c14, c24)]
    forms = abhy_planar_forms(5, mesh).items()
    return {d: _linear_polynomial((*coeffs, 0), tuple(variables)) + const for d, (coeffs, const) in forms}


def abhy_identity_symbolic() -> tuple[RationalFunction, RationalFunction]:
    """Canonical function of the pentagon versus the five-term planar sum as
    rational functions in (a, b, c13, c14, c24).

    The left side is computed by the fan triangulation with symbolic mesh
    constants (the three triangle orientations are sign-definite on the
    positive chamber because their determinants have positive coefficients);
    the right side is the sum of 1/(X X') over the triangulations of the
    pentagon, the adjacent facet pairs, with the forms read from the chart.
    The two must be rf-equal; the acceptance suite asserts it.
    """
    variables = ("a", "b", "c13", "c14", "c24")
    a, b, c13, c14, c24 = map(Polynomial.variable, variables)
    zero = Polynomial.const(0)
    one = Polynomial.const(1)

    forms = abhy_facet_forms(c13, c14, c24)
    amplitude = RationalFunction(Polynomial.zero(variables))
    for f, g in (t.diagonals for t in enumerate_triangulations(5)):
        amplitude = amplitude + RationalFunction(one, forms[f] * forms[g])

    corners = [
        (c24, zero),
        (c13 + c14 + c24, zero),
        (c13, c14 + c24),
        (zero, c14 + c24),
        (zero, c24),
    ]
    fan = RationalFunction(Polynomial.zero(variables))
    apex = corners[0]
    for corner_b, corner_c in zip(corners[1:-1], corners[2:]):
        tri = (apex, corner_b, corner_c)

        def row_det(rows):
            (x0, y0), (x1, y1), (x2, y2) = rows
            return x0 * (y1 - y2) - y0 * (x1 - x2) + (x1 * y2 - y1 * x2)

        orientation = row_det(tri)
        if any(c < 0 for c in orientation.terms.values()):
            raise AssertionError("fan triangle is not positively oriented on the chamber")
        denominator = one
        for i in range(3):
            rows = list(tri)
            rows[i] = (a, b)
            denominator = denominator * row_det(rows)
        fan = fan + RationalFunction(orientation * orientation, denominator)
    return fan, amplitude
