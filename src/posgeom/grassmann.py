"""Lines in projective 3-space, positive matrices, and membership tests.

A point configuration Z (n rows spanning R^4, all ordered maximal minors
positive) plays three roles: its convex hull is a cyclic polytope, the
image of the totally nonnegative 2 x n matrices under right multiplication
by Z is a full-dimensional semi-algebraic set of lines, and the numerator
of the associated rational form is a linear equation in Pluecker
coordinates recovered here by interpolation.

Everything is exact and runs on integers, each row or point scaled by the
lcm of its denominators.  A bracket <a b Z_i Z_j> is the Laplace pairing of
the Pluecker coordinates of (a, b) and (Z_i, Z_j); membership is a sign
pattern (one sign along the cyclic chain, exactly two sign flips along the
first row, zeros skipped); the line stabs iff the pairs (f.A, f.B) over the
facet normals f are nonzero and lie in an open half-plane, which their
exact angular order decides; interpolation is fraction-free elimination.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .exact import _integer_det, _integer_row, solve_linear
from .polytope import _extreme_rays, _fracvec, _wall_key, cone_facet_normals

Vector = tuple[Fraction, ...]

PLUECKER_ORDER: tuple[tuple[int, int], ...] = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def _pluecker(u: Sequence, v: Sequence) -> tuple:
    """The 2 x 2 minors of the rows u, v in PLUECKER_ORDER."""
    return tuple(u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1] for i, j in PLUECKER_ORDER)


def _laplace_pairing(p: Sequence, q: Sequence):
    """det(u, v, x, y) from p = _pluecker(u, v) and q = _pluecker(x, y)."""
    return p[0] * q[5] - p[1] * q[4] + p[2] * q[3] + p[3] * q[2] - p[4] * q[1] + p[5] * q[0]


@dataclass(frozen=True)
class ZMatrix:
    """n x 4 rational matrix with all ordered 4 x 4 minors positive."""

    rows: tuple[Vector, ...]

    def __post_init__(self):
        if any(len(r) != 4 for r in self.rows):
            raise ValueError("rows must have length 4")
        if len(self.rows) < 4:
            raise ValueError("need at least 4 rows")
        # each row times the positive lcm of its denominators: (integers, lcm)
        object.__setattr__(self, "_scaled", tuple(_integer_row(r) for r in self.rows))
        for subset in combinations(range(len(self.rows)), 4):
            if _integer_det([list(self._scaled[i][0]) for i in subset]) <= 0:
                raise ValueError(f"ordered minor {subset} is not positive")

    @property
    def n(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> Vector:
        """1-based cyclic row access."""
        return self.rows[(i - 1) % self.n]

    def to_dict(self) -> dict:
        return {"n": self.n, "rows": [[str(x) for x in r] for r in self.rows]}

    @classmethod
    def from_dict(cls, data) -> "ZMatrix":
        return cls(tuple(_fracvec(r) for r in data["rows"]))


def twisted_cubic_z(nodes: Sequence) -> ZMatrix:
    """Rows (1, t, t^2, t^3) at strictly increasing nodes; positivity of all
    ordered minors is the Vandermonde product."""
    ts = [Fraction(t) for t in nodes]
    if any(a >= b for a, b in zip(ts, ts[1:])):
        raise ValueError("nodes must be strictly increasing")
    return ZMatrix(tuple((Fraction(1), t, t * t, t * t * t) for t in ts))


@dataclass(frozen=True)
class PlueckerLine:
    """A line in projective 3-space via its six Pluecker coordinates."""

    p: tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        if all(v == 0 for v in self.p):
            raise ValueError("zero Pluecker vector")
        p12, p13, p14, p23, p24, p34 = self.p
        if p12 * p34 - p13 * p24 + p14 * p23 != 0:
            raise ValueError("Pluecker relation violated")

    @classmethod
    def from_points(cls, a: Sequence, b: Sequence) -> "PlueckerLine":
        return cls(_pluecker(_fracvec(a), _fracvec(b)))

    def point_pair(self) -> tuple[Vector, Vector]:
        """Two spanning points recovered from the coordinates (any pair is
        equivalent for membership and stabbing)."""
        p = {ij: v for ij, v in zip(PLUECKER_ORDER, self.p)}

        def entry(i, j):
            if i == j:
                return Fraction(0)
            return p[(i, j)] if i < j else -p[(j, i)]

        # columns of the rank-2 antisymmetric matrix P_ij lie on the line;
        # pick two independent ones
        columns = [tuple(entry(t, j) for t in range(1, 5)) for j in range(1, 5)]
        columns = [c for c in columns if any(v != 0 for v in c)]
        first = columns[0]
        for col in columns[1:]:
            minors = [
                first[i] * col[j] - first[j] * col[i] for i in range(4) for j in range(i + 1, 4)
            ]
            if any(m != 0 for m in minors):
                return first, col
        raise ValueError("degenerate Pluecker vector")


def brackets(a: Sequence, b: Sequence, z: ZMatrix) -> dict[tuple[int, int], Fraction]:
    """All 4 x 4 determinants det(a, b, Z_i, Z_j) for i < j, each the Laplace
    pairing of integer Pluecker coordinates over the product of the scales."""
    (ia, la), (ib, lb) = _integer_row(a), _integer_row(b)
    p, lab = _pluecker(ia, ib), la * lb
    out = {}
    for (i, (zi, li)), (j, (zj, lj)) in combinations(enumerate(z._scaled, 1), 2):
        out[(i, j)] = Fraction(_laplace_pairing(p, _pluecker(zi, zj)), lab * li * lj)
    return out


def count_sign_flips(values: Sequence[Fraction]) -> int:
    """Sign changes along the sequence, zeros skipped."""
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    chain: tuple[Fraction, ...]
    flip_sequence: tuple[Fraction, ...]
    flip_count: int
    chain_uniform: bool
    extended: bool = False

    @property
    def chain_signs(self) -> tuple[int, ...]:
        return tuple(0 if v == 0 else (1 if v > 0 else -1) for v in self.chain)


def _line_points(line) -> tuple[Sequence, Sequence]:
    if isinstance(line, PlueckerLine):
        return line.point_pair()
    a, b = line
    if not any(_pluecker(_integer_row(a)[0], _integer_row(b)[0])):
        raise ValueError("zero Pluecker vector")
    return a, b


def membership(line, z: ZMatrix, extended: bool = False) -> MembershipVerdict:
    """Sign-pattern membership test for lines against the configuration Z.

    The line belongs iff the cyclic chain of brackets (12), (23), ..., (n-1
    n), (1 n) carries one uniform sign with no zeros, and the sequence of
    brackets (12), (13), ..., (1n) has exactly two sign flips with zeros
    skipped.  Certified for n = 5; other n follow the same pattern and are
    reported with extended=True.
    """
    if z.n != 5 and not extended:
        raise ValueError("membership is certified for n = 5; pass extended=True otherwise")
    a, b = _line_points(line)
    br = brackets(a, b, z)
    n = z.n
    chain_pairs = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    chain = tuple(br[p] for p in chain_pairs)
    flip_seq = tuple(br[(1, j)] for j in range(2, n + 1))
    uniform = all(v > 0 for v in chain) or all(v < 0 for v in chain)
    flips = count_sign_flips(flip_seq)
    return MembershipVerdict(
        member=uniform and flips == 2,
        chain=chain,
        flip_sequence=flip_seq,
        flip_count=flips,
        chain_uniform=uniform,
        extended=(z.n != 5),
    )


# --------------------------------------------------------------------------
# stabbing: does the line meet the open cone over Conv(Z)?
# --------------------------------------------------------------------------


def cone_facets(z: ZMatrix) -> list[Vector]:
    """Inward normals of the cone over the configuration (exact), as
    primitive integer vectors in sorted order."""
    return cone_facet_normals(z.rows)


@functools.cmp_to_key
def _angular(u: tuple[int, int], v: tuple[int, int]) -> int:
    """Angle order: half-plane [0, pi) before [pi, 2 pi), then counterclockwise."""
    hu, hv = (0 if y > 0 or (y == 0 and x > 0) else 1 for x, y in (u, v))
    return (hu - hv) or (u[1] * v[0] - u[0] * v[1])


def _open_cone_nonempty(normals: list[tuple[int, int]]) -> bool:
    """Whether some x in the plane has n.x > 0 for every integer pair n: no
    pair is (0, 0) and, sorted by angle, a cyclically consecutive pair turns
    by more than pi (negative cross product) or all point the same way."""
    if (0, 0) in normals:
        return False
    normals = sorted(normals, key=_angular)
    # (cross, dot) of each cyclically consecutive pair
    pairs = zip(normals, normals[1:] + normals[:1])
    turns = [(u0 * v1 - u1 * v0, u0 * v0 + u1 * v1) for (u0, u1), (v0, v1) in pairs]
    return any(cross < 0 for cross, _ in turns) or all(cross == 0 and dot > 0 for cross, dot in turns)


def stabs(line, z: ZMatrix) -> bool:
    """True iff some point lam*A + mu*B lies strictly inside every facet of
    the cone over Z.  Each primitive integer facet normal f gives the pair
    (f.A, f.B) over the integer-scaled points; by Gordan's alternative the
    open cone of (lam, mu) is empty iff some pair is (0, 0) or the pairs lie
    in no open half-plane, which their exact angular order decides."""
    ia, ib = (_integer_row(p)[0] for p in _line_points(line))
    rays = _extreme_rays([r for r, _ in z._scaled]) or []
    return _open_cone_nonempty([(sum(map(operator.mul, f, ia)), sum(map(operator.mul, f, ib))) for f, _ in rays])


# --------------------------------------------------------------------------
# adjoint interpolation
# --------------------------------------------------------------------------


def _plane_normal(points: Sequence[Vector]) -> Vector:
    normal = _wall_key([_integer_row(p)[0] for p in points])
    if not any(normal):
        raise ValueError("points do not span a plane")
    return tuple(Fraction(v) for v in normal)


def special_line(i: int, z: ZMatrix) -> PlueckerLine:
    """The unique line through Z_i meeting the lines Z_{i+1}Z_{i+2} and
    Z_{i+3}Z_{i+4}: the intersection of the two planes they span with Z_i."""
    n1 = _plane_normal([z.row(i), z.row(i + 1), z.row(i + 2)])
    n2 = _plane_normal([z.row(i), z.row(i + 3), z.row(i + 4)])
    sol = solve_linear([list(n1), list(n2)])
    if len(sol.kernel) != 2:
        raise ValueError("planes do not intersect in a line")
    v1, v2 = sol.kernel
    return PlueckerLine.from_points(_fracvec(v1), _fracvec(v2))


def adjoint_interpolation(z: ZMatrix) -> tuple[int, ...]:
    """Primitive integer coefficients of the linear form in Pluecker
    coordinates vanishing on the five special lines; the sign is fixed by a
    positive last coefficient.

    Coefficients are reported against PLUECKER_ORDER, i.e. lexicographic
    labels (12, 13, 14, 23, 24, 34) in the row-minor convention of
    PlueckerLine.from_points (the one under which the 4 x 4 determinant
    expands as p12 q34 - p13 q24 + p14 q23 + p23 q14 - p24 q13 + p34 q12).
    Sources that enumerate the six coordinates colexicographically list the
    same numbers with the (14) and (23) slots interchanged.
    """
    if z.n != 5:
        raise ValueError("adjoint interpolation is set up for n = 5")
    rows = [list(special_line(i, z).p) for i in range(1, 6)]
    sol = solve_linear(rows)
    if len(sol.kernel) != 1:
        raise ValueError("interpolation kernel is not one-dimensional (non-generic Z)")
    coeffs = list(sol.kernel[0])
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return tuple(int(c) for c in coeffs)


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------


def random_totally_positive_2xn(n: int, seed: int) -> tuple[Vector, Vector]:
    """Rows of a totally positive 2 x n matrix: columns (a_j, a_j r_j) with
    a_j > 0 and r_j strictly increasing, so every 2 x 2 minor is positive."""
    rng = random.Random(seed)
    tops = [Fraction(rng.randint(1, 60), rng.randint(1, 12)) for _ in range(n)]
    slopes = []
    cur = Fraction(rng.randint(-40, -20), 7)
    for _ in range(n):
        cur += Fraction(rng.randint(1, 30), 11)
        slopes.append(cur)
    row1 = tuple(tops)
    row2 = tuple(t * s for t, s in zip(tops, slopes))
    return row1, row2


def random_member(z: ZMatrix, seed: int) -> tuple[Vector, Vector]:
    """Image of a random totally positive 2 x n matrix: the rows of X * Z."""
    row1, row2 = random_totally_positive_2xn(z.n, seed)
    a = tuple(sum(row1[i] * z.rows[i][c] for i in range(z.n)) for c in range(4))
    b = tuple(sum(row2[i] * z.rows[i][c] for i in range(z.n)) for c in range(4))
    return a, b


def centroid_stab_line(z: ZMatrix) -> tuple[Vector, Vector]:
    """Line through the centroids of the facet triangles Z1 Z2 Z3 and
    Z1 Z3 Z4: it stabs the polytope but fails membership."""
    a = tuple((z.row(1)[c] + z.row(2)[c] + z.row(3)[c]) / 3 for c in range(4))
    b = tuple((z.row(1)[c] + z.row(3)[c] + z.row(4)[c]) / 3 for c in range(4))
    return a, b
