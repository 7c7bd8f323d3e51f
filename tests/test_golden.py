"""Byte-identity of the exact layer's printed results on a fixed corpus.

The digests pin the str/repr of canonical functions (three apexes), adjoints,
vertex sums, volumes, signature levels, ABHY pentagons, the fan parts of
six-point ABHY associahedra, and the brackets, membership verdicts, stabbing
verdicts, special lines and adjoint interpolations of positive
configurations.  A change to the arithmetic's internal
representation must leave every one of these strings as it was.
"""

import hashlib
import json
import random
from fractions import Fraction as F

from posgeom.grassmann import (
    PlueckerLine,
    ZMatrix,
    adjoint_interpolation,
    brackets,
    centroid_stab_line,
    membership,
    random_member,
    special_line,
    stabs,
    twisted_cubic_z,
)
from posgeom.kinematics import abhy_constants, sample_abhy_kinematics
from posgeom.polytope import (
    Polytope,
    abhy_associahedron,
    abhy_pentagon,
    adjoint,
    canonical_function,
    canonical_parts,
    canonical_vertex_sum,
)
from posgeom.signature import PiecewiseLinearPath, signature


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def polytope_lines(tag, poly):
    lines = [f"{tag} {json.dumps(poly.to_dict())} volume {poly.volume()}"]
    for apex in range(3):
        lines.append(f"{tag} apex {apex} {canonical_function(poly, apex=apex)!r}")
    lines.append(f"{tag} adjoint {adjoint(poly)!r} {adjoint(poly)}")
    if poly.is_simple():
        lines.append(f"{tag} vertex sum {canonical_vertex_sum(poly)!r}")
    return lines


def polytope_corpus():
    rng = random.Random(2026)
    polys = []
    for i in range(10):
        nodes = sorted(rng.sample(range(-72, 72), rng.randint(3, 7)))
        polys.append((f"moment{i}", Polytope.from_vertices([(F(t, 12), F(t, 12) ** 2) for t in nodes])))
    while len(polys) < 20:
        points = [tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)) for _ in range(6)]
        try:
            polys.append((f"cloud{len(polys)}", Polytope.from_vertices(points)))
        except ValueError:  # collinear draw
            continue
    while len(polys) < 24:
        points = [tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)) for _ in range(6)]
        try:
            polys.append((f"solid{len(polys)}", Polytope.from_vertices(points)))
        except ValueError:  # coplanar draw
            continue
    polys.append(("cube", Polytope.from_vertices([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])))
    polys.append(("octahedron", Polytope.from_vertices([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])))
    return polys


def test_polytope_outputs_are_pinned():
    lines = [line for tag, poly in polytope_corpus() for line in polytope_lines(tag, poly)]
    assert digest(lines) == "2408ccdf1b1804a7ea5b3b4c84c6fd8bd6a5a391d09056f3e216a42e1748510f"


def test_pentagon_outputs_are_pinned():
    lines = []
    for seed in range(20):
        lines += polytope_lines(f"pentagon{seed}", abhy_pentagon(*abhy_constants(sample_abhy_kinematics(seed))))
    assert digest(lines) == "6e7758ed7708f7e565644a5458a0b9a30695d9c7b1d95516ec3a1e794cef2ec4"


# sha256 of repr(canonical_parts) from apexes 0-2 on five seeded meshes,
# computed by the pairwise symbolic merge the lattice evaluation replaced
ASSOCIAHEDRON_DIGESTS = [
    "f4609d39ea483975448aa350cff074e92dd49b8048128309c150c78f61d4275f",
    "57466491f7d9d99d40e2ac8587dc4052fc67e633bac203b380c387a3eacf5a92",
    "5f1d0516dd77f748f1a3b331e9c471426dd5e77cc0972f8e68343d4701a71b17",
    "905898acfc28a0e2ee5e6236e536976890e8864c434a9cb67a5dec8dafed2b43",
    "740285b0c9247c13314576c0570092dfcbc6059f9fd50ebeb59c8844ce19ee7b",
]


def test_six_point_associahedron_fans_are_pinned():
    for seed, expected in enumerate(ASSOCIAHEDRON_DIGESTS):
        rng = random.Random(seed)
        p = abhy_associahedron(6, [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(6)])
        assert digest([repr(canonical_parts(p, apex=apex)) for apex in range(3)]) == expected, seed


def test_signature_levels_are_pinned():
    rng = random.Random(4)
    lines = []
    for dim in (2, 3):
        for i in range(6):
            points = [tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)) for _ in range(rng.randint(2, 5))]
            for level in signature(PiecewiseLinearPath.from_points(points), 4).levels:
                lines.append(f"{dim} {i} {level!r} {[str(x) for x in level.entries]} {level.to_nested()}")
    assert digest(lines) == "9887268084c91971c3f81e4c2519e72d505cabf4007b6a16d0db91607abe6d21"


def grassmann_corpus():
    """Twisted cubics at n = 5, 6, 7 with positive row scales, each with
    member images, its centroid line, lines through its rows and random
    rational lines (some given by Pluecker coordinates)."""
    rng = random.Random(22)
    cases = []
    for n in (5, 6, 7):
        for _ in range(3):
            scale = rng.randint(1, 5)
            cubic = twisted_cubic_z([F(t, scale) for t in sorted(rng.sample(range(-30, 30), n))])
            weights = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
            z = ZMatrix(tuple(tuple(w * x for x in row) for w, row in zip(weights, cubic.rows)))
            lines = [random_member(z, seed) for seed in range(3)]
            lines += [centroid_stab_line(z), (z.row(1), z.row(2)), (z.row(1), z.row(3)), (z.row(2), z.row(n))]
            while len(lines) < 15:
                a, b = ([F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4)] for _ in range(2))
                try:
                    lines.append(PlueckerLine.from_points(a, b) if len(lines) % 2 else (a, b))
                except ValueError:  # dependent draw
                    continue
            cases.append((z, lines))
    return cases


# sha256 of the repr of each output over grassmann_corpus()
GRASSMANN_DIGESTS = {
    "brackets": "cb823f8778771d287bd8ea303c5952ba7781f9027532a4542fca4eacc8d98527",
    "membership": "38502d26d20b42051b7cc4491624c9f2bf42e9965582bbb345430905602439c7",
    "stabs": "d43a35f9f3ba7b1a1c4246d5efff697579932030d8799ca6b63a5af72362b7dd",
    "special_line": "7e1598510135165a5c86fd2fcefd75c420e383033327cdfc5825379c2de00710",
    "adjoint_interpolation": "de22336bfd4095751903d7226537deed372691529f3ed7c8963312dc0e11ae46",
}


def test_grassmann_outputs_are_pinned():
    found = {"brackets": [], "membership": [], "stabs": [], "special_line": [], "adjoint_interpolation": []}
    for z, zlines in grassmann_corpus():
        for line in zlines:
            points = line.point_pair() if isinstance(line, PlueckerLine) else line
            found["brackets"].append(repr(brackets(*points, z)))
            found["membership"].append(repr(membership(line, z, extended=z.n != 5)))
            found["stabs"].append(repr(stabs(line, z)))
        found["special_line"] += [repr(special_line(i, z).p) for i in range(1, z.n + 1)]
        if z.n == 5:
            found["adjoint_interpolation"].append(repr(adjoint_interpolation(z)))
    assert {key: digest(lines) for key, lines in found.items()} == GRASSMANN_DIGESTS
