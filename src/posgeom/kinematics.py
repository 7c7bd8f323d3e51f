"""Mandelstam data for n massless particles.

A kinematic point is the symmetric n x n matrix s with zero diagonal and
vanishing row sums (momentum conservation).  Points are generated from the
n(n-3)/2 free planar variables X_ij, one per diagonal of the n-gon: the
inverse dictionary s_ab = X_{a,b+1} + X_{a+1,b} - X_{ab} - X_{a+1,b+1}
(indices mod n, edges and degenerate pairs contributing zero) produces a
conserving matrix identically, so sampling never has to solve constraints.

The ABHY chart (Arkani-Hamed-Bai-He-Yan) is written here once for every n:
fixing the mesh constants c_ij = -s_ij, i, j != n nonadjacent, leaves the
coordinates X_{i,i+2}, 2 <= i <= n-2, in which every planar variable is an
affine form; polytope.abhy_associahedron builds {X_D >= 0} from them.  The
pentagon's constants and sampler are the n = 5 case.

The dihedral exponents computed here are a different object from the planar
variables, even though the defining combination looks alike; the two are
kept as separate functions and never conflated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .exact import _integer_row

Diagonal = tuple[int, int]


def polygon_diagonals(n: int) -> list[Diagonal]:
    """Diagonals (i,j) of the n-gon: 1 <= i < j <= n, j-i >= 2, (i,j) != (1,n)."""
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    return [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1) if (i, j) != (1, n)]


def normalize_pair(i: int, j: int, n: int) -> Diagonal | None:
    """Reduce an index pair mod n to a canonical diagonal; None for edges/degenerate."""
    a = (i - 1) % n + 1
    b = (j - 1) % n + 1
    if a == b:
        return None
    a, b = min(a, b), max(a, b)
    if b - a == 1 or (a, b) == (1, n):
        return None
    return (a, b)


@dataclass(frozen=True)
class KinematicData:
    """Symmetric Mandelstam matrix with exact momentum conservation."""

    n: int
    s: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = self.n
        if n < 4:
            raise ValueError("kinematics requires n >= 4")
        if len(self.s) != n or any(len(row) != n for row in self.s):
            raise ValueError("s must be an n x n matrix")
        for i in range(n):
            if self.s[i][i] != 0:
                raise ValueError("s must have zero diagonal")
            for j in range(n):
                if self.s[i][j] != self.s[j][i]:
                    raise ValueError("s must be symmetric")
            if sum(self.s[i], Fraction(0)) != 0:
                raise ValueError(f"momentum conservation fails in row {i + 1}")

    def entry(self, i: int, j: int) -> Fraction:
        """s_ij with 1-based indices taken mod n."""
        a = (i - 1) % self.n
        b = (j - 1) % self.n
        return self.s[a][b]

    def to_dict(self) -> dict:
        return {"n": self.n, "s": [[str(v) for v in row] for row in self.s]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "KinematicData":
        n = int(data["n"])
        s = tuple(tuple(Fraction(v) for v in row) for row in data["s"])
        return cls(n, s)


def _mandelstam(n: int, planar: Mapping[Diagonal, object], zero) -> list[list]:
    """The matrix s_ab = X_{a,b+1} + X_{a+1,b} - X_ab - X_{a+1,b+1} of the
    planar values, with X = zero on edges and degenerate pairs."""

    def xval(i: int, j: int):
        d = normalize_pair(i, j, n)
        return planar[d] if d is not None else zero

    s = [[zero] * n for _ in range(n)]
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            val = xval(a, b + 1) + xval(a + 1, b) - xval(a, b) - xval(a + 1, b + 1)
            s[a - 1][b - 1] = val
            s[b - 1][a - 1] = val
    return s


def kinematics_from_planar(n: int, planar: Mapping[Diagonal, Fraction]) -> KinematicData:
    """Build the Mandelstam matrix from free planar values on the diagonals."""
    diags = polygon_diagonals(n)
    missing = [d for d in diags if d not in planar]
    if missing:
        raise ValueError(f"missing planar values for {missing}")
    s = _mandelstam(n, {d: Fraction(planar[d]) for d in diags}, Fraction(0))
    return KinematicData(n, tuple(tuple(row) for row in s))


def planar_variables(k: KinematicData) -> dict[Diagonal, Fraction]:
    """Planar variables X_ij = sum of s_ab over the window i <= a < b <= j-1,
    by X_{i,j+1} = X_ij + sum of s_aj over i <= a < j on the integers s * L
    (L the lcm of the denominators): one Fraction per diagonal."""
    n = k.n
    # the s_aj, a < j <= n - 1, column by column: column j starts at (j-1)(j-2)/2
    flat, scale = _integer_row([x for j in range(1, n - 1) for x in k.s[j][:j]])
    out = {}
    for i in range(1, n - 1):
        x = 0
        for j in range(i + 1, n - 1 if i == 1 else n):  # X_1n is no diagonal
            start = (j - 1) * (j - 2) // 2
            x += sum(flat[start + i - 1 : start + j - 1])
            out[(i, j + 1)] = Fraction(x, scale)
    return out


def subset_invariant(k: KinematicData, subset: Sequence[int]) -> Fraction:
    """Multiparticle invariant of a particle subset: sum of s_ab over pairs."""
    return sum((k.s[a - 1][b - 1] for a, b in combinations(sorted(subset), 2)), Fraction(0))


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """Sum of values over every subset, indexed by the subset's bitmask."""
    sums = np.zeros(1, dtype=values.dtype)
    for v in values:
        sums = np.concatenate([sums, sums + v])
    return sums


def is_generic(k: KinematicData) -> bool:
    """No vanishing multiparticle invariant (up to complementation).

    Vanishing subset invariants push scattering-equation roots onto the
    boundary of the moduli space and drop the critical-point count, so the
    sampler screens them out.  The check runs on the integer matrix s * L,
    L the lcm of the denominators.
    """
    flat, _ = _integer_row([x for row in k.s for x in row])
    return _generic([flat[i : i + k.n] for i in range(0, len(flat), k.n)])


def _generic(s: list[list[int]]) -> bool:
    """No subset of 2 to n//2 particles has zero invariant, for an integer
    momentum-conserving s.  The invariants of a subset and its complement are
    equal, so the subsets of 2 to n - 2 of the particles 1..n-1 cover them
    all.  Their invariants come by doubling a table indexed by bitmask:
    adding particle j adds the sum of column j over the subset."""
    n = len(s)
    # no invariant exceeds half the total of |s| in magnitude
    dtype = np.int64 if sum(abs(x) for row in s for x in row) < 2**63 else object
    s = np.array(s, dtype=dtype)
    inv, size = np.zeros(1, dtype=dtype), np.zeros(1, dtype=np.int64)
    for j in range(n - 1):
        grown = inv + _subset_sums(s[:j, j])
        if np.any((grown == 0) & (size >= 1) & (size <= n - 3)):
            return False
        inv, size = np.concatenate([inv, grown]), np.concatenate([size, size + 1])
    return True


# planar values are v/12 with 1 <= |v| <= 120 for the first 64 draws; the
# later draws widen the grid, where 2^(n-1) subset invariants need more room
# to all miss zero (from n = 12 on the first grid rarely suffices)
SAMPLE_BOUNDS = (120, 120 * 10**6)
DRAWS_PER_BOUND = 64


def sample_kinematics(n: int, seed: int, positive: bool = False) -> KinematicData:
    """Deterministic kinematics from free planar values on a rational grid.

    positive=True samples every planar variable > 0 (the region used by the
    string-integral limit); otherwise values are nonzero of either sign.
    Draws are repeated (still deterministically) until no multiparticle
    invariant vanishes, on a grid that widens after 64 failed draws.
    """
    rng = random.Random(seed)
    for bound in SAMPLE_BOUNDS:
        for _ in range(DRAWS_PER_BOUND):
            # 12 times the planar values
            planar = {}
            for d in polygon_diagonals(n):
                if positive:
                    planar[d] = rng.randint(1, bound)
                else:
                    v = 0
                    while v == 0:
                        v = rng.randint(-bound, bound)
                    planar[d] = v
            if _generic(_mandelstam(n, planar, 0)):
                return kinematics_from_planar(n, {d: Fraction(v, 12) for d, v in planar.items()})
    raise RuntimeError("could not sample generic kinematics")


def dihedral_exponents(k: KinematicData) -> dict[Diagonal, Fraction]:
    """Exponents X_ij = s_{i,j+1} + s_{i+1,j} - s_ij - s_{i+1,j+1}, indices mod 5."""
    if k.n != 5:
        raise ValueError("dihedral exponents are defined here for n = 5")
    out = {}
    for (i, j) in polygon_diagonals(5):
        out[(i, j)] = k.entry(i, j + 1) + k.entry(i + 1, j) - k.entry(i, j) - k.entry(i + 1, j + 1)
    return out


def cyclic_relabel(k: KinematicData, shift: int = 1) -> KinematicData:
    """Relabel particles i -> i + shift (mod n)."""
    n = k.n
    s = tuple(
        tuple(k.s[(i + shift) % n][(j + shift) % n] for j in range(n)) for i in range(n)
    )
    return KinematicData(n, s)


def _mesh_pairs(n: int) -> list[Diagonal]:
    """The pairs 1 <= i < j - 1 <= n - 2, sorted by j: (1,3), (1,4), (2,4), (1,5), ..."""
    return [(i, j) for j in range(3, n) for i in range(1, j - 1)]


def abhy_mesh(k: KinematicData) -> tuple[Fraction, ...]:
    """The mesh constants c_ij = -s_ij of a kinematic point, in the order of
    _mesh_pairs; the point lies in an ABHY associahedron when all are positive."""
    return tuple(-k.s[i - 1][j - 1] for i, j in _mesh_pairs(k.n))


def abhy_planar_forms(n: int, mesh: Sequence) -> dict[Diagonal, tuple[tuple[int, ...], object]]:
    """Every planar variable X_D of the n-point ABHY chart with the given
    mesh, as (integer coefficients on X_{i,i+2} for 2 <= i <= n-2, constant).

    For i >= 2 the window of X_ij holds the coordinates s_{a,a+1} and mesh pairs:
        X_ij = sum_{a=i}^{j-2} X_{a,a+2} - sum_{i <= a, a+2 <= b <= j-1} c_ab;
    for i = 1, X_1j = X_1j - X_1n = -sum_{b=j}^{n-1} sum_{a<b} s_ab, that is
        X_1j = -sum_{b=j}^{n-1} X_{b-1,b+1} + sum_{b=j}^{n-1} sum_{a <= b-2} c_ab.
    The constants are only added and negated, so the mesh may hold Polynomials.
    """
    pairs = _mesh_pairs(n)
    if len(mesh) != len(pairs):
        raise ValueError(f"the {n}-point ABHY chart needs {len(pairs)} mesh constants, not {len(mesh)}")
    forms = {}
    for i, j in polygon_diagonals(n):
        if i == 1:
            coeffs = tuple(-int(a >= j - 1) for a in range(2, n - 1))
            const = sum((c for (a, b), c in zip(pairs, mesh) if b >= j), 0)
        else:
            coeffs = tuple(int(i <= a <= j - 2) for a in range(2, n - 1))
            const = -sum((c for (a, b), c in zip(pairs, mesh) if a >= i and b < j), 0)
        forms[(i, j)] = (coeffs, const)
    return forms


def abhy_constants(k: KinematicData) -> tuple[Fraction, Fraction, Fraction]:
    """Mesh constants (c13, c14, c24) = (-s13, -s14, -s24) of the pentagon
    realization: abhy_mesh at n = 5.  All three must be positive for the
    pentagon to exist; sample_abhy_kinematics generates such points."""
    if k.n != 5:
        raise ValueError("the pentagon realization is for n = 5")
    return abhy_mesh(k)


def sample_abhy_kinematics(seed: int) -> KinematicData:
    """n=5 kinematics with all planar variables positive and positive mesh
    constants: a random point (a, b) = (X24, X35) in the interior of a random
    pentagon, the other planar variables read from the chart."""
    rng = random.Random(seed)
    c13, c14, c24 = (Fraction(rng.randint(1, 36), 6) for _ in range(3))
    corners = [
        (c24, Fraction(0)),
        (c13 + c14 + c24, Fraction(0)),
        (c13, c14 + c24),
        (Fraction(0), c14 + c24),
        (Fraction(0), c24),
    ]
    weights = [Fraction(rng.randint(1, 20)) for _ in corners]
    total = sum(weights)
    a = sum(w * v[0] for w, v in zip(weights, corners)) / total
    b = sum(w * v[1] for w, v in zip(weights, corners)) / total
    planar = {d: p * a + q * b + const for d, ((p, q), const) in abhy_planar_forms(5, (c13, c14, c24)).items()}
    return kinematics_from_planar(5, planar)
