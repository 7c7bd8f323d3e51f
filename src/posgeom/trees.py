"""Triangulations of the n-gon and the planar tree amplitude.

The amplitude is the sum over all triangulations T of the product of
inverse planar variables 1/X_ij over the n-3 diagonals of T.  Evaluated on
a kinematic point it is an exact rational number; in symbolic form it is a
rational function in the planar variables.  This module is the reference
oracle that every other amplitude computation in the package is checked
against.

The triangulations of each n are enumerated once and kept.  The numeric
sum runs on integers, the numerators and denominators of the planar
variables, and builds a single Fraction for the result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import PoleError, Polynomial, RationalFunction
from .kinematics import Diagonal, KinematicData, planar_variables, polygon_diagonals


@dataclass(frozen=True)
class Triangulation:
    """A maximal set of pairwise non-crossing diagonals of the n-gon."""

    n: int
    diagonals: tuple[Diagonal, ...]

    def __post_init__(self):
        diags = set(polygon_diagonals(self.n))
        if len(self.diagonals) != self.n - 3:
            raise ValueError("a triangulation has exactly n - 3 diagonals")
        for d in self.diagonals:
            if d not in diags:
                raise ValueError(f"{d} is not a diagonal of the {self.n}-gon")
        for a in self.diagonals:
            for b in self.diagonals:
                if a < b and crossing(a, b):
                    raise ValueError(f"diagonals {a} and {b} cross")


def crossing(d1: Diagonal, d2: Diagonal) -> bool:
    """True iff the two chords of the polygon cross in their interiors."""
    (i, j), (k, l) = sorted((d1, d2))
    return i < k < j < l


# Triangulation lists kept per n; Catalan growth makes n = 12 already 16796.
_TRIANGULATION_CACHE_SIZE = 8


def enumerate_triangulations(n: int) -> list[Triangulation]:
    """All triangulations of the convex n-gon, deterministically ordered."""
    return list(_triangulations(n))


@functools.lru_cache(maxsize=_TRIANGULATION_CACHE_SIZE)
def _triangulations(n: int) -> tuple[Triangulation, ...]:
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")

    def rec(labels: tuple[int, ...]) -> list[frozenset]:
        if len(labels) < 4:
            return [frozenset()]
        first, last = labels[0], labels[-1]
        out = []
        for idx in range(1, len(labels) - 1):
            apex = labels[idx]
            extra = []
            for (a, b) in ((first, apex), (apex, last)):
                if b - a >= 2 and (a, b) != (1, n):
                    extra.append((a, b))
            for left in rec(labels[: idx + 1]):
                for right in rec(labels[idx:]):
                    out.append(left | right | frozenset(extra))
        return out

    seen = sorted({tuple(sorted(t)) for t in rec(tuple(range(1, n + 1)))})
    return tuple(Triangulation(n, t) for t in seen)


def tree_amplitude(k: KinematicData) -> Fraction:
    """Exact value of the planar tree amplitude at a kinematic point.

    Each triangulation contributes a/b with a and b the products of the
    denominators and numerators of its planar variables; the terms are
    summed as integers over l = lcm of the b and reduced once.
    """
    x = planar_variables(k)
    nums = {d: v.numerator for d, v in x.items()}
    dens = {d: v.denominator for d, v in x.items()}
    terms = []
    for t in enumerate_triangulations(k.n):
        a = b = 1
        for d in t.diagonals:
            if nums[d] == 0:
                raise PoleError(f"planar variable X{d} vanishes at this kinematic point")
            a *= dens[d]
            b *= nums[d]
        terms.append((a, b))
    l = math.lcm(*(b for _, b in terms))
    return Fraction(sum(a * (l // b) for a, b in terms), l)


def default_planar_names(n: int) -> dict[Diagonal, str]:
    fmt = "X{}{}" if n <= 9 else "X{}_{}"
    return {d: fmt.format(*d) for d in polygon_diagonals(n)}


# Renaming that writes the five-point amplitude in adjacent Mandelstam
# variables: each diagonal window of the pentagon is a two-particle channel.
N5_MANDELSTAM_NAMES: dict[Diagonal, str] = {
    (1, 3): "s12",
    (2, 4): "s23",
    (3, 5): "s34",
    (1, 4): "s45",
    (2, 5): "s15",
}


def tree_amplitude_symbolic(n: int, names: dict[Diagonal, str] | None = None) -> RationalFunction:
    """The amplitude as an exact rational function in the planar variables."""
    names = names or default_planar_names(n)
    symbols = {d: RationalFunction(Polynomial.variable(names[d])) for d in polygon_diagonals(n)}
    total = RationalFunction.const(0)
    for t in enumerate_triangulations(n):
        term = RationalFunction.const(1)
        for d in t.diagonals:
            term = term / symbols[d]
        total = total + term
    return total
