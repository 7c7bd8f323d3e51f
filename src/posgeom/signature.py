"""Truncated signature tensors of piecewise linear paths, exactly.

The signature of a single segment with increment v is the tensor
exponential: level k holds v tensored with itself k times over k!, built
as an integer tensor power over the one denominator L^k k! (L the lcm of
the denominators of v).  Every level is a DenseTensor in integer form:
integer entries over one denominator, reduced by their gcd, with Fractions
built only when `entries` or `entry` is read.
Segments compose by the truncated tensor-algebra product (Chen's rule), so
a path's signature is a product of segment exponentials.  The product
accumulates each level on integers over one common denominator.  The
classical checks (Chen, refinement invariance, reversal inverse) compare
integer forms and the shuffle relations cross-multiply integer numerators,
so they are exact equalities rather than tolerance tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import DenseTensor, _integer_row

MAX_ENTRIES = 10**7


@dataclass(frozen=True)
class PiecewiseLinearPath:
    """Breakpoints of a piecewise linear path; zero segments are allowed
    (and are signature-neutral)."""

    dim: int
    points: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("a path needs at least two breakpoints")
        if any(len(p) != self.dim for p in self.points):
            raise ValueError("breakpoint dimension mismatch")

    @classmethod
    def from_points(cls, points: Sequence[Sequence]) -> "PiecewiseLinearPath":
        pts = tuple(tuple(Fraction(x) for x in p) for p in points)
        return cls(len(pts[0]) if pts else 0, pts)

    def increments(self) -> list[tuple[Fraction, ...]]:
        return [
            tuple(b[i] - a[i] for i in range(self.dim))
            for a, b in zip(self.points, self.points[1:])
        ]

    def reversed(self) -> "PiecewiseLinearPath":
        return PiecewiseLinearPath(self.dim, tuple(reversed(self.points)))

    def concatenate(self, other: "PiecewiseLinearPath") -> "PiecewiseLinearPath":
        """Append other, translated to start at this path's endpoint."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        shift = tuple(a - b for a, b in zip(self.points[-1], other.points[0]))
        moved = tuple(tuple(x + s for x, s in zip(p, shift)) for p in other.points[1:])
        return PiecewiseLinearPath(self.dim, self.points + moved)

    def refined(self, segment: int) -> "PiecewiseLinearPath":
        """Insert the midpoint of one segment (signature-invariant)."""
        a, b = self.points[segment], self.points[segment + 1]
        mid = tuple((x + y) / 2 for x, y in zip(a, b))
        return PiecewiseLinearPath(
            self.dim, self.points[: segment + 1] + (mid,) + self.points[segment + 1 :]
        )


@dataclass(frozen=True)
class SignatureTensorStack:
    """Levels 0..K of the truncated signature; level 0 is the scalar 1 for
    genuine signatures, but arbitrary stacks arise as intermediate values of
    tensor-algebra arithmetic."""

    levels: tuple[DenseTensor, ...]

    def __post_init__(self):
        d = self.levels[0].dim if self.levels else 0
        for k, t in enumerate(self.levels):
            if t.level != k or t.dim != d:
                raise ValueError("stack levels must be 0..K over one dimension")

    @property
    def dim(self) -> int:
        return self.levels[0].dim

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def entry(self, word: Sequence[int]) -> Fraction:
        """Signature entry for a word of 1-based letters."""
        idx = tuple(i - 1 for i in word)
        return self.levels[len(idx)].get(idx)

    def product(self, other: "SignatureTensorStack") -> "SignatureTensorStack":
        """Truncated tensor-algebra product (Chen composition)."""
        if self.dim != other.dim or self.depth != other.depth:
            raise ValueError("stack shape mismatch")
        d, depth = self.dim, self.depth
        out = []
        for k in range(depth + 1):
            # level k is the sum over i of A_i (x) B_{k-i}, accumulated as
            # integers over the lcm of the products of the level denominators
            pairs = [(self.levels[i].integer_form, other.levels[k - i].integer_form) for i in range(k + 1)]
            l = math.lcm(*(da * db for (_, da), (_, db) in pairs))
            acc = [0] * d**k
            for (ia, da), (ib, db) in pairs:
                f = l // (da * db)
                width = len(ib)
                for pos, x in enumerate(ia):
                    if x:
                        x *= f
                        base = pos * width
                        for j, y in enumerate(ib):
                            acc[base + j] += x * y
            out.append(DenseTensor._reduced(d, k, acc, l))
        return SignatureTensorStack(tuple(out))

    def __eq__(self, other):
        if not isinstance(other, SignatureTensorStack):
            return NotImplemented
        return self.levels == other.levels

    __hash__ = None


def identity_stack(dim: int, depth: int) -> SignatureTensorStack:
    levels = [DenseTensor._reduced(dim, 0, [1], 1)]
    for k in range(1, depth + 1):
        levels.append(DenseTensor.zeros(dim, k))
    return SignatureTensorStack(tuple(levels))


def segment_signature(increment: Sequence[Fraction], depth: int) -> SignatureTensorStack:
    """Tensor exponential of one segment: level k is v^(tensor k)/k!.

    With v = u / L for integers u over the lcm L of the denominators, level
    k is the integer tensor power of u over the one denominator L^k k!."""
    d = len(increment)
    u, l = _integer_row(increment)
    power, den = [1], 1
    levels = [DenseTensor._reduced(d, 0, power, den)]
    for k in range(1, depth + 1):
        power = [a * b for a in power for b in u]
        den *= l * k
        levels.append(DenseTensor._reduced(d, k, power, den))
    return SignatureTensorStack(tuple(levels))


def signature(path: PiecewiseLinearPath, depth: int) -> SignatureTensorStack:
    """Truncated signature of the path by Chen composition of segments."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if path.dim**max(depth, 1) > MAX_ENTRIES:
        raise ValueError("truncation level too large for dense storage")
    stack = identity_stack(path.dim, depth)
    for inc in path.increments():
        if all(x == 0 for x in inc):
            continue
        stack = stack.product(segment_signature(inc, depth))
    return stack


def shuffles(word1: Sequence[int], word2: Sequence[int]):
    """All interleavings of two words, with multiplicity."""
    if not word1:
        yield tuple(word2)
        return
    if not word2:
        yield tuple(word1)
        return
    for rest in shuffles(word1[1:], word2):
        yield (word1[0],) + rest
    for rest in shuffles(word1, word2[1:]):
        yield (word2[0],) + rest


def shuffle_check(stack: SignatureTensorStack, word1: Sequence[int], word2: Sequence[int]) -> bool:
    """sigma(word1) * sigma(word2) == sum of sigma over shuffles, exactly."""
    if len(word1) + len(word2) > stack.depth:
        raise ValueError("combined word length exceeds the truncation level")
    if not all(1 <= x <= stack.dim for x in (*word1, *word2)):
        raise IndexError("index out of range")

    def entry(word):  # (numerator, denominator) from its level's integer form
        nums, den = stack.levels[len(word)].integer_form
        return nums[functools.reduce(lambda flat, x: flat * stack.dim + x - 1, word, 0)], den

    (n1, d1), (n2, d2) = entry(word1), entry(word2)
    shuffled = [entry(w) for w in shuffles(tuple(word1), tuple(word2))]
    # the shuffles lie on one level, so they share its denominator
    return n1 * n2 * shuffled[0][1] == sum(n for n, _ in shuffled) * d1 * d2


def cyclic_path(nodes: Sequence, dim: int) -> PiecewiseLinearPath:
    """Path through moment-curve points (t, t^2, ..., t^d) at increasing
    parameter values: the vertex path of a cyclic polytope."""
    ts = [Fraction(t) for t in nodes]
    if any(a >= b for a, b in zip(ts, ts[1:])):
        raise ValueError("nodes must be strictly increasing")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return PiecewiseLinearPath.from_points([[t**k for k in range(1, dim + 1)] for t in ts])
