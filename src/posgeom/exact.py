"""Exact arithmetic layer: sparse multivariate polynomials over the
rationals, rational functions, dense tensors, and fraction-free linear
algebra.

Rationals are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator).  A polynomial stores a name-sorted variable tuple
and a sparse map exponent-tuple -> Fraction with no zero entries; the
graded lexicographic order fixes every deterministic choice (printing,
leading coefficients).  A rational function is a pair of polynomials
normalized to coprime integer content with positive leading denominator
coefficient.  Equality of rational functions is decided by exact
cross-multiplication, so full multivariate gcd reduction is never needed.

Inner loops run on integers and results are Fractions.  One lcm scaling
turns a row of rationals into integers over a common denominator.  The
polynomial product convolves the scaled coefficients of its operands and
divides by the product of their scales once per output term.  Exact
division runs the long division on the scaled dividend and the primitive
part of the scaled divisor, whose quotient is integral by Gauss's lemma.
Linear algebra scales each row and runs one fraction-free (Bareiss)
elimination, which serves the determinant, the rank and the solver alike:
every intermediate entry is a minor of the scaled input, so no rational
arithmetic happens until back-substitution (Bareiss, Math. Comp. 22,
1968).

The Polynomial constructor checks and cleans outside input: it sorts the
variables, converts the coefficients and drops zero terms.  Sums,
products, negations, embeddings and quotients build clean terms
themselves and go through a trusted constructor that skips those checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]


class PoleError(ArithmeticError):
    """Evaluation of a rational function at a zero of its denominator."""


def _grlex_key(expo: Exponent):
    return (sum(expo), expo)


def _sorted_terms(terms: dict) -> list:
    # descending graded-lex, so leading term comes first
    return sorted(terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)


class Polynomial:
    """Sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, object]):
        variables = tuple(variables)
        order = sorted(range(len(variables)), key=lambda i: variables[i])
        svars = tuple(variables[i] for i in order)
        if len(set(svars)) != len(svars):
            raise ValueError(f"duplicate variable names in {variables}")
        clean: dict[Exponent, Fraction] = {}
        for expo, coeff in terms.items():
            if len(expo) != len(svars):
                raise ValueError("exponent length does not match variable count")
            if not isinstance(coeff, Fraction):
                coeff = Fraction(coeff)
            if coeff == 0:
                continue
            key = tuple(int(expo[i]) for i in order)
            if any(e < 0 for e in key):
                raise ValueError("negative exponent")
            if key in clean:
                coeff += clean[key]
                if coeff == 0:
                    del clean[key]
                    continue
            clean[key] = coeff
        object.__setattr__(self, "vars", svars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _clean(cls, variables: tuple[str, ...], terms: dict[Exponent, Fraction]) -> "Polynomial":
        """Trusted construction from terms that are already clean: variables
        name-sorted and distinct, keys of matching length, Fraction values
        and no zero terms.  The arithmetic below builds its results so."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "vars", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, *a):  # immutable after construction
        raise AttributeError("Polynomial is immutable")

    # ---------------------------------------------------------- constructors
    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def const(cls, value, variables: Sequence[str] = ()) -> "Polynomial":
        n = len(tuple(variables))
        return cls(variables, {(0,) * n: Fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls((name,), {(1,): Fraction(1)})

    # ------------------------------------------------------------ structure
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()), Fraction(0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        expo = max(self.terms, key=_grlex_key)
        return self.terms[expo]

    def _embed(self, new_vars: tuple[str, ...]) -> "Polynomial":
        if new_vars == self.vars:
            return self
        pos = {v: i for i, v in enumerate(new_vars)}
        terms = {}
        for expo, coeff in self.terms.items():
            key = [0] * len(new_vars)
            for v, e in zip(self.vars, expo):
                key[pos[v]] = e
            terms[tuple(key)] = coeff
        return Polynomial._clean(new_vars, terms)

    @staticmethod
    def aligned(p: "Polynomial", q: "Polynomial"):
        """Embed both operands in the name-sorted union of their variables."""
        if p.vars == q.vars:
            return p, q
        union = tuple(sorted(set(p.vars) | set(q.vars)))
        return p._embed(union), q._embed(union)

    # ----------------------------------------------------------- arithmetic
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other, self.vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = Polynomial.aligned(self, other)
        terms = dict(a.terms)
        for expo, coeff in b.terms.items():
            if expo in terms:
                coeff += terms[expo]
                if not coeff:
                    del terms[expo]
                    continue
            terms[expo] = coeff
        return Polynomial._clean(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._clean(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other, self.vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Polynomial._clean(self.vars, {})
            return Polynomial._clean(self.vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = Polynomial.aligned(self, other)
        ia, la = _integer_row(a.terms.values())
        ib, lb = _integer_row(b.terms.values())
        right = list(zip(b.terms, ib))
        acc: dict[Exponent, int] = {}
        for ea, ca in zip(a.terms, ia):
            for eb, cb in right:
                key = tuple(x + y for x, y in zip(ea, eb))
                acc[key] = acc.get(key, 0) + ca * cb
        l = la * lb
        return Polynomial._clean(a.vars, {e: Fraction(c, l) for e, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.const(1, self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other, self.vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = Polynomial.aligned(self, other)
        return a.terms == b.terms

    __hash__ = None

    # ----------------------------------------------------------- evaluation
    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at a point; exact for Fraction/int inputs, numeric otherwise."""
        missing = [v for v in self.vars if v not in values]
        if missing:
            raise ValueError(f"missing values for {missing}")
        exact = all(isinstance(values[v], (int, Fraction)) for v in self.vars)
        total = Fraction(0) if exact else 0.0 + 0.0j if any(
            isinstance(values[v], complex) for v in self.vars
        ) else 0.0
        for expo, coeff in self.terms.items():
            term = coeff if exact else float(coeff)
            for v, e in zip(self.vars, expo):
                if e:
                    term = term * values[v] ** e
            total = total + term
        return total

    def subs(self, assignments: Mapping[str, object]) -> "Polynomial":
        """Substitute exact values for a subset of variables."""
        keep = tuple(v for v in self.vars if v not in assignments)
        terms: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            c = coeff
            key = []
            for v, e in zip(self.vars, expo):
                if v in assignments:
                    c = c * Fraction(assignments[v]) ** e
                else:
                    key.append(e)
            key = tuple(key)
            terms[key] = terms.get(key, Fraction(0)) + c
        return Polynomial(keep, terms)

    def derivative(self, var: str) -> "Polynomial":
        if var not in self.vars:
            return Polynomial.zero(self.vars)
        i = self.vars.index(var)
        terms = {}
        for expo, coeff in self.terms.items():
            if expo[i] == 0:
                continue
            key = expo[:i] + (expo[i] - 1,) + expo[i + 1 :]
            terms[key] = terms.get(key, Fraction(0)) + coeff * expo[i]
        return Polynomial(self.vars, terms)

    # -------------------------------------------------------- normalization
    def content(self) -> Fraction:
        """Positive rational content: gcd of numerators over lcm of denominators."""
        ints, l = _integer_row(self.terms.values())
        return Fraction(math.gcd(*ints), l)

    def primitive(self) -> "Polynomial":
        c = self.content()
        if c in (0, 1):
            return self
        return self * (1 / c)

    def divexact(self, divisor: "Polynomial"):
        """Exact quotient self/divisor, or None when divisor does not divide."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        a, b = Polynomial.aligned(self, divisor)
        # self = ia / la and divisor = g * ib / lb with ib primitive; by
        # Gauss's lemma ib divides ia in Z[x] if it does in Q[x], so the long
        # division runs on integers and a fractional step means no quotient
        ia, la = _integer_row(a.terms.values())
        ib, lb = _integer_row(b.terms.values())
        g = math.gcd(*ib)
        right = [(eb, kb // g) for eb, kb in zip(b.terms, ib)]
        lead_b, cb = max(right, key=lambda t: _grlex_key(t[0]))
        rem = dict(zip(a.terms, ia))
        quo: dict[Exponent, int] = {}
        while rem:
            lead_r = max(rem, key=_grlex_key)
            diff = tuple(x - y for x, y in zip(lead_r, lead_b))
            if any(e < 0 for e in diff):
                return None
            c, r = divmod(rem[lead_r], cb)
            if r:
                return None
            quo[diff] = c
            for eb, kb in right:
                key = tuple(x + y for x, y in zip(diff, eb))
                val = rem.get(key, 0) - c * kb
                if val:
                    rem[key] = val
                else:
                    rem.pop(key, None)
        scale = la * g
        return Polynomial._clean(a.vars, {e: Fraction(c * lb, scale) for e, c in quo.items()})

    # -------------------------------------------------------------- display
    def _monomial_str(self, expo: Exponent) -> str:
        parts = []
        for v, e in zip(self.vars, expo):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        for expo, coeff in _sorted_terms(self.terms):
            mono = self._monomial_str(expo)
            mag = abs(coeff)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


class RationalFunction:
    """Quotient of two polynomials, content-normalized (no full gcd needed)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = self._to_poly(num)
        den = Polynomial.const(1, num.vars) if den is None else self._to_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        num, den = Polynomial.aligned(num, den)
        if num.is_zero:
            den = Polynomial.const(1, num.vars)
        else:
            num, den = self._cancel_monomial(num, den)
        num, den = self._normalize_content(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def _to_poly(value) -> Polynomial:
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, RationalFunction):
            raise TypeError("use rational-function arithmetic instead")
        return Polynomial.const(Fraction(value))

    @staticmethod
    def _cancel_monomial(num: Polynomial, den: Polynomial):
        nv = len(num.vars)
        low = [min(e[i] for e in num.terms) for i in range(nv)]
        low = [min(low[i], min(e[i] for e in den.terms)) for i in range(nv)]
        if not any(low):
            return num, den
        shift = lambda p: Polynomial(
            p.vars, {tuple(e - l for e, l in zip(expo, low)): c for expo, c in p.terms.items()}
        )
        return shift(num), shift(den)

    @staticmethod
    def _normalize_content(num: Polynomial, den: Polynomial):
        ints, l = _integer_row([*num.terms.values(), *den.terms.values()])
        factor = Fraction(l, math.gcd(*ints))
        if den.leading_coefficient() < 0:
            factor = -factor
        return num * factor, den * factor

    # ---------------------------------------------------------- constructors
    @classmethod
    def const(cls, value) -> "RationalFunction":
        return cls(Polynomial.const(Fraction(value)))

    @classmethod
    def variable(cls, name: str) -> "RationalFunction":
        return cls(Polynomial.variable(name))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # ----------------------------------------------------------- arithmetic
    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, Polynomial)):
            return RationalFunction(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return RationalFunction(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return RationalFunction(self.num * rhs.num, self.den * rhs.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if rhs.is_zero:
            raise ZeroDivisionError("division by an identically-zero rational function")
        return RationalFunction(self.num * rhs.den, self.den * rhs.num)

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs / self

    def __pow__(self, k: int):
        if k < 0:
            return RationalFunction(self.den, self.num) ** (-k)
        return RationalFunction(self.num**k, self.den**k)

    def equivalent(self, other) -> bool:
        """True iff self - other is identically zero (cross-multiplication)."""
        rhs = self._coerce(other)
        if rhs is None:
            raise TypeError(f"cannot compare with {type(other)!r}")
        return (self.num * rhs.den - rhs.num * self.den).is_zero

    def __eq__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.equivalent(rhs)

    __hash__ = None

    # ----------------------------------------------------------- evaluation
    def evaluate(self, values: Mapping[str, object]):
        den = self.den.evaluate(values)
        if den == 0:
            raise PoleError(f"denominator {self.den} vanishes at {dict(values)}")
        return self.num.evaluate(values) / den

    def __str__(self) -> str:
        if self.den == Polynomial.const(1, self.den.vars):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def rf_equal(a: RationalFunction, b: RationalFunction) -> bool:
    return a.equivalent(b)


# --------------------------------------------------------------------------
# exact linear algebra
# --------------------------------------------------------------------------


def _integer_row(values: Iterable) -> tuple[list[int], int]:
    """The rationals times l, the lcm of their denominators, as integers."""
    vals = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    l = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (l // v.denominator) for v in vals], l


def _echelon(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon form of integer rows, in place.

    Each step pivots on the first nonzero entry at or below the current row
    among the first ncols columns, skips a column without one, and updates
    every entry of the rows below, columns past ncols (a right-hand side)
    included.  The division by the previous pivot is exact.  Returns the
    pivot columns (pivot k sits in row k) and the sign of the row swaps.
    """
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        pivot = top[c]
        for row in rows[r + 1 :]:
            f = row[c]
            for j in range(c + 1, len(row)):
                row[j] = (pivot * row[j] - f * top[j]) // prev
            row[c] = 0
        prev = pivot
        pivots.append(c)
    return pivots, sign


def det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    m: list[list[int]] = []
    den_scale = 1
    for row in rows:
        ints, l = _integer_row(row)
        m.append(ints)
        den_scale *= l
    pivots, sign = _echelon(m, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * m[n - 1][n - 1], den_scale) if n else Fraction(1)


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Exact rank over the rationals."""
    m = [_integer_row(row)[0] for row in rows]
    return len(_echelon(m, len(m[0]) if m else 0)[0])


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of exact linear solving.

    status is one of "unique", "kernel" (consistent with free variables) and
    "inconsistent".  The kernel basis consists of primitive integer vectors
    (coprime coordinates, first nonzero positive).
    """

    status: str
    solution: tuple | None
    kernel: tuple


def _primitive_integer(vec: Sequence[Fraction]) -> tuple[int, ...]:
    ints, _ = _integer_row(vec)
    g = math.gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def solve_linear(matrix: Sequence[Sequence], rhs: Sequence | None = None) -> LinearSolution:
    """Solve matrix*x = rhs exactly (rhs omitted or zero: homogeneous system).

    Fraction-free Bareiss forward elimination on integer-scaled rows, exact
    rational back-substitution for the particular solution (free variables
    set to zero) and for one kernel vector per free column.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if rhs is None:
        rhs = [0] * nrows
    if len(rhs) != nrows:
        raise ValueError("right-hand side length mismatch")
    rows = [_integer_row([*r, b])[0] for r, b in zip(matrix, rhs)]
    pivots, _ = _echelon(rows, ncols)
    if any(row[ncols] != 0 for row in rows[len(pivots) :]):
        return LinearSolution("inconsistent", None, ())

    free_cols = [c for c in range(ncols) if c not in pivots]

    def back_substitute(free_values: dict[int, Fraction], rhs_col: bool) -> list[Fraction]:
        x = [Fraction(0)] * ncols
        for c, v in free_values.items():
            x[c] = v
        for i, c in reversed(list(enumerate(pivots))):
            acc = Fraction(rows[i][ncols]) if rhs_col else Fraction(0)
            for j in range(c + 1, ncols):
                if rows[i][j] != 0:
                    acc -= rows[i][j] * x[j]
            x[c] = acc / rows[i][c]
        return x

    particular = tuple(back_substitute({c: Fraction(0) for c in free_cols}, True))
    kernel = tuple(
        _primitive_integer(back_substitute({c: Fraction(1 if c == f else 0) for c in free_cols}, False))
        for f in free_cols
    )
    status = "unique" if not free_cols else "kernel"
    return LinearSolution(status, particular, kernel)


# --------------------------------------------------------------------------
# dense tensors
# --------------------------------------------------------------------------


class DenseTensor:
    """Level-k tensor of format d x ... x d, entries in row-major order."""

    __slots__ = ("dim", "level", "entries")

    def __init__(self, dim: int, level: int, entries: Sequence):
        if dim < 1 or level < 0:
            raise ValueError("dimension must be >= 1 and level >= 0")
        entries = tuple(entries)
        if len(entries) != dim**level:
            raise ValueError(f"expected {dim ** level} entries, got {len(entries)}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("DenseTensor is immutable")

    @classmethod
    def zeros(cls, dim: int, level: int) -> "DenseTensor":
        return cls(dim, level, [Fraction(0)] * dim**level)

    def get(self, index: Sequence[int]):
        if len(index) != self.level:
            raise IndexError("index length must equal tensor level")
        flat = 0
        for i in index:
            if not 0 <= i < self.dim:
                raise IndexError("index out of range")
            flat = flat * self.dim + i
        return self.entries[flat]

    def add(self, other: "DenseTensor") -> "DenseTensor":
        if (self.dim, self.level) != (other.dim, other.level):
            raise ValueError("tensor shape mismatch")
        return DenseTensor(self.dim, self.level, [a + b for a, b in zip(self.entries, other.entries)])

    def scale(self, factor) -> "DenseTensor":
        return DenseTensor(self.dim, self.level, [a * factor for a in self.entries])

    def outer(self, other: "DenseTensor") -> "DenseTensor":
        if self.dim != other.dim:
            raise ValueError("tensor dimension mismatch")
        entries = [a * b for a in self.entries for b in other.entries]
        return DenseTensor(self.dim, self.level + other.level, entries)

    def to_nested(self):
        def build(level: int, offset: int, stride: int):
            if level == 0:
                return self.entries[offset]
            stride //= self.dim
            return [build(level - 1, offset + i * stride, stride) for i in range(self.dim)]

        return build(self.level, 0, self.dim**self.level)

    def __eq__(self, other):
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return (self.dim, self.level, self.entries) == (other.dim, other.level, other.entries)

    __hash__ = None

    def __repr__(self):
        return f"DenseTensor(dim={self.dim}, level={self.level})"
