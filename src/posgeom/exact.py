"""Exact arithmetic layer: sparse multivariate polynomials over the
rationals, rational functions, dense tensors, and fraction-free linear
algebra.

Rationals are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator) wherever they are read.  A polynomial stores a
name-sorted variable tuple, a sparse map exponent-tuple -> nonzero integer
numerator and one positive denominator; numerators and denominator have gcd
1, so equal polynomials have equal integer forms.  `terms`, the map
exponent-tuple -> Fraction, is built from them on first read and cached.
The graded lexicographic order fixes every deterministic choice (printing,
leading coefficients).  A rational function is a pair of polynomials
normalized to coprime integer content with positive leading denominator
coefficient, so both have denominator 1.  Equality of rational functions
compares numerators over equal denominators and cross-multiplies
otherwise, so full multivariate gcd reduction is never needed.

Arithmetic runs on the integer forms and builds no Fraction.  A sum scales
both numerator maps to the lcm of the denominators; a product convolves the
numerators over the product of the denominators; each divides out the gcd
of the result.  A dense tensor likewise keeps integer entries over one
denominator, builds its `entries` Fractions on first read and shows the
integers themselves through `integer_form`.
Linear algebra scales each row to integers over the lcm of its denominators
and runs one fraction-free (Bareiss) elimination, which serves the
determinant, the rank and the solver alike: every intermediate entry is a
minor of the scaled input, so no rational arithmetic happens until
back-substitution (Bareiss, Math. Comp. 22, 1968).

The Polynomial constructor checks and cleans outside input: it sorts the
variables, converts the coefficients and drops zero terms.  Sums,
products, negations and embeddings build clean integer forms themselves
and go through trusted constructors that skip those checks.
"""

from __future__ import annotations

import math
import operator
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
    """Sparse multivariate polynomial with rational coefficients, stored as
    integer numerators over one positive denominator."""

    __slots__ = ("vars", "_num", "_den", "_terms")

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
        # reduced coefficients over the lcm of their denominators share no
        # factor with it, so the integer form needs no further reduction
        ints, den = _integer_row(clean.values())
        self._fill(svars, dict(zip(clean, ints)), den, clean)

    def _fill(self, variables, num, den, terms) -> "Polynomial":
        setattr_ = object.__setattr__
        setattr_(self, "vars", variables)
        setattr_(self, "_num", num)
        setattr_(self, "_den", den)
        setattr_(self, "_terms", terms)
        return self

    @classmethod
    def _clean(cls, variables: tuple[str, ...], num: dict[Exponent, int], den: int = 1) -> "Polynomial":
        """Trusted construction from an integer form that is already clean:
        variables name-sorted and distinct, keys of matching length, nonzero
        int numerators and a positive den coprime to their gcd.  The
        arithmetic below builds its results so."""
        return object.__new__(cls)._fill(variables, num, den, None)

    @classmethod
    def _reduced(cls, variables: tuple[str, ...], num: dict[Exponent, int], den: int) -> "Polynomial":
        """Trusted construction that divides num and den by their gcd."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        return cls._clean(variables, num, den)

    def __setattr__(self, *a):  # immutable after construction
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """exponent -> nonzero Fraction coefficient, built on first read."""
        terms = self._terms
        if terms is None:
            den = self._den
            terms = {e: Fraction(c, den) for e, c in self._num.items()}
            object.__setattr__(self, "_terms", terms)
        return terms

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
        return not self._num

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self._num)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self._num.values()), 0), self._den)

    def total_degree(self) -> int:
        return max((sum(e) for e in self._num), default=0)

    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return Fraction(self._num[max(self._num, key=_grlex_key)], self._den)

    def _embed(self, new_vars: tuple[str, ...]) -> "Polynomial":
        if new_vars == self.vars:
            return self
        pos = {v: i for i, v in enumerate(new_vars)}
        num = {}
        for expo, coeff in self._num.items():
            key = [0] * len(new_vars)
            for v, e in zip(self.vars, expo):
                key[pos[v]] = e
            num[tuple(key)] = coeff
        return Polynomial._clean(new_vars, num, self._den)

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
        den = math.lcm(a._den, b._den)
        fa, fb = den // a._den, den // b._den
        num = dict(a._num) if fa == 1 else {e: c * fa for e, c in a._num.items()}
        for expo, coeff in b._num.items():
            coeff *= fb
            if expo in num:
                coeff += num[expo]
                if not coeff:
                    del num[expo]
                    continue
            num[expo] = coeff
        return Polynomial._reduced(a.vars, num, den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._clean(self.vars, {e: -c for e, c in self._num.items()}, self._den)

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
            if not other:
                return Polynomial._clean(self.vars, {})
            p, q = other.numerator, other.denominator
            return Polynomial._reduced(self.vars, {e: k * p for e, k in self._num.items()}, self._den * q)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = Polynomial.aligned(self, other)
        right = list(b._num.items())
        acc: dict[Exponent, int] = {}
        for ea, ca in a._num.items():
            for eb, cb in right:
                key = tuple(map(operator.add, ea, eb))
                acc[key] = acc.get(key, 0) + ca * cb
        return Polynomial._reduced(a.vars, {e: c for e, c in acc.items() if c}, a._den * b._den)

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
        return a._den == b._den and a._num == b._num

    __hash__ = None

    # ----------------------------------------------------------- evaluation
    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at a point; exact for Fraction/int inputs, numeric otherwise."""
        missing = [v for v in self.vars if v not in values]
        if missing:
            raise ValueError(f"missing values for {missing}")
        exact = all(isinstance(values[v], (int, Fraction)) for v in self.vars)
        total = 0 if exact else 0.0 + 0.0j if any(
            isinstance(values[v], complex) for v in self.vars
        ) else 0.0
        den = self._den
        for expo, coeff in self._num.items():
            # int / int is correctly rounded, as float() of the reduced Fraction is
            term = coeff if exact else coeff / den
            for v, e in zip(self.vars, expo):
                if e:
                    term = term * values[v] ** e
            total = total + term
        return Fraction(total, den) if exact else total

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
        num = {
            expo[:i] + (expo[i] - 1,) + expo[i + 1 :]: coeff * expo[i]
            for expo, coeff in self._num.items()
            if expo[i]
        }
        return Polynomial._reduced(self.vars, num, self._den)

    # -------------------------------------------------------- normalization
    def content(self) -> Fraction:
        """Positive rational content: gcd of numerators over lcm of denominators."""
        return Fraction(math.gcd(*self._num.values()), self._den)

    def primitive(self) -> "Polynomial":
        g = math.gcd(*self._num.values())
        if g in (0, 1) and self._den == 1:
            return self
        return Polynomial._clean(self.vars, {e: c // g for e, c in self._num.items()})

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
        low = [min(e[i] for e in num._num) for i in range(nv)]
        low = [min(low[i], min(e[i] for e in den._num)) for i in range(nv)]
        if not any(low):
            return num, den
        shift = lambda p: Polynomial._clean(
            p.vars, {tuple(map(operator.sub, expo, low)): c for expo, c in p._num.items()}, p._den
        )
        return shift(num), shift(den)

    @staticmethod
    def _normalize_content(num: Polynomial, den: Polynomial):
        """Scale both to integer coefficients with gcd 1 over the pair, and a
        positive leading denominator coefficient."""
        l = math.lcm(num._den, den._den)
        fn, fd = l // num._den, l // den._den
        g = math.gcd(math.gcd(*num._num.values()) * fn, math.gcd(*den._num.values()) * fd)
        if den._num[max(den._num, key=_grlex_key)] < 0:
            g = -g
        if l == 1 and g == 1:
            return num, den
        scaled = lambda p, f: Polynomial._clean(p.vars, {e: c * f // g for e, c in p._num.items()})
        return scaled(num, fn), scaled(den, fd)

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
        """True iff self - other is identically zero: over one denominator
        the numerators agree, and otherwise the cross products do."""
        rhs = self._coerce(other)
        if rhs is None:
            raise TypeError(f"cannot compare with {type(other)!r}")
        if self.den == rhs.den:
            return self.num == rhs.num
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


def _integer_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, whose rows it consumes."""
    pivots, sign = _echelon(rows, len(rows))
    if len(pivots) < len(rows):
        return 0
    return sign * rows[-1][-1] if rows else 1


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
    return Fraction(_integer_det(m), den_scale)


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

    Fraction-free Bareiss forward elimination on integer-scaled rows, then
    back-substitution on integers over one common denominator for the
    particular solution (free variables set to zero; Fractions built at the
    end) and for one kernel vector per free column.
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

    def back_substitute(x: list[int], rhs_col: bool) -> tuple[list[int], int]:
        """Complete x, which holds the free values, to the solution x / den."""
        den = 1
        for i, c in reversed(list(enumerate(pivots))):
            row = rows[i]
            num = (row[ncols] * den if rhs_col else 0) - sum(row[j] * x[j] for j in range(c + 1, ncols) if row[j])
            x = [v * row[c] for v in x]
            x[c], den = num, den * row[c]
        return x, den

    if any(rows[i][ncols] for i in range(len(pivots))):
        x, den = back_substitute([0] * ncols, True)
        particular = tuple(Fraction(v, den) for v in x)
    else:
        particular = (Fraction(0),) * ncols
    kernel = tuple(
        _primitive_integer(back_substitute([int(c == f) for c in range(ncols)], False)[0]) for f in free_cols
    )
    status = "unique" if not free_cols else "kernel"
    return LinearSolution(status, particular, kernel)


# --------------------------------------------------------------------------
# dense tensors
# --------------------------------------------------------------------------


class DenseTensor:
    """Level-k tensor of format d x ... x d, entries in row-major order,
    stored as integer numerators over one positive denominator."""

    __slots__ = ("dim", "level", "_num", "_den", "_entries")

    def __init__(self, dim: int, level: int, entries: Sequence):
        if dim < 1 or level < 0:
            raise ValueError("dimension must be >= 1 and level >= 0")
        entries = tuple(entries)
        if len(entries) != dim**level:
            raise ValueError(f"expected {dim ** level} entries, got {len(entries)}")
        # reduced rationals over the lcm of their denominators share no
        # factor with it
        num, den = _integer_row(entries)
        self._fill(dim, level, num, den)

    def _fill(self, dim: int, level: int, num: Sequence[int], den: int) -> "DenseTensor":
        setattr_ = object.__setattr__
        setattr_(self, "dim", dim)
        setattr_(self, "level", level)
        setattr_(self, "_num", tuple(num))
        setattr_(self, "_den", den)
        setattr_(self, "_entries", None)
        return self

    @classmethod
    def _reduced(cls, dim: int, level: int, num: Sequence[int], den: int) -> "DenseTensor":
        """Trusted construction from dim**level ints over a positive den,
        divided by their gcd."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
        return object.__new__(cls)._fill(dim, level, num, den)

    def __setattr__(self, *a):
        raise AttributeError("DenseTensor is immutable")

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries as Fractions, built on first read."""
        entries = self._entries
        if entries is None:
            den = self._den
            entries = tuple(Fraction(x, den) for x in self._num)
            object.__setattr__(self, "_entries", entries)
        return entries

    @classmethod
    def zeros(cls, dim: int, level: int) -> "DenseTensor":
        return cls._reduced(dim, level, [0] * dim**level, 1)

    def _flat(self, index: Sequence[int]) -> int:
        """Row-major position of a multi-index."""
        if len(index) != self.level:
            raise IndexError("index length must equal tensor level")
        flat = 0
        for i in index:
            if not 0 <= i < self.dim:
                raise IndexError("index out of range")
            flat = flat * self.dim + i
        return flat

    @property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """(numerators, denominator > 0), read-only; entry i is their quotient."""
        return self._num, self._den

    def get(self, index: Sequence[int]) -> Fraction:
        return Fraction(self._num[self._flat(index)], self._den)

    def add(self, other: "DenseTensor") -> "DenseTensor":
        if (self.dim, self.level) != (other.dim, other.level):
            raise ValueError("tensor shape mismatch")
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        return DenseTensor._reduced(self.dim, self.level, [a * fa + b * fb for a, b in zip(self._num, other._num)], den)

    def scale(self, factor) -> "DenseTensor":
        factor = Fraction(factor)
        p = factor.numerator
        return DenseTensor._reduced(self.dim, self.level, [a * p for a in self._num], self._den * factor.denominator)

    def outer(self, other: "DenseTensor") -> "DenseTensor":
        if self.dim != other.dim:
            raise ValueError("tensor dimension mismatch")
        num = [a * b for a in self._num for b in other._num]
        return DenseTensor._reduced(self.dim, self.level + other.level, num, self._den * other._den)

    def to_nested(self):
        entries = self.entries

        def build(level: int, offset: int, stride: int):
            if level == 0:
                return entries[offset]
            stride //= self.dim
            return [build(level - 1, offset + i * stride, stride) for i in range(self.dim)]

        return build(self.level, 0, self.dim**self.level)

    def __eq__(self, other):
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return (self.dim, self.level, self._den, self._num) == (other.dim, other.level, other._den, other._num)

    __hash__ = None

    def __repr__(self):
        return f"DenseTensor(dim={self.dim}, level={self.level})"
