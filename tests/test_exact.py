import itertools
import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from posgeom.exact import (
    DenseTensor,
    PoleError,
    Polynomial,
    RationalFunction,
    det,
    matrix_rank,
    rf_equal,
    solve_linear,
)


def rf(name):
    return RationalFunction.variable(name)


def test_rf_common_denominator():
    x, y = rf("x"), rf("y")
    lhs = 1 / x + 1 / y
    xs, ys = Polynomial.variable("x"), Polynomial.variable("y")
    assert rf_equal(lhs, RationalFunction(xs + ys, xs * ys))


def test_rf_identity_and_div():
    x, y = rf("x"), rf("y")
    f = (x + 2) / (y - 1)
    assert rf_equal(f * RationalFunction.const(1), f)
    assert rf_equal(f / f, RationalFunction.const(1))
    with pytest.raises(ZeroDivisionError):
        f / RationalFunction.const(0)


def test_rf_equal_cases():
    x, y = rf("x"), rf("y")
    assert rf_equal(x / x, RationalFunction.const(1))
    xs, ys = Polynomial.variable("x"), Polynomial.variable("y")
    assert rf_equal(1 / x + 1 / y, RationalFunction(xs + ys, xs * ys))
    assert not rf_equal(1 / x, 1 / y)


def test_rf_equal_is_congruence():
    # a == a', b == b'  =>  op(a,b) == op(a',b') even with unreduced representatives
    x = Polynomial.variable("x")
    a = RationalFunction(x * x, x)       # x, unreduced
    a2 = RationalFunction(x)
    b = RationalFunction(x + 1)
    b2 = RationalFunction((x + 1) * x, x)
    assert rf_equal(a, a2) and rf_equal(b, b2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert rf_equal(op(a, b), op(a2, b2))


def test_rational_field_properties():
    rng = random.Random(1)
    for _ in range(1000):
        a = F(rng.randint(-50, 50), rng.randint(1, 30))
        b = F(rng.randint(-50, 50), rng.randint(1, 30))
        c = F(rng.randint(-50, 50), rng.randint(1, 30))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a


def test_polynomial_printing_graded_lex():
    p = Polynomial(("x", "y"), {(2, 0): 3, (0, 1): F(-1, 2), (0, 0): 5})
    assert str(p) == "3*x^2 - 1/2*y + 5"
    assert str(Polynomial.zero(("x",))) == "0"


def test_polynomial_evaluate_and_subs():
    p = (Polynomial.variable("x") + Polynomial.variable("y")) ** 2
    assert p.evaluate({"x": F(1, 2), "y": F(1, 2)}) == 1
    q = p.subs({"y": F(1)})
    assert q.evaluate({"x": 2}) == 9


def test_pole_error():
    x = rf("x")
    with pytest.raises(PoleError):
        (1 / x).evaluate({"x": 0})


def test_solve_linear_unique():
    sol = solve_linear([[1, 0], [0, 1]], [1, 0])
    assert sol.status == "unique"
    assert sol.solution == (1, 0)


def test_solve_linear_kernel_primitive():
    sol = solve_linear([[1, 1]])
    assert sol.status == "kernel"
    assert sol.kernel == ((1, -1),)


def test_solve_linear_inconsistent():
    sol = solve_linear([[1, 1], [2, 2]], [1, 3])
    assert sol.status == "inconsistent"


def test_solve_linear_kernel_verifies():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[F(rng.randint(-9, 9)) for _ in range(5)] for _ in range(3)]
        sol = solve_linear(rows)
        for vec in sol.kernel:
            assert all(sum(r[j] * vec[j] for j in range(5)) == 0 for r in rows)
            first = next(v for v in vec if v != 0)
            assert first > 0


def test_det_and_rank():
    assert det([[F(1, 2), 2], [3, 4]]) == -4
    assert det([[1, 2], [2, 4]]) == 0
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    rng = random.Random(3)
    for _ in range(20):
        m = [[F(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)]
        d = det(m)
        # determinant is alternating: swapping two rows flips the sign
        swapped = [m[1], m[0], m[2], m[3]]
        assert det(swapped) == -d


def test_dense_tensor():
    t = DenseTensor(2, 2, [F(1, 2), 1, 0, F(1, 2)])
    assert t.get((0, 1)) == 1
    assert t.to_nested() == [[F(1, 2), 1], [0, F(1, 2)]]
    u = t.add(t.scale(-1))
    assert u == DenseTensor.zeros(2, 2)
    outer = DenseTensor(2, 1, [1, 2]).outer(DenseTensor(2, 1, [3, 4]))
    assert outer.to_nested() == [[3, 4], [6, 8]]
    with pytest.raises(ValueError):
        DenseTensor(2, 2, [1, 2, 3])


# --------------------------------------------------------------------------
# property tests: the invariants the fraction-free elimination and the
# content normalization must keep
# --------------------------------------------------------------------------

PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)
RATIONALS = st.sampled_from([F(a, b) for a in range(-6, 7) for b in (1, 2, 3)])


@st.composite
def matrices(draw, square=False):
    ncols = draw(st.integers(1, 4))
    nrows = ncols if square else draw(st.integers(1, 5))
    rows = [draw(st.lists(RATIONALS, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # make the last row a combination of two others: rank deficiency
        a, b = draw(RATIONALS), draw(RATIONALS)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])]
    return rows


@st.composite
def polynomials(draw):
    names = draw(st.sampled_from(["x", "y", "xy", "xz", "xyz"]))
    expos = st.sampled_from(list(itertools.product(range(3), repeat=len(names))))
    return Polynomial(names, dict(draw(st.lists(st.tuples(expos, RATIONALS), max_size=4))))


def leibniz(m):
    total = F(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(m[i][j] for i, j in enumerate(perm))
    return total


def apply(m, x):
    return [sum((a * b for a, b in zip(row, x)), F(0)) for row in m]


@PROPERTY
@given(matrices(square=True))
def test_det_is_leibniz_and_vanishes_exactly_below_full_rank(m):
    d = det(m)
    assert d == leibniz(m)
    assert (d != 0) == (matrix_rank(m) == len(m))


@PROPERTY
@given(matrices())
def test_kernel_is_a_primitive_basis(m):
    ncols = len(m[0])
    sol = solve_linear(m)
    assert matrix_rank(m) + len(sol.kernel) == ncols
    assert sol.status == ("kernel" if sol.kernel else "unique")
    for vec in sol.kernel:
        assert all(type(v) is int for v in vec)
        assert apply(m, vec) == [0] * len(m)
        assert math.gcd(*vec) == 1
        assert next(v for v in vec if v != 0) > 0


@PROPERTY
@given(matrices(), st.data())
def test_solution_satisfies_the_system(m, data):
    if data.draw(st.booleans()):
        rhs = apply(m, data.draw(st.lists(RATIONALS, min_size=len(m[0]), max_size=len(m[0]))))
    else:
        rhs = data.draw(st.lists(RATIONALS, min_size=len(m), max_size=len(m)))
    sol = solve_linear(m, rhs)
    augmented = [row + [b] for row, b in zip(m, rhs)]
    if sol.status == "inconsistent":
        assert matrix_rank(augmented) > matrix_rank(m)
    else:
        assert apply(m, sol.solution) == rhs
        assert (sol.status == "unique") == (matrix_rank(m) == len(m[0]))


@PROPERTY
@given(polynomials())
def test_content_times_primitive(p):
    c, q = p.content(), p.primitive()
    assert p == c * q
    assert c >= 0
    if not p.is_zero:
        assert all(v.denominator == 1 for v in q.terms.values())
        assert math.gcd(*(v.numerator for v in q.terms.values())) == 1


@PROPERTY
@given(polynomials(), polynomials())
def test_rational_function_normal_form(p, q):
    assume(not q.is_zero)
    f = RationalFunction(p, q)
    coeffs = [*f.num.terms.values(), *f.den.terms.values()]
    assert all(c.denominator == 1 for c in coeffs)
    assert math.gcd(*(c.numerator for c in coeffs)) == 1
    assert f.den.leading_coefficient() > 0
    assert f.num * q == p * f.den


@PROPERTY
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p and p - p == 0
    if not q.is_zero:
        f, g = RationalFunction(p, q), RationalFunction(r + 1, q)
        assert (f + g) - g == f
        if not g.is_zero:
            assert (f * g) / g == f


def naive_product(p, q):
    """Fraction convolution of two polynomials over the union of their
    variables: (variables, exponent -> coefficient without zeros)."""
    names = tuple(sorted(set(p.vars) | set(q.vars)))

    def monomials(poly):
        return [(dict(zip(poly.vars, expo)), c) for expo, c in poly.terms.items()]

    terms = {}
    for ma, ca in monomials(p):
        for mb, cb in monomials(q):
            key = tuple(ma.get(v, 0) + mb.get(v, 0) for v in names)
            terms[key] = terms.get(key, F(0)) + ca * cb
    return names, {e: c for e, c in terms.items() if c != 0}


@PROPERTY
@given(polynomials(), polynomials())
def test_product_is_the_fraction_convolution(p, q):
    # (p + q) * (p - q) cancels its cross terms to zero
    for a, b in ((p, q), (p + q, p - q), (p, -p)):
        product = a * b
        assert (product.vars, product.terms) == naive_product(a, b)
        assert all(type(c) is F and c != 0 for c in product.terms.values())


@PROPERTY
@given(polynomials(), polynomials(), RATIONALS)
def test_arithmetic_results_are_clean(p, q, c):
    # the trusted constructor must build what the checked one would: sums,
    # products and negations, including those that cancel to zero
    results = [p * q, p + q, -p, p - p, p + (-p), p * c, c * p, p * 0, p - q, (p + q) * (p - q)]
    for r in results:
        clean = Polynomial(r.vars, r.terms)
        assert (r.vars, r.terms) == (clean.vars, clean.terms)
        assert all(type(v) is F and v != 0 for v in r.terms.values())
        assert all(type(e) is tuple and len(e) == len(r.vars) for e in r.terms)
    assert (p - p).is_zero and (p * 0).is_zero


# --------------------------------------------------------------------------
# the integer form against a Fraction reference: a polynomial is a sorted
# variable tuple and a map exponent -> nonzero Fraction, computed here with
# Fraction arithmetic only
# --------------------------------------------------------------------------


def ref_embed(ref, names):
    variables, terms = ref
    out = {}
    for expo, c in terms.items():
        powers = dict(zip(variables, expo))
        out[tuple(powers.get(v, 0) for v in names)] = c
    return names, out


def ref_aligned(a, b):
    names = tuple(sorted(set(a[0]) | set(b[0])))
    return ref_embed(a, names), ref_embed(b, names)


def ref_add(a, b):
    (names, ta), (_, tb) = ref_aligned(a, b)
    out = dict(ta)
    for expo, c in tb.items():
        out[expo] = out.get(expo, F(0)) + c
    return names, {e: c for e, c in out.items() if c}


def ref_scale(a, c):
    return a[0], {e: k * c for e, k in a[1].items() if k * c}


def ref_mul(a, b):
    (names, ta), (_, tb) = ref_aligned(a, b)
    out = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, F(0)) + ca * cb
    return names, {e: c for e, c in out.items() if c}


def ref_str(a):
    names, terms = a
    if not terms:
        return "0"
    chunks = []
    for expo, c in sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, expo) if e)
        body = mono if mono and abs(c) == 1 else f"{abs(c)}*{mono}" if mono else str(abs(c))
        sign = ("-" if c < 0 else "") if not chunks else ("- " if c < 0 else "+ ")
        chunks.append(sign + body)
    return " ".join(chunks)


def ref_content(a):
    values = list(a[1].values())
    if not values:
        return F(0)
    return F(math.gcd(*(v.numerator for v in values)), math.lcm(*(v.denominator for v in values)))


def matches(p, ref):
    """p holds exactly the reference terms, as nonzero Fractions."""
    names, terms = ref_embed(ref, p.vars)
    return p.vars == names and p.terms == terms and all(type(c) is F and c for c in p.terms.values())


@st.composite
def operands(draw):
    """A polynomial with its reference, built by the checked constructor or
    by arithmetic on variables and constants (which never runs it on the
    result's terms)."""
    names = draw(st.sampled_from(["x", "y", "xy", "yx", "xz", "xyz"]))
    expos = st.tuples(*[st.integers(0, 2)] * len(names))
    terms = draw(st.dictionaries(expos, RATIONALS, max_size=4))
    order = sorted(range(len(names)), key=lambda i: names[i])
    ref = (tuple(names[i] for i in order), {tuple(e[i] for i in order): c for e, c in terms.items() if c})
    if draw(st.booleans()):
        return Polynomial(tuple(names), terms), ref
    total = Polynomial.zero(tuple(names))
    for expo, c in terms.items():
        mono = Polynomial.const(3, tuple(names))
        for v, e in zip(names, expo):
            mono = mono * Polynomial.variable(v) ** e
        # through denominators 3 and 2 and back
        total = total + (c * mono) * F(1, 3) + F(1, 2) * mono - mono * F(1, 2)
    return total, ref


@PROPERTY
@given(operands(), operands(), RATIONALS)
def test_arithmetic_matches_the_fraction_reference(left, right, c):
    (p, rp), (q, rq) = left, right
    assert matches(p, rp) and matches(q, rq)
    assert matches(p + q, ref_add(rp, rq))
    assert matches(p - q, ref_add(rp, ref_scale(rq, F(-1))))
    assert matches(-p, ref_scale(rp, F(-1)))
    assert matches(p * q, ref_mul(rp, rq))
    assert matches(p * c, ref_scale(rp, c)) and matches(c * p, ref_scale(rp, c))
    assert matches(p * 2, ref_scale(rp, F(2))) and matches(p + 1, ref_add(rp, ((), {(): F(1)})))
    assert str(p) == ref_str(rp) and str(p * q) == ref_str(ref_mul(rp, rq))
    assert (p == q) == (ref_add(rp, ref_scale(rq, F(-1)))[1] == {})
    assert p == Polynomial(p.vars, dict(p.terms)) and p + q - q == p
    assert p.content() == ref_content(rp)
    primitive = p.primitive()
    assert matches(primitive, ref_scale(rp, 1 / ref_content(rp)) if rp[1] else rp)


@PROPERTY
@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_dense_tensors_match_across_constructions(dim, level, data):
    vectors = [data.draw(st.lists(RATIONALS, min_size=dim, max_size=dim)) for _ in range(level)]
    factor = data.draw(RATIONALS)
    # the Fraction reference of factor * v1 (x) ... (x) vk, row-major
    entries = [
        factor * math.prod((v[i] for v, i in zip(vectors, index)), start=F(1))
        for index in itertools.product(range(dim), repeat=level)
    ]
    direct = DenseTensor(dim, level, entries)
    built = DenseTensor(dim, 0, [1])
    for v in vectors:
        built = built.outer(DenseTensor(dim, 1, v))
    built = built.scale(factor)
    assert direct == built and built.add(DenseTensor.zeros(dim, level)) == direct
    for t in (direct, built):
        assert list(t.entries) == entries and all(type(x) is F for x in t.entries)
        nums, den = t.integer_form
        assert den > 0 and [F(x, den) for x in nums] == entries and math.gcd(den, *nums) == 1
    index = tuple(data.draw(st.integers(0, dim - 1)) for _ in range(level))
    assert built.get(index) == direct.entries[sum(i * dim**k for k, i in enumerate(reversed(index)))]
    assert (direct == built.add(DenseTensor(dim, level, [1] + [0] * (dim**level - 1)))) is False
