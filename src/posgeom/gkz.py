"""Euler integrals over products of linear forms: annihilating operators,
numeric evaluation, and the field-theory limit of the string integral.

An integrand is a product of powers of linear forms in positive variables
alpha, one free coefficient symbol per monomial, times a monomial prefactor
and the logarithmic measure.  Two families of operators annihilate the
integral as a function of the coefficients: one homogeneity (Euler)
operator per linear form and per alpha variable, and one binomial (toric)
operator per lattice basis vector of the kernel of the exponent matrix
whose columns record, for each coefficient, its form membership and the
alpha-exponents of its monomial.

Numeric evaluation works on the positive orthant in the convergent-exponent
region: each variable is substituted by v^(1/nu) (nu its 0-endpoint
exponent), which also makes the small-epsilon string integrals uniformly
tame, then v = t/(1-t) compresses to the unit cube and nested adaptive
quadrature does the rest.  Annihilation is checked by central finite
differences with one Richardson step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .exact import Polynomial, solve_linear
from .kinematics import KinematicData, planar_variables
from .quadrature import QuadConfig, QuadratureError, _lane_quad, adaptive_quad
from .trees import tree_amplitude

Expo = Fraction | Polynomial  # exponents may carry symbolic parameters


def _expo_to_float(e: Expo, params: Mapping[str, float]) -> float:
    if isinstance(e, Polynomial):
        missing = sorted(set(e.vars) - set(params))
        if missing:
            raise ValueError(f"exponent parameter {missing[0]!r} has no value")
        return float(e.evaluate({v: Fraction(params[v]).limit_denominator(10**12) for v in e.vars}))
    return float(e)


@dataclass(frozen=True)
class LinearForm:
    """Sum of coefficient symbols times alpha-monomials, raised to a power."""

    monomials: tuple[tuple[int, ...], ...]  # alpha exponent vectors
    coefficients: tuple[int, ...]  # 1-based coefficient indices, one per monomial
    exponent: Expo

    def __post_init__(self):
        if len(self.monomials) != len(self.coefficients):
            raise ValueError("one coefficient per monomial")


@dataclass(frozen=True)
class EulerIntegrand:
    """prod_k form_k(alpha)^(s_k) * prod_a alpha_a^(nu_a) * dalpha/alpha."""

    nvars: int
    forms: tuple[LinearForm, ...]
    prefactor: tuple[Expo, ...]  # nu, one exponent per alpha variable

    def __post_init__(self):
        seen: set[int] = set()
        for form in self.forms:
            for idx in form.coefficients:
                if idx in seen:
                    raise ValueError(f"coefficient c{idx} appears in two forms")
                seen.add(idx)
            for mono in form.monomials:
                if len(mono) != self.nvars:
                    raise ValueError("monomial length does not match variable count")
        if len(self.prefactor) != self.nvars:
            raise ValueError("one prefactor exponent per variable")
        if seen != set(range(1, len(seen) + 1)):
            raise ValueError("coefficients must be numbered 1..N")

    @property
    def ncoeffs(self) -> int:
        return sum(len(f.coefficients) for f in self.forms)


@dataclass(frozen=True)
class DifferentialOperator:
    """Sum of (polynomial in the coefficients and parameters) x (monomial in
    the partials d/dc_i), kept in normal order with partials on the right."""

    ncoeffs: int
    terms: tuple[tuple[Polynomial, tuple[int, ...]], ...]

    def __post_init__(self):
        for _, dmono in self.terms:
            if len(dmono) != self.ncoeffs:
                raise ValueError("partial-order vector length mismatch")

    def canonical(self) -> "DifferentialOperator":
        merged: dict[tuple[int, ...], Polynomial] = {}
        for poly, dmono in self.terms:
            if dmono in merged:
                merged[dmono] = merged[dmono] + poly
            else:
                merged[dmono] = poly
        ordered = sorted(
            ((p, d) for d, p in merged.items() if not p.is_zero),
            key=lambda t: (sum(t[1]), t[1]),
            reverse=True,
        )
        return DifferentialOperator(self.ncoeffs, tuple(ordered))

    def __str__(self) -> str:
        chunks = []
        for poly, dmono in self.canonical().terms:
            dpart = "*".join(
                f"d{i + 1}" if e == 1 else f"d{i + 1}^{e}" for i, e in enumerate(dmono) if e
            )
            body = str(poly)
            if dpart and body == "1":
                chunks.append(dpart)
            elif dpart and body == "-1":
                chunks.append(f"-{dpart}")
            elif dpart:
                wrapped = f"({body})" if ("+" in body or "-" in body[1:]) else body
                chunks.append(f"{wrapped}*{dpart}")
            else:
                chunks.append(f"({body})" if ("+" in body or "-" in body[1:]) else body)
        return " + ".join(chunks).replace("+ -", "- ") if chunks else "0"

    def __eq__(self, other):
        if not isinstance(other, DifferentialOperator):
            return NotImplemented
        return self.canonical().terms == other.canonical().terms

    __hash__ = None


def _cpoly(idx: int) -> Polynomial:
    return Polynomial.variable(f"c{idx}")


def gkz_operators(f: EulerIntegrand) -> dict[str, list[DifferentialOperator]]:
    """Euler (homogeneity) and toric (binomial) annihilators of the integral.

    Euler: one operator per linear form, sum of c_i d_i over the form plus
    minus-its-exponent; one per alpha variable, sum of (alpha-degree) c_i d_i
    plus the prefactor exponent.  Toric: d^(u+) - d^(u-) over a lattice basis
    of the kernel of the matrix whose c_i column stacks the form-membership
    indicator on the alpha-exponent vector.
    """
    ncoeffs = f.ncoeffs
    euler: list[DifferentialOperator] = []
    for form in f.forms:
        terms = [(_cpoly(i), tuple(1 if j == i - 1 else 0 for j in range(ncoeffs))) for i in form.coefficients]
        const = -form.exponent if isinstance(form.exponent, Polynomial) else Polynomial.const(-form.exponent)
        terms.append((const, (0,) * ncoeffs))
        euler.append(DifferentialOperator(ncoeffs, tuple(terms)).canonical())
    for a in range(f.nvars):
        terms = []
        for form in f.forms:
            for mono, idx in zip(form.monomials, form.coefficients):
                if mono[a]:
                    terms.append(
                        (mono[a] * _cpoly(idx), tuple(1 if j == idx - 1 else 0 for j in range(ncoeffs)))
                    )
        nu = f.prefactor[a]
        const = nu if isinstance(nu, Polynomial) else Polynomial.const(nu)
        terms.append((const, (0,) * ncoeffs))
        euler.append(DifferentialOperator(ncoeffs, tuple(terms)).canonical())

    columns = []
    for form_idx, form in enumerate(f.forms):
        for mono in form.monomials:
            col = [0] * len(f.forms) + list(mono)
            col[form_idx] = 1
            columns.append(col)
    amatrix = [[columns[j][r] for j in range(ncoeffs)] for r in range(len(f.forms) + f.nvars)]
    toric = []
    for vec in solve_linear(amatrix).kernel:
        plus = tuple(max(v, 0) for v in vec)
        minus = tuple(max(-v, 0) for v in vec)
        toric.append(
            DifferentialOperator(
                ncoeffs,
                ((Polynomial.const(1), plus), (Polynomial.const(-1), minus)),
            ).canonical()
        )
    return {"euler": euler, "toric": toric, "a_matrix": amatrix}


def blueprint_integrand() -> EulerIntegrand:
    """The two-variable, three-form integrand with seven free coefficients
    and prefactor exponents eps + 1 in both variables."""
    eps = Polynomial.variable("eps")
    one = Polynomial.const(1)
    return EulerIntegrand(
        nvars=2,
        forms=(
            LinearForm(((1, 0), (0, 1), (0, 0)), (1, 2, 3), Fraction(-1)),
            LinearForm(((1, 0), (0, 0)), (4, 5), Fraction(-1)),
            LinearForm(((0, 1), (0, 0)), (6, 7), Fraction(-1)),
        ),
        prefactor=(eps + one, eps + one),
    )


def restricted_integrand(s: Sequence, nu: Sequence) -> EulerIntegrand:
    """Three fixed unit-coefficient forms with only constants varying:
    (a1 + a2 + c1)^s1 (a1 + c2)^s2 (a2 + c3)^s3 a1^nu1 a2^nu2 da/a."""
    s1, s2, s3 = (Fraction(v) for v in s)
    nu1, nu2 = (Fraction(v) for v in nu)
    return EulerIntegrand(
        nvars=2,
        forms=(
            LinearForm(((1, 0), (0, 1), (0, 0)), (1, 2, 3), s1),
            LinearForm(((1, 0), (0, 0)), (4, 5), s2),
            LinearForm(((0, 1), (0, 0)), (6, 7), s3),
        ),
        prefactor=(nu1, nu2),
    )


# --------------------------------------------------------------------------
# numeric evaluation
# --------------------------------------------------------------------------


class DivergentIntegralError(ArithmeticError):
    """Exponent data outside the convergence region."""


def _convergence_check(f: EulerIntegrand, exponents: list[float], nu: list[float]):
    """Scaling analysis along every subset direction.

    Sending the variables in a subset S jointly to infinity scales the
    integrand by lambda to the power sum(nu, S) + sum_k s_k * (max degree of
    form k in S); to zero, with max replaced by min.  Convergence needs the
    first strictly negative and the second strictly positive for every
    nonempty S.  Since all monomials here have 0/1 exponents, subset
    directions exhaust the extreme rays of the scaling fan.
    """
    from itertools import combinations

    nonpos = [a for a in range(f.nvars) if nu[a] <= 0]
    if nonpos:
        raise DivergentIntegralError(f"0-endpoint exponent of variable {nonpos[0] + 1} is not positive")
    for size in range(1, f.nvars + 1):
        for subset in combinations(range(f.nvars), size):
            at_infinity = sum(nu[a] for a in subset)
            at_zero = at_infinity
            for s_k, form in zip(exponents, f.forms):
                degs = [sum(m[a] for a in subset) for m in form.monomials]
                at_infinity += s_k * max(degs)
                at_zero += s_k * min(degs)
            if at_infinity >= 0:
                raise DivergentIntegralError(
                    f"divergent at infinity along variables {tuple(a + 1 for a in subset)}"
                    f" (scaling degree {at_infinity})"
                )
            if at_zero <= 0:
                raise DivergentIntegralError(
                    f"divergent at zero along variables {tuple(a + 1 for a in subset)}"
                    f" (scaling degree {at_zero})"
                )


def _integrand_plan(f: EulerIntegrand, c: Sequence[float], exponents: Sequence[float]) -> list:
    """Per form, its numeric exponent and its monomials as (offset,
    [(variable, exponent) for the nonzero exponents])."""
    return [
        (s_k, [(c[i - 1], [(a, float(e)) for a, e in enumerate(mono) if e])
               for mono, i in zip(form.monomials, form.coefficients)])
        for form, s_k in zip(f.forms, exponents)
    ]


def _integrand_values(plan: list, alphas: list[np.ndarray]):
    """prod_k form_k(alphas)^(s_k) by plain multiplies; powers only for
    exponents above 1."""
    total = 1.0
    for s_k, terms in plan:
        form_val = 0.0
        for off, factors in terms:
            term = off
            for a, e in factors:
                term = term * (alphas[a] if e == 1.0 else alphas[a] ** e)
            form_val = form_val + term
        if not isinstance(form_val, np.ndarray):  # a constant form
            form_val = np.full_like(alphas[0], form_val)
        total = total * form_val**s_k
    return total


def evaluate_euler(
    f: EulerIntegrand,
    c: Sequence[float],
    params: Mapping[str, float] | None = None,
    quad: QuadConfig = QuadConfig(),
) -> float:
    """Integral over the positive orthant at numeric coefficients c > 0.

    Substitutes alpha_a = v_a^(1/nu_a) then v = t/(1-t) per variable and
    integrates the transformed integrand by nested adaptive quadrature.  The
    outermost variable goes through adaptive_quad, with plain bisection
    after its first split; each integrand call of a level integrates the
    next variable in one lane-batched quadrature, one lane per abscissa,
    with graded splits toward t = 0 and t = 1 and the outer Jacobians folded
    into the lane values so that the lanes' shared absolute tolerance is in
    units of the outer integrand.  The product of forms is planned once per
    call: each form's offsets and nonzero monomial exponents, so that an
    integrand call is plain multiplies, with powers only for exponents
    above 1.  Raises QuadratureError when a lane misses the tolerance and
    when the result is not a finite positive number, which the integral of
    a positive integrand is unless it under- or overflows double precision.
    """
    params = dict(params or {})
    c = [float(v) for v in c]
    if len(c) != f.ncoeffs:
        raise ValueError(f"expected {f.ncoeffs} coefficients")
    if any(v <= 0 for v in c):
        raise DivergentIntegralError("coefficients must be positive on the real cycle")
    exponents = [_expo_to_float(form.exponent, params) for form in f.forms]
    nu = [_expo_to_float(e, params) for e in f.prefactor]
    _convergence_check(f, exponents, nu)

    plan = _integrand_plan(f, c, exponents)
    inv_nu = [1.0 / v for v in nu]
    jacobian = 1.0
    for v in nu:
        jacobian /= v
    # decay rate of the v-integrand at infinity per variable; the map
    # v = (t/(1-t))^p with p >= 3/q turns the algebraic tail into a C^2
    # endpoint so that adaptive refinement converges fast
    qs = []
    for a in range(f.nvars):
        infinity_degree = nu[a] + sum(
            s_k * max(m[a] for m in form.monomials) for s_k, form in zip(exponents, f.forms)
        )
        qs.append(-infinity_degree / nu[a])
    # p*q >= 2 keeps the endpoint merely C^0, which refinement handles, while
    # a cap on p avoids astronomic dynamic range at the right endpoint
    ps = [min(6.0, max(2.0, 2.0 / q + 1.0)) for q in qs]

    def level_values(level: int, t: np.ndarray, fixed: list[np.ndarray], outer_jac: np.ndarray):
        """Integrand of variable `level` at abscissae t, integrated over the
        inner variables and times the outer Jacobians; fixed holds the outer
        alphas, aligned with t."""
        p = ps[level]
        with np.errstate(all="ignore"):
            up = (t / (1.0 - t)) ** p
            alpha = up if inv_nu[level] == 1.0 else up ** inv_nu[level]
            jac = outer_jac * p * up / (t * (1.0 - t))
            if level == f.nvars - 1:
                out = _integrand_values(plan, fixed + [alpha]) * jac
                # near an endpoint alpha or the Jacobian can leave the double
                # range, making the product 0 * inf or inf; it is taken as 0
                return np.where(np.isfinite(out), out, 0.0)
        # one lane per abscissa, its alphas and Jacobians gathered by lane index
        alphas = fixed + [alpha]
        return _lane_quad(
            lambda x, lane: level_values(level + 1, x, [a[lane] for a in alphas], jac[lane]),
            len(t), 0.0, 1.0, quad, graded=True,
        )

    value = jacobian * adaptive_quad(lambda t: level_values(0, t, [], np.ones_like(t)), 0.0, 1.0, quad)
    # a positive integrand has a positive integral: 0 or inf means the
    # integrand underflowed or overflowed in double precision
    if not (math.isfinite(value) and value > 0):
        raise QuadratureError(f"integral evaluated to {value}, outside the double range at these coefficients")
    return value


def apply_finite_difference(
    op: DifferentialOperator,
    phi,
    c: Sequence[float],
    h: float,
    params: Mapping[str, float] | None = None,
) -> float:
    """op applied to phi at c via second-order central differences with one
    Richardson extrapolation step."""
    params = dict(params or {})
    c = [float(v) for v in c]
    cache: dict[tuple, float] = {}

    def phi_at(point: tuple) -> float:
        if point not in cache:
            cache[point] = phi(list(point))
        return cache[point]

    def derivative(dmono: tuple[int, ...], point: tuple, step: float) -> float:
        for i, order in enumerate(dmono):
            if order > 0:
                reduced = dmono[:i] + (order - 1,) + dmono[i + 1 :]
                up = point[:i] + (point[i] + step,) + point[i + 1 :]
                dn = point[:i] + (point[i] - step,) + point[i + 1 :]
                return (derivative(reduced, up, step) - derivative(reduced, dn, step)) / (2 * step)
        return phi_at(point)

    def op_value(step: float) -> float:
        total = 0.0
        for poly, dmono in op.terms:
            values: dict[str, object] = {f"c{i + 1}": Fraction(c[i]).limit_denominator(10**12) for i in range(len(c))}
            for name, val in params.items():
                values[name] = Fraction(val).limit_denominator(10**12)
            coeff = float(poly.evaluate({v: values[v] for v in poly.vars}))
            total += coeff * derivative(dmono, tuple(c), step)
        return total

    if all(sum(d) == 0 for _, d in op.terms):
        return op_value(h)
    coarse = op_value(h)
    fine = op_value(h / 2)
    return (4 * fine - coarse) / 3


def annihilation_residual(
    op: DifferentialOperator,
    f: EulerIntegrand,
    c: Sequence[float],
    h: float = 0.05,
    params: Mapping[str, float] | None = None,
    quad: QuadConfig = QuadConfig(rel_tol=1e-10),
) -> float:
    """|op . phi| / |phi| at c, with phi evaluated by quadrature and op by
    finite differences; c must sit inside the convergence region with margin
    at least 2h in every coordinate."""
    c = [float(v) for v in c]
    if any(v - 2 * h <= 0 for v in c):
        raise ValueError("need margin of at least 2h inside the positive region")
    value = apply_finite_difference(op, lambda point: evaluate_euler(f, point, params, quad), c, h, params)
    scale = abs(evaluate_euler(f, c, params, quad))
    return abs(value) / max(scale, 1e-300)


# --------------------------------------------------------------------------
# the string integral and its field-theory limit
# --------------------------------------------------------------------------


def string_integrand(k: KinematicData, eps: float) -> EulerIntegrand:
    """exp(eps * L) dx/x dy/y as an Euler integrand for five points: forms
    (1+x), (x+y), (1+x+y) with exponents eps*s13, eps*s24, eps*s14 and
    prefactor exponents eps*s23, eps*s34."""
    if k.n != 5:
        raise ValueError("the string integral is set up for n = 5")
    e = Fraction(eps).limit_denominator(10**9)
    s = lambda i, j: k.s[i - 1][j - 1]
    return EulerIntegrand(
        nvars=2,
        forms=(
            LinearForm(((1, 0), (0, 0)), (1, 2), e * s(1, 3)),
            LinearForm(((1, 0), (0, 1)), (3, 4), e * s(2, 4)),
            LinearForm(((1, 0), (0, 1), (0, 0)), (5, 6, 7), e * s(1, 4)),
        ),
        prefactor=(e * s(2, 3), e * s(3, 4)),
    )


@dataclass(frozen=True)
class StringLimitResult:
    epsilons: tuple[float, ...]
    values: tuple[float, ...]
    extrapolated: float
    tree: Fraction
    relative_error: float


def string_limit(
    k: KinematicData,
    epsilons: Sequence[float] = (0.2, 0.1, 0.05),
    quad: QuadConfig = QuadConfig(rel_tol=1e-8),
) -> StringLimitResult:
    """phi_eps = eps^2 * integral of exp(eps L) dx/x dy/y for each epsilon,
    Richardson-extrapolated to eps -> 0 and compared to the tree amplitude.

    Requires every planar variable positive (the convergence region: the
    exponent at each boundary then stays integrable, uniformly in eps after
    the power substitution).  The epsilons must be finite, positive and
    pairwise distinct."""
    if k.n != 5:
        raise ValueError("the string limit is set up for n = 5")
    xs = [float(e) for e in epsilons]
    if not xs or not all(math.isfinite(e) and e > 0 for e in xs) or len(set(xs)) != len(xs):
        raise ValueError(f"epsilons must be finite, positive and pairwise distinct, got {xs}")
    planar = planar_variables(k)
    if any(v <= 0 for v in planar.values()):
        raise DivergentIntegralError("string integral requires positive planar variables")
    values = []
    for eps in xs:
        f = string_integrand(k, eps)
        values.append(eps * eps * evaluate_euler(f, [1.0] * 7, None, quad))
    # Neville extrapolation of the sample polynomial to eps = 0
    table = list(values)
    m = len(table)
    for level in range(1, m):
        for i in range(m - level):
            table[i] = table[i + 1] + (table[i + 1] - table[i]) * xs[i + level] / (
                xs[i] - xs[i + level]
            )
    extrapolated = table[0]
    tree = tree_amplitude(k)
    rel = abs(extrapolated - float(tree)) / abs(float(tree))
    return StringLimitResult(tuple(xs), tuple(values), extrapolated, tree, rel)
