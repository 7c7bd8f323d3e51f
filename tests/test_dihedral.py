import math
import random
from fractions import Fraction as F

import pytest

from posgeom.chy import minors, moduli_coordinates, solve_scattering
from posgeom.dihedral import (
    X_ORDER,
    chart_values,
    cross_ratio,
    crossing_diagonals,
    dihedral_chart,
    dihedral_scattering_residual,
    potential_exponents,
    rotate_diagonal,
    scattering_matrix,
    verify_u_equations,
)
from posgeom.exact import PoleError, Polynomial, RationalFunction, rf_equal, solve_linear
from posgeom.kinematics import (
    dihedral_exponents,
    kinematics_from_planar,
    planar_variables,
    polygon_diagonals,
    sample_kinematics,
)


def test_cross_ratio_u13():
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    assert rf_equal(cross_ratio(1, 2, 4, 3, 5), RationalFunction(x * (x + y + 1), (x + 1) * (x + y)))


def test_cross_ratio_u25():
    x = Polynomial.variable("x")
    assert rf_equal(cross_ratio(2, 3, 1, 5, 5), RationalFunction(Polynomial.const(1), x + 1))


def test_cross_ratio_swap_symmetry():
    product = cross_ratio(1, 2, 4, 3, 5) * cross_ratio(1, 2, 3, 4, 5)
    assert rf_equal(product, RationalFunction.const(1))


def test_cross_ratio_index_clash():
    with pytest.raises(ValueError):
        cross_ratio(1, 2, 2, 3, 5)


def test_u_equations_exact_n5():
    report = verify_u_equations(5)
    assert report.all_passed
    assert len(report.entries) == 5
    # the crossing structure pairs each diagonal with exactly two others
    for entry in report.entries:
        assert len(entry.crossing) == 2


def test_first_identity_expanded():
    chart = dihedral_chart(5)
    identity = chart[(1, 3)] + chart[(2, 4)] * chart[(2, 5)]
    assert identity == RationalFunction.const(1)


def test_binary_limit():
    # where u24 vanishes the first relation forces u13 = 1
    chart = dihedral_chart(5)
    point = {"x": F(3, 2), "y": F(0)}
    assert chart[(2, 4)].evaluate(point) == 0
    assert chart[(1, 3)].evaluate(point) == 1


@pytest.mark.parametrize("n", [4, 6, 7])
def test_u_equations_exact_beyond_five(n):
    report = verify_u_equations(n)
    assert report.n == n
    assert report.all_passed
    assert [e.diagonal for e in report.entries] == polygon_diagonals(n)
    for entry in report.entries:
        # (i, j) splits the other n - 2 vertices into j-i-1 and n-j+i-1
        i, j = entry.diagonal
        assert len(entry.crossing) == (j - i - 1) * (n - j + i - 1)
    # one rational chart point, evaluated exactly
    chart = dihedral_chart(n)
    point = {v: F(k + 2, 7) for k, v in enumerate(moduli_coordinates(n))}
    u = {d: f.evaluate(point) for d, f in chart.items()}
    for entry in report.entries:
        assert u[entry.diagonal] + math.prod(u[e] for e in entry.crossing) == 1


def test_u_equations_need_four_points():
    with pytest.raises(ValueError):
        verify_u_equations(3)


def test_chart_injectivity():
    chart = dihedral_chart(5)
    rng = random.Random(0)
    seen = {}
    count = 0
    while count < 100:
        point = {"x": F(rng.randint(-300, 300), 100), "y": F(rng.randint(-300, 300), 100)}
        try:
            values = tuple(chart[d].evaluate(point) for d in sorted(chart))
        except (PoleError, ZeroDivisionError):
            continue
        count += 1
        key = (point["x"], point["y"])
        assert values not in seen or seen[values] == key
        seen[values] = key


def test_matrix_residual_at_critical_points():
    worst = 0.0
    for seed in range(20):
        k = sample_kinematics(5, seed)
        for pt in solve_scattering(k, tol=1e-10, seed=seed):
            worst = max(worst, dihedral_scattering_residual(k, pt))
    assert worst < 1e-9


def test_matrix_residual_zero_kinematics():
    zero = kinematics_from_planar(5, {d: F(0) for d in polygon_diagonals(5)})
    k = sample_kinematics(5, 1)
    pt = solve_scattering(k, tol=1e-10, seed=1)[0]
    assert dihedral_scattering_residual(zero, pt) == 0.0


def test_matrix_structure_entry():
    u = {d: 0.0 for d in polygon_diagonals(5)}
    u[(3, 5)] = 1.0
    m = scattering_matrix(u)
    assert m[2][0] == 0  # the (row 3, column 1) entry is u35 - 1
    assert m[0][0] == m[1][1] == m[4][4] == 0


def test_potential_exponents_satisfy_product_form():
    # independent re-derivation: the exponents solve a full-rank linear
    # system matching log p coefficients, and equal the planar variables at
    # rotated labels
    k = sample_kinematics(5, 3)
    diagonals = polygon_diagonals(5)

    def norm(i, j):
        a, b = (i - 1) % 5 + 1, (j - 1) % 5 + 1
        return (min(a, b), max(a, b))

    pairs = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
    rows = []
    for pair in pairs:
        row = []
        for (i, j) in diagonals:
            coeff = F(0)
            for candidate, sign in (((i, j + 1), 1), ((i + 1, j), 1), ((i, j), -1), ((i + 1, j + 1), -1)):
                if norm(*candidate) == pair:
                    coeff += sign
            row.append(coeff)
        rows.append(row)
    rhs = [k.s[a - 1][b - 1] for (a, b) in pairs]
    sol = solve_linear(rows, rhs)
    assert sol.status == "unique"
    derived = dict(zip(diagonals, sol.solution))
    assert derived == potential_exponents(k)
    planar = planar_variables(k)
    assert all(derived[d] == planar[rotate_diagonal(d, 1)] for d in diagonals)
    # and they differ from the literal double-difference combination
    assert derived != dihedral_exponents(k)


def test_potential_product_constant_is_zero():
    # exp(L) equals the product of u^exponent on the positive chart
    k = sample_kinematics(5, 3)
    ps = minors(5)
    chart = dihedral_chart(5)
    exponents = potential_exponents(k)
    rng = random.Random(1)
    for _ in range(20):
        point = {"x": F(rng.randint(1, 500), 100), "y": F(rng.randint(1, 500), 100)}
        left = sum(
            float(k.s[i - 1][j - 1]) * math.log(float(p.evaluate(point)))
            for (i, j), p in ps.items()
            if j != 5 and (i, j) != (1, 2)
        )
        right = sum(
            float(exponents[d]) * math.log(float(u.evaluate(point))) for d, u in chart.items()
        )
        assert abs(left - right) < 1e-9
