import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from posgeom.exact import Polynomial
from posgeom.gkz import (
    DifferentialOperator,
    DivergentIntegralError,
    EulerIntegrand,
    LinearForm,
    annihilation_residual,
    blueprint_integrand,
    evaluate_euler,
    gkz_operators,
    restricted_integrand,
    string_integrand,
    string_limit,
)
from posgeom.gkz import _integrand_plan, _integrand_values
from posgeom.kinematics import kinematics_from_planar, polygon_diagonals
from posgeom.quadrature import QuadConfig, QuadratureError

BLUEPRINT = blueprint_integrand()
OPS = gkz_operators(BLUEPRINT)


def test_blueprint_euler_operators_exact():
    assert [str(op) for op in OPS["euler"]] == [
        "c1*d1 + c2*d2 + c3*d3 + 1",
        "c4*d4 + c5*d5 + 1",
        "c6*d6 + c7*d7 + 1",
        "c1*d1 + c4*d4 + (eps + 1)",
        "c2*d2 + c6*d6 + (eps + 1)",
    ]


def test_blueprint_toric_operators_exact():
    assert [str(op) for op in OPS["toric"]] == ["d1*d5 - d3*d4", "d2*d7 - d3*d6"]


def test_toric_binomials_balance_the_matrix():
    amatrix = OPS["a_matrix"]
    for op in OPS["toric"]:
        terms = dict((dmono, poly) for poly, dmono in op.canonical().terms)
        (plus, minus) = terms.keys()
        for row in amatrix:
            assert sum(r * e for r, e in zip(row, plus)) == sum(r * e for r, e in zip(row, minus))


def test_single_form_operators():
    s = Polynomial.variable("s")
    nu1 = Polynomial.variable("nu1")
    integrand = EulerIntegrand(1, (LinearForm(((1,), (0,)), (1, 2), s * (-1)),), (nu1,))
    ops = gkz_operators(integrand)
    assert [str(op) for op in ops["euler"]] == ["c1*d1 + c2*d2 + s", "c1*d1 + nu1"]
    assert ops["toric"] == []


def test_beta_integral_is_pi():
    beta = EulerIntegrand(1, (LinearForm(((1,), (0,)), (1, 2), F(-1)),), (F(1, 2),))
    assert evaluate_euler(beta, [1.0, 1.0]) == pytest.approx(math.pi, rel=1e-10)


def test_dirichlet_closed_forms():
    cases = [
        ((F(1), F(1)), 3, 0.5),
        ((F(1, 2), F(1, 2)), 2, math.pi),
        ((F(3, 2), F(3, 2)), 4, math.gamma(1.5) ** 2 / 6),
        ((F(1), F(1)), F(9, 4), math.gamma(0.25) / math.gamma(2.25)),
    ]
    for nu, s, expected in cases:
        f = EulerIntegrand(2, (LinearForm(((1, 0), (0, 1), (0, 0)), (1, 2, 3), F(-s)),), nu)
        assert evaluate_euler(f, [1.0, 1.0, 1.0]) == pytest.approx(expected, rel=1e-8)


def test_near_divergent_dirichlet_is_accurate_or_raises():
    # margin s - nu1 - nu2 = 1/4 with large nu: a wrong value must not pass silently
    f = EulerIntegrand(2, (LinearForm(((1, 0), (0, 1), (0, 0)), (1, 2, 3), F(-15, 4)),), (F(7, 4), F(7, 4)))
    expected = math.gamma(1.75) ** 2 * math.gamma(0.25) / math.gamma(3.75)
    try:
        value = evaluate_euler(f, [1.0, 1.0, 1.0])
    except QuadratureError:
        return
    assert value == pytest.approx(expected, rel=1e-6)


def _dirichlet(nu, s):
    return EulerIntegrand(2, (LinearForm(((1, 0), (0, 1), (0, 0)), (1, 2, 3), F(-s)),), nu)


@pytest.mark.parametrize(
    "nu, s, expected",
    [((F(1, 2), F(1, 2)), F(5, 4), 4 * math.pi), ((F(1), F(1)), F(9, 4), math.gamma(0.25) / math.gamma(2.25))],
)
def test_small_margin_dirichlet_at_default_config(nu, s, expected):
    assert evaluate_euler(_dirichlet(nu, s), [1.0, 1.0, 1.0]) == pytest.approx(expected, rel=1e-8)


def test_near_divergent_dirichlet_raises_at_doubled_config():
    # its panels near t = 1 get too narrow to place their nodes inside them,
    # and they stop there instead of settling on nodes rounded onto t = 1
    with pytest.raises(QuadratureError):
        evaluate_euler(_dirichlet((F(7, 4), F(7, 4)), F(15, 4)), [1.0, 1.0, 1.0], None, QuadConfig().doubled())


def test_underflowing_integral_raises():
    # the integral is about 7e-155, but its integrand underflows everywhere
    f = EulerIntegrand(2, (LinearForm(((1, 0), (0, 1), (0, 0)), (1, 2, 3), F(-3)),), BLUEPRINT.prefactor)
    with pytest.raises(QuadratureError):
        evaluate_euler(f, [1.0, 1.0, 1e308], {"eps": 0.25})


@pytest.mark.parametrize("params", [None, {"foo": 1.0}])
def test_missing_exponent_parameter_is_named(params):
    with pytest.raises(ValueError, match="'eps'"):
        evaluate_euler(BLUEPRINT, [1.0] * 7, params)


def test_three_variable_dirichlet():
    form = LinearForm(((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)), (1, 2, 3, 4), F(-5))
    f = EulerIntegrand(3, (form,), (F(1), F(1), F(1)))
    assert evaluate_euler(f, [1.0] * 4) == pytest.approx(1 / 24, rel=1e-8)


def test_blueprint_diverges_at_top_of_range():
    # nu1 + nu2 equals the total decay available -> logarithmic divergence
    with pytest.raises(DivergentIntegralError):
        evaluate_euler(BLUEPRINT, [1.0] * 7, {"eps": 0.5})


def test_blueprint_value_and_self_convergence():
    value = evaluate_euler(BLUEPRINT, [1.0] * 7, {"eps": 0.25})
    refined = evaluate_euler(BLUEPRINT, [1.0] * 7, {"eps": 0.25}, QuadConfig().doubled())
    assert abs(value - refined) / abs(value) < 1e-6


def test_restricted_integrand_value():
    psi = restricted_integrand((-1, -1, -1), (F(1, 2), F(1, 2)))
    value = evaluate_euler(psi, [1.0] * 7)
    refined = evaluate_euler(psi, [1.0] * 7, None, QuadConfig().doubled())
    assert math.isfinite(value)
    assert abs(value - refined) / abs(value) < 1e-6


def test_alpha_reorder_invariance():
    swapped = EulerIntegrand(
        2,
        (
            LinearForm(((0, 1), (1, 0), (0, 0)), (1, 2, 3), F(-1)),
            LinearForm(((0, 1), (0, 0)), (4, 5), F(-1)),
            LinearForm(((1, 0), (0, 0)), (6, 7), F(-1)),
        ),
        BLUEPRINT.prefactor,
    )
    a = evaluate_euler(BLUEPRINT, [1.0] * 7, {"eps": 0.25})
    b = evaluate_euler(swapped, [1.0] * 7, {"eps": 0.25})
    assert abs(a - b) / abs(a) < 1e-8


def test_zero_operator_residual_exactly_zero():
    zero = DifferentialOperator(7, ())
    assert annihilation_residual(zero, BLUEPRINT, [1.0] * 7, params={"eps": 0.25}) == 0.0


def test_margin_validation():
    with pytest.raises(ValueError):
        annihilation_residual(OPS["toric"][0], BLUEPRINT, [0.05] * 7, h=0.05, params={"eps": 0.25})


def test_toric_annihilation_residuals():
    for op in OPS["toric"]:
        r = annihilation_residual(op, BLUEPRINT, [1.0] * 7, h=0.05, params={"eps": 0.25})
        assert r < 1e-3


def test_euler_annihilation_residual_single_form():
    s = Polynomial.variable("s")
    nu1 = Polynomial.variable("nu1")
    integrand = EulerIntegrand(1, (LinearForm(((1,), (0,)), (1, 2), s * (-1)),), (nu1,))
    ops = gkz_operators(integrand)
    for op in ops["euler"]:
        r = annihilation_residual(op, integrand, [1.0, 1.0], h=0.05, params={"s": 0.75, "nu1": 0.5})
        assert r < 1e-3


def moderate_positive_kinematics(seed):
    rng = random.Random(seed)
    return kinematics_from_planar(5, {d: F(rng.randint(6, 30), 12) for d in polygon_diagonals(5)})


def test_string_limit_unit_point():
    k = kinematics_from_planar(5, {d: F(1) for d in polygon_diagonals(5)})
    result = string_limit(k)
    assert result.tree == 5
    assert result.relative_error < 0.01
    # phi_eps approaches the tree value monotonically here
    assert abs(result.values[2] - 5) < abs(result.values[1] - 5) < abs(result.values[0] - 5)


def test_string_limit_requires_positive_planar():
    planar = {d: F(1) for d in polygon_diagonals(5)}
    planar[(1, 3)] = F(-1)
    with pytest.raises(DivergentIntegralError):
        string_limit(kinematics_from_planar(5, planar))


def test_string_limit_no_fifth_puncture_factor():
    # minors touching the puncture at infinity contribute no form
    from posgeom.gkz import string_integrand

    k = moderate_positive_kinematics(0)
    f = string_integrand(k, 0.1)
    assert len(f.forms) == 3
    assert f.nvars == 2


def test_string_limit_self_convergence():
    k = moderate_positive_kinematics(1)
    a = string_limit(k, (0.1,), QuadConfig(rel_tol=1e-8))
    b = string_limit(k, (0.1,), QuadConfig(rel_tol=1e-10, max_depth=96))
    assert abs(a.values[0] - b.values[0]) / abs(a.values[0]) < 1e-6


@pytest.mark.parametrize("eps", [(), (0.2, 0.2, 0.05), (0.0,), (0.2, -0.1), (0.1, math.nan), (math.inf, 0.1)])
def test_string_limit_rejects_bad_epsilons(eps):
    k = moderate_positive_kinematics(0)
    with pytest.raises(ValueError, match="epsilons"):
        string_limit(k, eps)


def reference_integrand(f, c, exponents, alphas):
    """The product of forms as evaluate_euler computed it before the plan."""
    coeff_arrays = []
    for form in f.forms:
        offsets = [c[i - 1] for i in form.coefficients]
        coeff_arrays.append((np.array(offsets), [np.array(m, dtype=float) for m in form.monomials]))
    total = np.ones_like(alphas[0])
    for (offsets, monos), s_k in zip(coeff_arrays, exponents):
        form_val = np.zeros_like(alphas[0])
        for off, mono in zip(offsets, monos):
            term = np.full_like(alphas[0], off)
            for a in range(f.nvars):
                if mono[a]:
                    term = term * alphas[a] ** mono[a]
            form_val = form_val + term
        total = total * form_val**s_k
    return total


def test_integrand_plan_is_bit_identical():
    rng = np.random.default_rng(7)
    dirichlet3 = EulerIntegrand(
        3, (LinearForm(((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)), (1, 2, 3, 4), F(-5)),), (F(1),) * 3
    )
    # squares and cubes take the power path; the second form is constant
    powers = EulerIntegrand(
        2,
        (LinearForm(((2, 1), (0, 3), (0, 0)), (1, 2, 3), F(-3, 2)), LinearForm(((0, 0),), (4,), F(-7, 3))),
        (F(1), F(1)),
    )
    cases = [
        (BLUEPRINT, {"eps": 0.25}),
        (string_integrand(moderate_positive_kinematics(2), 0.1), {}),
        (dirichlet3, {}),
        (powers, {}),
    ]
    for f, params in cases:
        exponents = [float(form.exponent.evaluate({v: F(params[v]) for v in form.exponent.vars}))
                     if isinstance(form.exponent, Polynomial) else float(form.exponent) for form in f.forms]
        for _ in range(5):
            c = list(rng.uniform(0.1, 3.0, f.ncoeffs))
            alphas = [10.0 ** rng.uniform(-6, 6, 200) for _ in range(f.nvars)]
            got = _integrand_values(_integrand_plan(f, c, exponents), alphas)
            want = reference_integrand(f, c, exponents, alphas)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
