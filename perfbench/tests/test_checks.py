"""Every op checker accepts the true result and rejects a corrupted one."""

from fractions import Fraction as F

import posgeom as pg

from checks import (
    check_dirichlet,
    check_exit,
    check_homogeneity,
    check_scattering,
    check_string_limit,
    dirichlet_reference,
    exact_equal,
)
from workloads import cli_op


def solved(n):
    k = pg.sample_kinematics(n, 3)
    roots = pg.solve_scattering(k, tol=1e-10)
    coords = [p.coords for p in roots]
    residuals = [p.residual for p in roots]
    return k, coords, residuals, pg.chy_amplitude(k, roots), pg.tree_amplitude(k)


def test_scattering_checker_rejects_corrupted_results():
    k, coords, residuals, total, tree = solved(6)
    assert check_scattering(k.s, coords, residuals, total, tree, 6).ok
    # a CHY sum off by 1e-6
    assert not check_scattering(k.s, coords, residuals, total * (1 + 1e-6), tree, 6).ok
    # a missing root
    assert not check_scattering(k.s, coords[:-1], residuals[:-1], total, tree, 6).ok
    # a root moved off the variety, with its reported residual unchanged
    moved = [tuple(v * (1 + 1e-5) for v in coords[0]), *coords[1:]]
    assert not check_scattering(k.s, moved, residuals, total, tree, 6).ok
    # a duplicated root
    doubled = [coords[0], coords[0], *coords[2:]]
    assert not check_scattering(k.s, doubled, residuals, total, tree, 6).ok


def test_dirichlet_checker_rejects_value_off_by_1e_5():
    c = (F(1, 2), F(3, 2), F(5, 4))
    value = pg.evaluate_euler(
        pg.EulerIntegrand(2, (pg.LinearForm(((1, 0), (0, 1), (0, 0)), (1, 2, 3), F(-3)),), (F(1), F(1))),
        [float(v) for v in c],
    )
    assert check_dirichlet(value, 1.0, 1.0, 3.0, c).ok
    assert not check_dirichlet(value * (1 + 1e-5), 1.0, 1.0, 3.0, c).ok
    assert abs(dirichlet_reference(1.0, 1.0, 3.0, (1, 1, 1)) - 0.5) < 1e-15  # Gamma(1)^3 / Gamma(3)


def test_homogeneity_and_string_limit_checkers():
    assert check_homogeneity(2.0, 1.0, 2.0, -1).ok
    assert not check_homogeneity(2.0, 1.0 + 1e-5, 2.0, -1).ok
    assert check_string_limit(1.005, F(1)).ok
    assert not check_string_limit(1.02, F(1)).ok


def test_exit_checker_rejects_success_on_malformed_input(tmp_path):
    assert not check_exit(0, 2, '{"manifest": {}, "result": {}}').ok
    assert not check_exit(2, 0, "").ok
    assert not check_exit(3, 3, "partial").ok
    assert check_exit(2, 2, "").ok
    malformed = tmp_path / "k.json"
    malformed.write_text('{"n": 5, "s": [[')
    assert cli_op("error_2", ["amplitude", "--kinematics", str(malformed)], 2).run().ok
    assert not cli_op("error_2", ["amplitude", "--kinematics", str(malformed)], 0).run().ok


def test_exact_checker_rejects_rational_mismatch():
    tree = pg.tree_amplitude(pg.sample_kinematics(7, 1))
    assert exact_equal("tree", tree, tree, F(tree.numerator, tree.denominator)).ok
    assert not exact_equal("tree", tree, tree + F(1, 10**15)).ok
