"""Op checkers: each compares a computed result with its second route.

Checkers take plain values (numbers, fractions, root coordinates, exit
codes), never call the library, and return a Verdict.  That keeps them
cheap inside a timed op and lets the tests feed them corrupted results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

# tolerances, written down once
CHY_REL_TOL = 1e-9  # CHY sum against the exact tree value
ROOT_RESIDUAL_TOL = 1e-10  # raw gradient residual reported by the solver
EQUATION_RESIDUAL_TOL = 1e-8  # scattering equations recomputed here, scale-free
ROOT_SEPARATION = 1e-6  # no two roots closer than this (relative max-norm)
EULER_REL_TOL = 1e-6  # Euler integrals at rel_tol 1e-8: the suite's self-convergence gate
STRING_LIMIT_REL_TOL = 1e-2  # extrapolated string integral against the tree value


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str = ""
    # named per-op figures the run aggregates (maxima or sums)
    figures: dict = field(default_factory=dict)


def exact_equal(label: str, *values) -> Verdict:
    """All values equal as exact rationals (or exactly equal objects)."""
    first = values[0]
    for other in values[1:]:
        if other != first:
            return Verdict(False, f"{label}: {first} != {other}")
    return Verdict(True)


def relative_error(value: complex | float, reference: float) -> float:
    err = abs(value - reference) / abs(reference)
    return err if math.isfinite(err) else math.inf


def rel_close(label: str, value, reference: float, tol: float, figure: str | None = None) -> Verdict:
    err = relative_error(value, reference)
    figures = {figure: err} if figure else {}
    if err <= tol:
        return Verdict(True, figures=figures)
    return Verdict(False, f"{label}: relative error {err:.3e} > {tol:.0e}", figures)


def equation_residual(s, coords) -> float:
    """Scale-free residual of the scattering equations at one root.

    Punctures sit at 0, 1, 1 + x1, 1 + x1 + x2, ... with the last one at
    infinity; for every free puncture i the equation is
    sum_j s_ij / (z_i - z_j) = 0 over the finite punctures j != i.  Each
    equation is divided by the sum of the moduli of its terms.
    """
    n = len(s)
    z = [0j, 1 + 0j]
    for x in coords:
        z.append(z[-1] + complex(x))
    worst = 0.0
    for i in range(2, n - 1):
        terms = [float(s[i][j]) / (z[i] - z[j]) for j in range(n - 1) if j != i]
        scale = sum(abs(t) for t in terms)
        if not scale or not math.isfinite(scale):
            return math.inf
        worst = max(worst, abs(sum(terms)) / scale)
    return worst


def root_separation(a, b) -> float:
    """Max-norm distance relative to the root scale."""
    scale = 1.0 + max(max(abs(complex(v)) for v in a), max(abs(complex(v)) for v in b))
    return max(abs(complex(u) - complex(v)) for u, v in zip(a, b)) / scale


def check_scattering(s, roots, residuals, chy_sum: complex, tree: Fraction, expected: int) -> Verdict:
    """Root count, reported and recomputed residuals, distinctness, and the
    CHY sum against the exact tree value."""
    if len(roots) != expected:
        return Verdict(False, f"found {len(roots)} roots, expected {expected}")
    worst_reported = max(residuals)
    if not worst_reported < ROOT_RESIDUAL_TOL:
        return Verdict(False, f"reported residual {worst_reported:.2e}")
    worst_equation = max(equation_residual(s, r) for r in roots)
    if not worst_equation < EQUATION_RESIDUAL_TOL:
        return Verdict(False, f"scattering-equation residual {worst_equation:.2e}")
    seps = [root_separation(a, b) for i, a in enumerate(roots) for b in roots[i + 1 :]]
    if seps and min(seps) < ROOT_SEPARATION:
        return Verdict(False, f"two roots within {min(seps):.1e}")
    return rel_close("CHY sum", chy_sum, float(tree), CHY_REL_TOL, "chy.max_rel_dev")


def dirichlet_reference(nu1: float, nu2: float, s: float, c) -> float:
    """Closed form of the integral of x^nu1 y^nu2 (c1 x + c2 y + c3)^(-s)
    dx dy / (x y) over the positive quadrant."""
    c1, c2, c3 = (float(v) for v in c)
    gammas = math.lgamma(nu1) + math.lgamma(nu2) + math.lgamma(s - nu1 - nu2) - math.lgamma(s)
    return math.exp(gammas) * c3 ** (nu1 + nu2 - s) * c1 ** (-nu1) * c2 ** (-nu2)


def check_dirichlet(value: float, nu1: float, nu2: float, s: float, c) -> Verdict:
    return rel_close("Dirichlet integral", value, dirichlet_reference(nu1, nu2, s, c), EULER_REL_TOL, "euler.max_rel_err")


def check_homogeneity(phi: float, phi_scaled: float, lam: float, degree: int) -> Verdict:
    """phi(lam * c on one form) = lam^degree * phi(c)."""
    return rel_close("homogeneity", phi_scaled, phi * lam**degree, EULER_REL_TOL, "euler.max_rel_err")


def check_string_limit(extrapolated: float, tree: Fraction) -> Verdict:
    return rel_close("string limit", extrapolated, float(tree), STRING_LIMIT_REL_TOL, "euler.max_rel_err")


def check_exit(code: int, expected: int, stdout: str) -> Verdict:
    """Exit code as expected; a failing request writes no result."""
    if code != expected:
        return Verdict(False, f"exit code {code}, expected {expected}")
    if expected != 0 and stdout:
        return Verdict(False, f"exit {code} with {len(stdout)} bytes of output")
    return Verdict(True)
