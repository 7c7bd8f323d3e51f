"""Cross-ratios and dihedral coordinates on the moduli space of n marked
points on the line.

The dihedral coordinate of a polygon diagonal (i, j) is the cross-ratio
u_ij = [i, i+1 | j+1, j] built from the chart minors; the u satisfy one
binary relation u_D + prod of u over crossing diagonals = 1 per diagonal
(on the five-point space they cut the chart out of (C*)^5), which this
module verifies as exact rational-function identities at every n >= 4.
The five-point scattering equations transform, in these coordinates, into
the vanishing of X^T M(u) for an explicit 5 x 5 matrix; the residual of
that product at numerically solved critical points is the bridge checked
against the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chy import CriticalPoint, minors, moduli_coordinates
from .exact import Polynomial, RationalFunction
from .kinematics import Diagonal, KinematicData, planar_variables, polygon_diagonals
from .trees import crossing


def _signed_minor(ps: dict, i: int, j: int) -> tuple[int, Polynomial]:
    if i < j:
        return 1, ps[(i, j)]
    return -1, ps[(j, i)]


def cross_ratio(i: int, j: int, k: int, l: int, n: int) -> RationalFunction:
    """[ij|kl] = p_ik p_jl / (p_il p_jk) as an exact rational function in
    the chart coordinates; indices are taken mod n."""
    norm = [(x - 1) % n + 1 for x in (i, j, k, l)]
    i, j, k, l = norm
    if {i, j} & {k, l}:
        raise ValueError(f"index clash in cross-ratio [{i}{j}|{k}{l}]")
    ps = minors(n)
    s1, p_ik = _signed_minor(ps, i, k)
    s2, p_jl = _signed_minor(ps, j, l)
    s3, p_il = _signed_minor(ps, i, l)
    s4, p_jk = _signed_minor(ps, j, k)
    sign = s1 * s2 * s3 * s4
    return RationalFunction(sign * p_ik * p_jl, p_il * p_jk)


def dihedral_chart(n: int) -> dict[Diagonal, RationalFunction]:
    """u_D = [i, i+1 | j+1, j] for every diagonal D = (i, j) of the n-gon."""
    return {(i, j): cross_ratio(i, i + 1, j + 1, j, n) for (i, j) in polygon_diagonals(n)}


def crossing_diagonals(d: Diagonal, n: int) -> list[Diagonal]:
    return [e for e in polygon_diagonals(n) if crossing(d, e)]


@dataclass(frozen=True)
class UEquationEntry:
    diagonal: Diagonal
    crossing: tuple[Diagonal, ...]
    passed: bool


@dataclass(frozen=True)
class UEquationReport:
    n: int
    entries: tuple[UEquationEntry, ...]

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


def verify_u_equations(n: int) -> UEquationReport:
    """Check u_D + prod over crossing diagonals of u = 1 for every diagonal,
    as exact rational-function identities in the chart coordinates."""
    if n < 4:
        raise ValueError("u-equations need n >= 4")
    chart = dihedral_chart(n)
    entries = []
    for d in polygon_diagonals(n):
        cross = tuple(crossing_diagonals(d, n))
        product = RationalFunction.const(1)
        for e in cross:
            product = product * chart[e]
        identity = chart[d] + product
        entries.append(UEquationEntry(d, cross, identity == RationalFunction.const(1)))
    return UEquationReport(n, tuple(entries))


# order of the exponent vector and of the matrix rows/columns
X_ORDER: tuple[Diagonal, ...] = ((1, 3), (2, 4), (3, 5), (1, 4), (2, 5))


def rotate_diagonal(d: Diagonal, t: int, n: int = 5) -> Diagonal:
    i, j = d
    a = (i - 1 + t) % n + 1
    b = (j - 1 + t) % n + 1
    return (min(a, b), max(a, b))


def potential_exponents(k: KinematicData) -> dict[Diagonal, Fraction]:
    """Exponent of u_D in the dihedral form of the potential.

    Writing L = sum over diagonals of e_D log u_D with the chart labels used
    here, exact linear algebra identifies e_D as the planar variable of the
    rotated diagonal D+1 (equivalently: the exponents are the planar
    variables once the cross-ratio labels are shifted by one step, which is
    the labeling the 5 x 5 scattering matrix is written in).  The test suite
    re-derives this identification from scratch.
    """
    planar = planar_variables(k)
    return {d: planar[rotate_diagonal(d, 1)] for d in polygon_diagonals(5)}


def scattering_matrix(u: dict[Diagonal, complex]) -> np.ndarray:
    """The 5 x 5 dihedral form of the five-point scattering equations."""
    u13, u24, u35, u14, u25 = (u[d] for d in X_ORDER)
    return np.array(
        [
            [0, 1 - u14 - u25, 1 - u13, u13 - 1, u24 + u35 - 1],
            [u14 + u35 - 1, 0, 1 - u13 - u25, 1 - u24, u24 - 1],
            [u35 - 1, u14 + u25 - 1, 0, 1 - u13 - u24, 1 - u35],
            [1 - u14, u14 - 1, u13 + u25 - 1, 0, 1 - u24 - u35],
            [1 - u14 - u35, 1 - u25, u25 - 1, u13 + u24 - 1, 0],
        ],
        dtype=complex,
    )


def chart_values(point: dict[str, object], n: int = 5) -> dict[Diagonal, complex]:
    chart = dihedral_chart(n)
    return {d: complex(chart[d].evaluate(point)) for d in polygon_diagonals(n)}


def dihedral_scattering_residual(k: KinematicData, pt: CriticalPoint) -> float:
    """Infinity norm of X^T M(u) at a critical point.

    The matrix is taken verbatim; X carries the planar variables in the
    order (13, 24, 35, 14, 25) and the matrix's u-symbols denote the
    cross-ratio of the diagonal one rotation below the chart label, which is
    the unique assignment under which the potential takes the product form
    the matrix encodes (see potential_exponents).
    """
    if k.n != 5:
        raise ValueError("the dihedral scattering matrix is for n = 5")
    coords = moduli_coordinates(5)
    point = {v: complex(c) for v, c in zip(coords, pt.coords)}
    values = chart_values(point, 5)
    u = {d: values[rotate_diagonal(d, -1)] for d in polygon_diagonals(5)}
    planar = planar_variables(k)
    xvec = np.array([float(planar[d]) for d in X_ORDER])
    return float(np.abs(xvec @ scattering_matrix(u)).max())
