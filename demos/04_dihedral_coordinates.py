"""Dihedral coordinates, the binary relations, and the matrix form of the
scattering equations.

Each polygon diagonal carries a cross-ratio of puncture differences; on the
five-point moduli space the five coordinates satisfy u + (product of the
crossing coordinates) = 1, exactly, and so do the nine at six points.  At
every critical point of the potential the vector of planar variables
annihilates an explicit 5 x 5 matrix in these coordinates.
"""

from posgeom import (
    dihedral_chart,
    dihedral_scattering_residual,
    sample_kinematics,
    solve_scattering,
    verify_u_equations,
)
from posgeom.dihedral import potential_exponents

chart = dihedral_chart(5)
print("dihedral coordinates of the five-point chart:")
for d, u in sorted(chart.items()):
    print(f"   u{d[0]}{d[1]} = {u}")

report = verify_u_equations(5)
print("\nbinary relations (exact):")
for entry in report.entries:
    crossing = " * ".join(f"u{a}{b}" for a, b in entry.crossing)
    print(f"   u{entry.diagonal[0]}{entry.diagonal[1]} + {crossing} = 1   ->  {entry.passed}")

report6 = verify_u_equations(6)
print("\nsix-point relations, all nine diagonals (exact):", report6.all_passed)

k = sample_kinematics(5, seed=5)
print("\npotential exponents (planar variables at rotated labels):")
for d, e in sorted(potential_exponents(k).items()):
    print(f"   u{d[0]}{d[1]} exponent {e}")
worst = max(
    dihedral_scattering_residual(k, pt) for pt in solve_scattering(k, tol=1e-10, seed=5)
)
print("matrix-form residual at the critical points:", f"{worst:.2e}")
