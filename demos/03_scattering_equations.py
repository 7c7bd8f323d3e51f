"""Critical points of the logarithmic potential and the amplitude formula.

Punctures sit at 0, 1, 1+x, 1+x+y, infinity; the potential is the weighted
log of the pairwise differences.  Its (n-3)! critical points, summed with
inverse theta-Hessian determinants, reproduce the tree amplitude.  At the
fully symmetric five-point kinematics the two critical points sit at the
golden ratio.
"""

from fractions import Fraction as F

from posgeom import (
    chy_amplitude,
    kinematics_from_planar,
    minors,
    polygon_diagonals,
    sample_kinematics,
    solve_scattering,
    tree_amplitude,
)

print("chart minors for five points:")
for pair, poly in sorted(minors(5).items()):
    print(f"   p{pair[0]}{pair[1]} = {poly}")

unit = kinematics_from_planar(5, {d: F(1) for d in polygon_diagonals(5)})
points = solve_scattering(unit, tol=1e-12)
print("\nsymmetric kinematics: critical points (golden ratio)")
for p in points:
    coords = ", ".join(f"{c.real:+.12f}" for c in p.coords)
    print(f"   ({coords})   residual {p.residual:.1e}")
print("Hessian-determinant sum:", chy_amplitude(unit, points))
print("tree amplitude:", tree_amplitude(unit))

for n in (5, 6, 7):
    k = sample_kinematics(n, seed=3)
    pts = solve_scattering(k, tol=1e-10, seed=3)
    value = chy_amplitude(k, pts)
    tree = float(tree_amplitude(k))
    print(f"\nn={n}: {len(pts)} critical points, "
          f"relative deviation from the tree amplitude {abs(value - tree) / abs(tree):.2e}")
