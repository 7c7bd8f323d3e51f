"""posgeom: exact-and-numeric computations in positive geometry.

Tree amplitudes as sums over polygon triangulations, canonical functions of
polytopes with the pentagon realization, scattering-equation critical points
and the Hessian-determinant amplitude formula, dihedral coordinates with
their binary relations, sign-pattern membership and adjoint interpolation
for lines in projective 3-space, annihilating operators and numeric
evaluation of Euler integrals including the string integral's field-theory
limit, and exact truncated path signatures — with the same quantities
computed along independent routes and cross-checked.
"""

__version__ = "0.1.0"

from .chy import (
    CriticalPoint,
    ScatteringPotential,
    WrongCountError,
    chy_amplitude,
    minors,
    moduli_coordinates,
    scattering_potential,
    solve_scattering,
)
from .dihedral import (
    cross_ratio,
    dihedral_chart,
    dihedral_scattering_residual,
    potential_exponents,
    scattering_matrix,
    verify_u_equations,
)
from .exact import (
    DenseTensor,
    LinearSolution,
    PoleError,
    Polynomial,
    RationalFunction,
    det,
    matrix_rank,
    rf_equal,
    solve_linear,
)
from .gkz import (
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
from .grassmann import (
    MembershipVerdict,
    PlueckerLine,
    ZMatrix,
    adjoint_interpolation,
    brackets,
    centroid_stab_line,
    cone_facets,
    count_sign_flips,
    membership,
    random_member,
    special_line,
    stabs,
    twisted_cubic_z,
)
from .kinematics import (
    KinematicData,
    abhy_constants,
    abhy_mesh,
    abhy_planar_forms,
    dihedral_exponents,
    is_generic,
    kinematics_from_planar,
    planar_variables,
    polygon_diagonals,
    sample_abhy_kinematics,
    sample_kinematics,
)
from .polytope import (
    Polytope,
    abhy_associahedron,
    abhy_facet_forms,
    abhy_identity_symbolic,
    abhy_pentagon,
    adjoint,
    canonical_function,
    canonical_parts,
    canonical_vertex_sum,
    dual_volume_oracle,
    polar_dual,
    simplex_canonical,
)
from .quadrature import QuadConfig, QuadratureError, adaptive_quad
from .signature import (
    PiecewiseLinearPath,
    SignatureTensorStack,
    cyclic_path,
    identity_stack,
    segment_signature,
    shuffle_check,
    shuffles,
    signature,
)
from .trees import (
    N5_MANDELSTAM_NAMES,
    Triangulation,
    crossing,
    enumerate_triangulations,
    tree_amplitude,
    tree_amplitude_symbolic,
)
