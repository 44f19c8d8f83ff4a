"""Period matrices, cyclic-isogeny identities, relation polynomials and
modular-polynomial stratum scans for tuples of elliptic curves.

The package is organized around one numerical convention: full period
matrices have determinant 2*pi*i, and dividing that global factor out turns
every CM-normalized value matrix into a determinant-one object.  See
periods for the conventions, relations for the scalar identities, polyrel
for their polynomial forms, and scanner for the exact stratum search.
"""

from .analytic import ComplexValue, PrecisionContext, eisenstein, j_invariant, polyroots
from .errors import (
    DegenerateInput,
    DomainError,
    Inconclusive,
    MissingAssignment,
    NonConvergence,
    StructureViolation,
    UnsupportedConfiguration,
    ZpError,
)
from .periods import (
    CmCertificate,
    FullPeriodMatrix,
    Lattice,
    StructuredPeriod,
    decompose_cm,
    detect_cm,
    full_period_matrix,
    make_singular_structure,
    reduce_tau,
)
from .isogeny import (
    CyclicSublattice,
    IsogenyWitness,
    cyclic_sublattices,
    isogeny_pair,
    make_witness,
    psi,
    solve_de_rham,
    verify_isogeny_identity,
)
from .modular import (
    ModularPolynomial,
    phi_eval_numeric,
    phi_recover_exact,
    phi_specialize,
    sublattice_j_values,
)
from .exactpoly import AlgebraicPointSet, IntPoly, RatFunc, gcd, mahler_height, resultant, squarefree
from .polyrel import (
    IdealI0,
    MultiPoly,
    NonMembershipCertificate,
    build_R_degenerate,
    build_R_pair_product,
    build_R_second_way,
    det_poly,
    evaluate,
    not_in_I0,
)
from .relations import (
    RelationInstance,
    RelationWitness,
    build_polynomial,
    dispatch_case,
    first_way,
    four_coordinate,
    genuine_second_way,
    second_way,
    synth_first_way,
    synth_four_coordinate,
    synth_second_way,
)
from .scanner import CurveModel, ScanPoint, parse_curve_file, report, stratum_poly, unlikely_points

__version__ = "0.1.0"
