"""Exact analysis of piecewise-affine maps from R^n to R^n.

Decides openness through four cross-checked conditions, computes Brouwer
degrees with certificates, computes branch sets with exact dimensions, and
certifies boundary-homeomorphism-to-global-homeomorphism claims on
combinatorial balls. All geometry is arbitrary-precision rational.
"""

from .complexes import (
    Face,
    InvalidComplexError,
    Located,
    NonManifoldError,
    SimplicialComplex,
    Simplex,
    Violation,
    validate_complex,
)
from .degree import (
    BoundaryImageError,
    DegreeCertificate,
    DomainMismatchError,
    HomotopyHypothesisViolation,
    IrregularValueError,
    PerturbationExhausted,
    degree,
    degree_at_regular,
    homotopy_degree_constant,
    is_regular_value,
    local_degree,
)
from .generators import GeneratedInstance, GenerationError, GenSpec, generate, oracle_fiber_count
from .linalg import Matrix, Rational, det, det_sign, rank, solve_square
from .openness import (
    BranchReport,
    OpennessVerdict,
    OracleConfig,
    branch_set,
    check_conditions,
    coherently_oriented,
    openness_oracle,
)
from .plmap import (
    ComponentGraph,
    DiscontinuityError,
    FiniteFiber,
    InfiniteFiber,
    PLMap,
    build_plmap,
    component_graph,
    fiber,
    finite_fibers,
    image_dimension,
    ingest_pieces,
    sign_profile,
)
from .whyburn import (
    BallMapInstance,
    Certified,
    InvalidBallError,
    Rejected,
    boundary_preimage_ok,
    boundary_restriction_injective,
    certify_ball_map,
    make_ball_instance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
