"""Exact verification of local points on polynomial systems over the t-line,
with an orbifold-curve multiplicity calculus and a claim-runner CLI."""

from .field_tower import (
    QQ,
    FieldElement,
    FieldTower,
    adjoin_quadratic,
    embed,
    is_square,
)
from .orbifold import (
    INF,
    MultiplicityProfile,
    OrbifoldCurve,
    degree,
    forced_component,
    is_general_type,
    perturb_finite,
    profile_stats,
    pullback_half_marks,
    semigroup_contains,
    semigroup_members,
)
from .series import (
    DEFAULT_PRECISION,
    Place,
    PuiseuxSeries,
    RationalFunction,
    is_square_local,
    r_function,
    series_sqrt,
    t_function,
)
from .variety import (
    FormalSqrt,
    PointAssignment,
    PolynomialSystem,
    lift_along_cover,
    parse_system,
    print_system,
    sample_square_lift_property,
    solve_square,
    valuation_case_predicates,
    verify_point,
)
from .claims import (
    Claim,
    ClaimParams,
    ClaimReport,
    builtin_registry,
    load_claim_file,
    run_all,
    run_claim,
)

__version__ = "0.1.0"
