"""Obstruction calculus for monotone Lagrangians in symplectic cuts.

The package is organised by mechanism: `coring` builds graded cohomology
rings, `fold` reduces them mod N and tests 2-periodicity, `charnum` does
the exact characteristic-number arithmetic of the cut, `floer` encodes the
profile and collapse rules, `obstruct` combines them into verdicts, and
`cli` exposes everything on the command line.
"""

from .charnum import (
    CircleBundle,
    CutContext,
    NotMonotoneLevelError,
    TorsionConstraint,
    UndeterminableError,
    ZeroSectionReport,
    build_cut,
    maslov_exact,
    maslov_simply_connected,
    maslov_torsion_constraint,
    maslov_zero_section,
    pi1_total,
)
from .coring import (
    CohomologyRing,
    InvalidRingError,
    make_complex_projective,
    make_custom,
    make_product_spheres,
    make_sphere,
    make_torus,
)
from .floer import (
    COHOMOLOGY_MINUS_ENDS,
    EQUALS_COHOMOLOGY,
    oh_profiles,
    sphere_local_rule,
    ss_collapse_certificate,
)
from .fold import (
    InvalidModulusError,
    fold_mod,
    is_two_periodic,
    roots_of_unity_residual,
)
from .obstruct import (
    CONSTRAINED,
    INCONCLUSIVE,
    OBSTRUCTED,
    HypothesisViolation,
    ScanRow,
    TraceStep,
    Verdict,
    check_lens,
    check_product_spheres,
    check_simply_connected_in_cut,
    check_sphere,
    check_torus,
    exact_verdict,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "CircleBundle",
    "CohomologyRing",
    "COHOMOLOGY_MINUS_ENDS",
    "CONSTRAINED",
    "CutContext",
    "EQUALS_COHOMOLOGY",
    "HypothesisViolation",
    "INCONCLUSIVE",
    "InvalidModulusError",
    "InvalidRingError",
    "NotMonotoneLevelError",
    "OBSTRUCTED",
    "ScanRow",
    "TorsionConstraint",
    "TraceStep",
    "UndeterminableError",
    "Verdict",
    "ZeroSectionReport",
    "build_cut",
    "check_lens",
    "check_product_spheres",
    "check_simply_connected_in_cut",
    "check_sphere",
    "check_torus",
    "exact_verdict",
    "fold_mod",
    "is_two_periodic",
    "make_complex_projective",
    "make_custom",
    "make_product_spheres",
    "make_sphere",
    "make_torus",
    "maslov_exact",
    "maslov_simply_connected",
    "maslov_torsion_constraint",
    "maslov_zero_section",
    "oh_profiles",
    "pi1_total",
    "roots_of_unity_residual",
    "scan",
    "sphere_local_rule",
    "ss_collapse_certificate",
]
