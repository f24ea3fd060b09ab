"""The Floer-theoretic rules, as plain functions of the grading data.

The spectral sequence is handled as a degree certificate, never as pages
with actual differentials: each collapse argument in scope is of the form
"every differential leaving a ring generator lands in an empty degree".
"""

from __future__ import annotations

from .coring import CohomologyRing

EQUALS_COHOMOLOGY = "EqualsCohomology"
COHOMOLOGY_MINUS_ENDS = "CohomologyMinusEnds"


def ss_collapse_certificate(ring: CohomologyRing, N_L: int) -> int | None:
    """Certify collapse by checking all generator-degree targets are empty.

    Page r differentials drop degree by r * N_L - 1, so a class of degree
    g is sent to degree g + 1 - r * N_L; out-of-range degrees carry zero.
    Returns nu, the last page that could carry a differential, when every
    target on pages 1..nu is empty, and None at the first occupied one
    (collapse is then not forced by degree reasons alone).
    """
    if N_L < 2:
        raise ValueError("collapse bookkeeping needs N_L >= 2")
    nu = (ring.dim + 1) // N_L
    if not nu:
        # above dim + 1 no page carries a differential
        return 0
    generators = set(ring.generator_degrees)
    top = max(generators, default=0) + 1
    for r in range(1, nu + 1):
        if top < r * N_L:  # every target from page r on lies below degree 0
            return nu
        for g in generators:
            if ring.betti_number(g + 1 - r * N_L):
                return None
    return nu


def oh_profiles(dim: int, N_L: int) -> tuple[str, ...]:
    """Floer-homology shapes allowed by the Maslov-range dichotomy.

    Above dim + 1 the Floer homology must equal the cohomology; exactly at
    dim + 1 it may also lose the two end degrees; below that the rule is
    silent and the empty tuple is returned.
    """
    if N_L < 2:
        raise ValueError("profile dichotomy needs N_L >= 2")
    if N_L >= dim + 2:
        return (EQUALS_COHOMOLOGY,)
    if N_L == dim + 1:
        return (EQUALS_COHOMOLOGY, COHOMOLOGY_MINUS_ENDS)
    return ()


def sphere_local_rule(d: int, N_W: int) -> bool:
    """Local model rule for spheres: HF equals cohomology unless 2 N_W | d+1."""
    if d < 2:
        raise ValueError("sphere rule needs d >= 2")
    if N_W < 1:
        raise ValueError("sphere rule needs N_W >= 1")
    return (d + 1) % (2 * N_W) != 0
