"""Admissible Floer-homology profiles and the collapse certificate.

The spectral sequence is handled as a degree certificate, never as pages
with actual differentials: each collapse argument in scope is of the form
"every differential leaving a ring generator lands in an empty degree".
"""

from __future__ import annotations

from dataclasses import dataclass

from .coring import CohomologyRing, make_sphere
from .fold import FoldedProfile, _fold_pairs

EQUALS_COHOMOLOGY = "EqualsCohomology"
COHOMOLOGY_MINUS_ENDS = "CohomologyMinusEnds"
TRIVIAL = "Trivial"

_KINDS = (EQUALS_COHOMOLOGY, COHOMOLOGY_MINUS_ENDS, TRIVIAL)


@dataclass(frozen=True)
class HFProfile:
    """One admissible shape of the Floer homology of a candidate."""

    kind: str
    source: CohomologyRing

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")

    def _pairs(self) -> tuple[tuple[int, int], ...]:
        # (degree, dimension) pairs summing to the profile degree by degree;
        # the ends subtract from the support, so a degree may repeat
        ring = self.source
        if self.kind == EQUALS_COHOMOLOGY:
            return ring.support
        if self.kind == COHOMOLOGY_MINUS_ENDS:
            return ((0, -1), (ring.dim, -1)) + ring.support
        return ()

    def graded_dims(self) -> tuple[int, ...]:
        """Per-degree dimensions of the profile, indexed 0..dim."""
        dims = [0] * (self.source.dim + 1)
        for k, b in self._pairs():
            dims[k] += b
        return tuple(dims)

    def fold(self, N: int) -> FoldedProfile:
        return _fold_pairs(self._pairs(), N)

    @property
    def total_dim(self) -> int:
        return sum(b for _, b in self._pairs())


@dataclass(frozen=True)
class PageCheck:
    """One differential target inspected by the collapse certificate."""

    page: int
    generator_degree: int
    target_degree: int
    target_betti: int


@dataclass(frozen=True)
class CollapseCertificate:
    """Degree-based proof that every differential vanishes on generators.

    nu is the last page that could carry a differential; per_page lists,
    for each page r = 1..nu and each generator degree g, the target degree
    g + 1 - r * N_L together with the Betti number found there.  The
    certificate is valid exactly when every target is empty, which forces
    the sequence to collapse immediately.
    """

    N_L: int
    nu: int
    per_page: tuple[PageCheck, ...]

    @property
    def valid(self) -> bool:
        return all(c.target_betti == 0 for c in self.per_page)


def ss_collapse_certificate(ring: CohomologyRing, N_L: int) -> CollapseCertificate | None:
    """Certify collapse by checking all generator-degree targets are empty.

    Page r differentials drop degree by r * N_L - 1, so a class of degree
    g is sent to degree g + 1 - r * N_L; out-of-range degrees carry zero.
    Returns None when some target is nonempty (collapse is then not forced
    by degree reasons alone).
    """
    if N_L < 2:
        raise ValueError("collapse bookkeeping needs N_L >= 2")
    nu = (ring.dim + 1) // N_L
    checks = []
    for r in range(1, nu + 1):
        for g in sorted(set(ring.generator_degrees)):
            target = g + 1 - r * N_L
            checks.append(PageCheck(r, g, target, ring.betti_number(target)))
    cert = CollapseCertificate(N_L=N_L, nu=nu, per_page=tuple(checks))
    return cert if cert.valid else None


def oh_profiles(ring: CohomologyRing, N_L: int) -> frozenset[HFProfile]:
    """Profiles allowed by the Maslov-range dichotomy.

    Above dim + 1 the Floer homology must equal the cohomology; exactly at
    dim + 1 it may also lose the two end degrees; below that the rule is
    silent and the empty set is returned.
    """
    if N_L < 2:
        raise ValueError("profile dichotomy needs N_L >= 2")
    n = ring.dim
    if N_L >= n + 2:
        return frozenset({HFProfile(EQUALS_COHOMOLOGY, ring)})
    if N_L == n + 1:
        return frozenset(
            {
                HFProfile(EQUALS_COHOMOLOGY, ring),
                HFProfile(COHOMOLOGY_MINUS_ENDS, ring),
            }
        )
    return frozenset()


def sphere_local_rule(d: int, N_W: int) -> HFProfile | None:
    """Local model rule for spheres: HF equals cohomology unless 2 N_W | d+1."""
    if d < 2:
        raise ValueError("sphere rule needs d >= 2")
    if N_W < 1:
        raise ValueError("sphere rule needs N_W >= 1")
    if (d + 1) % (2 * N_W) == 0:
        return None
    return HFProfile(EQUALS_COHOMOLOGY, make_sphere(d))
