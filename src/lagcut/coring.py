"""Z/2 cohomology of candidate submanifolds as graded dimension vectors.

A candidate is modelled by its Betti numbers over Z/2 together with the
degrees of a chosen generating set of the cup-product ring.  That is all
the downstream periodicity and collapse arguments ever consume: they
reason about degrees of generators, never about specific products.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


class InvalidRingError(ValueError):
    """Raised when a candidate ring violates a structural invariant."""


@dataclass(frozen=True)
class CohomologyRing:
    """Graded dimension data of H^*(L; Z/2) for a closed connected L.

    betti[k] is dim H^k, indexed 0..dim.  generator_degrees is a multiset
    (sorted tuple) of degrees of ring generators; multiplicity records the
    size of the generating set, which the spectral-sequence bookkeeping
    iterates over.
    """

    label: str
    dim: int
    betti: tuple[int, ...]
    generator_degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise InvalidRingError("invalid-dimension: dim must be >= 0")
        if len(self.betti) != self.dim + 1:
            raise InvalidRingError(
                f"betti vector must have {self.dim + 1} entries, got {len(self.betti)}"
            )
        if any(b < 0 for b in self.betti):
            raise InvalidRingError("betti numbers must be nonnegative")
        if self.betti[0] != 1:
            raise InvalidRingError("b_0 must be 1 (connected candidate)")
        dual = self.betti[::-1]
        if self.betti != dual:
            k = next(k for k, b in enumerate(self.betti) if b != dual[k])
            raise InvalidRingError(f"Poincare duality fails: b_{k} != b_{self.dim - k}")
        if any(g < 1 or g > self.dim for g in self.generator_degrees):
            raise InvalidRingError("generator degrees must lie in [1, dim]")
        reach = _degree_semigroup(self.generator_degrees, self.dim)
        for k in range(1, self.dim + 1):
            if self.betti[k] > 0 and not reach >> k & 1:
                raise InvalidRingError(
                    f"degree {k} carries cohomology but is not generated"
                )

    @property
    def total_dim(self) -> int:
        """Total Z/2 dimension of the cohomology."""
        return sum(self.betti)


def _degree_semigroup(degrees: tuple[int, ...], limit: int) -> int:
    # Bit set of the degrees in [1, limit] reachable as sums of generator
    # degrees (each >= 1), repetition allowed: powers of a generator count,
    # e.g. the square of a degree-2 class.  Doubling the shift for each
    # degree g closes the set under adding g in O(log(limit / g)) steps.
    mask = (1 << (limit + 1)) - 1
    reach = 1
    for g in set(degrees):
        shift = g
        while shift <= limit:
            reach |= (reach << shift) & mask
            shift *= 2
    return reach & ~1


def make_sphere(d: int) -> CohomologyRing:
    """Cohomology of the d-sphere: one class each in degrees 0 and d."""
    if d < 1:
        raise InvalidRingError("invalid-dimension: sphere needs d >= 1")
    betti = [0] * (d + 1)
    betti[0] = 1
    betti[d] += 1
    return CohomologyRing(f"sphere:d={d}", d, tuple(betti), (d,))


def make_torus(d: int) -> CohomologyRing:
    """Cohomology of the d-torus: b_k = C(d, k), generated in degree 1."""
    if d < 1:
        raise InvalidRingError("invalid-dimension: torus needs d >= 1")
    betti = tuple(comb(d, k) for k in range(d + 1))
    return CohomologyRing(f"torus:d={d}", d, betti, (1,) * d)


def make_product_spheres(l: int, m: int) -> CohomologyRing:
    """Cohomology of S^l x S^m with 1 <= l <= m, generated in degrees l, m."""
    if l < 1 or m < l:
        raise InvalidRingError("invalid-dimension: need 1 <= l <= m")
    d = l + m
    betti = [0] * (d + 1)
    for k in (0, l, m, d):
        betti[k] += 1
    return CohomologyRing(f"prodsph:l={l},m={m}", d, tuple(betti), (l, m))


def make_complex_projective(n: int) -> CohomologyRing:
    """Cohomology of CP^n: one class in each even degree up to 2n."""
    if n < 1:
        raise InvalidRingError("invalid-dimension: need n >= 1")
    betti = tuple(1 if k % 2 == 0 else 0 for k in range(2 * n + 1))
    return CohomologyRing(f"cp:n={n}", 2 * n, betti, (2,))


def make_custom(
    betti: list[int] | tuple[int, ...],
    generator_degrees: list[int] | tuple[int, ...],
    label: str = "custom",
) -> CohomologyRing:
    """Validated constructor for user-supplied rings.

    The structural invariants (connectedness, duality, generated degrees)
    are enforced by CohomologyRing itself; this only normalises the input.
    """
    betti_t = tuple(int(b) for b in betti)
    gens = tuple(sorted(int(g) for g in generator_degrees))
    return CohomologyRing(label, len(betti_t) - 1, betti_t, gens)


def tensor(a: CohomologyRing, b: CohomologyRing) -> CohomologyRing:
    """Graded tensor product: Betti vectors convolve, generators unite."""
    d = a.dim + b.dim
    betti = [0] * (d + 1)
    for i, bi in enumerate(a.betti):
        if bi == 0:
            continue
        for j, bj in enumerate(b.betti):
            betti[i + j] += bi * bj
    gens = tuple(sorted(a.generator_degrees + b.generator_degrees))
    return CohomologyRing(f"{a.label}*{b.label}", d, tuple(betti), gens)
