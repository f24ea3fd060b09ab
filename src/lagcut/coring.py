"""Z/2 cohomology of candidate submanifolds as graded dimensions.

A candidate is modelled by its Betti numbers over Z/2 together with the
degrees of a chosen generating set of the cup-product ring.  That is all
the downstream periodicity and collapse arguments ever consume: they
reason about degrees of generators, never about specific products.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import gcd
from operator import index
from typing import NamedTuple


class InvalidRingError(ValueError):
    """Raised when a candidate ring violates a structural invariant."""


# Upper bound on the decimal digits of an integer argument of a check or a
# ring constructor, refused before any text is formatted: labels, traces and
# reports print their arguments, d + 2 or 2 N_e, and CPython prints ints of
# at most 4,300 digits.  The command line applies the same bound to every
# number the user writes.
MAX_DIGITS = 4096
_DIGITS_BOUND = 10**MAX_DIGITS


def _check_digits(what: str, value: int) -> None:
    if abs(value) >= _DIGITS_BOUND:
        raise ValueError(f"{what} has more than {MAX_DIGITS} digits")


# Largest torus dimension.  The binomial row of the d-torus sums to 2^d,
# which has 2,467 decimal digits at d = 8192: every torus number the CLI
# prints stays under CPython's default limit of 4,300 digits for int -> str.
MAX_TORUS_DIM = 1 << 13

# Largest top degree of a ring divided by the gcd g of its generator
# degrees: the bit set that decides which degrees are generated has that
# many bits.  Just under the limit, checking S^1 x S^(2^24 - 1) takes about
# 45 ms and 42 MB, the bit set being read back as a string of 2^24 digits;
# make_product_spheres builds it unchecked and applies only this bound.
MAX_REDUCED_DEGREE = 1 << 24

# Largest number of support pairs make_complex_projective builds (CP^n has
# n + 1).  Just under the limit CP^n takes about 0.3 s and 104 MB to build,
# and checking it as CohomologyRing(*ring) another 0.25 s and 64 MB.
MAX_SUPPORT_PAIRS = 1 << 20

# make_sphere, make_torus and make_product_spheres return frozen rings from
# one-entry memos keyed on their exact int arguments (typed, so
# make_torus(True) keeps its label).  A check asks for its ring again at each
# grading, and a scan meets its rings one after another in its outer loops,
# so the last ring of each factory is the only one asked for again.


class _RingFields(NamedTuple):
    label: str
    dim: int
    support: tuple[tuple[int, int], ...]
    generator_degrees: tuple[int, ...]


class CohomologyRing(_RingFields):
    """Graded dimension data of H^*(L; Z/2) for a closed connected L.

    support holds the pairs (k, dim H^k) with nonzero dimension, by
    increasing degree k in 0..dim, so a sphere holds two pairs whatever
    its dimension.  betti is the dense view b_0..b_dim, built on each
    access.  generator_degrees is a multiset (sorted tuple) of degrees of
    ring generators; multiplicity records the size of the generating set,
    which the spectral-sequence bookkeeping iterates over.  Pass both as
    tuples; make_custom builds a ring from a dense vector.  The constructor,
    make_custom, _make and _replace check every invariant of the rings they
    are handed.  The sphere, torus, product and CP^n factories build rings
    valid by construction and check only their parameters (see _trusted);
    the sphere, torus and product factories keep their last ring, the only
    one a check or a scan asks for again.
    """

    __slots__ = ()

    def __new__(
        cls,
        label: str,
        dim: int,
        support: tuple[tuple[int, int], ...],
        generator_degrees: tuple[int, ...],
    ) -> CohomologyRing:
        # the ring invariants, in check order
        if dim < 0:
            raise InvalidRingError("invalid-dimension: dim must be >= 0")
        degrees = [k for k, _ in support]
        dims = [b for _, b in support]
        if (
            0 in dims
            or degrees != sorted(set(degrees))
            or degrees and (degrees[0] < 0 or degrees[-1] > dim)
        ):
            raise InvalidRingError(
                "support must list nonzero dimensions at increasing degrees in [0, dim]"
            )
        if dims and min(dims) < 0:
            raise InvalidRingError("betti numbers must be nonnegative")
        if degrees[:1] != [0] or dims[0] != 1:
            raise InvalidRingError("b_0 must be 1 (connected candidate)")
        if dims != dims[::-1] or degrees != [dim - k for k in reversed(degrees)]:
            # the failing degrees pair up as k, dim - k: report the lower
            at = dict(support)
            k = min(min(j, dim - j) for j, b in at.items() if at.get(dim - j, 0) != b)
            raise InvalidRingError(f"Poincare duality fails: b_{k} != b_{dim - k}")
        if generator_degrees and (
            min(generator_degrees) < 1 or max(generator_degrees) > dim
        ):
            raise InvalidRingError("generator degrees must lie in [1, dim]")
        ungenerated = _ungenerated(degrees[1:], generator_degrees)
        if ungenerated:
            raise InvalidRingError(
                f"degree {ungenerated[0]} carries cohomology but is not generated"
            )
        return super().__new__(cls, label, dim, support, generator_degrees)

    @classmethod
    def _make(cls, iterable) -> CohomologyRing:
        # _replace builds through _make, which would skip the checks
        return cls(*iterable)

    # tuple.__new__(cls, fields): the factories' rings, unchecked
    _trusted = classmethod(tuple.__new__)

    @property
    def betti(self) -> tuple[int, ...]:
        """Dense Betti vector: betti[k] is dim H^k, indexed 0..dim."""
        dense = [0] * (self.dim + 1)
        for k, b in self.support:
            dense[k] = b
        return tuple(dense)

    def betti_number(self, k: int) -> int:
        """dim H^k, zero for every degree outside the support."""
        i = bisect_left(self.support, (k,))
        if i < len(self.support) and self.support[i][0] == k:
            return self.support[i][1]
        return 0

    @property
    def total_dim(self) -> int:
        """Total Z/2 dimension of the cohomology."""
        return sum(b for _, b in self.support)


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


def _check_reduced_degree(top: int) -> None:
    if top > MAX_REDUCED_DEGREE:
        raise InvalidRingError(
            f"invalid-dimension: top degree over the generator gcd is {top}, "
            f"above the limit of {MAX_REDUCED_DEGREE}"
        )


def _ungenerated(degrees: list[int], generator_degrees: tuple[int, ...]) -> list[int]:
    # The degrees (each >= 1) that are not sums of generator degrees.  Every
    # sum is a multiple of g = gcd(generator_degrees), and k is one exactly
    # when k / g is a sum of the generator degrees divided by g, so the bit
    # set needs max(degrees) / g bits: one for a sphere, whatever d is.
    g = gcd(*generator_degrees)
    if not degrees or not g:
        return degrees
    top = degrees[-1] // g
    _check_reduced_degree(top)
    reach = _degree_semigroup(tuple(x // g for x in generator_degrees), top)
    # bits[i] is bit i of reach, read in one pass
    bits = bin(reach)[:1:-1]
    return [k for k in degrees if k % g or bits[k // g : k // g + 1] != "1"]


def make_sphere(d: int) -> CohomologyRing:
    """Cohomology of the d-sphere: one class each in degrees 0 and d."""
    return _sphere(d)


@lru_cache(maxsize=1, typed=True)
def _sphere(d: int) -> CohomologyRing:
    if d < 1:
        raise InvalidRingError("invalid-dimension: sphere needs d >= 1")
    _check_digits("d", d)
    index(d)  # refuses a float d, as range and gcd do in the other factories
    return CohomologyRing._trusted((f"sphere:d={d}", d, ((0, 1), (d, 1)), (d,)))


def binomial_row(d: int) -> list[int]:
    """The binomial row C(d, 0), ..., C(d, d) for 0 <= d <= MAX_TORUS_DIM.

    One pass of C(d, k + 1) = C(d, k) * (d - k) / (k + 1), exact at each step.
    """
    if not 0 <= d <= MAX_TORUS_DIM:
        _check_digits("d", d)
        raise InvalidRingError(
            f"invalid-dimension: torus dimension {d} is outside [0, {MAX_TORUS_DIM}]"
        )
    row = [1]
    for k in range(d):
        row.append(row[-1] * (d - k) // (k + 1))
    return row


def make_torus(d: int) -> CohomologyRing:
    """Cohomology of the d-torus: b_k = C(d, k), generated in degree 1."""
    return _torus(d)


@lru_cache(maxsize=1, typed=True)
def _torus(d: int) -> CohomologyRing:
    if d < 1:
        raise InvalidRingError("invalid-dimension: torus needs d >= 1")
    support = tuple(enumerate(binomial_row(d)))
    return CohomologyRing._trusted((f"torus:d={d}", d, support, (1,) * d))


def make_product_spheres(l: int, m: int) -> CohomologyRing:
    """Cohomology of S^l x S^m with 1 <= l <= m, generated in degrees l, m."""
    return _product_spheres(l, m)


@lru_cache(maxsize=1, typed=True)
def _product_spheres(l: int, m: int) -> CohomologyRing:
    if l < 1 or m < l:
        raise InvalidRingError("invalid-dimension: need 1 <= l <= m")
    _check_digits("m", m)
    d = l + m
    _check_reduced_degree(d // gcd(l, m))
    support = ((0, 1), (l, 2), (d, 1)) if l == m else ((0, 1), (l, 1), (m, 1), (d, 1))
    return CohomologyRing._trusted((f"prodsph:l={l},m={m}", d, support, (l, m)))


def make_complex_projective(n: int) -> CohomologyRing:
    """Cohomology of CP^n: one class in each even degree up to 2n."""
    if n < 1:
        raise InvalidRingError("invalid-dimension: need n >= 1")
    if n + 1 > MAX_SUPPORT_PAIRS:
        _check_digits("n", n)
        raise InvalidRingError(
            f"invalid-dimension: CP^{n} has {n + 1} support pairs, "
            f"above the limit of {MAX_SUPPORT_PAIRS}"
        )
    support = tuple((k, 1) for k in range(0, 2 * n + 1, 2))
    return CohomologyRing._trusted((f"cp:n={n}", 2 * n, support, (2,)))


def make_custom(
    betti: list[int] | tuple[int, ...],
    generator_degrees: list[int] | tuple[int, ...],
    label: str = "custom",
) -> CohomologyRing:
    """Validated constructor for user-supplied rings from a dense vector.

    The structural invariants (connectedness, duality, generated degrees)
    are enforced by CohomologyRing itself; this only normalises the input.
    """
    dense = [int(b) for b in betti]
    support = tuple((k, b) for k, b in enumerate(dense) if b)
    gens = tuple(sorted(int(g) for g in generator_degrees))
    for b in dense:
        _check_digits("a Betti number", b)
    return CohomologyRing(label, len(dense) - 1, support, gens)
