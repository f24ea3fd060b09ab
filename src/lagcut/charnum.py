"""Symbolic class, monotonicity and Maslov data for cuts of cotangent bundles.

Every cohomology class in scope is a scalar multiple of the pulled back
Euler generator, so classes are stored as a single exact rational: the
coefficient in units of pi.  No floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple


class NotMonotoneLevelError(ValueError):
    """Raised when a cut level does not produce a monotone cut (xi >= 0)."""

    cite = "not-monotone-level"


class UndeterminableError(ValueError):
    """Raised when a quantity is not determined by the stored hypotheses."""

    cite = "undeterminable"


class _BundleFields(NamedTuple):
    total_dim: int
    euler_number: int
    base_simply_connected: bool
    euler_nontrivial_on_pi2: bool


class CircleBundle(_BundleFields):
    """A principal circle bundle V -> B of total dimension d.

    euler_number is the nonnegative generator of the pairing of the Euler
    class with spheres in the base.  The two flags record the standing
    hypotheses of the obstruction theorems.
    """

    __slots__ = ()

    def __new__(
        cls,
        total_dim: int,
        euler_number: int,
        base_simply_connected: bool = True,
        euler_nontrivial_on_pi2: bool = True,
    ) -> CircleBundle:
        if total_dim < 2:
            raise ValueError("total_dim must be >= 2")
        if euler_number < 0:
            raise ValueError("euler_number must be nonnegative")
        if euler_nontrivial_on_pi2 and euler_number < 1:
            raise ValueError(
                "euler_nontrivial_on_pi2 requires a positive euler number"
            )
        return super().__new__(
            cls, total_dim, euler_number, base_simply_connected, euler_nontrivial_on_pi2
        )

    @classmethod
    def _make(cls, iterable) -> CircleBundle:
        # _replace builds through _make, which would skip the checks
        return cls(*iterable)


class CutContext(NamedTuple):
    """Derived exact data of the cut at a fixed negative level.

    Rational fields are coefficients of pi.  omega_coeff scales the pulled
    back Euler generator in the symplectic class of the cut; K_W and K_L
    are the ambient and Lagrangian monotonicity constants.
    """

    bundle: CircleBundle
    level: Fraction
    chern_number: int
    omega_coeff: Fraction
    K_W: Fraction
    K_L: Fraction

    @property
    def monotone(self) -> bool:
        return self.level < 0


class ZeroSectionReport(NamedTuple):
    """Maslov data of the zero section inside the cut.

    The relative homotopy group of discs on the zero section is infinite
    cyclic; the generator has Maslov number 2 and disc area -2 pi xi.
    """

    N_V: int
    pi2_rel: str
    monotone_constant: Fraction
    disc_area: Fraction


class TorsionConstraint(NamedTuple):
    """Divisibility constraint on a Maslov number from torsion pi_1.

    Encodes: modulus divides multiplier * N_L.  The reduced divisor is the
    equivalent single divisor of N_L itself, >= 0; it is 0 when only N_L = 0
    satisfies the constraint, and 1 when every N_L does.
    """

    modulus: int
    multiplier: int

    def satisfied(self, N_L: int) -> bool:
        if self.modulus == 0:
            return self.multiplier * N_L == 0
        return (self.multiplier * N_L) % self.modulus == 0

    @property
    def reduced_divisor(self) -> int:
        g = gcd(self.modulus, self.multiplier)
        return abs(self.modulus) // g if g else 1


def build_cut(bundle: CircleBundle, level: Fraction | int | str) -> CutContext:
    """Cut the cotangent bundle at a negative level and derive its classes.

    The first Chern number of the cut equals the Euler number of the
    bundle; the symplectic class is -2 xi times pi times the pulled back
    Euler generator; aligned monotonicity constants follow as K_W = -2 xi
    and K_L = -xi, with K_W = 2 K_L exactly.
    """
    xi = Fraction(level)
    if xi >= 0:
        raise NotMonotoneLevelError(
            f"not-monotone-level: cut level must be negative, got {xi}"
        )
    return CutContext(
        bundle=bundle,
        level=xi,
        chern_number=bundle.euler_number,
        omega_coeff=-2 * xi,
        K_W=-2 * xi,
        K_L=-xi,
    )


def pi1_total(bundle: CircleBundle) -> str:
    """Fundamental group of the total space over a simply connected base."""
    if not bundle.base_simply_connected:
        raise UndeterminableError(
            "pi_1 of the total space needs a simply connected base"
        )
    n = bundle.euler_number
    if n == 0:
        return "Z"
    if n == 1:
        return "trivial"
    return f"Z/{n}"


def maslov_zero_section(ctx: CutContext) -> ZeroSectionReport:
    """Maslov number 2 and exact disc data for the zero section."""
    return ZeroSectionReport(
        N_V=2,
        pi2_rel="Z",
        monotone_constant=-ctx.level,
        disc_area=-2 * ctx.level,
    )


def maslov_simply_connected(N_W: int) -> int:
    """Maslov number of a simply connected monotone candidate: 2 N_W."""
    if N_W < 0:
        raise ValueError("N_W must be nonnegative")
    return 2 * N_W


def maslov_torsion_constraint(N_W: int, q: int) -> TorsionConstraint:
    """Constraint 2 N_W | q N_L for candidates with q-torsion pi_1."""
    if q == 0:
        raise ValueError("torsion exponent q must be nonzero")
    return TorsionConstraint(modulus=2 * N_W, multiplier=abs(q))


def maslov_exact(m: int) -> int:
    """Maslov number 2m for an exact candidate of pi_1 index m."""
    if m < 1:
        raise ValueError("index m must be >= 1")
    return 2 * m
