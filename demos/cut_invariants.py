"""
Characteristic numbers of a monotone cut
========================================

Build the cut of a cotangent bundle over a prequantisation circle
bundle at a negative level, then read off the exact invariants that
every later obstruction argument consumes.
"""

from fractions import Fraction

from lagcut.charnum import (
    CircleBundle,
    NotMonotoneLevelError,
    build_cut,
    maslov_torsion_constraint,
    maslov_zero_section,
    pi1_total,
)

# Step 1: fix the bundle.  total_dim is the dimension of the total
# space; euler_number is the Euler number of the circle bundle over
# its simply connected base.
bundle = CircleBundle(total_dim=3, euler_number=1)
print("bundle:", bundle)
print("pi_1 of the total space:", pi1_total(bundle))

# Step 2: cut at a negative level.  All coefficients stay exact
# rationals, printed here as multiples of pi.
ctx = build_cut(bundle, Fraction(-1, 2))
print("chern number of the cut:", ctx.chern_number)
print("symplectic coefficient:", ctx.omega_coeff, "* pi")
print("ambient monotonicity constant K_W:", ctx.K_W, "* pi")
print("Lagrangian constant K_L:", ctx.K_L, "* pi")
print("K_W equals 2 * K_L:", ctx.K_W == 2 * ctx.K_L)

# Step 3: the zero section is a distinguished monotone Lagrangian in
# the cut.  Its minimal Maslov number is always 2, independent of the
# Euler number, because the relative disc class generating pi_2 has
# Maslov index 2.
report = maslov_zero_section(ctx)
print("zero section Maslov number:", report.N_V)
print("relative pi_2:", report.pi2_rel)
print("generator disc area:", report.disc_area, "* pi")

# Step 4: levels at or above zero never give a monotone cut, and the
# constructor refuses them with a named hypothesis violation.
try:
    build_cut(bundle, 0)
except NotMonotoneLevelError as err:
    print("rejected level 0:", err)

# Step 5: a torsion fundamental group only constrains the Maslov
# number up to the torsion multiplier.  Here pi_1 = Z/3 and the
# ambient Chern number is 1, so 2 must divide 3 * N_L, forcing the
# reduced divisor 2.
constraint = maslov_torsion_constraint(N_W=1, q=3)
print("torsion constraint: %d divides %d * N_L" % (constraint.modulus, constraint.multiplier))
print("reduced divisor:", constraint.reduced_divisor)
print("N_L = 4 admissible:", constraint.satisfied(4))
print("N_L = 3 admissible:", constraint.satisfied(3))
