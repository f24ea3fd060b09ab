"""
Folding cohomology into a cyclic grading
========================================

A Lagrangian with minimal Maslov number N only remembers its Floer
grading modulo N.  This script folds familiar rings into Z/N, checks
the torus equidistribution identity, and cross-checks the binomial
resummation against its closed trigonometric form.
"""

from lagcut.coring import make_product_spheres, make_sphere, make_torus
from lagcut.fold import fold_mod, is_two_periodic, roots_of_unity_residual

# Folding a sphere leaves two units in the residue classes of 0 and d.
sphere = make_sphere(5)
for N in (2, 4, 8):
    profile = fold_mod(sphere, N)
    print("S^5 mod %d:" % N, profile, "2-periodic:", is_two_periodic(profile))

# The torus fold is a row of binomial class sums.  For even N the even
# and odd classes each total 2^(d-1), so the fold is 2-periodic exactly
# when every class holds 2^d / N.  For d = 8 and N = 4 the four classes
# are not equal, so a grading of 4 is impossible.
torus = make_torus(8)
profile = fold_mod(torus, 4)
print("T^8 mod 4:", profile)
print("equidistribution holds:", is_two_periodic(profile))
print("N * S_0 = %d versus 2^d = %d" % (4 * profile[0], 1 << 8))

# Beware the near miss at d = 6, N = 4.  The leading class sum matches
# 2^d / N on the nose, yet the profile is still lopsided, so the test
# must compare every class and not just the first.
profile = fold_mod(make_torus(6), 4)
print("d = 6, N = 4: N * S_0 = %d, 2^d = %d, holds: %s"
      % (4 * profile[0], 1 << 6, is_two_periodic(profile)))
print("T^6 mod 4:", profile)

# Products of spheres fold like four-term binomial rows.
prod = make_product_spheres(2, 4)
print("S^2 x S^4 mod 8:", fold_mod(prod, 8))

# Every class sum has a closed form as a roots-of-unity average.  The
# residual below is the distance between the integer resummation and
# the trigonometric evaluation; it should sit at machine precision.
for d, N in ((8, 4), (20, 6), (33, 9)):
    residual = roots_of_unity_residual(d, N)
    S0 = fold_mod(make_torus(d), N)[0]
    print("d=%d N=%d: S_0 = %d, trig residual = %.3g" % (d, N, S0, residual))
