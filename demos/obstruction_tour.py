"""
A tour of the obstruction verdicts
==================================

Each checker returns a Verdict carrying a status, the surviving
constraints, and a trace of the rules that fired.  This script walks
one representative case per topology and prints the full trace so the
logic can be audited line by line.
"""

from lagcut.obstruct import (
    check_lens,
    check_product_spheres,
    check_simply_connected_in_cut,
    check_sphere,
    check_torus,
    exact_verdict,
    scan,
)


def show(title, verdict):
    print("==", title)
    print("status:", verdict.status)
    if verdict.constraints:
        for key in sorted(verdict.constraints):
            print("  %s = %r" % (key, verdict.constraints[key]))
    for step in verdict.trace:
        print("  [%s] %s" % (step.cite, step.detail))
    print()


# A simply connected Lagrangian in the cut must carry grading 2 N_W.
# Past the dimension window that grading contradicts 2-periodicity,
# except on the complex projective profile in even dimension.
show("simply connected, d = 6, N = 8", check_simply_connected_in_cut(6, 4, 8))
show("simply connected, d = 5, N = 10", check_simply_connected_in_cut(5, 5, 10))

# Spheres: once the local model forces EqualsCohomology, the fold has
# to be 2-periodic.  Odd spheres fail that outright; the even-sphere
# grading 4 survives as the lone exception.
show("sphere d = 5, grading 8", check_sphere(5, 4, 8))
show("sphere d = 6, grading 4", check_sphere(6, 2, 4))

# Tori: equidistribution kills every grading above 2.
show("torus d = 6", check_torus(6, 2))

# Products of two spheres keep the dimension bound except at the two
# exceptional pairs, where the boundary grading survives the fold.
show("product S^1 x S^2", check_product_spheres(1, 2, 4))
show("product S^2 x S^4", check_product_spheres(2, 4, 8))

# Exact Lagrangians in the cotangent bundle itself: the Maslov number
# is 2m with m dividing the Euler number, squeezed by the dimension.
show("exact, d = 7, euler 6", exact_verdict(7, 6))
constraints = exact_verdict(7, 6, use_surjectivity=True).constraints
print("with the surjectivity rule, m =", constraints["m"])
print()

# Lens space fillings: a prime order above n + 1 forces m = 1.
show("lens p = 7, n = 3", check_lens(7, 3))

# Grids of parameters run through scan, which keeps hypothesis
# violations as per-row errors instead of aborting the sweep.
rows = scan("lens", {"p": (4, 7), "n": (1, 3)})
for row in rows:
    print(row.params, "->", row.verdict.constraints["m"])
