"""Acceptance suite: one test per headline capability, with time budgets.

Each test prints a single [PASS] line on success so a verbose run reads
as a checklist.  All comparisons are exact integer or rational equality
except the trig cross-check, which has an explicit 1e-6 tolerance.
"""

import json
import time

from lagcut.cli import run
from lagcut.coring import (
    binomial_row,
    make_complex_projective,
    make_custom,
    make_product_spheres,
    make_sphere,
    make_torus,
)
from lagcut.fold import fold_mod, roots_of_unity_residual
from lagcut.obstruct import (
    INCONCLUSIVE,
    OBSTRUCTED,
    check_lens,
    check_product_spheres,
    check_sphere,
    scan,
)
from oracles import brute_fold, is_prime, pascal_row, ramanujan_row


def report(number: int, summary: str, elapsed: float) -> None:
    print(f"[PASS] criterion {number}: {summary} ({elapsed * 1000:.1f} ms)")


def test_criterion_1_class_calculator():
    argv = ["classes", "--euler", "1", "--level", "-1/2", "--format", "json"]
    run(argv)  # warm the import and parser paths
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        code, out = run(argv)
        best = min(best, time.perf_counter() - start)
    assert code == 0
    doc = json.loads(out)
    assert doc["N_W"] == 1
    assert doc["omega_W"] == {"num": 1, "den": 1, "unit": "pi"}
    assert doc["K_W"] == {"num": 1, "den": 1, "unit": "pi"}
    assert doc["K_L"] == {"num": 1, "den": 2, "unit": "pi"}
    assert doc["N_V"] == 2
    assert doc["pi2_rel"] == "Z"
    assert best < 0.010
    report(1, "class calculator exact at euler 1, level -1/2", best)


def torus_sums(d, N):
    # S_0..S_{N-1} of the d-torus; d = 0 is no torus, so its row, [1], is
    # folded by the reference bucketing
    return fold_mod(make_torus(d), N) if d else tuple(brute_fold(binomial_row(0), N))


def test_criterion_2_torus_reproduction():
    start = time.perf_counter()
    rows = scan("torus", {"d": range(2, 17), "euler": range(1, 9)})
    assert len(rows) == 15 * 8
    for row in rows:
        assert row.error is None
        assert row.verdict.status == "Constrained"
        assert row.verdict.constraints["N"] == [2]
    # the strict inequality N*S_0 > 2^d is witnessed at d = 2N for every
    # even grading in range
    for N in range(4, 33, 2):
        d = 2 * N
        assert N * fold_mod(make_torus(d), N)[0] > (1 << d), (d, N)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "torus gradings all forced to N = 2 on the 15x8 grid", elapsed)


def test_criterion_3_roots_of_unity_identity():
    start = time.perf_counter()
    ram = {M: ramanujan_row(M) for M in range(2, 65)}
    row = [1]
    for d in range(0, 65):
        if d > 0:
            row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        trace = {
            M: sum(row[i] * ram[M][i % M] for i in range(d + 1))
            for M in range(2, 65)
        }
        pow2 = 1 << d
        for N in range(2, 65):
            lhs = N * torus_sums(d, N)[0] - pow2
            rhs = sum(trace[M] for M in range(2, N + 1) if N % M == 0)
            assert lhs == rhs, (d, N)
            assert roots_of_unity_residual(d, N) <= 1e-6, (d, N)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, "cyclotomic oracle and trig form agree for d <= 64, N <= 64", elapsed)


def test_criterion_4_sphere_reproduction():
    start = time.perf_counter()
    surviving = set()
    for d in range(2, 41):
        for N in range(3, 2 * d + 3):
            verdict = check_sphere(d, N, N)  # euler chosen so N | 2 N_e
            if (d + 1) % N == 0:
                continue  # forcing rules not active along this stratum
            if verdict.status == INCONCLUSIVE:
                surviving.add((N, d))
            else:
                assert verdict.status == OBSTRUCTED, (d, N)
    expected = {(4, d) for d in range(2, 41) if d % 4 == 2}
    assert surviving == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, "sphere survivors are exactly grading 4 with d = 2 mod 4", elapsed)


def test_criterion_5_product_spheres_reproduction():
    start = time.perf_counter()
    boundary_retained = set()
    for m in range(1, 21):
        for l in range(1, m):
            verdict = check_product_spheres(l, m, m + 2)
            if verdict.constraints["exceptional_N"]:
                boundary_retained.add((l, m))
    assert boundary_retained == {(1, 2), (4, 6)}

    for m in range(1, 21):
        for l in range(1, m):
            for N in range(m + 3, 2 * (l + m) + 5):
                if N % 2:
                    continue
                verdict = check_product_spheres(l, m, N)
                assert N in verdict.constraints["excluded_N"], (l, m, N)

    flagged = set()
    for l in range(1, 21):
        for euler in (l + 2, 2 * (l + 2)):
            verdict = check_product_spheres(l, l, euler)
            for N in verdict.constraints["discrepancy_N"]:
                flagged.add((l, N))
    assert flagged == {(2, 4)}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(5, "product-sphere exceptions (1,2), (4,6) and flag at (2,2)", elapsed)


def test_criterion_6_lens_table():
    start = time.perf_counter()
    for p in range(2, 14):
        for n in range(1, 7):
            verdict = check_lens(p, n)
            expected = [m for m in range(1, p + 1) if p % m == 0 and m <= n + 1]
            assert verdict.constraints["m"] == expected, (p, n)
            if is_prime(p) and p > n + 1:
                assert verdict.constraints["m"] == [1], (p, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.100
    report(6, "lens admissible-index table for p <= 13, n <= 6", elapsed)


def test_criterion_7_property_suites():
    start = time.perf_counter()

    # fold and binomial resummation against the folded Pascal row, every residue
    for d in range(1, 21):
        torus = make_torus(d)
        row = pascal_row(d)
        for N in range(1, 2 * d + 5):
            expected = tuple(brute_fold(row, N))
            assert fold_mod(torus, N) == expected, (d, N)

    # Pascal induction stability
    for d0 in range(0, 31):
        for N in range(1, min(d0 + 4, 35)):
            lhs = torus_sums(d0 + 1, N)
            sums = torus_sums(d0, N)
            for j in range(N):
                assert lhs[j] == sums[j] + sums[(j - 1) % N], (d0, N, j)

    # Poincare duality across every constructor
    rings = (
        [make_sphere(d) for d in range(1, 16)]
        + [make_torus(d) for d in range(1, 11)]
        + [make_product_spheres(l, m) for m in range(1, 9) for l in range(1, m + 1)]
        + [make_complex_projective(n) for n in range(1, 9)]
    )
    rings.append(make_custom([1, 0, 1, 1, 1, 1, 0, 1], [2, 3], "S^3 x CP^2"))
    rings.append(make_custom([1, 3, 3, 2, 3, 3, 1], [1, 1, 1, 3], "T^2 x S^1 x S^3"))
    for ring in rings:
        for k in range(ring.dim + 1):
            assert ring.betti[k] == ring.betti[ring.dim - k], ring.label
    assert list(make_torus(10).betti) == pascal_row(10)

    elapsed = time.perf_counter() - start
    report(7, "fold, Pascal and duality property suites", elapsed)
