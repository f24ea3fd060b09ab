"""Tests for Z/N folding, the sum identities, and the trig cross-check."""

import json
import random
import sys
import threading
import tracemalloc
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagcut.cli import run
from lagcut.coring import (
    MAX_TORUS_DIM,
    InvalidRingError,
    make_complex_projective,
    make_custom,
    make_product_spheres,
    make_sphere,
    make_torus,
)
from lagcut.fold import (
    MAX_FOLD_MODULUS,
    InvalidModulusError,
    _fold_ring,
    fold_mod,
    is_two_periodic,
    roots_of_unity_residual,
)
from oracles import brute_fold, pascal_row


def test_fold_dims_basic():
    profile = fold_mod(make_custom((1, 0, 2, 0, 1), [2]), 4)
    assert type(profile) is tuple
    assert profile == (2, 0, 2, 0)
    assert sum(profile) == 4


def test_fold_dims_modulus_one_collapses_everything():
    assert fold_mod(make_custom((1, 2, 2, 1), [1]), 1) == (6,)


def test_fold_preserves_total_dimension():
    # random Poincare-dual vectors, every degree generated by a degree-1 class
    rng = random.Random(7)
    for _ in range(300):
        half = [rng.randrange(0, 5) for _ in range(rng.randrange(0, 15))]
        dims = [1] + half + [rng.randrange(0, 5)] * rng.randrange(0, 2) + half[::-1] + [1]
        N = rng.randrange(1, 12)
        profile = fold_mod(make_custom(dims, [1]), N)
        assert type(profile) is tuple
        assert sum(profile) == sum(dims)
        assert list(profile) == brute_fold(dims, N)


def dual_vectors(least=0):
    # Poincare-dual Betti vectors, every degree generated by a degree-1 class
    # and every b_k >= least
    half = st.lists(st.integers(least, 4), max_size=12)
    middle = st.lists(st.integers(least, 4), max_size=1)
    return st.builds(lambda h, m: [1, *h, *m, *h[::-1], 1], half, middle)


# rings with a class in every degree, which _fold_ring folds by slices
dense_rings = st.one_of(
    st.integers(1, 40).map(make_torus),
    dual_vectors(least=1).map(lambda dims: make_custom(dims, [1])),
)

rings = st.one_of(
    dense_rings,
    st.integers(1, 60).map(make_sphere),
    st.tuples(st.integers(1, 30), st.integers(1, 30)).map(lambda t: make_product_spheres(t[0], t[0] + t[1])),
    st.integers(1, 30).map(lambda l: make_product_spheres(l, l)),
    st.integers(1, 25).map(make_complex_projective),
    dual_vectors().map(lambda dims: make_custom(dims, [1])),
)


def folded(ring, N):
    # repr(fold_mod(ring, N)), its 2-periodicity and S_0, rebuilt from
    # _fold_ring's text up to the last nonzero entry and the zeros after it.
    # A text that ends in a zero rebuilds to None, which no fold equals, so
    # the thread tests see it too: an assert failing in a thread fails no test.
    text, zeros, periodic, s0 = _fold_ring(ring, N)
    ends_nonzero = text.rsplit(", ", 1)[-1] != "0"
    return f"({text}{', 0' * zeros}{',' if N == 1 else ''})" if ends_nonzero else None, periodic, s0


def as_fold_mod(S):
    return repr(S), is_two_periodic(S), S[0]


def assert_folds_as_fold_mod(ring, N):
    assert folded(ring, N) == as_fold_mod(fold_mod(ring, N)), (ring.label, N)


def dense_boundaries(dim):
    # where a dense fold changes shape: strided sums below N^2 = 4 (dim + 1)
    # and chunks above it, the Betti text read above N = (dim + 1) / 2, and
    # the Betti list itself from N = dim + 1 on
    root, half = isqrt(4 * (dim + 1)), (dim + 1) // 2
    return {N for N in (root - 1, root, root + 1, half - 1, half, half + 1, half + 2, dim, dim + 1) if N >= 1}


@settings(max_examples=300, deadline=None)
@given(rings, dense_rings, st.integers(0, 10**6))
@example(make_complex_projective(17), make_torus(3), 35)
@example(make_custom([1, 2, 2, 1], [1]), make_torus(3), 0)
# at N = 8, N^2 = 4 (dim + 1) for dim 15, 4 (dim + 1) - 4 for dim 16 and
# 4 (dim + 1) + 4 for dim 14; at N = 6, N^2 = 4 (dim + 1) for dim 8
@example(make_torus(15), make_torus(16), 0)
@example(make_torus(14), make_custom([1, 2, 3, 1, 3, 1, 3, 2, 1], [1]), 0)
def test_residue_fold_matches_the_dense_fold(ring, other, seed):
    # the wrap at j = N - 2, N - 1 is where a residue fold goes wrong, so
    # every ring also folds at N <= dim + 3, where its degrees wrap; from
    # dim + 2 on a witness decides most folds, and one large N is among them
    dim = ring.dim
    moduli = {1, 2, dim, dim + 1, dim + 2, dim + 3, 1 + seed % (3 * dim + 5), 4 * dim + 5 + seed % 4096}
    moduli.update(dense_boundaries(dim))
    for N in sorted(moduli):
        assert_folds_as_fold_mod(ring, N)
    for N in sorted(dense_boundaries(other.dim)):
        assert_folds_as_fold_mod(other, N)
    # a dense ring's view at N > dim is kept for one ring: folding another
    # between two folds of this one makes the memo miss, then hit
    for N in (max(dim, other.dim) + 1, max(dim, other.dim) + 3):
        for r in (ring, other, other, ring, ring):
            assert_folds_as_fold_mod(r, N)
    # the view is found by identity: two rings equal in value are two entries
    betti = [b for _, b in other.support]
    twins = make_custom(betti, [1]), make_custom(betti, [1])
    assert twins[0] == twins[1] and twins[0] is not twins[1]
    for N in (other.dim + 1, other.dim + 4):
        for r in (twins[0], twins[1], twins[1], twins[0], other, twins[0]):
            assert_folds_as_fold_mod(r, N)


def test_witness_edges_above_the_dimension():
    # At N = dim + 2 the shift by 2 takes S_{N-1} = 0 onto S_1 = b_1, so a
    # ring with b_1 = 0 folds there: S^2 and CP^1 are 2-periodic at N = 4.
    for ring in (make_sphere(2), make_complex_projective(1)):
        assert folded(ring, 4) == ("(1, 0, 1, 0)", True, 1)
    # The d-torus at N = d + 2 has S_{N-2} = S_0 = 1; its witness is S_{N-1} = 0
    # against S_1 = d.
    for d in range(1, 12):
        S = fold_mod(make_torus(d), d + 2)
        assert S[d] == S[0] == 1 and S[d + 1] == 0 != S[1]
        assert_folds_as_fold_mod(make_torus(d), d + 2)
    # the point: dim = 0, so N = 2 is dim + 2 with b_1 = 0 and N = 5 is above it
    point = make_custom([1], [])
    folds = [folded(point, N) for N in (1, 2, 5)]
    assert folds == [("(1,)", True, 1), ("(1, 0)", True, 1), ("(1, 0, 0, 0, 0)", False, 1)]
    for N in (1, 2, 3, 5):
        assert_folds_as_fold_mod(point, N)


def assert_threads_read_their_own_views(pair, moduli):
    # Each thread alternates the one-entry view between its ring and the
    # other's; a fold that read one ring with the other ring's view would
    # print the wrong Betti numbers, or raise, which would end its thread
    # unseen unless recorded.
    expected = {(r.dim, N): as_fold_mod(fold_mod(r, N)) for r in pair for N in moduli}
    failures = []
    # two threads per ring, so they outnumber the cores of a small host
    start = threading.Barrier(2 * len(pair))

    def fold_many(ring):
        start.wait()
        try:
            for _ in range(1000):
                for N in moduli:
                    if folded(ring, N) != expected[ring.dim, N]:
                        failures.append((ring.label, N))
                        return
        except Exception as error:  # the other ring's list or ends can raise
            failures.append((ring.label, repr(error)))

    threads = [threading.Thread(target=fold_many, args=(r,)) for r in pair * 2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_threads_folding_two_dense_rings_read_their_own_views():
    # Folds at N <= (dim + 1) / 2 read a view without text, and the second
    # fold above that fills it in, so threads race the fill too.
    dense = make_torus(160), make_custom([1, *range(2, 80), *range(80, 1, -1), 1], [1])
    assert_threads_read_their_own_views(dense, (12, 100, 161, 40, 150, 162, 70, 170, 158, 200))


def test_threads_folding_two_sparse_rings_read_their_own_views():
    # a sparse ring's view is its Betti text, built by a fold above its dimension
    sparse = make_product_spheres(3, 70), make_sphere(150)
    assert_threads_read_their_own_views(sparse, (12, 75, 152, 40, 160, 153, 73, 300, 151, 76))


def test_threads_folding_a_dense_and_a_sparse_ring_read_their_own_views():
    # both kinds of ring share the one view: the torus folds by its witness
    # (162 on), its Betti list (12, 40, 70) and the splice of its Betti text
    # (100 to 161), and S^3 x S^70 by its witness (76 on) and its residues
    pair = make_torus(160), make_product_spheres(3, 70)
    assert_threads_read_their_own_views(pair, (12, 100, 161, 40, 150, 162, 70, 170, 158, 200))


def test_dense_folds_hold_no_more_memory_as_they_repeat():
    # A fold that built a tuple from a generator, e.g. tuple(s for s in S),
    # would push every such tuple of fewer than 20 entries onto CPython's
    # free list of its size without taking one off, which then holds up to
    # 2,000 of each size; 8,000 folds like these would hold 0.84 MB more.
    tori = [make_torus(d) for d in (21, 34, 47, 60)]

    def fold_all():
        for ring in tori:
            for N in (*range(2, 20), ring.dim + 1, ring.dim + 8):
                _fold_ring(ring, N)

    tracemalloc.start()
    try:
        fold_all()
        first = tracemalloc.get_traced_memory()[0]
        for _ in range(100):
            fold_all()
        grown = tracemalloc.get_traced_memory()[0] - first
    finally:
        tracemalloc.stop()
    assert grown < 500_000


def test_fold_rejects_bad_modulus():
    with pytest.raises(InvalidModulusError, match="invalid-modulus: N must be >= 1"):
        fold_mod(make_sphere(1), 0)


def test_fold_refuses_a_modulus_too_negative_to_allocate():
    # the modulus is checked before the dense list is built, so a value
    # below -sys.maxsize is the same refusal, not an OverflowError
    with pytest.raises(InvalidModulusError, match="invalid-modulus: N must be >= 1"):
        fold_mod(make_sphere(1), -(2**64))


@pytest.mark.parametrize(
    "fold, N",
    [
        (lambda N: fold_mod(make_sphere(2), N), MAX_FOLD_MODULUS + 1),
        (lambda N: fold_mod(make_torus(3), N), MAX_FOLD_MODULUS + 1),
        (lambda N: _fold_ring(make_torus(3), N), MAX_FOLD_MODULUS + 1),
        (lambda N: roots_of_unity_residual(3, N), MAX_FOLD_MODULUS + 1),
    ],
    ids=["fold_mod", "fold_mod_torus", "_fold_ring_dense", "roots_of_unity_residual"],
)
def test_every_fold_refuses_a_modulus_above_the_limit(fold, N):
    # the first N above the limit that each function takes is refused
    # before its N entries are allocated; the limit itself still folds
    with pytest.raises(InvalidModulusError, match=f"^invalid-modulus: N = {N} is above the limit of 2097152$"):
        fold(N)
    assert len(fold_mod(make_sphere(2), MAX_FOLD_MODULUS)) == MAX_FOLD_MODULUS == 2**21


def test_fold_mod_torus_equals_binomial_sums():
    # the torus reads the binomial row, checked against the additive Pascal
    # recurrence folded by the reference bucketing
    for d in (3, 8, 11):
        for N in range(1, d + 4):
            expected = tuple(brute_fold(pascal_row(d), N))
            assert fold_mod(make_torus(d), N) == expected


def test_binomial_fold_frozen_table_d8_n4():
    # hand checked: 1+70+1, 8+56, 28+28, 56+8
    assert fold_mod(make_torus(8), 4) == (72, 64, 56, 64)


def test_binomial_fold_rejects_bad_arguments():
    with pytest.raises(InvalidModulusError):
        fold_mod(make_torus(5), 0)


def test_torus_fold_mod_two_splits_evenly():
    assert fold_mod(make_torus(3), 2) == (4, 4)
    # the even/odd split of binomials is exact for every d
    for d in range(1, 21):
        S = fold_mod(make_torus(d), 2)
        assert S[0] == S[1]
        assert 2 * S[0] == 1 << d


def test_sphere_fold_frozen():
    assert type(fold_mod(make_sphere(6), 4)) is tuple
    assert fold_mod(make_sphere(6), 4) == (1, 0, 1, 0)
    assert fold_mod(make_sphere(5), 8) == (1, 0, 0, 0, 0, 1, 0, 0)


def identity(d, N):
    code, out = run(["identity", "--d", str(d), "--modulus", str(N), "--format", "json"])
    assert code == 0, out
    return json.loads(out)


def test_identity_check_fails_for_d8_n4():
    report = identity(8, 4)
    assert not report["holds"]
    assert report["S"] == [72, 64, 56, 64]
    assert report["NS0"] == 288
    assert report["pow"] == 256


def test_identity_check_needs_equal_entries_not_just_ns0():
    # d = 6, N = 4 has N*S_0 = 2^d yet unequal folds, so it must fail
    report = identity(6, 4)
    assert report["NS0"] == report["pow"] == 64
    assert not report["holds"]
    assert fold_mod(make_torus(6), 4) == (16, 12, 16, 20)


def test_identity_check_rejects_odd_modulus():
    for N in (3, 1):
        code, out = run(["identity", "--d", "5", "--modulus", str(N)])
        assert (code, out) == (1, "error [usage-error]: invalid-modulus: identity requires even N >= 2\n")


def test_torus_fold_periodicity_matches_identity():
    # for even N the even and odd binomial sums are each 2^(d-1), so a
    # 2-periodic torus fold is an equidistributed one: every S_j equal and
    # N*S_0 = 2^d.  None is, which check_torus states instead of deciding.
    for d in range(1, 41):
        ring = make_torus(d)
        for N in range(4, 3 * d + 1, 2):
            S = fold_mod(ring, N)
            equidistributed = len(set(S)) == 1 and N * S[0] == 1 << d
            assert is_two_periodic(S) == equidistributed, (d, N)
            assert not is_two_periodic(S), (d, N)


def test_two_periodicity():
    assert is_two_periodic((2, 0, 2, 0))
    assert is_two_periodic((1, 1, 1, 1))
    assert not is_two_periodic((1, 0, 0, 0, 0, 1, 0, 0))
    # N = 1: the shift by 2 is the identity
    assert is_two_periodic((0,))
    assert is_two_periodic((5,))
    # period 2 mod 2 is the identity shift, so any profile qualifies
    rng = random.Random(3)
    for _ in range(100):
        dims = (rng.randrange(0, 9), rng.randrange(0, 9))
        assert is_two_periodic(dims)


def test_two_periodic_odd_modulus_forces_all_equal():
    # shifting by 2 generates all residues when N is odd
    rng = random.Random(5)
    for _ in range(200):
        N = rng.choice((3, 5, 7, 9))
        dims = tuple(rng.randrange(0, 4) for _ in range(N))
        assert is_two_periodic(dims) == (len(set(dims)) == 1)


def test_pascal_induction_spot_check():
    for d in (4, 9, 17):
        for N in range(1, d + 3):
            lhs = fold_mod(make_torus(d + 1), N)
            sums = fold_mod(make_torus(d), N)
            for j in range(N):
                assert lhs[j] == sums[j] + sums[(j - 1) % N]


def test_binomial_fold_against_pascal_oracle():
    for d in (5, 12):
        row = pascal_row(d)
        for N in (2, 3, 7):
            assert fold_mod(make_torus(d), N) == tuple(
                sum(row[i] for i in range(j, d + 1, N)) for j in range(N)
            )
    # d = 0 is no torus; the residual reads its row, S_0 = 1, and its N - 1
    # trig terms are each exactly 1
    for N in (2, 3, 7):
        assert roots_of_unity_residual(0, N) == 0.0


def test_trig_residual_small_on_samples():
    # 2^1024 is past the float range; the residual must still be computed
    for d, N in ((2, 2), (8, 4), (13, 6), (30, 12), (64, 64), (1024, 4), (1024, 8)):
        assert roots_of_unity_residual(d, N) < 1e-9


def test_torus_dimension_bound():
    # the sums at the limit render under the default int -> str limit
    sums = fold_mod(make_torus(MAX_TORUS_DIM), 4)
    assert sum(sums) == 1 << MAX_TORUS_DIM
    assert len(str(max(sums))) < 4300
    report = identity(MAX_TORUS_DIM, 4)
    assert report["S"] == list(sums) and report["NS0"] == 4 * sums[0]
    assert identity(MAX_TORUS_DIM, 2)["holds"]
    assert roots_of_unity_residual(MAX_TORUS_DIM, 4) < 1e-9
    d = MAX_TORUS_DIM + 1
    for call in (
        lambda: fold_mod(make_torus(d), 4),
        lambda: roots_of_unity_residual(d, 4),
    ):
        with pytest.raises(InvalidRingError, match=f"torus dimension {d} is outside"):
            call()
    code, out = run(["identity", "--d", str(d), "--modulus", "4"])
    assert (code, out) == (1, f"error [usage-error]: invalid-dimension: torus dimension {d} is outside [0, 8192]\n")


def test_trig_residual_rejects_bad_modulus():
    with pytest.raises(InvalidModulusError):
        roots_of_unity_residual(4, 1)


def test_trig_residual_rejects_a_negative_dimension():
    with pytest.raises(ValueError, match=r"^d must be >= 0$") as refused:
        roots_of_unity_residual(-1, 4)
    assert refused.type is ValueError
