"""Tests for graded cohomology ring construction and validation."""

import dataclasses
import inspect
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagcut import coring
from lagcut.coring import (
    MAX_REDUCED_DEGREE,
    MAX_SUPPORT_PAIRS,
    MAX_TORUS_DIM,
    RING_MEMO_SIZE,
    TORUS_MEMO_SIZE,
    CohomologyRing,
    InvalidRingError,
    _degree_semigroup,
    _ungenerated,
    binomial_row,
    make_complex_projective,
    make_custom,
    make_product_spheres,
    make_sphere,
    make_torus,
    tensor,
)
from lagcut.floer import CollapseCertificate, PageCheck, ss_collapse_certificate
from lagcut.fold import fold_mod
from oracles import brute_convolve, pascal_row


def test_sphere_betti():
    ring = make_sphere(7)
    assert ring.dim == 7
    assert ring.betti == (1, 0, 0, 0, 0, 0, 0, 1)
    assert ring.generator_degrees == (7,)
    assert ring.total_dim == 2
    assert ring.label == "sphere:d=7"


def test_circle_is_a_valid_sphere():
    ring = make_sphere(1)
    assert ring.betti == (1, 1)
    assert ring.total_dim == 2


def test_torus_betti_matches_pascal():
    for d in [*range(1, 65), 300]:
        ring = make_torus(d)
        assert list(ring.betti) == pascal_row(d)
        assert ring.total_dim == 2**d
        assert ring.generator_degrees == (1,) * d


def test_binomial_row_bounds():
    assert binomial_row(0) == [1]
    row = binomial_row(MAX_TORUS_DIM)
    assert row == row[::-1]
    assert sum(row) == 1 << MAX_TORUS_DIM
    start = time.perf_counter()
    ring = make_torus(MAX_TORUS_DIM)
    assert time.perf_counter() - start < 1.0
    assert ring.support == tuple(enumerate(row))
    for d in (-1, MAX_TORUS_DIM + 1):
        with pytest.raises(InvalidRingError, match=f"torus dimension {d} is outside"):
            binomial_row(d)
    with pytest.raises(InvalidRingError, match=f"torus dimension {MAX_TORUS_DIM + 1}"):
        make_torus(MAX_TORUS_DIM + 1)


def test_torus_three_frozen():
    assert make_torus(3).betti == (1, 3, 3, 1)


def test_product_spheres_distinct_factors():
    ring = make_product_spheres(2, 4)
    assert ring.dim == 6
    assert ring.betti == (1, 0, 1, 0, 1, 0, 1)
    assert ring.generator_degrees == (2, 4)


def test_product_spheres_equal_factors():
    ring = make_product_spheres(2, 2)
    assert ring.betti == (1, 0, 2, 0, 1)
    assert ring.total_dim == 4


def test_product_spheres_rejects_bad_order():
    with pytest.raises(InvalidRingError):
        make_product_spheres(3, 2)
    with pytest.raises(InvalidRingError):
        make_product_spheres(0, 2)


def test_complex_projective():
    ring = make_complex_projective(3)
    assert ring.dim == 6
    assert ring.betti == (1, 0, 1, 0, 1, 0, 1)
    # a single degree-2 generator reaches all even degrees through its powers
    assert ring.generator_degrees == (2,)


def test_custom_point_ring():
    ring = make_custom([1], [])
    assert ring.dim == 0
    assert ring.total_dim == 1


def test_custom_rejects_disconnected():
    with pytest.raises(InvalidRingError):
        make_custom([2, 0, 2], [2])


def test_custom_rejects_duality_failure():
    with pytest.raises(InvalidRingError):
        make_custom([1, 2, 0], [1])


def test_custom_rejects_negative_betti():
    with pytest.raises(InvalidRingError):
        make_custom([1, -1, 1], [1])


def test_custom_rejects_generator_out_of_range():
    with pytest.raises(InvalidRingError):
        make_custom([1, 1], [2])
    with pytest.raises(InvalidRingError):
        make_custom([1], [1])
    with pytest.raises(InvalidRingError):
        make_custom([1, 1], [0])


def test_custom_rejects_ungenerated_degree():
    # degree 1 carries cohomology but no sum of degree-2 generators hits it
    with pytest.raises(InvalidRingError):
        make_custom([1, 1, 1], [2])


def test_custom_accepts_generated_ring():
    ring = make_custom([1, 0, 2, 0, 1], [2, 2])
    assert ring.dim == 4


def test_betti_length_must_match_dim():
    # a support degree above dim is an entry past the end of the dense vector
    with pytest.raises(InvalidRingError):
        CohomologyRing("bad", 2, ((0, 1), (3, 1)), (1,))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: CohomologyRing("bad", -1, (), ()), "invalid-dimension: dim must be >= 0"),
        (
            lambda: CohomologyRing("bad", 2, ((0, 1), (3, 1)), (1,)),
            "support must list nonzero dimensions at increasing degrees in [0, dim]",
        ),
        (lambda: make_custom([1, -1, 1], [1]), "betti numbers must be nonnegative"),
        (lambda: make_custom([2, 0, 2], [2]), "b_0 must be 1 (connected candidate)"),
        (lambda: make_custom([1, 2, 3, 2, 2, 1], [1]), "Poincare duality fails: b_2 != b_3"),
        (lambda: make_custom([1, 1], [2]), "generator degrees must lie in [1, dim]"),
        (
            lambda: make_custom([1, 0, 1, 1, 1, 0, 1], [2]),
            "degree 3 carries cohomology but is not generated",
        ),
        # several invariants fail at once: the first in check order is reported
        (lambda: make_custom([2, -1, 3], [5]), "betti numbers must be nonnegative"),
        (lambda: make_custom([2, 1, 3], [5]), "b_0 must be 1 (connected candidate)"),
        (lambda: make_custom([1, 1, 3], [5]), "Poincare duality fails: b_0 != b_2"),
    ],
)
def test_invalid_ring_messages(make, message):
    with pytest.raises(InvalidRingError) as info:
        make()
    assert str(info.value) == message


def brute_semigroup(degrees, limit):
    reachable = {0}
    frontier = {0}
    while frontier:
        frontier = {s + g for s in frontier for g in degrees if s + g <= limit} - reachable
        reachable |= frontier
    return reachable - {0}


def test_degree_semigroup_matches_set_closure():
    for size in range(4):
        for degrees in itertools.combinations_with_replacement(range(1, 9), size):
            reachable = brute_semigroup(degrees, 60)
            for limit in range(61):
                expected = sum(1 << k for k in reachable if k <= limit)
                assert _degree_semigroup(degrees, limit) == expected, (degrees, limit)


def dense_ring_error(betti, gens):
    # the invariants checked entry by entry on the dense vector, in order
    dim = len(betti) - 1
    if any(b < 0 for b in betti):
        return "betti numbers must be nonnegative"
    if betti[0] != 1:
        return "b_0 must be 1 (connected candidate)"
    for k in range(dim + 1):
        if betti[k] != betti[dim - k]:
            return f"Poincare duality fails: b_{k} != b_{dim - k}"
    if any(g < 1 or g > dim for g in gens):
        return "generator degrees must lie in [1, dim]"
    reachable = brute_semigroup(gens, dim)
    for k in range(1, dim + 1):
        if betti[k] > 0 and k not in reachable:
            return f"degree {k} carries cohomology but is not generated"
    return None


def dense_certificate(betti, gens, N_L):
    dim = len(betti) - 1
    nu = (dim + 1) // N_L
    checks = []
    for r in range(1, nu + 1):
        for g in sorted(set(gens)):
            target = g + 1 - r * N_L
            checks.append(PageCheck(r, g, target, betti[target] if 0 <= target <= dim else 0))
    if any(c.target_betti for c in checks):
        return None
    return CollapseCertificate(N_L=N_L, nu=nu, per_page=tuple(checks))


@st.composite
def dense_inputs(draw):
    # mirrored vectors with b_0 = 1 are often valid rings; the overrides
    # break connectedness, duality or the sign of an entry
    dim = draw(st.integers(0, 12))
    entry = st.sampled_from([0, 0, 1, 1, 2, 3, -1])
    half = draw(st.lists(entry, min_size=dim + 1, max_size=dim + 1))
    betti = [half[min(k, dim - k)] for k in range(dim + 1)]
    betti[0] = betti[dim] = draw(st.sampled_from([1, 1, 1, 0, 2]))
    if draw(st.integers(0, 3)) == 0:
        betti[draw(st.integers(0, dim))] = draw(entry)
    gens = draw(st.lists(st.one_of(st.just(1), st.integers(0, dim + 1)), max_size=3))
    return betti, tuple(sorted(gens))


def ring_or_error(make):
    try:
        return make()
    except InvalidRingError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(dense_inputs())
def test_support_form_agrees_with_the_dense_vector(inputs):
    betti, gens = inputs
    dim = len(betti) - 1
    support = tuple((k, b) for k, b in enumerate(betti) if b)
    dense = ring_or_error(lambda: make_custom(betti, gens, label="r"))
    sparse = ring_or_error(lambda: CohomologyRing("r", dim, support, gens))
    expected_error = dense_ring_error(betti, gens)
    if expected_error is not None:
        assert dense == sparse == expected_error
        return
    assert dense == sparse
    assert hash(dense) == hash(sparse)
    for ring in (dense, sparse):
        assert ring.support == support
        assert ring.betti == tuple(betti)
        assert ring.total_dim == sum(betti)
        assert [ring.betti_number(k) for k in range(-2, dim + 3)] == [0, 0, *betti, 0, 0]
        for N in range(1, 3 * dim + 1):
            folded = [0] * N
            for k, b in enumerate(betti):
                folded[k % N] += b
            assert fold_mod(ring, N).dims == tuple(folded)
        for N_L in range(2, dim + 4):
            assert ss_collapse_certificate(ring, N_L) == dense_certificate(betti, gens, N_L)


@pytest.mark.parametrize(
    "dim, support",
    [
        (3, ((0, 1), (3, 0))),
        (3, ((3, 1), (0, 1))),
        (3, ((0, 1), (0, 1), (3, 1))),
        (3, ((-1, 1), (0, 1), (3, 1))),
        (3, ((0, 1), (4, 1))),
    ],
)
def test_from_support_rejects_malformed_pairs(dim, support):
    with pytest.raises(InvalidRingError) as info:
        CohomologyRing("bad", dim, support, (3,))
    assert str(info.value) == (
        "support must list nonzero dimensions at increasing degrees in [0, dim]"
    )


def test_sphere_and_product_supports_do_not_grow_with_the_dimension():
    d = 10**9 + 7
    assert make_sphere(d).support == ((0, 1), (d, 1))
    assert make_product_spheres(d, d).support == ((0, 1), (d, 2), (2 * d, 1))
    assert make_sphere(d).betti_number(d) == 1
    assert make_sphere(d).total_dim == 2


def test_ungenerated_degrees_match_set_closure():
    for size in range(5):
        for degrees in itertools.combinations_with_replacement(range(1, 9), size):
            for top in (1, 7, 60):
                expected = set(range(1, top + 1)) - brute_semigroup(degrees, top)
                assert set(_ungenerated(list(range(1, top + 1)), degrees)) == expected


def test_generated_degrees_are_read_in_linear_time():
    # 400,001 support degrees, each looked up in a bit set of 400,000 bits
    n = 400_000
    start = time.perf_counter()
    ring = make_complex_projective(n)
    assert time.perf_counter() - start < 1.0
    assert len(ring.support) == n + 1
    assert ring.support[-1] == (2 * n, 1)


def test_generated_degree_bit_set_is_bounded():
    top = MAX_REDUCED_DEGREE
    assert make_product_spheres(1, top - 1).support[-1] == (top, 1)
    assert make_product_spheres(10**20, 10**20).support[-1] == (2 * 10**20, 1)
    # a product whose bit set is far above the CP^n support limit
    assert make_product_spheres(10**6, 10**6 + 1).support[-1] == (2 * 10**6 + 1, 1)
    for make, reduced in [
        (lambda: make_product_spheres(1, top), top + 1),
        (lambda: make_product_spheres(1, 10**20), 10**20 + 1),
        (lambda: make_product_spheres(10**10, 10**10 + 1), 2 * 10**10 + 1),
        (lambda: tensor(make_sphere(2 * top), make_sphere(3)), 2 * top + 3),
    ]:
        start = time.perf_counter()
        with pytest.raises(InvalidRingError) as info:
            make()
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            f"invalid-dimension: top degree over the generator gcd is {reduced}, "
            f"above the limit of {top}"
        )


def test_complex_projective_support_is_bounded():
    n = MAX_SUPPORT_PAIRS - 1
    ring = make_complex_projective(n)
    assert len(ring.support) == MAX_SUPPORT_PAIRS
    assert ring.support[-1] == (2 * n, 1)
    del ring
    for n in (MAX_SUPPORT_PAIRS, 10**8, 10**30):
        start = time.perf_counter()
        with pytest.raises(InvalidRingError) as info:
            make_complex_projective(n)
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == (
            f"invalid-dimension: CP^{n} has {n + 1} support pairs, "
            f"above the limit of {MAX_SUPPORT_PAIRS}"
        )


# ------------------------------------------------------------- ring memo

MEMOS = [
    (make_sphere, coring._sphere, RING_MEMO_SIZE, (7,)),
    (make_torus, coring._torus, TORUS_MEMO_SIZE, (6,)),
    (make_product_spheres, coring._product_spheres, RING_MEMO_SIZE, (2, 5)),
]


@pytest.mark.parametrize("make, memo, size, args", MEMOS)
def test_ring_constructors_share_their_ring(make, memo, size, args):
    # a plain function, so tracing that wraps module functions still sees it
    assert inspect.isfunction(make)
    assert memo.cache_parameters() == {"maxsize": size, "typed": True}
    ring = make(*args)
    assert make(*args) is ring
    with pytest.raises(dataclasses.FrozenInstanceError):
        ring.label = "changed"


def test_ring_memo_keeps_bool_arguments_apart():
    assert make_torus(True).label == "torus:d=True"
    assert make_torus(1).label == "torus:d=1"
    assert make_sphere(True).label == "sphere:d=True"
    assert make_product_spheres(True, 2).label == "prodsph:l=True,m=2"
    assert make_product_spheres(1, 2).label == "prodsph:l=1,m=2"


def test_ring_memo_does_not_keep_errors():
    for _ in range(2):
        with pytest.raises(InvalidRingError, match="torus needs d >= 1"):
            make_torus(0)
        with pytest.raises(InvalidRingError, match="need 1 <= l <= m"):
            make_product_spheres(3, 2)


def test_poincare_duality_all_constructors():
    rings = (
        [make_sphere(d) for d in range(1, 16)]
        + [make_torus(d) for d in range(1, 11)]
        + [make_product_spheres(l, m) for m in range(1, 9) for l in range(1, m + 1)]
        + [make_complex_projective(n) for n in range(1, 9)]
    )
    for ring in rings:
        for k in range(ring.dim + 1):
            assert ring.betti[k] == ring.betti[ring.dim - k], ring.label


def test_tensor_betti_is_convolution():
    pairs = [
        (make_sphere(3), make_sphere(5)),
        (make_torus(2), make_complex_projective(2)),
        (make_product_spheres(1, 2), make_torus(3)),
    ]
    for a, b in pairs:
        prod = tensor(a, b)
        assert list(prod.betti) == brute_convolve(a.betti, b.betti)
        assert prod.dim == a.dim + b.dim
        assert prod.label == f"{a.label}*{b.label}"


def test_tensor_total_dim_multiplicative():
    rng = random.Random(11)
    pool = [
        make_sphere(2),
        make_sphere(5),
        make_torus(3),
        make_torus(4),
        make_product_spheres(2, 3),
        make_complex_projective(2),
    ]
    for _ in range(50):
        a, b = rng.choice(pool), rng.choice(pool)
        assert tensor(a, b).total_dim == a.total_dim * b.total_dim


def test_tensor_product_of_circles_is_torus():
    circle = make_sphere(1)
    prod = tensor(tensor(circle, circle), circle)
    assert prod.betti == make_torus(3).betti
