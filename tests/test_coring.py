"""Tests for graded cohomology ring construction and validation."""

import inspect
import itertools
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagcut import coring
from lagcut.charnum import (
    CircleBundle,
    build_cut,
    maslov_torsion_constraint,
    maslov_zero_section,
)
from lagcut.coring import (
    MAX_REDUCED_DEGREE,
    MAX_SUPPORT_PAIRS,
    MAX_TORUS_DIM,
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
)
from lagcut.floer import ss_collapse_certificate
from lagcut.fold import fold_mod
from lagcut.obstruct import ScanRow, TraceStep, Verdict
from oracles import pascal_row


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
    # nu, or None when some page-r target of a generator is occupied
    dim = len(betti) - 1
    nu = (dim + 1) // N_L
    targets = [g + 1 - r * N_L for r in range(1, nu + 1) for g in gens]
    if any(betti[t] for t in targets if 0 <= t <= dim):
        return None
    return nu


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
            assert fold_mod(ring, N) == tuple(folded)
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
    # 400,001 support degrees, each looked up in a bit set of 400,000 bits;
    # the factory builds CP^n unchecked, so the constructor checks it here
    n = 400_000
    ring = make_complex_projective(n)
    start = time.perf_counter()
    assert CohomologyRing(*ring) == ring
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
        (
            lambda: CohomologyRing(
                "S^(2 top) x S^3",
                2 * top + 3,
                ((0, 1), (3, 1), (2 * top, 1), (2 * top + 3, 1)),
                (3, 2 * top),
            ),
            2 * top + 3,
        ),
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


# ------------------------------------------------------- trust boundary

FACTORY_GRIDS = {
    "sphere": lambda: [make_sphere(d) for d in [*range(1, 301), 10**6]],
    "torus": lambda: [make_torus(d) for d in [*range(1, 129), MAX_TORUS_DIM]],
    "prodsph": lambda: [make_product_spheres(l, m) for m in range(1, 61) for l in range(1, m + 1)],
    "cp": lambda: [make_complex_projective(n) for n in range(1, 201)],
}


@pytest.mark.parametrize("family", FACTORY_GRIDS)
def test_every_factory_ring_is_the_ring_the_constructor_checks(family):
    # the factories skip the invariant checks; this is where they still run
    for ring in FACTORY_GRIDS[family]():
        assert type(ring) is CohomologyRing
        assert CohomologyRing(*ring) == ring


def test_factories_build_without_the_generated_degree_check(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(coring, "_ungenerated", reached)
    for memo in (coring._sphere, coring._torus, coring._product_spheres):
        memo.cache_clear()
    rings = [make_sphere(7), make_torus(6), make_product_spheres(2, 5), make_complex_projective(4)]
    assert [ring.label for ring in rings] == ["sphere:d=7", "torus:d=6", "prodsph:l=2,m=5", "cp:n=4"]
    for build in [
        lambda: make_custom([1, 0, 1], [2]),
        lambda: CohomologyRing(*rings[0]),
        lambda: rings[1]._replace(label="t"),
        lambda: CohomologyRing._make(rings[2]),
    ]:
        with pytest.raises(Reached):
            build()


def test_factories_refuse_a_float_parameter():
    for build in [
        lambda: make_sphere(7.0),
        lambda: make_torus(6.0),
        lambda: make_product_spheres(2.0, 5.0),
        lambda: make_complex_projective(4.0),
    ]:
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            build()


# ------------------------------------------------------------- ring memo

MEMOS = [
    (make_sphere, coring._sphere, (7,)),
    (make_torus, coring._torus, (6,)),
    (make_product_spheres, coring._product_spheres, (2, 5)),
]


@pytest.mark.parametrize("make, memo, args", MEMOS)
def test_ring_constructors_share_their_ring(make, memo, args):
    # a plain function, so tracing that wraps module functions still sees it
    assert inspect.isfunction(make)
    # each memo keeps the last ring of its factory, the only one asked again
    assert memo.cache_parameters() == {"maxsize": 1, "typed": True}
    ring = make(*args)
    assert make(*args) is ring
    with pytest.raises(AttributeError):
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


# ---------------------------------------------------------------- records


def one_of_each_record():
    # each of the package's eight records, with a field to try to assign
    bundle = CircleBundle(3, 2)
    ctx = build_cut(bundle, "-1/2")
    step = TraceStep("cite", "detail")
    verdict = Verdict("Constrained", {"N": [2]}, (step,))
    return [
        (make_sphere(3), "label"),
        (bundle, "euler_number"),
        (ctx, "level"),
        (maslov_zero_section(ctx), "N_V"),
        (maslov_torsion_constraint(3, 4), "modulus"),
        (step, "detail"),
        (verdict, "status"),
        (ScanRow({"d": 3}, verdict, None), "error"),
    ]


def test_records_are_immutable():
    records = one_of_each_record()
    assert len({type(record) for record, _ in records}) == 8
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
        # no instance dict either, so no new attribute
        with pytest.raises(AttributeError):
            record.note = "extra"


def test_records_are_tuples_of_their_fields():
    step = TraceStep("a", "b")
    assert step == ("a", "b")
    assert len(step) == 2
    cite, detail = step
    assert (cite, detail) == ("a", "b")
    assert repr(step) == "TraceStep(cite='a', detail='b')"
    verdict = Verdict("Inconclusive", None, (step,))
    assert json.dumps(verdict) == '["Inconclusive", null, [["a", "b"]]]'
    assert verdict.to_json_dict() == {
        "status": "Inconclusive",
        "constraints": None,
        "trace": [{"cite": "a", "detail": "b"}],
    }
    assert repr(make_sphere(2)) == (
        "CohomologyRing(label='sphere:d=2', dim=2, support=((0, 1), (2, 1)), "
        "generator_degrees=(2,))"
    )


# (label, dim, support, generator_degrees) breaking the checks in order;
# the first case breaks every later check too
BAD_RINGS = [
    (("r", -1, ((0, 2), (3, 1)), (5,)), "invalid-dimension: dim must be >= 0"),
    (("r", 2, ((2, 1), (0, 1)), (2,)),
     "support must list nonzero dimensions at increasing degrees in [0, dim]"),
    (("r", 2, ((0, 1), (1, -1), (2, 1)), (1,)), "betti numbers must be nonnegative"),
    (("r", 2, ((0, 2), (2, 2)), (2,)), "b_0 must be 1 (connected candidate)"),
    (("r", 3, ((0, 1), (1, 1), (3, 1)), (1,)), "Poincare duality fails: b_1 != b_2"),
    (("r", 2, ((0, 1), (2, 1)), (3,)), "generator degrees must lie in [1, dim]"),
    (("r", 2, ((0, 1), (1, 1), (2, 1)), (2,)),
     "degree 1 carries cohomology but is not generated"),
]


@pytest.mark.parametrize("args, message", BAD_RINGS)
def test_ring_checks_positional_and_keyword_construction(args, message):
    names = ("label", "dim", "support", "generator_degrees")
    for build in (
        lambda: CohomologyRing(*args),
        lambda: CohomologyRing(**dict(zip(names, args))),
        lambda: CohomologyRing(args[0], args[1], support=args[2], generator_degrees=args[3]),
    ):
        with pytest.raises(InvalidRingError) as info:
            build()
        assert str(info.value) == message


def test_replace_runs_the_construction_checks():
    ring = make_sphere(2)
    with pytest.raises(InvalidRingError, match="invalid-dimension: dim must be >= 0"):
        ring._replace(dim=-1)
    with pytest.raises(InvalidRingError, match="b_0 must be 1"):
        CohomologyRing._make(("r", 2, ((0, 2), (2, 2)), (2,)))
    assert ring._replace(label="s") == ("s", 2, ((0, 1), (2, 1)), (2,))
    assert type(ring._replace(label="s")) is CohomologyRing
    with pytest.raises(ValueError, match="total_dim must be >= 2"):
        CircleBundle(3, 2)._replace(total_dim=1)
    assert CircleBundle(3, 2)._replace(euler_number=5) == CircleBundle(3, 5)


def test_ring_keyword_construction_matches_positional():
    args = ("s", 2, ((0, 1), (2, 1)), (2,))
    ring = CohomologyRing(label="s", dim=2, support=((0, 1), (2, 1)), generator_degrees=(2,))
    assert ring == CohomologyRing(*args)
    assert ring.support == make_sphere(2).support
    assert type(ring) is CohomologyRing


BAD_BUNDLES = [
    ((1, -1), {}, "total_dim must be >= 2"),
    ((3, -1), {"euler_nontrivial_on_pi2": False}, "euler_number must be nonnegative"),
    ((3, 0), {}, "euler_nontrivial_on_pi2 requires a positive euler number"),
    ((3, 0, True, True), {}, "euler_nontrivial_on_pi2 requires a positive euler number"),
]


@pytest.mark.parametrize("args, flags, message", BAD_BUNDLES)
def test_bundle_checks_positional_and_keyword_construction(args, flags, message):
    names = ("total_dim", "euler_number", "base_simply_connected", "euler_nontrivial_on_pi2")
    keywords = dict(zip(names, args), **flags)
    for build in (lambda: CircleBundle(*args, **flags), lambda: CircleBundle(**keywords)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_bundle_defaults_and_keywords():
    bundle = CircleBundle(total_dim=3, euler_number=0, euler_nontrivial_on_pi2=False)
    assert bundle == CircleBundle(3, 0, True, False)
    assert bundle.base_simply_connected is True
    assert CircleBundle(3, 2) == (3, 2, True, True)
