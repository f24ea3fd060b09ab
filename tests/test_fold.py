"""Tests for Z/N folding, the sum identities, and the trig cross-check."""

import random

import pytest

from lagcut.coring import (
    MAX_TORUS_DIM,
    InvalidRingError,
    make_complex_projective,
    make_sphere,
    make_torus,
)
from lagcut.fold import (
    InvalidModulusError,
    binomial_fold_sums,
    cp_profile_match,
    fold_dims,
    fold_mod,
    is_two_periodic,
    roots_of_unity_residual,
    torus_identity_check,
)
from oracles import brute_fold, pascal_row


def test_fold_dims_basic():
    profile = fold_dims((1, 0, 2, 0, 1), 4)
    assert type(profile) is tuple
    assert profile == (2, 0, 2, 0)
    assert sum(profile) == 4


def test_fold_dims_modulus_one_collapses_everything():
    assert fold_dims((1, 2, 3), 1) == (6,)


def test_fold_preserves_total_dimension():
    rng = random.Random(7)
    for _ in range(300):
        dims = [rng.randrange(0, 5) for _ in range(rng.randrange(1, 30))]
        N = rng.randrange(1, 12)
        profile = fold_dims(dims, N)
        assert sum(profile) == sum(dims)
        assert list(profile) == brute_fold(dims, N)


def test_fold_rejects_bad_modulus():
    with pytest.raises(InvalidModulusError):
        fold_dims((1,), 0)


def test_folded_profile_validation():
    with pytest.raises(InvalidModulusError, match="folded dimensions must be nonnegative"):
        fold_dims((1, -1), 2)


def test_fold_mod_torus_equals_binomial_sums():
    # both read the one binomial row, so both are checked against the
    # additive Pascal recurrence folded by the reference bucketing
    for d in (3, 8, 11):
        for N in range(1, d + 4):
            expected = tuple(brute_fold(pascal_row(d), N))
            assert fold_mod(make_torus(d), N) == expected
            assert binomial_fold_sums(d, N) == expected


def test_binomial_fold_frozen_table_d8_n4():
    # hand checked: 1+70+1, 8+56, 28+28, 56+8
    assert binomial_fold_sums(8, 4) == (72, 64, 56, 64)


def test_binomial_fold_rejects_bad_arguments():
    with pytest.raises(InvalidModulusError):
        binomial_fold_sums(5, 0)


def test_torus_fold_mod_two_splits_evenly():
    assert fold_mod(make_torus(3), 2) == (4, 4)
    # the even/odd split of binomials is exact for every d
    for d in range(1, 21):
        report = torus_identity_check(d, 2)
        assert report.holds
        assert report.NS0 == 1 << d


def test_sphere_fold_frozen():
    assert type(fold_mod(make_sphere(6), 4)) is tuple
    assert fold_mod(make_sphere(6), 4) == (1, 0, 1, 0)
    assert fold_mod(make_sphere(5), 8) == (1, 0, 0, 0, 0, 1, 0, 0)


def test_identity_check_fails_for_d8_n4():
    report = torus_identity_check(8, 4)
    assert not report.holds
    assert report.sums == (72, 64, 56, 64)
    assert report.NS0 == 288
    assert report.pow == 256


def test_identity_check_needs_equal_entries_not_just_ns0():
    # d = 6, N = 4 has N*S_0 = 2^d yet unequal folds, so it must fail
    report = torus_identity_check(6, 4)
    assert report.NS0 == report.pow == 64
    assert not report.holds
    assert fold_mod(make_torus(6), 4) == (16, 12, 16, 20)


def test_identity_check_rejects_odd_modulus():
    with pytest.raises(InvalidModulusError):
        torus_identity_check(5, 3)
    with pytest.raises(InvalidModulusError):
        torus_identity_check(5, 1)


def test_torus_fold_periodicity_matches_identity():
    # for even N the even and odd binomial sums are each 2^(d-1), so a
    # 2-periodic torus fold is an equidistributed one
    for d in range(1, 41):
        ring = make_torus(d)
        for N in range(4, 3 * d + 1, 2):
            periodic = is_two_periodic(fold_mod(ring, N))
            assert periodic == torus_identity_check(d, N).holds, (d, N)


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
            lhs = binomial_fold_sums(d + 1, N)
            sums = binomial_fold_sums(d, N)
            for j in range(N):
                assert lhs[j] == sums[j] + sums[(j - 1) % N]


def test_binomial_fold_against_pascal_oracle():
    for d in (0, 5, 12):
        row = pascal_row(d)
        for N in (2, 3, 7):
            assert binomial_fold_sums(d, N) == tuple(
                sum(row[i] for i in range(j, d + 1, N)) for j in range(N)
            )


def test_trig_residual_small_on_samples():
    # 2^1024 is past the float range; the residual must still be computed
    for d, N in ((2, 2), (8, 4), (13, 6), (30, 12), (64, 64), (1024, 4), (1024, 8)):
        assert roots_of_unity_residual(d, N) < 1e-9


def test_torus_dimension_bound():
    # the sums at the limit render under the default int -> str limit
    sums = binomial_fold_sums(MAX_TORUS_DIM, 4)
    assert sum(sums) == 1 << MAX_TORUS_DIM
    assert len(str(max(sums))) < 4300
    report = torus_identity_check(MAX_TORUS_DIM, 4)
    assert report.sums == sums and report.NS0 == 4 * sums[0]
    assert torus_identity_check(MAX_TORUS_DIM, 2).holds
    assert roots_of_unity_residual(MAX_TORUS_DIM, 4) < 1e-9
    d = MAX_TORUS_DIM + 1
    for call in (
        lambda: binomial_fold_sums(d, 4),
        lambda: torus_identity_check(d, 4),
        lambda: roots_of_unity_residual(d, 4),
    ):
        with pytest.raises(InvalidRingError, match=f"torus dimension {d} is outside"):
            call()


def test_trig_residual_rejects_bad_modulus():
    with pytest.raises(InvalidModulusError):
        roots_of_unity_residual(4, 1)


def test_cp_profile_match():
    reference = fold_mod(make_complex_projective(3), 8)
    assert cp_profile_match(reference, 6)
    sphere = fold_mod(make_sphere(6), 8)
    assert not cp_profile_match(sphere, 6)


def test_cp_profile_match_validates_arguments():
    profile = fold_mod(make_complex_projective(2), 6)
    with pytest.raises(ValueError):
        cp_profile_match(profile, 5)
    with pytest.raises(InvalidModulusError):
        cp_profile_match(profile, 8)
