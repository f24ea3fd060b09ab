"""Tests for exact characteristic-number and Maslov arithmetic."""

import random
from fractions import Fraction

import pytest

from lagcut.charnum import (
    CircleBundle,
    NotMonotoneLevelError,
    TorsionConstraint,
    UndeterminableError,
    build_cut,
    maslov_exact,
    maslov_simply_connected,
    maslov_torsion_constraint,
    maslov_zero_section,
    pi1_total,
)


def hopf_cut(level="-1/2"):
    return build_cut(CircleBundle(total_dim=3, euler_number=1), level)


def test_cut_at_minus_one_half():
    ctx = hopf_cut()
    assert ctx.chern_number == 1
    assert ctx.omega_coeff == Fraction(1)
    assert ctx.K_W == Fraction(1)
    assert ctx.K_L == Fraction(1, 2)
    assert ctx.monotone


def test_cut_scales_linearly_in_level():
    ctx = build_cut(CircleBundle(total_dim=5, euler_number=3), Fraction(-2))
    assert ctx.chern_number == 3
    assert ctx.omega_coeff == 4
    assert ctx.K_W == 4
    assert ctx.K_L == 2


def test_ambient_constant_is_twice_lagrangian_constant():
    rng = random.Random(13)
    for _ in range(500):
        level = Fraction(-rng.randrange(1, 400), rng.randrange(1, 400))
        ctx = build_cut(CircleBundle(total_dim=4, euler_number=2), level)
        assert ctx.K_W == 2 * ctx.K_L
        assert ctx.omega_coeff == ctx.K_W
        assert ctx.K_L == -level


def test_nonnegative_level_rejected():
    bundle = CircleBundle(total_dim=3, euler_number=1)
    for level in (0, Fraction(1, 2), "3/7"):
        with pytest.raises(NotMonotoneLevelError):
            build_cut(bundle, level)


def test_level_accepts_string_and_decimal_forms():
    assert build_cut(CircleBundle(3, 1), "-0.5").K_L == Fraction(1, 2)
    assert build_cut(CircleBundle(3, 1), "-1/2").K_L == Fraction(1, 2)


def test_bundle_validation():
    with pytest.raises(ValueError):
        CircleBundle(total_dim=1, euler_number=1)
    with pytest.raises(ValueError):
        CircleBundle(total_dim=3, euler_number=-1)
    with pytest.raises(ValueError):
        CircleBundle(total_dim=3, euler_number=0, euler_nontrivial_on_pi2=True)


def test_pi1_of_total_space():
    assert pi1_total(CircleBundle(3, 1)) == "trivial"
    assert pi1_total(CircleBundle(3, 5)) == "Z/5"
    trivial_euler = CircleBundle(3, 0, euler_nontrivial_on_pi2=False)
    assert pi1_total(trivial_euler) == "Z"
    with pytest.raises(UndeterminableError):
        pi1_total(CircleBundle(3, 2, base_simply_connected=False))


def test_zero_section_maslov_data():
    section = maslov_zero_section(hopf_cut())
    assert section.N_V == 2
    assert section.pi2_rel == "Z"
    assert section.monotone_constant == Fraction(1, 2)
    assert section.disc_area == Fraction(1)


def test_zero_section_constants_track_the_cut():
    ctx = build_cut(CircleBundle(3, 2), Fraction(-3, 4))
    section = maslov_zero_section(ctx)
    assert section.monotone_constant == ctx.K_L
    assert section.disc_area == ctx.omega_coeff


def test_maslov_simply_connected():
    assert maslov_simply_connected(1) == 2
    assert maslov_simply_connected(7) == 14
    with pytest.raises(ValueError):
        maslov_simply_connected(-1)


def test_maslov_exact():
    assert maslov_exact(1) == 2
    assert maslov_exact(5) == 10
    with pytest.raises(ValueError):
        maslov_exact(0)


def test_torsion_constraint():
    constraint = maslov_torsion_constraint(3, 2)
    assert constraint.modulus == 6
    assert constraint.multiplier == 2
    assert constraint.reduced_divisor == 3
    for N_L in range(1, 60):
        assert constraint.satisfied(N_L) == (N_L % 3 == 0)
    with pytest.raises(ValueError):
        maslov_torsion_constraint(3, 0)


def test_torsion_constraint_zero_modulus():
    constraint = maslov_torsion_constraint(0, 4)
    assert constraint.modulus == 0
    assert constraint.satisfied(0)
    assert not constraint.satisfied(2)
    assert constraint.reduced_divisor == 0


def test_reduced_divisor_agrees_with_satisfied():
    # satisfied(N_L) holds exactly when N_L is a multiple of the reduced
    # divisor, a divisor of 0 meaning N_L = 0 alone
    for modulus in range(-12, 13):
        for multiplier in range(-8, 9):
            constraint = TorsionConstraint(modulus, multiplier)
            divisor = constraint.reduced_divisor
            assert divisor >= 0, (modulus, multiplier)
            for N_L in range(-30, 31):
                multiple = N_L == 0 if divisor == 0 else N_L % divisor == 0
                assert constraint.satisfied(N_L) == multiple, (modulus, multiplier, N_L)
    assert TorsionConstraint(0, 0).reduced_divisor == 1
    assert TorsionConstraint(-6, 4).reduced_divisor == 3
    assert TorsionConstraint(6, 0).reduced_divisor == 1
