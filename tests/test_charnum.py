"""Tests for exact characteristic-number and Maslov arithmetic."""

import random
from fractions import Fraction

import pytest

from lagcut.charnum import (
    CircleBundle,
    NotMonotoneLevelError,
    UndeterminableError,
    WeightData,
    build_cut,
    gradient_sphere_check,
    maslov_exact,
    maslov_simply_connected,
    maslov_torsion_constraint,
    maslov_zero_section,
    pi1_total,
    semifree_monotonicity_cases,
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


def test_gradient_sphere_check_basic():
    assert gradient_sphere_check(WeightData((1,)), WeightData((0,)), 1, 1)
    assert gradient_sphere_check(WeightData((2, 1)), WeightData((1,)), 2, 2)
    # chern pairing must equal the weight drop
    assert not gradient_sphere_check(WeightData((1,)), WeightData((0,)), 2, 1)
    # the drop must be a multiple of the ambient chern number
    assert not gradient_sphere_check(WeightData((3,)), WeightData((0,)), 3, 2)


def test_gradient_sphere_check_weight_invariance():
    rng = random.Random(17)
    for _ in range(1000):
        N_W = rng.randrange(1, 20)
        k = rng.randrange(-40, 41)
        sink = [rng.randrange(-30, 31) for _ in range(rng.randrange(1, 5))]
        source = list(sink)
        source[0] += k * N_W
        assert gradient_sphere_check(
            WeightData(tuple(source)), WeightData(tuple(sink)), k * N_W, N_W
        )


def test_semifree_cases_consistent():
    report = semifree_monotonicity_cases(Fraction(-1, 2))
    assert report.consistent
    assert report.K_W == Fraction(1)
    names = [c.name for c in report.cases]
    assert names == ["reduced-space-classes", "disc-bundle-classes", "gradient-sphere"]
    reduced = report.cases[0]
    assert reduced.omega_coeff == 0 and reduced.c1 == 0 and reduced.ratio is None
    for case in report.cases[1:]:
        assert case.ratio == report.K_W
    with pytest.raises(NotMonotoneLevelError):
        semifree_monotonicity_cases(Fraction(1, 3))


def test_weight_data_sum():
    assert WeightData((2, -1, 0)).sum == 1
    assert WeightData(()).sum == 0
