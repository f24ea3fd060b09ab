"""Tests for profile rules and collapse certificates."""

import pytest

from lagcut.coring import (
    make_complex_projective,
    make_custom,
    make_product_spheres,
    make_sphere,
    make_torus,
)
from lagcut.fold import InvalidModulusError, fold_dims
from lagcut.floer import (
    COHOMOLOGY_MINUS_ENDS,
    EQUALS_COHOMOLOGY,
    TRIVIAL,
    HFProfile,
    oh_profiles,
    sphere_local_rule,
    ss_collapse_certificate,
)


def test_profile_graded_dims():
    sphere = make_sphere(3)
    assert HFProfile(EQUALS_COHOMOLOGY, sphere).graded_dims() == (1, 0, 0, 1)
    assert HFProfile(COHOMOLOGY_MINUS_ENDS, sphere).graded_dims() == (0, 0, 0, 0)
    assert HFProfile(TRIVIAL, sphere).graded_dims() == (0, 0, 0, 0)


def test_profile_minus_ends_keeps_middle():
    torus = make_torus(2)
    profile = HFProfile(COHOMOLOGY_MINUS_ENDS, torus)
    assert profile.graded_dims() == (0, 2, 0)
    assert profile.total_dim == 2


def test_profile_fold():
    profile = HFProfile(EQUALS_COHOMOLOGY, make_sphere(6))
    assert profile.fold(4).dims == (1, 0, 1, 0)


def fold_outcome(fold, N):
    try:
        return fold(N)
    except InvalidModulusError as exc:
        return str(exc)


def test_profile_fold_matches_dense_fold():
    rings = (
        [make_custom([1], []), make_sphere(1), make_sphere(4), make_sphere(9)]
        + [make_torus(d) for d in (1, 3, 6)]
        + [make_product_spheres(l, m) for l, m in ((1, 1), (2, 2), (2, 5))]
        + [make_complex_projective(3)]
    )
    for ring in rings:
        for kind in (EQUALS_COHOMOLOGY, COHOMOLOGY_MINUS_ENDS, TRIVIAL):
            profile = HFProfile(kind, ring)
            dense = profile.graded_dims()
            assert profile.total_dim == sum(dense)
            for N in range(-1, 3 * ring.dim + 3):
                expected = fold_outcome(lambda n: fold_dims(dense, n), N)
                assert fold_outcome(profile.fold, N) == expected, (ring.label, kind, N)


def test_profile_rejects_unknown_kind():
    with pytest.raises(ValueError):
        HFProfile("Everything", make_sphere(2))


def test_collapse_certificate_empty_targets():
    cert = ss_collapse_certificate(make_torus(3), 4)
    assert cert is not None
    assert cert.nu == 1
    assert cert.valid
    assert all(c.target_betti == 0 for c in cert.per_page)
    assert {c.target_degree for c in cert.per_page} == {-2}


def test_collapse_certificate_vacuous_when_grading_exceeds_dim():
    cert = ss_collapse_certificate(make_torus(2), 4)
    assert cert is not None
    assert cert.nu == 0
    assert cert.per_page == ()


def test_collapse_certificate_refused_when_target_occupied():
    # page-1 differential from the degree-1 generators lands in degree 0
    assert ss_collapse_certificate(make_torus(5), 2) is None


def test_collapse_certificate_product_spheres():
    cert = ss_collapse_certificate(make_product_spheres(2, 4), 6)
    assert cert is not None
    assert cert.nu == 1
    assert {c.generator_degree for c in cert.per_page} == {2, 4}
    assert {c.target_degree for c in cert.per_page} == {-3, -1}


def test_collapse_certificate_validates_grading():
    with pytest.raises(ValueError):
        ss_collapse_certificate(make_torus(2), 1)


def test_oh_profiles_dichotomy():
    sphere = make_sphere(4)
    high = oh_profiles(sphere, 6)
    assert {p.kind for p in high} == {EQUALS_COHOMOLOGY}
    edge = oh_profiles(sphere, 5)
    assert {p.kind for p in edge} == {EQUALS_COHOMOLOGY, COHOMOLOGY_MINUS_ENDS}
    assert oh_profiles(sphere, 4) == frozenset()
    with pytest.raises(ValueError):
        oh_profiles(sphere, 1)


def test_sphere_local_rule():
    assert sphere_local_rule(5, 3) is None  # 6 divides d + 1 = 6
    forced = sphere_local_rule(5, 4)
    assert forced is not None
    assert forced.kind == EQUALS_COHOMOLOGY
    assert forced.graded_dims() == (1, 0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        sphere_local_rule(1, 2)
    with pytest.raises(ValueError):
        sphere_local_rule(4, 0)
