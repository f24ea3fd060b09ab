"""Tests for the Maslov-range, sphere-local and collapse rules."""

import pytest
from hypothesis import given, settings
from test_fold import rings

from lagcut.coring import make_product_spheres, make_torus
from lagcut.floer import (
    COHOMOLOGY_MINUS_ENDS,
    EQUALS_COHOMOLOGY,
    oh_profiles,
    sphere_local_rule,
    ss_collapse_certificate,
)


def test_collapse_certificate_empty_targets():
    # page 1 sends the degree-1 generators to degree -2
    assert ss_collapse_certificate(make_torus(3), 4) == 1


def test_collapse_certificate_vacuous_when_grading_exceeds_dim():
    nu = ss_collapse_certificate(make_torus(2), 4)
    assert nu == 0
    assert nu is not None


def test_collapse_certificate_refused_when_target_occupied():
    # page-1 differential from the degree-1 generators lands in degree 0
    assert ss_collapse_certificate(make_torus(5), 2) is None


def test_collapse_certificate_product_spheres():
    # generators in degrees 2 and 4 land in degrees -3 and -1 on page 1
    assert ss_collapse_certificate(make_product_spheres(2, 4), 6) == 1


def brute_certificate(ring, N_L):
    # every target g + 1 - r N_L of every generator g on pages r = 1..nu
    betti = dict(ring.support)
    nu = (ring.dim + 1) // N_L
    for r in range(1, nu + 1):
        for g in ring.generator_degrees:
            if betti.get(g + 1 - r * N_L, 0):
                return None
    return nu


@settings(max_examples=200, deadline=None)
@given(rings)
def test_collapse_certificate_matches_the_brute_force_oracle(ring):
    # past N_L = dim + 1 no page carries a differential, so nu = 0
    for N_L in range(2, 3 * ring.dim + 6):
        assert ss_collapse_certificate(ring, N_L) == brute_certificate(ring, N_L), (ring.label, N_L)


def test_collapse_certificate_validates_grading():
    with pytest.raises(ValueError):
        ss_collapse_certificate(make_torus(2), 1)


def test_oh_profiles_dichotomy():
    assert oh_profiles(4, 6) == (EQUALS_COHOMOLOGY,)
    assert oh_profiles(4, 5) == (EQUALS_COHOMOLOGY, COHOMOLOGY_MINUS_ENDS)
    assert oh_profiles(4, 4) == ()
    with pytest.raises(ValueError):
        oh_profiles(4, 1)


def test_sphere_local_rule():
    assert sphere_local_rule(5, 3) is False  # 6 divides d + 1 = 6
    assert sphere_local_rule(5, 4) is True
    with pytest.raises(ValueError):
        sphere_local_rule(1, 2)
    with pytest.raises(ValueError):
        sphere_local_rule(4, 0)
