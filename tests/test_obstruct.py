"""Tests for the verdict pipelines and the parameter-grid scanner."""

import functools
import json
import time

import pytest

from lagcut import coring, obstruct
from lagcut.cli import run
from lagcut.coring import binomial_row, make_sphere, make_torus
from lagcut.fold import fold_mod
from lagcut.obstruct import (
    CONSTRAINED,
    INCONCLUSIVE,
    MAX_DIVISOR_SEARCH,
    MAX_FOLD_MODULUS,
    OBSTRUCTED,
    HypothesisViolation,
    _divisors,
    check_lens,
    check_product_spheres,
    check_simply_connected_in_cut,
    check_sphere,
    check_torus,
    exact_verdict,
    scan,
)


def cites(verdict):
    return [step.cite for step in verdict.trace]


# ---------------------------------------------------------------- nsc check


def test_nsc_obstructed_above_range():
    verdict = check_simply_connected_in_cut(4, 4, 8)
    assert verdict.status == OBSTRUCTED
    assert verdict.trace[-1].cite == "two-periodicity-contradiction"
    assert "oh-maslov-range" in cites(verdict)


def test_nsc_obstructed_at_boundary_odd_dimension():
    verdict = check_simply_connected_in_cut(5, 7, 7)
    assert verdict.status == OBSTRUCTED
    assert verdict.trace[-1].cite == "two-periodicity-contradiction"


def test_nsc_constrained_at_boundary_even_dimension():
    verdict = check_simply_connected_in_cut(6, 4, 8)
    assert verdict.status == CONSTRAINED
    assert verdict.constraints["required_profile"] == "cp:n=3"
    assert verdict.constraints["required_betti"] == [1, 0, 1, 0, 1, 0, 1]
    assert "cp-profile-requirement" in cites(verdict)


def test_nsc_inconclusive_below_range():
    verdict = check_simply_connected_in_cut(10, 3, 6)
    assert verdict.status == INCONCLUSIVE
    assert verdict.trace[-1].cite == "grading-below-range"


def test_nsc_grading_gate():
    with pytest.raises(HypothesisViolation) as info:
        check_simply_connected_in_cut(5, 4, 5)
    assert info.value.cite == "grading-divides-twice-chern"


def test_nsc_argument_validation():
    with pytest.raises(ValueError):
        check_simply_connected_in_cut(1, 1, 4)
    with pytest.raises(ValueError):
        check_simply_connected_in_cut(4, 0, 4)
    with pytest.raises(ValueError):
        check_simply_connected_in_cut(4, 1, 2)


# -------------------------------------------------------------- sphere check


def test_sphere_obstructed_records_failing_fold():
    verdict = check_sphere(5, 4, 8)
    assert verdict.status == OBSTRUCTED
    last = verdict.trace[-1]
    assert last.cite == "fold-two-periodicity"
    # the trace must reproduce the profile that failed
    assert str(fold_mod(make_sphere(5), 8).dims) in last.detail
    assert "sphere-local-floer" in cites(verdict)


def test_sphere_grading_four_exception():
    verdict = check_sphere(6, 2, 4)
    assert verdict.status == INCONCLUSIVE
    assert verdict.trace[-1].cite == "grading-four-exception"


def test_sphere_grading_two_is_silent():
    verdict = check_sphere(2, 1, 2)
    assert verdict.status == INCONCLUSIVE
    assert verdict.trace[-1].cite == "grading-two-uninformative"


def test_sphere_adjacent_range_inconclusive():
    # 2 N_e = d + 1: the ends-removed profile is trivial, hence periodic
    verdict = check_sphere(7, 4, 8)
    assert verdict.status == INCONCLUSIVE
    assert verdict.trace[-1].cite == "oh-adjacent-range"


def test_sphere_no_rule_available():
    verdict = check_sphere(11, 3, 6)
    assert verdict.status == INCONCLUSIVE
    assert verdict.trace[-1].cite == "local-rule-unavailable"


def test_sphere_hypothesis_gate_and_validation():
    with pytest.raises(HypothesisViolation):
        check_sphere(5, 4, 3)
    with pytest.raises(ValueError):
        check_sphere(1, 1, 2)
    with pytest.raises(ValueError):
        check_sphere(4, 1, 1)


def test_sphere_cost_does_not_grow_with_the_dimension():
    # a sphere ring holds two (degree, dimension) pairs whatever d is, so its
    # check and its fold read two pairs instead of d + 1 Betti numbers; the
    # budget is the acceptance suite's 1 s, which a dense vector of 10**7
    # entries overruns several times
    d = 10**7 + 1
    start = time.perf_counter()
    assert make_sphere(d).support == ((0, 1), (d, 1))
    assert fold_mod(make_sphere(d), 8).dims == (1, 1, 0, 0, 0, 0, 0, 0)
    verdict = check_sphere(d, 4, 8)
    assert verdict.status == OBSTRUCTED
    assert "S = (1, 1, 0, 0, 0, 0, 0, 0)" in verdict.trace[-1].detail
    argv = ["fold", "--candidate", f"sphere:d={d}", "--modulus", "8", "--format", "json"]
    code, out = run(argv)
    assert code == 0
    assert json.loads(out)["S"] == [1, 1, 0, 0, 0, 0, 0, 0]
    assert time.perf_counter() - start < 1.0


# --------------------------------------------------------------- torus check


def test_torus_forces_maslov_two():
    verdict = check_torus(3, 2)
    assert verdict.status == CONSTRAINED
    assert verdict.constraints == {"N": [2]}
    assert "collapse-certificate" in cites(verdict)


def test_torus_equal_ns0_still_excluded():
    # d = 6, N = 4: N*S_0 = 2^d holds but the folds are not equal
    verdict = check_torus(6, 2)
    assert verdict.constraints == {"N": [2]}
    step = [s for s in verdict.trace if s.cite == "fold-two-periodicity"]
    assert len(step) == 1
    assert "(16, 12, 16, 20)" in step[0].detail


def test_torus_trivial_candidate_list():
    verdict = check_torus(2, 1)
    assert verdict.constraints == {"N": [2]}
    assert all(s.cite != "collapse-certificate" for s in verdict.trace)


def test_torus_validation():
    with pytest.raises(ValueError):
        check_torus(0, 1)
    with pytest.raises(ValueError):
        check_torus(3, 0)


# ------------------------------------------------------- product sphere check


def test_product_spheres_exceptional_pairs_retained():
    verdict = check_product_spheres(1, 2, 4)
    assert verdict.constraints["exceptional_N"] == [4]
    assert verdict.constraints["N"] == [2, 4]
    assert "exceptional-grading-retained" in cites(verdict)

    verdict = check_product_spheres(4, 6, 8)
    assert verdict.constraints["exceptional_N"] == [8]


def test_product_spheres_bound_wins_over_fold():
    verdict = check_product_spheres(2, 4, 8)
    assert 8 in verdict.constraints["excluded_N"]
    assert verdict.constraints["discrepancy_N"] == [8]
    assert verdict.constraints["exceptional_N"] == []
    flagged = [s for s in verdict.trace if s.cite == "fold-discrepancy"]
    assert len(flagged) == 1
    assert "DISCREPANCY" in flagged[0].detail


def test_product_spheres_equal_factors_keep_raw_fold():
    verdict = check_product_spheres(2, 2, 4)
    assert verdict.constraints["N"] == [2, 4]
    assert verdict.constraints["discrepancy_N"] == [4]
    assert verdict.constraints["exceptional_N"] == []


def test_product_spheres_generic_exclusion():
    verdict = check_product_spheres(3, 5, 8)
    assert verdict.constraints["N"] == [2, 4]
    assert verdict.constraints["excluded_N"] == [8, 16]
    assert verdict.constraints["bound"] == 6
    assert verdict.constraints["discrepancy_N"] == []


def test_product_spheres_validation():
    with pytest.raises(ValueError):
        check_product_spheres(0, 1, 2)
    with pytest.raises(ValueError):
        check_product_spheres(3, 2, 2)
    with pytest.raises(ValueError):
        check_product_spheres(1, 2, 0)


# --------------------------------------------------------------- exact check


def test_exact_index_constraints():
    verdict = exact_verdict(7, 6)
    details = [step.detail for step in verdict.trace]
    assert "m divides N_e = 6" in details
    assert "2m <= d + 2 = 9" in details
    assert verdict.constraints == {
        "m": [1, 2, 3],
        "surjectivity_rule_applied": False,
        "h1_nonzero_forced": True,
    }


def test_exact_surjectivity_rule():
    constraints = exact_verdict(7, 6, use_surjectivity=True).constraints
    assert constraints["m"] == [1]
    assert constraints["surjectivity_rule_applied"]


def test_exact_h1_flag_off_when_range_is_wide():
    constraints = exact_verdict(10, 3).constraints
    assert constraints["m"] == [1, 3]
    assert not constraints["h1_nonzero_forced"]


def test_exact_verdict_trace():
    verdict = exact_verdict(7, 6, use_surjectivity=True)
    assert verdict.status == CONSTRAINED
    assert verdict.constraints["m"] == [1]
    assert "surjectivity-rule" in cites(verdict)
    assert "h1-torsion-nonzero" in cites(verdict)

    plain = exact_verdict(10, 3)
    assert plain.constraints["m"] == [1, 3]
    assert "surjectivity-rule" not in cites(plain)
    assert "h1-torsion-nonzero" not in cites(plain)


def test_exact_validation():
    with pytest.raises(ValueError):
        exact_verdict(1, 3)
    with pytest.raises(ValueError):
        exact_verdict(5, 0)


# ---------------------------------------------------------------- lens check


def test_lens_prime_above_bound_forces_one():
    verdict = check_lens(7, 3)
    assert verdict.status == CONSTRAINED
    assert verdict.constraints == {"m": [1]}
    assert "index-prime-forcing" in cites(verdict)
    assert "index-parity-sharpening" in cites(verdict)


def test_lens_composite_keeps_divisors():
    assert check_lens(4, 3).constraints == {"m": [1, 2, 4]}
    assert check_lens(2, 1).constraints == {"m": [1, 2]}
    assert check_lens(12, 2).constraints == {"m": [1, 2, 3]}


def test_lens_prime_within_bound_not_forced():
    verdict = check_lens(3, 2)
    assert verdict.constraints == {"m": [1, 3]}
    assert "index-prime-forcing" not in cites(verdict)


def test_lens_validation():
    with pytest.raises(ValueError):
        check_lens(1, 2)
    with pytest.raises(ValueError):
        check_lens(5, 0)


# ----------------------------------------------------------------- divisors


@functools.cache
def divisors_by_scan(n):
    # the O(n) enumeration that _divisors replaced, kept as the reference
    return [k for k in range(1, n + 1) if n % k == 0]


def test_divisors_match_a_sieve():
    limit = 5000
    sieve = [[] for _ in range(limit + 1)]
    for k in range(1, limit + 1):
        for multiple in range(k, limit + 1, k):
            sieve[multiple].append(k)
    for n in range(1, limit + 1):
        assert _divisors(n) == sieve[n], n


@pytest.mark.parametrize("n", [10**6, 10**7 + 19])
def test_divisors_of_a_square_and_a_large_prime(n):
    assert _divisors(n) == divisors_by_scan(n)


@pytest.mark.parametrize(
    "check, args", [(check_lens, (10**7 + 19, 3)), (exact_verdict, (2000, 720720))]
)
def test_large_verdicts_match_the_linear_divisor_scan(monkeypatch, check, args):
    verdict = check(*args).to_json_dict()
    monkeypatch.setattr(obstruct, "_divisors", divisors_by_scan)
    assert check(*args).to_json_dict() == verdict


# ---------------------------------------------------------------- cost limits

FOLD, SEARCH = MAX_FOLD_MODULUS, MAX_DIVISOR_SEARCH

# family: (the parameters of a row at the limit, of the first row above it,
# the limited quantity as the message names it, its value above the limit,
# the limit).  2 N_e is even, so the first value above its limit is limit + 2.
LIMITS = {
    "torus": (
        {"d": 1, "euler": FOLD // 2},
        {"d": 1, "euler": FOLD // 2 + 1},
        "2 N_e",
        FOLD + 2,
        FOLD,
    ),
    "prodsph": (
        {"l": 1, "m": 2, "euler": FOLD // 2},
        {"l": 1, "m": 2, "euler": FOLD // 2 + 1},
        "2 N_e",
        FOLD + 2,
        FOLD,
    ),
    "sphere": (
        {"d": 5, "euler": FOLD // 2, "grading": FOLD},
        {"d": 5, "euler": FOLD + 1, "grading": FOLD + 1},
        "grading N",
        FOLD + 1,
        FOLD,
    ),
    "lens": ({"p": SEARCH, "n": 3}, {"p": SEARCH + 1, "n": 3}, "p", SEARCH + 1, SEARCH),
    "exact": ({"d": 4, "euler": SEARCH}, {"d": 4, "euler": SEARCH + 1}, "N_e", SEARCH + 1, SEARCH),
}


def limit_message(family):
    _, _, name, value, limit = LIMITS[family]
    return f"{name} = {value} is above the limit of {limit}"


def test_cost_limits_admit_the_documented_inputs():
    assert 2 * 720720 <= MAX_FOLD_MODULUS  # check_torus(64, 720720), prodsph(100, 200, 720720)
    assert 8 <= MAX_FOLD_MODULUS  # check_sphere(10**7 + 1, 4, 8)
    assert 10**7 + 19 <= MAX_DIVISOR_SEARCH  # check_lens(10**7 + 19, 3)
    assert 720720 <= MAX_DIVISOR_SEARCH  # exact_verdict(2000, 720720)


def cli_args(params):
    return [t for name, value in params.items() for t in (f"--{name}", str(value))]


@pytest.mark.parametrize("family", LIMITS)
def test_cost_limits_admit_the_limit(family):
    at = LIMITS[family][0]
    verdict = obstruct.FAMILIES[family][1](at, False)
    argv = ["check", family, *cli_args(at)]
    code, out = run(argv + ["--format", "json"])
    assert code == 0
    assert json.loads(out) == verdict.to_json_dict()
    code, out = run(argv)
    assert code == 0
    assert out.startswith(f"status: {verdict.status}\n")


@pytest.mark.parametrize("family", LIMITS)
def test_cost_limits_refuse_the_value_above_before_any_work(family):
    above = LIMITS[family][1]
    message = limit_message(family)
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        obstruct.FAMILIES[family][1](above, False)
    assert str(info.value) == message
    argv = ["check", family, *cli_args(above)]
    assert run(argv) == (1, f"error [usage-error]: {message}\n")
    code, out = run(argv + ["--format", "json"])
    assert code == 1
    assert json.loads(out) == {"error": {"cite": "usage-error", "message": message}}
    # a scan keeps the row, with the check's error
    code, out = run(["scan", "--family", family, *cli_args(above), "--format", "json"])
    assert code == 2
    error = {"cite": "usage-error", "message": message}
    assert json.loads(out)["rows"] == [{"params": above, "verdict": None, "error": error}]
    assert time.perf_counter() - start < 0.2


# --------------------------------------------------------------------- scan


def test_scan_rows_in_lexicographic_order():
    rows = scan("lens", {"p": [3, 2], "n": [1, 2]})
    params = [(r.params["p"], r.params["n"]) for r in rows]
    assert params == [(2, 1), (2, 2), (3, 1), (3, 2)]
    assert all(r.error is None for r in rows)


def test_scan_sphere_defaults_grading_to_twice_euler():
    rows = scan("sphere", {"d": [5], "euler": [4]})
    assert rows[0].params == {"d": 5, "euler": 4, "grading": 8}
    assert rows[0].verdict.status == OBSTRUCTED


def test_scan_isolates_hypothesis_violations():
    rows = scan("sphere", {"d": [5, 6], "euler": [2], "grading": [3]})
    assert len(rows) == 2
    for row in rows:
        assert row.verdict is None
        assert row.error["cite"] == "grading-divides-twice-chern"


def test_scan_mixed_rows():
    rows = scan("sphere", {"d": [5], "euler": [2, 3], "grading": [4]})
    outcomes = [(r.params["euler"], r.error is None) for r in rows]
    assert outcomes == [(2, True), (3, False)]


def test_scan_exact_family_carries_surjectivity():
    rows = scan("exact", {"d": [7], "euler": [6]}, use_surjectivity=True)
    assert rows[0].verdict.constraints["m"] == [1]


def test_torus_scan_builds_each_distinct_ring_once(monkeypatch):
    built = []

    def counting_row(d):
        built.append(d)
        return binomial_row(d)

    coring._torus.cache_clear()
    monkeypatch.setattr(coring, "binomial_row", counting_row)
    rows = scan("torus", {"d": range(3, 9), "euler": range(1, 25)})
    assert len(rows) == 6 * 24
    assert built == [3, 4, 5, 6, 7, 8]
    coring._torus.cache_clear()


def test_scan_validates_family_and_parameters():
    with pytest.raises(ValueError):
        scan("moebius", {"d": [2]})
    with pytest.raises(ValueError):
        scan("lens", {"p": [2]})  # missing n
    with pytest.raises(ValueError):
        scan("lens", {"p": [2], "n": [1], "euler": [1]})


def test_verdict_json_dict_shape():
    verdict = check_lens(7, 3)
    doc = verdict.to_json_dict()
    assert doc["status"] == "Constrained"
    assert doc["constraints"] == {"m": [1]}
    assert all(set(step) == {"cite", "detail"} for step in doc["trace"])

    none_doc = check_sphere(5, 4, 8).to_json_dict()
    assert none_doc["constraints"] is None
