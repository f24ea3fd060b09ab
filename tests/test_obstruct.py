"""Tests for the verdict pipelines and the parameter-grid scanner."""

import collections
import functools
import itertools
import json
import math
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagcut import cli, coring, obstruct
from lagcut.cli import run
from lagcut.coring import (
    MAX_DIGITS,
    binomial_row,
    make_complex_projective,
    make_custom,
    make_product_spheres,
    make_sphere,
    make_torus,
)
from lagcut.fold import fold_mod, roots_of_unity_residual
from lagcut.obstruct import (
    CONSTRAINED,
    INCONCLUSIVE,
    MAX_DIVISOR_SEARCH,
    MAX_FOLD_MODULUS,
    MAX_LENGTH,
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
from oracles import is_prime


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
    assert str(fold_mod(make_sphere(5), 8)) in last.detail
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
    assert fold_mod(make_sphere(d), 8) == (1, 1, 0, 0, 0, 0, 0, 0)
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


def test_every_fold_a_verdict_prints_is_the_fold():
    # Each S = (...) a trace prints is repr(fold_mod(ring, N)) and each torus
    # N*S_0 figure is N S_0, at every grading of the tori, products and
    # spheres in this grid; a fold step without its own "N = " prefix is the
    # sphere's, at the check's grading.
    fold_cites = {"fold-two-periodicity", "exceptional-grading-retained", "fold-discrepancy"}

    def assert_prints_its_folds(verdict, ring, grading=None):
        for step in verdict.trace:
            printed = re.findall(r"S = (\([\d, ]*\))", step.detail)
            products = re.findall(r"N\*S_0 = (\d+)", step.detail)
            assert step.cite not in fold_cites or printed or products, step
            if not printed and not products:
                continue
            prefix = re.match(r"N = (\d+): ", step.detail)
            N = int(prefix[1]) if prefix else grading
            S = fold_mod(ring, N)
            assert printed == [repr(S)] * len(printed), (ring.label, N, step)
            assert products == [str(N * S[0])] * len(products), (ring.label, N, step)

    for d in range(1, 41):
        ring = make_torus(d)
        for N_e in range(1, 61):
            assert_prints_its_folds(check_torus(d, N_e), ring)
    for m in range(1, 14):
        for l in range(1, m + 1):
            ring = make_product_spheres(l, m)
            for N_e in range(1, 61):
                assert_prints_its_folds(check_product_spheres(l, m, N_e), ring)
    for d in range(2, 41):
        ring = make_sphere(d)
        for N_e in range(1, 31):
            for N in range(3, 2 * N_e + 1):
                if 2 * N_e % N == 0:
                    assert_prints_its_folds(check_sphere(d, N_e, N), ring, N)


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


def test_lens_prime_forcing_agrees_with_trial_division():
    for p in range(2, 3000):
        forced = "index-prime-forcing" in cites(check_lens(p, 1))
        assert forced == (is_prime(p) and p > 2), p


def test_lens_prime_at_the_divisor_search_limit_forces_one():
    verdict = check_lens(2**40 - 87, 3)
    assert verdict.constraints == {"m": [1]}
    assert "index-prime-forcing" in cites(verdict)


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


def divisors_by_root_scan(n):
    # the O(sqrt(n)) enumeration that the factorisation in _divisors
    # replaced, kept as the reference up to MAX_DIVISOR_SEARCH
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return small + [n // k for k in reversed(small) if k * k != n]


@settings(max_examples=25, deadline=None)
@given(st.integers(1, MAX_DIVISOR_SEARCH))
def test_divisors_match_the_root_scan(n):
    assert _divisors(n) == divisors_by_root_scan(n)


@pytest.mark.parametrize(
    "n",
    [
        2**40 - 87,  # the largest prime up to the limit
        999983 * 1000003,  # two primes either side of 10^6, the trial bound squared
        1000003**2,
        10007**3,
        2**40,
        2**38 * 3,
        5394826801,  # a Carmichael number, 7 x 13 x 17 x 23 x 31 x 67 x 73
        3215031751,  # a strong pseudoprime to the bases 2, 3, 5 and 7: 151 x 751 x 28351
        9624742921,  # a Carmichael number with no factor below 1000: 1171 x 2341 x 3511
        # strong pseudoprimes with no factor below 1000: 101197 x 202393 to the
        # bases 2, 7, 11, 13 and 17, and 117973 x 353917 to 2, 3, 5, 11 and 13
        20481564421,
        41752650241,
    ],
)
def test_divisors_at_the_limit_match_the_root_scan(n):
    assert n <= MAX_DIVISOR_SEARCH
    assert _divisors(n) == divisors_by_root_scan(n)


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


@pytest.mark.parametrize(
    "check, args",
    [(check_lens, (2**40 - 87, 3)), (exact_verdict, (4, 999983 * 1000003)), (exact_verdict, (4, 1000003**2))],
)
def test_divisor_checks_near_the_limit_take_milliseconds(check, args):
    # the O(sqrt(n)) divisor scan took 45-76 ms on each of these
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        check(*args)
        best = min(best, time.perf_counter() - start)
    assert best < 0.010, (args, best)


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


# the least int of MAX_DIGITS + 1 digits: CPython still prints it, lagcut does not take it
TOO_LONG = 10**MAX_DIGITS


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: exact_verdict(TOO_LONG, 3), "d"),
        (lambda: check_lens(3, TOO_LONG), "n"),
        (lambda: check_simply_connected_in_cut(TOO_LONG, 2, 4), "d"),
        (lambda: check_torus(TOO_LONG, 2), "d"),
        (lambda: check_torus(3, TOO_LONG), "2 N_e"),
        (lambda: check_product_spheres(1, TOO_LONG, 2), "m"),
        (lambda: check_sphere(TOO_LONG, 1, 2), "d"),
        (lambda: make_sphere(TOO_LONG), "d"),
        (lambda: make_torus(TOO_LONG), "d"),
        (lambda: make_product_spheres(1, TOO_LONG), "m"),
        (lambda: make_complex_projective(TOO_LONG), "n"),
        (lambda: make_custom([1, TOO_LONG, 1], [1]), "a Betti number"),
        (lambda: fold_mod(make_sphere(2), TOO_LONG), "N"),
        (lambda: roots_of_unity_residual(TOO_LONG, 4), "d"),
    ],
    ids=[
        "exact_verdict", "check_lens", "check_simply_connected_in_cut", "check_torus-d",
        "check_torus-N_e", "check_product_spheres", "check_sphere", "make_sphere", "make_torus",
        "make_product_spheres", "make_complex_projective", "make_custom", "fold_mod",
        "roots_of_unity_residual",
    ],
)
def test_the_library_refuses_an_integer_too_long_to_print(call, name):
    # refused with lagcut's digit limit, the one the command line applies,
    # before any text formats the argument
    assert cli.MAX_DIGITS is MAX_DIGITS == 4096
    with pytest.raises(ValueError, match=f"^{name} has more than 4096 digits$"):
        call()


def test_the_digit_limit_admits_its_own_length():
    at = TOO_LONG - 1
    assert len(str(at)) == MAX_DIGITS
    assert check_sphere(at, 1, 2).status == INCONCLUSIVE
    assert make_sphere(at).dim == at
    with pytest.raises(ValueError, match=f"^p = {at} is above the limit of {MAX_DIVISOR_SEARCH}$"):
        check_lens(at, 3)


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


def counting(monkeypatch, module, name):
    # rebind module.name to a wrapper that records each call's arguments
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def even_gradings_from_four(N_e):
    return [N for N in range(4, 2 * N_e + 1, 2) if (2 * N_e) % N == 0]


def scan_rows(family, ranges, emit=None):
    # the rows the scan loop hands its callback, in order
    rows = []
    obstruct._scan_rows(emit or rows.append, family, ranges, False)
    return rows


def test_torus_scan_builds_each_distinct_ring_and_grading_once(monkeypatch):
    # most of these gradings lie above d + 1, where no fold runs, so the
    # grading builds and their certificates are counted
    builds = counting(monkeypatch, obstruct, "_torus_grading")
    certificates = counting(monkeypatch, obstruct, "ss_collapse_certificate")
    rows = scan_rows("torus", {"d": range(3, 9), "euler": range(1, 25)})
    assert len(rows) == 6 * 24
    expected = collections.Counter(
        (d, N) for d in range(3, 9) for N in {N for e in range(1, 25) for N in even_gradings_from_four(e)}
    )
    assert collections.Counter(builds) == expected
    assert collections.Counter((ring.dim, N) for ring, N in certificates) == expected


def test_rows_share_the_steps_that_read_the_same_values():
    rows = scan("lens", {"p": [7, 11], "n": [2, 3]})
    # rows (7, 2) and (11, 2) read the same n; (7, 2) and (7, 3) the same p
    by_params = {(r.params["p"], r.params["n"]): r.verdict.trace for r in rows}
    assert by_params[7, 2][0] is by_params[11, 2][0]
    assert by_params[7, 2][1] is by_params[7, 3][1]
    assert by_params[7, 2][1] is not by_params[11, 2][1]
    # each row keeps its own constraints
    assert rows[0].verdict.constraints is not rows[1].verdict.constraints
    # exact rows with the same euler share the step naming its divisors
    rows = scan("exact", {"d": [4, 6], "euler": [3, 5]})
    divides = {(r.params["d"], r.params["euler"]): r.verdict.trace[1] for r in rows}
    assert divides[4, 3] is divides[6, 3]
    assert divides[4, 5] is divides[6, 5]
    assert divides[4, 3] is not divides[4, 5]
    assert divides[4, 3] == (obstruct.CITE_INDEX_DIVISOR, "m divides N_e = 3")


def test_a_scan_keeps_no_value_with_more_detail_than_the_limit(monkeypatch):
    # At d = 1024 the fold step at N = 360 holds about 110,000 characters.
    # A row rebuilds each step that large, and reads the small ones that an
    # earlier row built.
    def gradings(N_e):
        return {N for N in range(4, 2 * N_e + 1, 2) if 2 * N_e % N == 0}

    def detail(N):
        return obstruct._detail_size(obstruct._torus_grading(1024, N))

    large = {N for N in gradings(180) if detail(N) > obstruct.MAX_SHARED_DETAIL}
    assert large and large != gradings(180)
    folds = counting(monkeypatch, obstruct, "_fold_ring")
    kept, rows = [], []

    def emit(row):
        kept.append(max(map(obstruct._detail_size, obstruct._SCAN_MEMO.get().values())))
        rows.append(row)

    scan_rows("torus", {"d": [1024], "euler": [180, 360]}, emit)
    assert 0 < max(kept) <= obstruct.MAX_SHARED_DETAIL
    assert len(folds) == len(gradings(180)) + len(large) + len(gradings(360) - gradings(180))
    monkeypatch.undo()
    assert [r.verdict for r in rows] == [check_torus(1024, 180), check_torus(1024, 360)]


def check_torus_builds(monkeypatch, d, N_e):
    # the gradings two lone checks build
    builds = counting(monkeypatch, obstruct, "_torus_grading")
    first = check_torus(d, N_e)
    second = check_torus(d, N_e)
    assert first == second
    return len(builds)


def test_no_memo_outlives_a_scan_that_returns(monkeypatch):
    scan_rows("torus", {"d": [6], "euler": [12]})
    assert obstruct._SCAN_MEMO.get() is None
    # 2 N_e = 24 has the gradings 4, 6, 8, 12 and 24, built by each call
    assert check_torus_builds(monkeypatch, 6, 12) == 2 * 5


def test_no_memo_outlives_a_scan_that_raises(monkeypatch):
    calls = []
    build = obstruct._torus_grading

    def failing_build(d, N):
        calls.append(N)
        if len(calls) == 3:
            raise RuntimeError("grading failed")
        return build(d, N)

    monkeypatch.setattr(obstruct, "_torus_grading", failing_build)
    with pytest.raises(RuntimeError, match="grading failed"):
        scan_rows("torus", {"d": [6, 7], "euler": [12]})
    monkeypatch.undo()
    assert obstruct._SCAN_MEMO.get() is None
    assert check_torus_builds(monkeypatch, 6, 12) == 2 * 5


def test_no_memo_outlives_a_scan_whose_callback_raises(monkeypatch):
    seen = []

    def failing_emit(row):
        # the memo is live while the callback runs
        assert obstruct._SCAN_MEMO.get()
        seen.append(row.params)
        if len(seen) == 2:
            raise RuntimeError("write failed")

    with pytest.raises(RuntimeError, match="write failed"):
        scan_rows("torus", {"d": [6, 7, 8], "euler": [12]}, failing_emit)
    assert seen == [{"d": 6, "euler": 12}, {"d": 7, "euler": 12}]
    assert obstruct._SCAN_MEMO.get() is None
    assert check_torus_builds(monkeypatch, 6, 12) == 2 * 5


@pytest.mark.parametrize(
    "family, check, ranges, name, value",
    [
        ("lens", "check_lens", {"p": [2.5], "n": [1]}, "p", "2.5"),
        ("torus", "check_torus", {"d": ["3"], "euler": [1]}, "d", "'3'"),
        ("sphere", "check_sphere", {"d": [5, 6], "euler": [2], "grading": [4, None]}, "grading", "None"),
        ("exact", "exact_verdict", {"d": range(2, 5), "euler": (1, 2.0)}, "euler", "2.0"),
    ],
)
def test_scan_refuses_a_value_that_is_not_an_int_before_any_row(monkeypatch, family, check, ranges, name, value):
    checks = counting(monkeypatch, obstruct, check)
    message = f"scan parameter '{name}' takes integers, not {value}"
    with pytest.raises(ValueError, match=re.escape(message)):
        scan(family, ranges)
    assert checks == []


def test_scan_refuses_a_grid_above_the_limit_before_reading_it():
    for stop in (10**12, 10**30):
        start = time.perf_counter()
        message = f"scan grid size is {stop - 2}, above the limit of {MAX_LENGTH}"
        with pytest.raises(ValueError, match=re.escape(message)):
            scan("lens", {"p": range(2, stop), "n": [1]})
        assert time.perf_counter() - start < 1.0
    # the grid is sized before the family's other checks, as on the command line
    with pytest.raises(ValueError, match="scan grid size is 20000"):
        scan("lens", {"p": range(0, 40000, 2), "euler": [1]})
    # an empty axis leaves no rows, however long the others
    assert scan("lens", {"p": range(2, 10**12), "n": []}) == []


def test_scan_reads_an_axis_to_one_value_past_the_limit():
    read = []

    def values():
        for p in itertools.count(2):
            read.append(p)
            yield p

    message = f"scan parameter 'p' has more values than the limit of {MAX_LENGTH}"
    with pytest.raises(ValueError, match=re.escape(message)):
        scan("lens", {"p": values(), "n": [1]})
    assert len(read) == MAX_LENGTH + 1
    # a grid at the limit runs, its generator read once
    rows = scan("lens", {"p": (p for p in range(2, MAX_LENGTH + 2)), "n": [1]})
    assert len(rows) == MAX_LENGTH
    assert rows[0].params == {"p": 2, "n": 1}


# -------------------------------------------- scans equal checks, row by row

DIRECT_CHECKS = {
    "sphere": lambda p, s: check_sphere(p["d"], p["euler"], p["grading"]),
    "torus": lambda p, s: check_torus(p["d"], p["euler"]),
    "prodsph": lambda p, s: check_product_spheres(p["l"], p["m"], p["euler"]),
    "lens": lambda p, s: check_lens(p["p"], p["n"]),
    "exact": lambda p, s: exact_verdict(p["d"], p["euler"], s),
}


def values(lo, hi):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=4)


# small grids with values out of each domain, l > m, gradings that do not
# divide 2 N_e, and a sphere grading left to its default
small_grids = st.one_of(
    st.tuples(
        st.just("sphere"),
        st.fixed_dictionaries({"d": values(0, 12), "euler": values(0, 8)}, optional={"grading": values(0, 18)}),
        st.just(False),
    ),
    st.tuples(st.just("torus"), st.fixed_dictionaries({"d": values(0, 14), "euler": values(0, 30)}), st.just(False)),
    st.tuples(
        st.just("prodsph"),
        st.fixed_dictionaries({"l": values(0, 8), "m": values(0, 9), "euler": values(0, 30)}),
        st.just(False),
    ),
    st.tuples(st.just("lens"), st.fixed_dictionaries({"p": values(0, 60), "n": values(0, 8)}), st.just(False)),
    st.tuples(st.just("exact"), st.fixed_dictionaries({"d": values(0, 20), "euler": values(0, 60)}), st.booleans()),
)


def direct(family, params, use_surjectivity):
    try:
        return DIRECT_CHECKS[family](params, use_surjectivity).to_json_dict(), None
    except HypothesisViolation as exc:
        return None, {"cite": exc.cite, "message": str(exc)}
    except ValueError as exc:
        return None, {"cite": "usage-error", "message": str(exc)}


@settings(max_examples=200, deadline=None)
@given(small_grids)
def test_every_scan_row_equals_a_direct_check(grid):
    family, ranges, use_surjectivity = grid
    rows = scan(family, ranges, use_surjectivity)
    assert len(rows) == math.prod(len(set(v)) for v in ranges.values())
    for row in rows:
        verdict, error = direct(family, row.params, use_surjectivity)
        assert (None if row.verdict is None else row.verdict.to_json_dict(), row.error) == (verdict, error)


def test_scan_validates_family_and_parameters():
    with pytest.raises(ValueError):
        scan("moebius", {"d": [2]})
    with pytest.raises(ValueError):
        scan("lens", {"p": [2]})  # missing n
    with pytest.raises(ValueError):
        scan("lens", {"p": [2], "n": [1], "euler": [1]})
    with pytest.raises(ValueError, match=r"family 'torus' does not take \['surjectivity'\]"):
        scan("torus", {"d": [2], "euler": [1]}, use_surjectivity=True)


def test_verdict_json_dict_shape():
    verdict = check_lens(7, 3)
    doc = verdict.to_json_dict()
    assert doc["status"] == "Constrained"
    assert doc["constraints"] == {"m": [1]}
    assert all(set(step) == {"cite", "detail"} for step in doc["trace"])

    none_doc = check_sphere(5, 4, 8).to_json_dict()
    assert none_doc["constraints"] is None
