"""Verdict pipelines: class data, folding and profile rules combined.

Each check replays one obstruction argument and returns a Verdict whose
trace records every rule that fired, as (cite, detail) pairs.  Cites are
stable rule identifiers so reasoning can be diffed, not just outcomes.

Statuses never include "unobstructed": the machinery can rule embeddings
out or constrain them, but it cannot certify that one exists.

`FAMILIES` registers each candidate family once: its parameter names in
scan order, a call of its check taking the parameters as a dict plus the
surjectivity flag, whether the family takes that flag, and the parameters
a scan may leave out, each with the value it then takes from the others.
`scan` and the command line's `check` and `scan` subcommands are all built
from it.

A scan builds each distinct trace step once.  Its loop hands each row to a
callback as soon as the row is built (`scan` collects them, the command
line renders and writes them); while it runs, the steps and the folds
behind them are kept by the parameters they read, so rows that read the
same values share TraceStep objects.  A value whose steps hold more than
MAX_SHARED_DETAIL characters of detail is not kept: rebuilding it costs
about what reading its text does, and keeping every such step would grow
a large-d scan's memory with its grid.  A lone check builds every step
anew.
"""

from __future__ import annotations

import itertools
from contextvars import ContextVar
from functools import lru_cache
from math import gcd, isqrt
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from .coring import (
    _check_digits,
    make_complex_projective,
    make_product_spheres,
    make_sphere,
    make_torus,
)
from .fold import MAX_FOLD_MODULUS, _fold_ring
from .floer import (
    COHOMOLOGY_MINUS_ENDS,
    EQUALS_COHOMOLOGY,
    oh_profiles,
    sphere_local_rule,
    ss_collapse_certificate,
)

# Largest number whose divisors a check enumerates: p in check_lens (which
# reads primality off the same list) and N_e in exact_verdict.  _divisors
# factors n by trial division by the 168 primes below 1000, then a cofactor
# above 10^6 by Miller-Rabin and Pollard-Brent rho, in about n^(1/4) steps at
# worst, and builds the divisors from the prime powers.  Best of 5 (CPython
# 3.11, 2-core VM): check_lens(2^40 - 87, 3) takes 0.08 ms, exact_verdict(4,
# 999983 x 1000003) 0.24 ms and exact_verdict(4, 1000003^2) 0.75 ms.
MAX_DIVISOR_SEARCH = 1 << 40

# Upper bound on a length the user sets, checked before allocating: the
# points of a scan grid (one verdict per point; the command line writes each
# row as it is rendered) and the --modulus of the command line's fold and
# identity (one entry or binomial sum per residue).  It sits above every
# documented input, the largest being a 9,950-row lens scan.
MAX_LENGTH = 1 << 14

OBSTRUCTED = "Obstructed"
CONSTRAINED = "Constrained"
INCONCLUSIVE = "Inconclusive"

# Rule identifiers used as trace cites and in hypothesis errors.
CITE_CHERN_EQUALS_EULER = "chern-equals-euler"
CITE_MASLOV_SIMPLY_CONNECTED = "maslov-simply-connected"
CITE_MASLOV_EVEN_ORIENTATION = "maslov-even-orientation"
CITE_MASLOV_DIVIDES_TWICE_CHERN = "maslov-divides-twice-chern"
CITE_GRADING_DIVIDES_TWICE_CHERN = "grading-divides-twice-chern"
CITE_SEIDEL_PERIODICITY = "seidel-two-periodicity"
CITE_SPHERE_LOCAL_FLOER = "sphere-local-floer"
CITE_OH_MASLOV_RANGE = "oh-maslov-range"
CITE_OH_ADJACENT_RANGE = "oh-adjacent-range"
CITE_LOCAL_RULE_UNAVAILABLE = "local-rule-unavailable"
CITE_COLLAPSE_CERTIFICATE = "collapse-certificate"
CITE_FOLD_PERIODICITY = "fold-two-periodicity"
CITE_PERIODICITY_CONTRADICTION = "two-periodicity-contradiction"
CITE_CP_PROFILE = "cp-profile-requirement"
CITE_GRADING_TWO = "grading-two-uninformative"
CITE_GRADING_BELOW_RANGE = "grading-below-range"
CITE_GRADING_FOUR_EXCEPTION = "grading-four-exception"
CITE_EXCEPTIONAL_RETAINED = "exceptional-grading-retained"
CITE_FOLD_DISCREPANCY = "fold-discrepancy"
CITE_MASLOV_BOUND = "maslov-upper-bound"
CITE_INDEX_DIVISOR = "index-divisor-bound"
CITE_INDEX_SIZE = "index-size-bound"
CITE_INDEX_PARITY = "index-parity-sharpening"
CITE_INDEX_PRIME = "index-prime-forcing"
CITE_SURJECTIVITY = "surjectivity-rule"
CITE_H1_TORSION = "h1-torsion-nonzero"
CITE_MASLOV_EXACT = "maslov-exact"


class HypothesisViolation(Exception):
    """A check was invoked outside its standing hypotheses."""

    def __init__(self, cite: str, message: str) -> None:
        super().__init__(message)
        self.cite = cite


class TraceStep(NamedTuple):
    cite: str
    detail: str


class Verdict(NamedTuple):
    status: str
    constraints: Mapping[str, Any] | None
    trace: tuple[TraceStep, ...]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "constraints": dict(self.constraints) if self.constraints is not None else None,
            "trace": [{"cite": s.cite, "detail": s.detail} for s in self.trace],
        }


class ScanRow(NamedTuple):
    params: dict[str, int]
    verdict: Verdict | None
    error: dict[str, str] | None


def _primes_below(n: int) -> list[int]:
    # the sieve of Eratosthenes
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return list(itertools.compress(range(n), sieve))


# _divisors divides n by these first, so a cofactor it leaves below 1000^2 is
# 1 or a prime
_TRIAL_PRIMES = _primes_below(1000)


def _is_prime(n: int) -> bool:
    # Miller-Rabin for an odd n > 17; the bases 2..17 decide every n below
    # 3.4 x 10^14, above MAX_DIVISOR_SEARCH
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s t, t odd
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, (n - 1) >> s, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _proper_factor(n: int, c: int = 1) -> int:
    # a factor 1 < g < n of a composite n with no factor below 1000, by
    # Brent's variant of Pollard's rho: y -> y^2 + c mod n, the differences
    # x - y multiplied in batches of 128 between gcds, and a batch whose gcd
    # is n stepped again one gcd at a time; a walk that meets itself mod n
    # before mod a factor is followed by the walk of c + 1
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        for k in range(0, r, 128):
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            if g != 1:
                break
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
    return g if g != n else _proper_factor(n, c + 1)


def _large_primes(n: int) -> list[int]:
    # the prime factors of n > 1, with multiplicity, n having none below 1000
    if n < 1000**2 or _is_prime(n):
        return [n]
    g = _proper_factor(n)
    return _large_primes(g) + _large_primes(n // g)


def _divisors(n: int) -> list[int]:
    # Every divisor of 1 <= n <= MAX_DIVISOR_SEARCH, ascending.  Trial division
    # up to min(sqrt(n), 1000) leaves 1, a prime, or a cofactor of at least
    # 1000^2 that _large_primes splits; the powers of each prime multiply the
    # divisors of the part of n factored before it, then one sort.
    divisors = [1]
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            powers = [p]
            n //= p
            while n % p == 0:
                powers.append(powers[-1] * p)
                n //= p
            divisors += [d * q for q in powers for d in divisors]
    if 1 < n < 1000**2:
        divisors += [d * n for d in divisors]
    elif n > 1:
        large = _large_primes(n)
        for p in set(large):
            powers = [p**k for k in range(1, large.count(p) + 1)]
            divisors += [d * q for q in powers for d in divisors]
    divisors.sort()
    return divisors


def _check_length(what: str, n: int) -> None:
    if n > MAX_LENGTH:
        _check_digits(what, n)  # a grid size, a product of axes, can outgrow them
        raise ValueError(f"{what} is {n}, above the limit of {MAX_LENGTH}")


def _check_limit(name: str, value: int, limit: int) -> None:
    # A check refuses an argument too long to print before it formats it:
    # here, or up front for an argument that no limit or ring bounds.
    if value > limit:
        _check_digits(name, value)
        raise ValueError(f"{name} = {value} is above the limit of {limit}")


# The values the running scan has built, by build function and typed arguments.
# scan sets a fresh dict and resets it when it ends, so nothing is kept
# between scans and a check called on its own builds everything.
_SCAN_MEMO: ContextVar[dict[tuple, Any] | None] = ContextVar("lagcut_scan_memo", default=None)

# Most characters of TraceStep detail a memoized value may hold, here and in
# the command line's per-document text of each step.  A sweep's steps hold
# under 1 KB; a fold step at large d holds megabytes.
MAX_SHARED_DETAIL = 1 << 16


def _detail_size(value: Any) -> int:
    # the characters of detail in the TraceSteps of a built value, in one
    # pass: a value is a step or a tuple holding steps and tuples of steps
    if type(value) is TraceStep:
        return len(value.detail)
    size = 0
    for item in value if type(value) is tuple else ():
        if type(item) is TraceStep:
            size += len(item.detail)
        elif type(item) is tuple:
            for step in item:
                size += len(step.detail)
    return size


def _shared(build: Callable[..., Any], *args: Any) -> Any:
    # build(*args), built once per scan for each distinct argument tuple
    # unless its steps are too large to keep.  The key holds the argument
    # types, as the ring memos do, so a step for True is not the step for 1.
    memo = _SCAN_MEMO.get()
    if memo is None:
        return build(*args)
    key = (build, *args, *map(type, args))
    value = memo.get(key)
    if value is None:
        value = build(*args)
        if _detail_size(value) <= MAX_SHARED_DETAIL:
            memo[key] = value
    return value


# trace steps whose text reads no parameter
_TORUS_ORIENTABLE = TraceStep(
    CITE_MASLOV_EVEN_ORIENTATION, "the torus is orientable, so its Maslov number N is even"
)
_TORUS_GRADING_TWO = TraceStep(
    CITE_GRADING_TWO, "N = 2 cannot be excluded: every fold is 2-periodic mod 2"
)
_TORUS_MASLOV_NUMBERS = TraceStep(CITE_MASLOV_BOUND, "admissible Maslov numbers: [2]")
_PRODUCT_ORIENTABLE = TraceStep(
    CITE_MASLOV_EVEN_ORIENTATION, "a product of spheres is orientable, so N is even"
)
_SPHERE_GRADING_TWO = TraceStep(
    CITE_GRADING_TWO, "N = 2: the period-2 shift is the identity, no information"
)
_EXACT_INDEX = TraceStep(CITE_MASLOV_EXACT, "an exact candidate of index m has N_L = 2m")
_SURJECTIVITY = TraceStep(CITE_SURJECTIVITY, "surjectivity rule active: m = 1 forced")


def _even_gradings(N_e: int) -> tuple[list[int], TraceStep]:
    # The even candidates for a Maslov number dividing 2 N_e, ascending, and
    # the step that lists them; callers only read the list.  N = 2k divides
    # 2 N_e exactly when k divides N_e.
    candidates = [2 * k for k in _divisors(N_e)]
    step = TraceStep(
        CITE_MASLOV_DIVIDES_TWICE_CHERN,
        f"N divides 2 N_W = {2 * N_e}: candidates {candidates}",
    )
    return candidates, step


def _seidel_step(N: int) -> TraceStep:
    return TraceStep(
        CITE_SEIDEL_PERIODICITY,
        f"HF is Z/{N}-graded and 2-periodic (mod-{N} Maslov class vanishes)",
    )


def _index_divisors(name: str, n: int) -> tuple[list[int], TraceStep]:
    # the divisors of n, which callers only read, and the step naming n
    return _divisors(n), TraceStep(CITE_INDEX_DIVISOR, f"m divides {name} = {n}")


def _index_size_step(d: int) -> TraceStep:
    return TraceStep(CITE_INDEX_SIZE, f"2m <= d + 2 = {d + 2}")


def _require_grading_divides(N: int, N_e: int) -> None:
    if (2 * N_e) % N != 0:
        raise HypothesisViolation(
            CITE_GRADING_DIVIDES_TWICE_CHERN,
            f"grading N = {N} must divide 2 N_e = {2 * N_e}",
        )


def check_simply_connected_in_cut(d: int, N_e: int, N: int) -> Verdict:
    """Exclude or constrain all simply connected candidates at grading N.

    Above d + 2 the grading leaves empty degrees of both parities, so a
    2-periodic nonzero profile cannot exist.  At exactly d + 2 the answer
    depends on the parity of d: odd dimensions are excluded outright and
    even ones must carry the cohomology of a complex projective space.
    """
    _check_digits("d", d)
    _check_digits("N_e", N_e)
    _check_digits("N", N)
    if d < 2:
        raise ValueError("d must be >= 2")
    if N_e < 1:
        raise ValueError("N_e must be >= 1")
    if N <= 2:
        raise ValueError("grading N must exceed 2")
    _require_grading_divides(N, N_e)
    trace = [
        TraceStep(CITE_CHERN_EQUALS_EULER, f"N_W = N_e = {N_e}"),
        TraceStep(
            CITE_MASLOV_SIMPLY_CONNECTED,
            f"simply connected candidates have N_L = 2 N_W = {2 * N_e} >= N",
        ),
        _seidel_step(N),
    ]
    # N_L >= N, so whenever the Maslov-range rule holds at N it holds at N_L
    if oh_profiles(d, N) == (EQUALS_COHOMOLOGY,):
        trace.append(
            TraceStep(
                CITE_OH_MASLOV_RANGE,
                f"N_L >= N = {N} >= d + 2 = {d + 2} forces HF = H^*",
            )
        )
    if N > d + 2:
        trace.append(
            TraceStep(
                CITE_PERIODICITY_CONTRADICTION,
                f"degrees {d + 1}..{N - 1} are empty and the period-2 shift "
                "carries every residue into an empty one, forcing H^* = 0 "
                "against b_0 = 1",
            )
        )
        return Verdict(OBSTRUCTED, None, tuple(trace))
    if N == d + 2:
        if d % 2 == 1:
            trace.append(
                TraceStep(
                    CITE_PERIODICITY_CONTRADICTION,
                    f"N = d + 2 = {N} is odd, the period-2 shift cycles through "
                    f"all residues including the empty degree {d + 1}, "
                    "forcing H^* = 0 against b_0 = 1",
                )
            )
            return Verdict(OBSTRUCTED, None, tuple(trace))
        cp = make_complex_projective(d // 2)
        trace.append(
            TraceStep(
                CITE_FOLD_PERIODICITY,
                f"with the single empty residue {d + 1}, 2-periodicity forces "
                "b_k = 0 for odd k and b_k = 1 for even k",
            )
        )
        trace.append(
            TraceStep(
                CITE_CP_PROFILE,
                f"any embedded candidate must have the Betti numbers of {cp.label}",
            )
        )
        constraints = {
            "required_profile": cp.label,
            "required_betti": list(cp.betti),
        }
        return Verdict(CONSTRAINED, constraints, tuple(trace))
    trace.append(
        TraceStep(
            CITE_GRADING_BELOW_RANGE,
            f"N = {N} < d + 2 = {d + 2}: 2-periodic profiles in this grading "
            "exist among candidate rings, the dimension count is silent",
        )
    )
    return Verdict(INCONCLUSIVE, None, tuple(trace))


def exact_verdict(d: int, N_e: int, use_surjectivity: bool = False) -> Verdict:
    """Admissible indices m for an exact candidate with zero Maslov class.

    m divides N_e and 2m <= d + 2; the surjectivity rule keeps only m = 1.
    """
    _check_digits("d", d)
    if d < 2:
        raise ValueError("d must be >= 2")
    if N_e < 1:
        raise ValueError("N_e must be >= 1")
    _check_limit("N_e", N_e, MAX_DIVISOR_SEARCH)
    divisors, divides = _shared(_index_divisors, "N_e", N_e)
    admissible = [m for m in divisors if 2 * m <= d + 2]
    if use_surjectivity:
        admissible = [m for m in admissible if m == 1]
    h1_nonzero_forced = 2 * N_e > d + 2
    trace = [_EXACT_INDEX, divides, _shared(_index_size_step, d)]
    if use_surjectivity:
        trace.append(_SURJECTIVITY)
    if h1_nonzero_forced:
        trace.append(
            TraceStep(
                CITE_H1_TORSION,
                f"2 N_e = {2 * N_e} > d + 2 = {d + 2}: H^1(L; Z/{N_e}) "
                "cannot vanish",
            )
        )
    constraints = {
        "m": admissible,
        "surjectivity_rule_applied": use_surjectivity,
        "h1_nonzero_forced": h1_nonzero_forced,
    }
    return Verdict(CONSTRAINED, constraints, tuple(trace))


def _sphere_head(N_e: int) -> tuple[TraceStep, TraceStep]:
    return (
        TraceStep(CITE_CHERN_EQUALS_EULER, f"N_W = N_e = {N_e}"),
        TraceStep(CITE_MASLOV_SIMPLY_CONNECTED, f"N_L = 2 N_W = {2 * N_e}"),
    )


def _sphere_local(d: int, N_e: int) -> tuple[tuple[TraceStep, ...], bool]:
    # The steps the local and Maslov-range rules give at grading N > 2, and
    # whether they force HF = H^*, which leaves the verdict to the fold.
    n_l = 2 * N_e
    if sphere_local_rule(d, N_e):
        steps = [
            TraceStep(
                CITE_SPHERE_LOCAL_FLOER,
                f"2 N_W = {n_l} does not divide d + 1 = {d + 1}: HF = H^*",
            )
        ]
        # n_l does not divide d + 1 here, so n_l != d + 1 and the Maslov
        # range gives (EQUALS_COHOMOLOGY,) or nothing
        if oh_profiles(d, n_l):
            steps.append(
                TraceStep(
                    CITE_OH_MASLOV_RANGE,
                    f"also forced by the Maslov range: N_L = {n_l} >= d + 2 = {d + 2}",
                )
            )
        return tuple(steps), True
    if COHOMOLOGY_MINUS_ENDS in oh_profiles(d, n_l):
        step = TraceStep(
            CITE_OH_ADJACENT_RANGE,
            f"N_L = d + 1 = {d + 1}: HF is H^* or H^* without the end "
            "degrees, and the latter is trivial for a sphere, hence "
            "always 2-periodic",
        )
        return (step,), False
    step = TraceStep(
        CITE_LOCAL_RULE_UNAVAILABLE,
        f"2 N_W = {n_l} divides d + 1 = {d + 1} and N_L < d + 1: "
        "no rule pins HF down",
    )
    return (step,), False


def _sphere_fold(d: int, N: int) -> tuple[tuple[TraceStep, ...], str]:
    # the fold of the d-sphere at grading N: its steps and the status it gives
    text, zeros, periodic, _ = _fold_ring(make_sphere(d), N)
    step = TraceStep(
        CITE_FOLD_PERIODICITY,
        f"S = ({text}{', 0' * zeros}): 2-periodic = {periodic}" + ("" if periodic else ", contradiction"),
    )
    if not periodic:
        return (step,), OBSTRUCTED
    exception = TraceStep(
        CITE_GRADING_FOUR_EXCEPTION,
        f"N = {N}, d = {d}: the fold is 2-periodic (d = 2 mod 4 "
        "at grading 4), periodicity cannot exclude the sphere",
    )
    return (step, exception), INCONCLUSIVE


def check_sphere(d: int, N_e: int, N: int) -> Verdict:
    """Obstruction pipeline for a sphere candidate at grading N."""
    _check_digits("d", d)
    _check_digits("N_e", N_e)
    _check_digits("N", N)
    if d < 2:
        raise ValueError("d must be >= 2")
    if N_e < 1:
        raise ValueError("N_e must be >= 1")
    if N < 2:
        raise ValueError("grading N must be >= 2")
    _require_grading_divides(N, N_e)
    _check_limit("grading N", N, MAX_FOLD_MODULUS)
    trace = (*_shared(_sphere_head, N_e), _shared(_seidel_step, N))
    if N == 2:
        return Verdict(INCONCLUSIVE, None, (*trace, _SPHERE_GRADING_TWO))
    steps, forced = _shared(_sphere_local, d, N_e)
    if not forced:
        return Verdict(INCONCLUSIVE, None, trace + steps)
    fold, status = _shared(_sphere_fold, d, N)
    return Verdict(status, None, trace + steps + fold)


def _torus_grading(d: int, N: int) -> tuple[TraceStep, TraceStep]:
    # The collapse and fold steps of the d-torus at an even grading N >= 4.
    ring = make_torus(d)
    # always valid: degree-1 generators and N >= 4 make every target 2 - rN < 0
    nu = ss_collapse_certificate(ring, N)
    collapse = TraceStep(
        CITE_COLLAPSE_CERTIFICATE,
        f"N = {N}: all differential targets from degree-1 generators "
        f"are empty (nu = {nu}), so HF = H^*",
    )
    # No such fold is 2-periodic (README): a 2-periodic one would
    # equidistribute, N*S_0 = 2^d, and (1 + w)^d = 0 fails at w = e^(2 pi i/N).
    text, zeros, _, s0 = _fold_ring(ring, N)
    fold = TraceStep(
        CITE_FOLD_PERIODICITY,
        f"N = {N}: S = ({text}{', 0' * zeros}) is not equidistributed "
        f"(N*S_0 = {N * s0}, 2^d = {_power_of_two(d)}): excluded",
    )
    return collapse, fold


@lru_cache(maxsize=1)
def _power_of_two(d: int) -> str:
    return str(1 << d)  # printed by every excluded grading of the d-torus


def check_torus(d: int, N_e: int) -> Verdict:
    """Force the Maslov number of a torus candidate down to 2."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if N_e < 1:
        raise ValueError("N_e must be >= 1")
    _check_limit("2 N_e", 2 * N_e, MAX_FOLD_MODULUS)
    # refuses d above MAX_TORUS_DIM, whether or not a grading folds it
    make_torus(d)
    candidates, divides = _shared(_even_gradings, N_e)
    trace = [_TORUS_ORIENTABLE, divides, _TORUS_GRADING_TWO]
    for N in candidates:
        if N >= 4:
            trace += _shared(_torus_grading, d, N)
    trace.append(_TORUS_MASLOV_NUMBERS)
    return Verdict(CONSTRAINED, {"N": [2]}, tuple(trace))


_PRODUCT_EXCEPTIONS = {(1, 2), (4, 6)}


def _product_grading(l: int, m: int, N: int) -> tuple[tuple[TraceStep, ...], bool, bool]:
    # The steps of S^l x S^m at an even grading N above the bound m + 1,
    # whether N stays admissible, and whether the fold and the bound
    # disagree there.
    ring = make_product_spheres(l, m)
    # collapse holds: N >= m + 2 puts every target g + 1 - rN below 0
    targets = sorted({g + 1 - N for g in set(ring.generator_degrees)})
    collapse = TraceStep(
        CITE_COLLAPSE_CERTIFICATE,
        f"N = {N}: generator targets {targets} are all empty, HF = H^*",
    )
    text, zeros, periodic, _ = _fold_ring(ring, N)
    if not periodic:
        step = TraceStep(
            CITE_FOLD_PERIODICITY,
            f"N = {N}: S = ({text}{', 0' * zeros}) is not 2-periodic: excluded",
        )
        return (collapse, step), False, False
    profile = f"({text}{', 0' * zeros})"
    if l < m and N == m + 2 and (l, m) in _PRODUCT_EXCEPTIONS:
        step = TraceStep(
            CITE_EXCEPTIONAL_RETAINED,
            f"N = {N}: S = {profile} is 2-periodic; the "
            f"exceptional shape (l, m) = ({l}, {m}) is retained at "
            "the boundary grading",
        )
        return (collapse, step), True, False
    if l == m:
        step = TraceStep(
            CITE_FOLD_DISCREPANCY,
            f"N = {N}: DISCREPANCY: S = {profile} is 2-periodic "
            "although the equal-factor case is asserted obstructed; "
            "the raw fold is reported and the conflict flagged",
        )
        return (collapse, step), True, True
    step = TraceStep(
        CITE_FOLD_DISCREPANCY,
        f"N = {N}: DISCREPANCY: S = {profile} is 2-periodic "
        f"yet the bound N <= {m + 1} excludes this grading; the "
        "bound is applied and the conflict flagged",
    )
    return (collapse, step), False, True


def check_product_spheres(l: int, m: int, N_e: int) -> Verdict:
    """Bound the Maslov number of a product-of-spheres candidate.

    Gradings above the bound m + 1 are excluded through collapse plus
    2-periodicity, with two documented exceptional shapes retained at
    exactly m + 2.  Wherever the raw dimension fold disagrees with the
    stated bound the grading is flagged, never silently overridden.
    """
    if l < 1 or m < l:
        raise ValueError("need 1 <= l <= m")
    if N_e < 1:
        raise ValueError("N_e must be >= 1")
    _check_limit("2 N_e", 2 * N_e, MAX_FOLD_MODULUS)
    # refuses a ring too large to check, whether or not a grading folds it
    make_product_spheres(l, m)
    candidates, divides = _shared(_even_gradings, N_e)
    bound = m + 1
    trace = [_PRODUCT_ORIENTABLE, divides]
    admissible: list[int] = []
    excluded: list[int] = []
    discrepancy: list[int] = []
    for N in candidates:
        if N <= bound:
            admissible.append(N)
            continue
        steps, kept, flagged = _shared(_product_grading, l, m, N)
        trace += steps
        (admissible if kept else excluded).append(N)
        if flagged:
            discrepancy.append(N)
    exceptional = [x for x in admissible if x >= m + 2 and l < m]
    trace.append(
        TraceStep(
            CITE_MASLOV_BOUND,
            f"surviving gradings {sorted(admissible)} against bound N <= {bound}"
            + (f" with exceptions {exceptional}" if exceptional else ""),
        )
    )
    constraints = {
        "N": sorted(admissible),
        "bound": bound,
        "excluded_N": sorted(excluded),
        "exceptional_N": sorted(exceptional),
        "discrepancy_N": sorted(discrepancy),
    }
    return Verdict(CONSTRAINED, constraints, tuple(trace))


def _lens_dimension(n: int) -> tuple[TraceStep, TraceStep, TraceStep]:
    # the three steps that read only the dimension d = 2n + 1
    d = 2 * n + 1
    return (
        TraceStep(CITE_MASLOV_EXACT, f"dimension d = 2n + 1 = {d}, N_L = 2m"),
        _index_size_step(d),
        TraceStep(
            CITE_INDEX_PARITY,
            f"2m = {d + 2} is odd and cannot be realised, so m <= n + 1 = {n + 1}",
        ),
    )


def check_lens(p: int, n: int) -> Verdict:
    """Admissible indices for lens-space candidates of dimension 2n + 1."""
    _check_digits("n", n)
    if p < 2:
        raise ValueError("p must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_limit("p", p, MAX_DIVISOR_SEARCH)
    divisors, divides = _shared(_index_divisors, "p", p)
    # m divides p and 2m <= d + 2 = 2n + 3, that is m <= n + 1
    admissible = [m for m in divisors if m <= n + 1]
    exact, size, parity = _shared(_lens_dimension, n)
    trace = [exact, divides, size, parity]
    # p >= 2 is prime exactly when its only divisors are 1 and p
    if len(divisors) == 2 and p > n + 1:
        trace.append(
            TraceStep(
                CITE_INDEX_PRIME,
                f"p = {p} is prime and exceeds n + 1 = {n + 1}: only m = 1 survives",
            )
        )
    trace.append(TraceStep(CITE_MASLOV_BOUND, f"admissible indices: {admissible}"))
    return Verdict(CONSTRAINED, {"m": admissible}, tuple(trace))


_FamilyCheck = Callable[[dict[str, int], bool], Verdict]
_ScanDefault = Callable[[dict[str, int]], int]

FAMILIES: dict[str, tuple[tuple[str, ...], _FamilyCheck, bool, dict[str, _ScanDefault]]] = {
    # The checks are looked up as module globals on each call, so a
    # rebinding of obstruct.check_* reaches scan and the command line.
    "sphere": (
        ("d", "euler", "grading"),
        lambda p, s: check_sphere(p["d"], p["euler"], p["grading"]),
        False,
        # a sphere scan without a grading folds at N = 2 N_e
        {"grading": lambda p: 2 * p["euler"]},
    ),
    "torus": (("d", "euler"), lambda p, s: check_torus(p["d"], p["euler"]), False, {}),
    "prodsph": (
        ("l", "m", "euler"),
        lambda p, s: check_product_spheres(p["l"], p["m"], p["euler"]),
        False,
        {},
    ),
    "lens": (("p", "n"), lambda p, s: check_lens(p["p"], p["n"]), False, {}),
    "exact": (("d", "euler"), lambda p, s: exact_verdict(p["d"], p["euler"], s), True, {}),
}


def scan(
    family: str,
    ranges: Mapping[str, Iterable[int]],
    use_surjectivity: bool = False,
) -> list[ScanRow]:
    """Run one check over a parameter grid, rows in lexicographic order.

    Rows whose parameters violate a check's hypotheses or fall outside its
    domain are kept in place with the violated rule recorded (cite
    "usage-error" for the latter), so one bad row never aborts a sweep.
    A grid of more than MAX_LENGTH points, an axis of more than MAX_LENGTH
    values, or a range value that is not an int is a ValueError before any
    row runs.  Rows that read the same values share their TraceStep objects.
    """
    rows: list[ScanRow] = []
    _scan_rows(rows.append, family, ranges, use_surjectivity)
    return rows


def _scan_rows(
    emit: Callable[[ScanRow], object],
    family: str,
    ranges: Mapping[str, Iterable[int]],
    use_surjectivity: bool,
) -> None:
    # scan's loop: every check of the arguments, then each row to emit as it
    # is built.  Each axis is read once, a range by its length and any other
    # iterable to one value past MAX_LENGTH, so no grid above the limit is
    # expanded.  The memo is set and reset in this frame, however it ends.
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    order, check, takes_surjectivity, defaults = FAMILIES[family]
    names, values, points = [p for p in order if p in ranges], [], 1
    for name in names:
        axis = ranges[name]
        if type(axis) is range:
            # len() refuses a range longer than sys.maxsize
            points *= max(0, -((axis.start - axis.stop) // axis.step))
        else:
            axis = list(itertools.islice(axis, MAX_LENGTH + 1))
            if len(axis) > MAX_LENGTH:
                raise ValueError(f"scan parameter {name!r} has more values than the limit of {MAX_LENGTH}")
            points *= len(axis)
        values.append(axis)
    _check_length("scan grid size", points)
    for p in order:
        if p not in ranges and p not in defaults:
            raise ValueError(f"family {family!r} needs a range for {p!r}")
    unknown = set(ranges) - set(order)
    if use_surjectivity and not takes_surjectivity:
        unknown.add("surjectivity")
    if unknown:
        raise ValueError(f"family {family!r} does not take {sorted(unknown)}")
    # a value that is not an int refuses the whole grid before any is hashed;
    # a range holds only ints
    for name, axis in zip(names, values):
        for value in () if type(axis) is range else axis:
            if not isinstance(value, int):
                raise ValueError(f"scan parameter {name!r} takes integers, not {value!r}")
    # an empty grid has no rows, however long its other axes
    axes = [sorted(set(axis)) if points else [] for axis in values]
    token = _SCAN_MEMO.set({})
    try:
        for combo in itertools.product(*axes):
            params = dict(zip(names, combo))
            for name, default in defaults.items():
                if name not in params:
                    params[name] = default(params)
            try:
                row = ScanRow(params, check(params, use_surjectivity), None)
            except (HypothesisViolation, ValueError) as exc:
                error = {"cite": getattr(exc, "cite", "usage-error"), "message": str(exc)}
                row = ScanRow(params, None, error)
            emit(row)
            # the next row's check runs without this row held
            del row
    finally:
        _SCAN_MEMO.reset(token)
