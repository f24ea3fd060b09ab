"""Verdict pipelines: class data, folding and profile rules combined.

Each check replays one obstruction argument and returns a Verdict whose
trace records every rule that fired, as (cite, detail) pairs.  Cites are
stable rule identifiers so reasoning can be diffed, not just outcomes.

Statuses never include "unobstructed": the machinery can rule embeddings
out or constrain them, but it cannot certify that one exists.

`FAMILIES` registers each candidate family once: its parameter names in
scan order, and a call of its check taking the parameters as a dict plus
the surjectivity flag.  `scan` and the command line's `check` and `scan`
subcommands are all built from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt
from typing import Any, Callable, Iterable, Mapping

from .coring import make_complex_projective, make_product_spheres, make_torus
from .fold import fold_mod, is_two_periodic
from .floer import oh_profiles, sphere_local_rule, ss_collapse_certificate

# Largest grading a check folds into: 2 N_e for check_torus and
# check_product_spheres, which fold at every even divisor N of 2 N_e, and
# the grading N of check_sphere.  Each fold allocates N entries and its
# trace prints them.  At 2 N_e = 2,096,640, the even number under the limit
# with the largest sum of even divisors, `check torus --d 64 --format json`
# takes 1.3 s and 160 MB and prints 27 MB; check_sphere at N = 2^21 takes
# 0.35 s.
MAX_FOLD_MODULUS = 1 << 21

# Largest number whose divisors a check enumerates in O(sqrt(n)) steps: p
# in check_lens (which also tests p for primality the same way) and N_e in
# exact_verdict.  At the prime 2^40 - 87 check_lens takes 0.2 s and
# exact_verdict 0.08 s.
MAX_DIVISOR_SEARCH = 1 << 40

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


@dataclass(frozen=True)
class TraceStep:
    cite: str
    detail: str


@dataclass(frozen=True)
class Verdict:
    status: str
    constraints: Mapping[str, Any] | None
    trace: tuple[TraceStep, ...]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "constraints": dict(self.constraints) if self.constraints is not None else None,
            "trace": [{"cite": s.cite, "detail": s.detail} for s in self.trace],
        }


@dataclass(frozen=True)
class ScanRow:
    params: dict[str, int]
    verdict: Verdict | None
    error: dict[str, str] | None


def _divisors(n: int) -> list[int]:
    small = [k for k in range(1, isqrt(n) + 1) if n % k == 0]
    return small + [n // k for k in reversed(small) if k * k != n]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _check_limit(name: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"{name} = {value} is above the limit of {limit}")


def _even_grading_candidates(N_e: int) -> list[int]:
    # Even candidates for a Maslov number dividing 2 N_e, ascending.
    return [N for N in _divisors(2 * N_e) if N % 2 == 0]


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
        TraceStep(
            CITE_SEIDEL_PERIODICITY,
            f"HF is Z/{N}-graded and 2-periodic (mod-{N} Maslov class vanishes)",
        ),
    ]
    if N >= d + 2:
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
    if d < 2:
        raise ValueError("d must be >= 2")
    if N_e < 1:
        raise ValueError("N_e must be >= 1")
    _check_limit("N_e", N_e, MAX_DIVISOR_SEARCH)
    admissible = [m for m in _divisors(N_e) if 2 * m <= d + 2]
    if use_surjectivity:
        admissible = [m for m in admissible if m == 1]
    h1_nonzero_forced = 2 * N_e > d + 2
    trace = [
        TraceStep(CITE_MASLOV_EXACT, "an exact candidate of index m has N_L = 2m"),
        TraceStep(CITE_INDEX_DIVISOR, f"m divides N_e = {N_e}"),
        TraceStep(CITE_INDEX_SIZE, f"2m <= d + 2 = {d + 2}"),
    ]
    if use_surjectivity:
        trace.append(
            TraceStep(CITE_SURJECTIVITY, "surjectivity rule active: m = 1 forced")
        )
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


def check_sphere(d: int, N_e: int, N: int) -> Verdict:
    """Obstruction pipeline for a sphere candidate at grading N."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if N_e < 1:
        raise ValueError("N_e must be >= 1")
    if N < 2:
        raise ValueError("grading N must be >= 2")
    _require_grading_divides(N, N_e)
    _check_limit("grading N", N, MAX_FOLD_MODULUS)
    n_l = 2 * N_e
    trace = [
        TraceStep(CITE_CHERN_EQUALS_EULER, f"N_W = N_e = {N_e}"),
        TraceStep(CITE_MASLOV_SIMPLY_CONNECTED, f"N_L = 2 N_W = {n_l}"),
        TraceStep(
            CITE_SEIDEL_PERIODICITY,
            f"HF is Z/{N}-graded and 2-periodic (mod-{N} Maslov class vanishes)",
        ),
    ]
    if N == 2:
        trace.append(
            TraceStep(
                CITE_GRADING_TWO,
                "N = 2: the period-2 shift is the identity, no information",
            )
        )
        return Verdict(INCONCLUSIVE, None, tuple(trace))

    local = sphere_local_rule(d, N_e)
    if local is not None:
        trace.append(
            TraceStep(
                CITE_SPHERE_LOCAL_FLOER,
                f"2 N_W = {n_l} does not divide d + 1 = {d + 1}: HF = H^*",
            )
        )
        # n_l does not divide d + 1 here, so n_l != d + 1 and a nonempty
        # Maslov-range set is exactly {HF = H^*}
        if oh_profiles(local.source, n_l):
            trace.append(
                TraceStep(
                    CITE_OH_MASLOV_RANGE,
                    f"also forced by the Maslov range: N_L = {n_l} >= d + 2 = {d + 2}",
                )
            )
        profile = local.fold(N)
        periodic = is_two_periodic(profile)
        trace.append(
            TraceStep(
                CITE_FOLD_PERIODICITY,
                f"S = {profile.dims}: 2-periodic = {periodic}"
                + ("" if periodic else ", contradiction"),
            )
        )
        if periodic:
            trace.append(
                TraceStep(
                    CITE_GRADING_FOUR_EXCEPTION,
                    f"N = {N}, d = {d}: the fold is 2-periodic (d = 2 mod 4 "
                    "at grading 4), periodicity cannot exclude the sphere",
                )
            )
            return Verdict(INCONCLUSIVE, None, tuple(trace))
        return Verdict(OBSTRUCTED, None, tuple(trace))

    if n_l == d + 1:
        trace.append(
            TraceStep(
                CITE_OH_ADJACENT_RANGE,
                f"N_L = d + 1 = {d + 1}: HF is H^* or H^* without the end "
                "degrees, and the latter is trivial for a sphere, hence "
                "always 2-periodic",
            )
        )
        return Verdict(INCONCLUSIVE, None, tuple(trace))
    trace.append(
        TraceStep(
            CITE_LOCAL_RULE_UNAVAILABLE,
            f"2 N_W = {n_l} divides d + 1 = {d + 1} and N_L < d + 1: "
            "no rule pins HF down",
        )
    )
    return Verdict(INCONCLUSIVE, None, tuple(trace))


def check_torus(d: int, N_e: int) -> Verdict:
    """Force the Maslov number of a torus candidate down to 2."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if N_e < 1:
        raise ValueError("N_e must be >= 1")
    _check_limit("2 N_e", 2 * N_e, MAX_FOLD_MODULUS)
    ring = make_torus(d)
    candidates = _even_grading_candidates(N_e)
    trace = [
        TraceStep(
            CITE_MASLOV_EVEN_ORIENTATION,
            "the torus is orientable, so its Maslov number N is even",
        ),
        TraceStep(
            CITE_MASLOV_DIVIDES_TWICE_CHERN,
            f"N divides 2 N_W = {2 * N_e}: candidates {candidates}",
        ),
        TraceStep(
            CITE_GRADING_TWO,
            "N = 2 cannot be excluded: every fold is 2-periodic mod 2",
        ),
    ]
    retained = [2]
    for N in candidates:
        if N < 4:
            continue
        # always valid: degree-1 generators and N >= 4 make every target 2 - rN < 0
        cert = ss_collapse_certificate(ring, N)
        trace.append(
            TraceStep(
                CITE_COLLAPSE_CERTIFICATE,
                f"N = {N}: all differential targets from degree-1 generators "
                f"are empty (nu = {cert.nu}), so HF = H^*",
            )
        )
        # For even N the even and odd binomial sums are each 2^(d-1), so
        # the fold is 2-periodic exactly when it equidistributes.
        profile = fold_mod(ring, N)
        ns0 = N * profile.dims[0]
        if is_two_periodic(profile):
            retained.append(N)
            trace.append(
                TraceStep(
                    CITE_FOLD_PERIODICITY,
                    f"N = {N}: folded dimensions equidistribute "
                    f"(N*S_0 = {ns0} = 2^d), grading retained",
                )
            )
        else:
            trace.append(
                TraceStep(
                    CITE_FOLD_PERIODICITY,
                    f"N = {N}: S = {profile.dims} is not equidistributed "
                    f"(N*S_0 = {ns0}, 2^d = {1 << d}): excluded",
                )
            )
    trace.append(
        TraceStep(CITE_MASLOV_BOUND, f"admissible Maslov numbers: {sorted(retained)}")
    )
    return Verdict(CONSTRAINED, {"N": sorted(retained)}, tuple(trace))


_PRODUCT_EXCEPTIONS = {(1, 2), (4, 6)}


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
    ring = make_product_spheres(l, m)
    candidates = _even_grading_candidates(N_e)
    bound = m + 1
    trace = [
        TraceStep(
            CITE_MASLOV_EVEN_ORIENTATION,
            "a product of spheres is orientable, so N is even",
        ),
        TraceStep(
            CITE_MASLOV_DIVIDES_TWICE_CHERN,
            f"N divides 2 N_W = {2 * N_e}: candidates {candidates}",
        ),
    ]
    admissible: list[int] = []
    excluded: list[int] = []
    discrepancy: list[int] = []
    for N in candidates:
        if N <= bound:
            admissible.append(N)
            continue
        # collapse holds: N >= m + 2 puts every target g + 1 - rN below 0
        targets = sorted({g + 1 - N for g in set(ring.generator_degrees)})
        trace.append(
            TraceStep(
                CITE_COLLAPSE_CERTIFICATE,
                f"N = {N}: generator targets {targets} are all empty, HF = H^*",
            )
        )
        profile = fold_mod(ring, N)
        periodic = is_two_periodic(profile)
        if not periodic:
            excluded.append(N)
            trace.append(
                TraceStep(
                    CITE_FOLD_PERIODICITY,
                    f"N = {N}: S = {profile.dims} is not 2-periodic: excluded",
                )
            )
            continue
        if l < m and N == m + 2 and (l, m) in _PRODUCT_EXCEPTIONS:
            admissible.append(N)
            trace.append(
                TraceStep(
                    CITE_EXCEPTIONAL_RETAINED,
                    f"N = {N}: S = {profile.dims} is 2-periodic; the "
                    f"exceptional shape (l, m) = ({l}, {m}) is retained at "
                    "the boundary grading",
                )
            )
        elif l == m:
            admissible.append(N)
            discrepancy.append(N)
            trace.append(
                TraceStep(
                    CITE_FOLD_DISCREPANCY,
                    f"N = {N}: DISCREPANCY: S = {profile.dims} is 2-periodic "
                    "although the equal-factor case is asserted obstructed; "
                    "the raw fold is reported and the conflict flagged",
                )
            )
        else:
            excluded.append(N)
            discrepancy.append(N)
            trace.append(
                TraceStep(
                    CITE_FOLD_DISCREPANCY,
                    f"N = {N}: DISCREPANCY: S = {profile.dims} is 2-periodic "
                    f"yet the bound N <= {bound} excludes this grading; the "
                    "bound is applied and the conflict flagged",
                )
            )
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


def check_lens(p: int, n: int) -> Verdict:
    """Admissible indices for lens-space candidates of dimension 2n + 1."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_limit("p", p, MAX_DIVISOR_SEARCH)
    d = 2 * n + 1
    # m divides p and 2m <= d + 2 = 2n + 3, that is m <= n + 1
    admissible = [m for m in _divisors(p) if m <= n + 1]
    trace = [
        TraceStep(CITE_MASLOV_EXACT, f"dimension d = 2n + 1 = {d}, N_L = 2m"),
        TraceStep(CITE_INDEX_DIVISOR, f"m divides p = {p}"),
        TraceStep(CITE_INDEX_SIZE, f"2m <= d + 2 = {d + 2}"),
        TraceStep(
            CITE_INDEX_PARITY,
            f"2m = {d + 2} is odd and cannot be realised, so m <= n + 1 = {n + 1}",
        ),
    ]
    if _is_prime(p) and p > n + 1:
        trace.append(
            TraceStep(
                CITE_INDEX_PRIME,
                f"p = {p} is prime and exceeds n + 1 = {n + 1}: only m = 1 survives",
            )
        )
    trace.append(TraceStep(CITE_MASLOV_BOUND, f"admissible indices: {admissible}"))
    return Verdict(CONSTRAINED, {"m": admissible}, tuple(trace))


FAMILIES: dict[str, tuple[tuple[str, ...], Callable[[dict[str, int], bool], Verdict]]] = {
    # The checks are looked up as module globals on each call, so a
    # rebinding of obstruct.check_* reaches scan and the command line.
    "sphere": (
        ("d", "euler", "grading"),
        lambda p, s: check_sphere(p["d"], p["euler"], p["grading"]),
    ),
    "torus": (("d", "euler"), lambda p, s: check_torus(p["d"], p["euler"])),
    "prodsph": (
        ("l", "m", "euler"),
        lambda p, s: check_product_spheres(p["l"], p["m"], p["euler"]),
    ),
    "lens": (("p", "n"), lambda p, s: check_lens(p["p"], p["n"])),
    "exact": (("d", "euler"), lambda p, s: exact_verdict(p["d"], p["euler"], s)),
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
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    order, check = FAMILIES[family]
    required = [p for p in order if p != "grading"]
    for p in required:
        if p not in ranges:
            raise ValueError(f"family {family!r} needs a range for {p!r}")
    unknown = set(ranges) - set(order)
    if unknown:
        raise ValueError(f"family {family!r} does not take {sorted(unknown)}")
    axes = [sorted(set(ranges[p])) for p in order if p in ranges]
    names = [p for p in order if p in ranges]
    rows: list[ScanRow] = []
    for combo in itertools.product(*axes):
        params = dict(zip(names, combo))
        if family == "sphere" and "grading" not in params:
            params["grading"] = 2 * params["euler"]
        try:
            verdict = check(params, use_surjectivity)
            rows.append(ScanRow(params=params, verdict=verdict, error=None))
        except (HypothesisViolation, ValueError) as exc:
            cite = exc.cite if isinstance(exc, HypothesisViolation) else "usage-error"
            error = {"cite": cite, "message": str(exc)}
            rows.append(ScanRow(params=params, verdict=None, error=error))
    return rows
