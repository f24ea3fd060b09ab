"""Independent oracles for every operation the benchmark sends.

Nothing here imports lagcut.  Each oracle states the expected answer from
the rule the paper gives, computed by the most direct means available
(math.comb, residue sums, trial division), and each checker compares one
operation's output with it.  A checker returns one of:

  ok         the output is the expected verdict, or a typed error on an
             input outside the domain;
  wrong      the output disagrees with the oracle (a failed op, and the
             run is not correct);
  refused    a typed error on an input inside the domain (a failed op);
  lost_rows  a scan that did not return one row per grid point (a failed op).
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

OK, WRONG, REFUSED, LOST_ROWS = "ok", "wrong", "refused", "lost_rows"

PRODUCT_EXCEPTIONS = {(1, 2), (4, 6)}


def divisors(n: int) -> list[int]:
    """Divisors of n >= 1, ascending, by trial division up to sqrt(n)."""
    small, large = [], []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k * k != n:
                large.append(n // k)
        k += 1
    return small + large[::-1]


def residue_fold(degrees: dict[int, int], N: int) -> list[int]:
    """Direct residue sum: S_j = sum of dims in degrees k = j mod N."""
    out = [0] * N
    for k, b in degrees.items():
        out[k % N] += b
    return out


def two_periodic(S: list[int]) -> bool:
    N = len(S)
    return all(S[j] == S[(j + 2) % N] for j in range(N))


def sphere_degrees(d: int) -> dict[int, int]:
    return {0: 1, d: 1}


def torus_degrees(d: int) -> dict[int, int]:
    return {k: math.comb(d, k) for k in range(d + 1)}


def prodsph_degrees(l: int, m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for k in (0, l, m, l + m):
        out[k] = out.get(k, 0) + 1
    return out


def cp_degrees(n: int) -> dict[int, int]:
    return {k: 1 for k in range(0, 2 * n + 1, 2)}


# -- verdict oracles: (status, constraints) or None outside the domain --------


def sphere_verdict(d: int, N_e: int, N: int):
    if d < 2 or N_e < 1 or N < 2 or (2 * N_e) % N:
        return None
    if N == 2 or (d + 1) % (2 * N_e) == 0:
        return "Inconclusive", None
    if two_periodic(residue_fold(sphere_degrees(d), N)):
        return "Inconclusive", None
    return "Obstructed", None


def torus_verdict(d: int, N_e: int):
    if d < 1 or N_e < 1:
        return None
    # (1 + z)^d vanishes at a root of unity z only for z = -1, so no even
    # grading N >= 4 equidistributes the torus and N = 2 alone survives.
    return "Constrained", {"N": [2]}


def prodsph_verdict(l: int, m: int, N_e: int):
    if l < 1 or m < l or N_e < 1:
        return None
    dims = prodsph_degrees(l, m)
    candidates = [N for N in divisors(2 * N_e) if N % 2 == 0]
    admissible, excluded, discrepancy = [], [], []
    for N in candidates:
        if N <= m + 1:
            admissible.append(N)
            continue
        targets = [g + 1 - r * N for r in range(1, (l + m + 1) // N + 1) for g in {l, m}]
        if any(dims.get(t, 0) for t in targets):
            admissible.append(N)
            continue
        if not two_periodic(residue_fold(dims, N)):
            excluded.append(N)
        elif l < m and N == m + 2 and (l, m) in PRODUCT_EXCEPTIONS:
            admissible.append(N)
        elif l == m:
            admissible.append(N)
            discrepancy.append(N)
        else:
            excluded.append(N)
            discrepancy.append(N)
    return "Constrained", {
        "N": admissible,
        "bound": m + 1,
        "excluded_N": excluded,
        "exceptional_N": [N for N in admissible if N >= m + 2 and l < m],
        "discrepancy_N": discrepancy,
    }


def lens_verdict(p: int, n: int):
    if p < 2 or n < 1:
        return None
    # 2m <= d + 2 = 2n + 3 and m <= n + 1 are the same bound on an integer m
    return "Constrained", {"m": [m for m in divisors(p) if m <= n + 1]}


def exact_verdict(d: int, N_e: int, surjectivity: bool):
    if d < 2 or N_e < 1:
        return None
    ms = [m for m in divisors(N_e) if 2 * m <= d + 2]
    if surjectivity:
        ms = [m for m in ms if m == 1]
    return "Constrained", {
        "m": ms,
        "surjectivity_rule_applied": surjectivity,
        "h1_nonzero_forced": 2 * N_e > d + 2,
    }


LIBRARY_ORACLES = {
    "check_sphere": sphere_verdict,
    "check_torus": torus_verdict,
    "check_product_spheres": prodsph_verdict,
    "check_lens": lens_verdict,
    "exact_verdict": exact_verdict,
}


def check_library(name: str, args: tuple, verdict) -> str:
    """Compare a library verdict object with the oracle for its call."""
    expected = LIBRARY_ORACLES[name](*args)
    got = verdict.to_json_dict()
    if expected is None or (got["status"], got["constraints"]) != expected or not got["trace"]:
        return WRONG
    return OK


# -- CLI oracles --------------------------------------------------------------


def _options(tokens: list[str]) -> dict[str, str | bool]:
    opts: dict[str, str | bool] = {}
    i = 0
    while i < len(tokens):
        key = tokens[i][2:]
        if key == "surjectivity":
            opts[key] = True
            i += 1
        else:
            opts[key] = tokens[i + 1]
            i += 2
    return opts


def _pi(fr: Fraction) -> dict:
    return {"num": fr.numerator, "den": fr.denominator, "unit": "pi"}


def _pi_text(fr: Fraction) -> str:
    if fr == 0:
        return "0"
    plain = str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"
    return plain + "·π"


def classes_doc(euler: int, level: Fraction, dim: int):
    if euler < 1 or dim < 2 or level >= 0:
        return None
    return {
        "euler": euler,
        "dim": dim,
        "level": {"num": level.numerator, "den": level.denominator},
        "N_W": euler,
        "omega_W": _pi(-2 * level),
        "K_W": _pi(-2 * level),
        "K_L": _pi(-level),
        "N_V": 2,
        "pi2_rel": "Z",
        "pi1_total": "trivial" if euler == 1 else f"Z/{euler}",
        "monotone": True,
        "monotone_constant": _pi(-level),
        "disc_area": _pi(-2 * level),
        "reduced_omega": _pi(-2 * level),
        "reduced_c1_real": {"num": 0, "den": 1},
    }


def identity_doc(d: int, N: int):
    if d < 1 or N < 2 or N % 2:
        return None
    S = [sum(math.comb(d, i) for i in range(j, d + 1, N)) for j in range(N)]
    pow2 = 2**d
    return {
        "d": d,
        "N": N,
        "S": S,
        "NS0": N * S[0],
        "pow": pow2,
        "holds": all(s == S[0] for s in S) and N * S[0] == pow2,
    }


def _candidate(spec: str):
    kind, _, rest = spec.partition(":")
    fields = dict(piece.split("=", 1) for piece in re.split(r",(?![^\[]*\])", rest))
    if kind == "sphere":
        d = int(fields["d"])
        return (f"sphere:d={d}", sphere_degrees(d)) if d >= 1 else None
    if kind == "torus":
        d = int(fields["d"])
        return (f"torus:d={d}", torus_degrees(d)) if d >= 1 else None
    if kind == "prodsph":
        l, m = int(fields["l"]), int(fields["m"])
        return (f"prodsph:l={l},m={m}", prodsph_degrees(l, m)) if 1 <= l <= m else None
    if kind == "cp":
        n = int(fields["n"])
        return (f"cp:n={n}", cp_degrees(n)) if n >= 1 else None
    if kind == "custom":
        betti = json.loads(fields["betti"])
        return "custom", dict(enumerate(betti))
    raise ValueError(f"no oracle for candidate kind {kind!r}")


def fold_doc(spec: str, N: int):
    cand = _candidate(spec)
    if cand is None or N < 1:
        return None
    label, dims = cand
    S = residue_fold(dims, N)
    return {
        "candidate": spec,
        "label": label,
        "modulus": N,
        "S": S,
        "total": sum(S),
        "two_periodic": two_periodic(S),
    }


def check_doc(target: str, opts: dict):
    if target == "sphere":
        v = sphere_verdict(int(opts["d"]), int(opts["euler"]), int(opts["grading"]))
    elif target == "torus":
        v = torus_verdict(int(opts["d"]), int(opts["euler"]))
    elif target == "prodsph":
        v = prodsph_verdict(int(opts["l"]), int(opts["m"]), int(opts["euler"]))
    elif target == "lens":
        v = lens_verdict(int(opts["p"]), int(opts["n"]))
    else:
        v = exact_verdict(int(opts["d"]), int(opts["euler"]), bool(opts.get("surjectivity")))
    if v is None:
        return None
    return {"status": v[0], "constraints": v[1]}


def _is_typed_error(code: int, out: str, fmt: str) -> bool:
    if code not in (1, 2):
        return False
    if fmt == "json":
        try:
            err = json.loads(out).get("error")
        except (ValueError, AttributeError):
            return False
        return isinstance(err, dict) and bool(err.get("cite"))
    return bool(re.match(r"(error \[[^\]]+\]|usage error): ", out))


def _parse_text(cmd: str, out: str) -> dict:
    """Read the fields a text report states back into a JSON-shaped dict."""
    lines = out.splitlines()
    if cmd == "classes":
        return dict(line.split(None, 1) for line in lines)
    if cmd == "identity":
        d, N = re.fullmatch(r"d = (\d+)  N = (\d+)", lines[0]).groups()
        S = [int(line.split()[1]) for line in lines[2:-3]]
        ns0, pow2 = re.fullmatch(r"N·S_0 = (\d+)  2\^d = (\d+)", lines[-3]).groups()
        return {
            "d": int(d),
            "N": int(N),
            "S": S,
            "NS0": int(ns0),
            "pow": int(pow2),
            "holds": lines[-2] == "identity holds: true",
            "residual": float(lines[-1].split("= ")[1]),
        }
    if cmd == "fold":
        fields = dict(line.split(": ", 1) if ": " in line else line.split(" = ", 1) for line in lines)
        return {
            "candidate": fields["candidate"],
            "modulus": int(fields["modulus"]),
            "S": json.loads(fields["S"]),
            "total": int(fields["total"]),
            "two_periodic": fields["two-periodic"] == "true",
        }
    # check: "status: X", then "constraints: none" or indented "key = json"
    constraints = None
    for line in lines[1:]:
        if line == "trace:":
            break
        if line.startswith("  "):
            key, _, value = line.strip().partition(" = ")
            constraints[key] = json.loads(value)
        elif line == "constraints:":
            constraints = {}
    return {"status": lines[0].removeprefix("status: "), "constraints": constraints}


def _classes_text(doc: dict) -> dict:
    def plain(fr: dict) -> str:
        return str(fr["num"]) if fr["den"] == 1 else f"{fr['num']}/{fr['den']}"

    out = {k: str(doc[k]) for k in ("euler", "dim", "N_W", "N_V", "pi2_rel", "pi1_total")}
    for k in ("omega_W", "K_W", "K_L", "monotone_constant", "disc_area", "reduced_omega"):
        out[k] = _pi_text(Fraction(doc[k]["num"], doc[k]["den"]))
    out["level"] = plain(doc["level"])
    out["monotone"] = "true"
    out["reduced_c1_real"] = plain(doc["reduced_c1_real"])
    return out


def check_cli(argv: list[str], code: int, out: str) -> str:
    """Compare one non-scan `lagcut.cli.run` result with its oracle."""
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    cmd = argv[0]
    rest = argv[2:] if cmd == "check" else argv[1:]
    opts = _options([t for t in rest if t not in ("--format", fmt)])
    if cmd == "classes":
        expected = classes_doc(int(opts["euler"]), Fraction(opts["level"]), int(opts.get("dim", 3)))
    elif cmd == "identity":
        expected = identity_doc(int(opts["d"]), int(opts["modulus"]))
    elif cmd == "fold":
        expected = fold_doc(opts["candidate"], int(opts["modulus"]))
    else:
        expected = check_doc(argv[1], opts)
    if _is_typed_error(code, out, fmt):
        return OK if expected is None else REFUSED
    if expected is None or code != 0:
        return WRONG
    try:
        got = json.loads(out) if fmt == "json" else _parse_text(cmd, out)
    except (ValueError, AttributeError, IndexError, KeyError, TypeError):
        return WRONG
    if cmd == "identity":
        residual = got.pop("residual", None)
        if not isinstance(residual, float) or not abs(residual) <= 1e-6:
            return WRONG
    if cmd == "check":
        if fmt == "json" and not got.pop("trace", None):
            return WRONG
    if cmd == "classes" and fmt == "text":
        expected = _classes_text(expected)
    if cmd == "fold" and fmt == "text":
        del expected["label"]
    return OK if got == expected else WRONG


SCAN_ORDER = {
    "sphere": ("d", "euler", "grading"),
    "torus": ("d", "euler"),
    "prodsph": ("l", "m", "euler"),
    "lens": ("p", "n"),
    "exact": ("d", "euler"),
}


def _span(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def scan_grid(argv: list[str]) -> tuple[str, list[dict[str, int]], bool]:
    """Family, grid points in lexicographic order, and the surjectivity flag."""
    opts = _options([t for t in argv[1:] if t not in ("--format", "json")])
    family = opts["family"]
    names = [p for p in SCAN_ORDER[family] if p in opts]
    points = [dict(zip(names, combo)) for combo in itertools.product(*(_span(opts[p]) for p in names))]
    if family == "sphere":
        for point in points:
            point.setdefault("grading", 2 * point["euler"])
    return family, points, bool(opts.get("surjectivity"))


def _row_verdict(family: str, params: dict[str, int], surjectivity: bool):
    if family == "sphere":
        return sphere_verdict(params["d"], params["euler"], params["grading"])
    if family == "torus":
        return torus_verdict(params["d"], params["euler"])
    if family == "prodsph":
        return prodsph_verdict(params["l"], params["m"], params["euler"])
    if family == "lens":
        return lens_verdict(params["p"], params["n"])
    return exact_verdict(params["d"], params["euler"], surjectivity)


def check_scan(argv: list[str], code: int, out: str) -> tuple[str, int]:
    """Check a JSON scan document row by row; return (outcome, good rows)."""
    family, points, surjectivity = scan_grid(argv)
    try:
        rows = json.loads(out)["rows"]
    except (ValueError, KeyError, TypeError):
        return LOST_ROWS, 0
    if len(rows) != len(points):
        return LOST_ROWS, 0
    try:
        any_error = False
        for point, row in zip(points, rows):
            if row["params"] != point:
                return WRONG, 0
            expected = _row_verdict(family, point, surjectivity)
            if expected is None:
                any_error = True
                if row["verdict"] is not None or not row["error"]["cite"]:
                    return WRONG, 0
                continue
            verdict = row["verdict"]
            if verdict is None:
                return REFUSED, 0
            if (verdict["status"], verdict["constraints"]) != expected or not verdict["trace"]:
                return WRONG, 0
    except (KeyError, TypeError):
        return WRONG, 0
    if code != (2 if any_error else 0):
        return WRONG, 0
    return OK, len(rows)
