"""Command-line front end for the obstruction engine.

Subcommands: `classes` (characteristic numbers of a cut), `identity`
(folded binomial sums and the distribution identity), `fold` (fold any
candidate ring), `check` (one verdict pipeline), `scan` (a pipeline over
a parameter grid), plus `--batch FILE` to run many commands from JSON.

Exit codes: 0 success, 1 usage error, 2 hypothesis violation.  All class
values cross the interface as exact rationals; the only floats are trig
residuals, rendered with 9 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable

from .charnum import (
    CircleBundle,
    NotMonotoneLevelError,
    UndeterminableError,
    build_cut,
    maslov_zero_section,
    pi1_total,
)
from .coring import (
    CohomologyRing,
    make_complex_projective,
    make_custom,
    make_product_spheres,
    make_sphere,
    make_torus,
)
from .fold import fold_mod, is_two_periodic, roots_of_unity_residual, torus_identity_check
from .obstruct import FAMILIES, HypothesisViolation, scan

# every family parameter, first-seen order, so argparse messages keep it
_SCAN_PARAMS = tuple(dict.fromkeys(p for params, _ in FAMILIES.values() for p in params))

# Upper bound on a length the user sets: the --modulus of fold and identity
# (one entry or binomial sum per residue) and the number of points in a scan
# grid (one verdict per point).  It sits above every documented input, the
# largest being a 9,950-row lens scan, and is checked before allocating.
MAX_LENGTH = 1 << 14

# Upper bound on the decimal digits of a number the user writes that a
# report computes with: the numerator and denominator of a rational level
# (exponent included, checked before the literal is expanded) and each
# entry of a custom ring's lists.  A report doubles a level and sums Betti
# numbers, and CPython prints ints of at most 4,300 digits.
MAX_DIGITS = 4096
_DIGITS_BOUND = 10**MAX_DIGITS


class UsageError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of printing and exiting so run() stays a pure function
    # of argv
    def error(self, message: str) -> None:
        raise UsageError(message)

    def print_help(self, file: Any = None) -> None:
        raise _HelpRequested(self.format_help())


# CPython 3.11 skips its C encoder whenever an indent is given, so the
# indented form is rendered here in one direct pass.
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
    float: json.dumps,
}


# what a subclass of a JSON type renders as, tested in the order json does
_BASES = (str, int, float, list, tuple, dict)


@lru_cache(maxsize=64)
def _key_order(keys: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
    # A dict's keys in sorted order, each with its rendered '"key": ' head.
    # The documents here reuse a few key sets (13 across a sweep's scans),
    # so each set is sorted and encoded once.
    return tuple((k, f"{encode_basestring_ascii(k)}: ") for k in sorted(keys))


def _render(doc: Any, pad: str) -> str:
    # The exact container types are tested first, and a container renders
    # its scalar children in its own loop, through _SCALARS, instead of
    # calling _render once per scalar.
    kind = type(doc)
    if kind is not dict and kind is not list and kind is not tuple:
        scalar = _SCALARS.get(kind)
        if scalar is not None:
            return scalar(doc)
        kind = next((base for base in _BASES if isinstance(doc, base)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")
        if kind in _SCALARS:
            return _SCALARS[kind](doc)
        if kind is dict:
            # read a mapping subclass through items(), as json does
            doc = dict(doc.items())
    get, inner = _SCALARS.get, pad + "  "
    parts = []
    if kind is dict:
        for k, head in _key_order(tuple(doc)):
            v = doc[k]
            scalar = get(type(v))
            # one expression, so no local keeps a rendered child alive
            parts.append(head + (scalar(v) if scalar is not None else _render(v, inner)))
        brackets = "{}"
    else:
        for v in doc:
            scalar = get(type(v))
            parts.append(scalar(v) if scalar is not None else _render(v, inner))
        brackets = "[]"
    if not parts:
        return brackets
    sep = ",\n" + inner
    return f"{brackets[0]}\n{inner}{sep.join(parts)}\n{pad}{brackets[1]}"


def canonical_json(doc: Any) -> str:
    """Exactly json.dumps(doc, indent=2, sort_keys=True) plus a newline.

    Dict keys must be strings, which every document here has.
    """
    return _render(doc, "") + "\n"


def round_float(x: float) -> float:
    """Round to 9 significant digits, the only precision we render."""
    return float(f"{x:.9g}")


def _check_digits(what: str, value: int) -> None:
    if abs(value) >= _DIGITS_BOUND:
        raise ValueError(f"{what} has more than {MAX_DIGITS} digits")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or a decimal literal into an exact rational.

    Its numerator and denominator may have at most MAX_DIGITS digits.
    """
    exponent = text.lower().partition("e")[2].strip().lstrip("+-").lstrip("0")
    if exponent.isdecimal() and (
        len(exponent) > len(str(MAX_DIGITS)) or int(exponent) > MAX_DIGITS
    ):
        raise ValueError(f"the exponent of {text!r} is above the limit of {MAX_DIGITS}")
    try:
        fr = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc
    _check_digits(f"the numerator of {text!r}", fr.numerator)
    _check_digits(f"the denominator of {text!r}", fr.denominator)
    return fr


def rational_json(fr: Fraction) -> dict[str, int]:
    return {"num": fr.numerator, "den": fr.denominator}


def pi_json(fr: Fraction) -> dict[str, Any]:
    return {"num": fr.numerator, "den": fr.denominator, "unit": "pi"}


def render_plain(fr: Fraction) -> str:
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


def render_pi(fr: Fraction) -> str:
    if fr == 0:
        return "0"
    return f"{render_plain(fr)}·π"


def _fraction_of(doc: dict[str, int]) -> Fraction:
    return Fraction(doc["num"], doc["den"])


def _range_bounds(text: str) -> tuple[int, int]:
    lo_s, sep, hi_s = text.strip().partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if sep else lo
    except ValueError as exc:
        raise ValueError(f"bad range {text!r}") from exc
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def parse_range(text: str) -> list[int]:
    """Parse 'lo..hi' (inclusive) or a bare integer into a list."""
    lo, hi = _range_bounds(text)
    return list(range(lo, hi + 1))


def _check_length(what: str, n: int) -> None:
    if n > MAX_LENGTH:
        raise ValueError(f"{what} is {n}, above the limit of {MAX_LENGTH}")


def _split_top(text: str) -> list[str]:
    # split on commas outside brackets, so list-valued fields survive
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced ']' in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced '[' in {text!r}")
    parts.append("".join(current))
    return parts


def _int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{what} must be a JSON list of integers") from exc
    if not isinstance(values, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in values
    ):
        raise ValueError(f"{what} must be a JSON list of integers")
    for v in values:
        _check_digits(f"an entry of {what}", v)
    return tuple(values)


def parse_candidate(spec: str) -> CohomologyRing:
    """Build a candidate ring from a specifier like 'sphere:d=7'.

    Known kinds: sphere:d=, torus:d=, prodsph:l=,m=, cp:n=, and
    custom:betti=[...],gens=[...].
    """
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"candidate {spec!r} must look like kind:key=value,...")
    fields: dict[str, str] = {}
    for piece in _split_top(rest):
        if not piece.strip():
            continue
        key, eq, value = piece.partition("=")
        if not eq:
            raise ValueError(f"candidate field {piece!r} is not key=value")
        fields[key.strip()] = value.strip()

    def need(key: str) -> str:
        if key not in fields:
            raise ValueError(f"candidate kind {kind!r} needs {key}=")
        return fields[key]

    def need_int(key: str) -> int:
        raw = need(key)
        try:
            return int(raw)
        except ValueError as exc:
            raise ValueError(f"candidate field {key}={raw!r} is not an integer") from exc

    if kind == "sphere":
        return make_sphere(need_int("d"))
    if kind == "torus":
        return make_torus(need_int("d"))
    if kind == "prodsph":
        return make_product_spheres(need_int("l"), need_int("m"))
    if kind == "cp":
        return make_complex_projective(need_int("n"))
    if kind == "custom":
        betti = _int_list(need("betti"), "betti")
        gens = _int_list(fields["gens"], "gens") if "gens" in fields else ()
        return make_custom(betti, gens)
    raise ValueError(f"unknown candidate kind {kind!r}")


def _merge_rationals(argv: list[str]) -> list[str]:
    # glue '--level -1/2' into '--level=-1/2' so the parser never sees a
    # bare token that starts with '-'
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--level" and i + 1 < len(argv):
            out.append(f"--level={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _build_parser() -> _Parser:
    top = _Parser(prog="lagcut", description="obstruction engine for Lagrangians in cuts")
    top.add_argument("--batch", metavar="FILE", help="JSON array of {command, args} entries")
    sub = top.add_subparsers(dest="cmd")

    classes = sub.add_parser("classes", help="characteristic numbers of a monotone cut")
    classes.add_argument("--euler", type=int, required=True)
    classes.add_argument("--level", type=str, required=True, help="rational, e.g. -1/2")
    classes.add_argument("--dim", type=int, default=3, help="dimension of the total space")
    _add_format(classes)

    identity = sub.add_parser("identity", help="folded binomial sums and N*S_0 vs 2^d")
    identity.add_argument("--d", type=int, required=True)
    identity.add_argument("--modulus", type=int, required=True)
    _add_format(identity)

    fold = sub.add_parser("fold", help="fold a candidate ring mod N")
    fold.add_argument("--candidate", type=str, required=True, help="e.g. sphere:d=7")
    fold.add_argument("--modulus", type=int, required=True)
    _add_format(fold)

    check = sub.add_parser("check", help="run one verdict pipeline")
    targets = check.add_subparsers(dest="target", required=True)

    for family, (params, _) in FAMILIES.items():
        target = targets.add_parser(family)
        for name in params:
            target.add_argument(f"--{name}", type=int, required=True)
        if family == "exact":
            target.add_argument("--surjectivity", action="store_true")
        _add_format(target)

    scan_p = sub.add_parser("scan", help="run a pipeline over a parameter grid")
    scan_p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    for name in _SCAN_PARAMS:
        scan_p.add_argument(f"--{name}", type=str, help="integer or lo..hi")
    scan_p.add_argument("--surjectivity", action="store_true")
    _add_format(scan_p)

    return top


def _cmd_classes(ns: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    if ns.euler < 1:
        raise ValueError("--euler must be >= 1")
    level = parse_rational(ns.level)
    bundle = CircleBundle(total_dim=ns.dim, euler_number=ns.euler)
    ctx = build_cut(bundle, level)
    section = maslov_zero_section(ctx)
    doc = {
        "euler": ns.euler,
        "dim": ns.dim,
        "level": rational_json(ctx.level),
        "N_W": ctx.chern_number,
        "omega_W": pi_json(ctx.omega_coeff),
        "K_W": pi_json(ctx.K_W),
        "K_L": pi_json(ctx.K_L),
        "N_V": section.N_V,
        "pi2_rel": section.pi2_rel,
        "pi1_total": pi1_total(bundle),
        "monotone": ctx.monotone,
        "monotone_constant": pi_json(section.monotone_constant),
        "disc_area": pi_json(section.disc_area),
        # the reduced space carries the class omega_W and no real first
        # Chern class, at every level
        "reduced_omega": pi_json(ctx.omega_coeff),
        "reduced_c1_real": rational_json(Fraction(0)),
    }
    return 0, doc


def _cmd_identity(ns: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    if ns.d < 1:
        raise ValueError("--d must be >= 1")
    _check_length("--modulus", ns.modulus)
    report = torus_identity_check(ns.d, ns.modulus)
    residual = roots_of_unity_residual(ns.d, ns.modulus)
    doc = {
        "d": ns.d,
        "N": ns.modulus,
        "S": list(report.sums),
        "NS0": report.NS0,
        "pow": report.pow,
        "holds": report.holds,
        "residual": round_float(residual),
    }
    return 0, doc


def _cmd_fold(ns: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    _check_length("--modulus", ns.modulus)
    ring = parse_candidate(ns.candidate)
    profile = fold_mod(ring, ns.modulus)
    doc = {
        "candidate": ns.candidate,
        "label": ring.label,
        "modulus": ns.modulus,
        "S": list(profile.dims),
        "total": profile.total,
        "two_periodic": is_two_periodic(profile),
    }
    return 0, doc


def _cmd_check(ns: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    params, check = FAMILIES[ns.target]
    verdict = check({p: getattr(ns, p) for p in params}, getattr(ns, "surjectivity", False))
    return 0, verdict.to_json_dict()


def _cmd_scan(ns: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    raws = {n: getattr(ns, n) for n in _SCAN_PARAMS if getattr(ns, n) is not None}
    bounds = {name: _range_bounds(raw) for name, raw in raws.items()}
    # the grid spans the family's own parameters; scan rejects any other one
    # before it reads a range, so the ranges go in unexpanded
    points = 1
    for name in FAMILIES[ns.family][0]:
        if name in bounds:
            lo, hi = bounds[name]
            points *= hi - lo + 1
    _check_length("scan grid size", points)
    ranges = {name: range(lo, hi + 1) for name, (lo, hi) in bounds.items()}
    rows = scan(ns.family, ranges, use_surjectivity=ns.surjectivity)
    code = 0
    row_docs = []
    for row in rows:
        if row.error is not None:
            code = 2
        row_docs.append(
            {
                "params": row.params,
                "verdict": row.verdict.to_json_dict() if row.verdict else None,
                "error": row.error,
            }
        )
    return code, {"family": ns.family, "rows": row_docs}


_DISPATCH = {
    "classes": _cmd_classes,
    "identity": _cmd_identity,
    "fold": _cmd_fold,
    "check": _cmd_check,
    "scan": _cmd_scan,
}


def _execute(ns: argparse.Namespace) -> tuple[int, dict[str, Any]]:
    try:
        return _DISPATCH[ns.cmd](ns)
    except HypothesisViolation as exc:
        return 2, {"error": {"cite": exc.cite, "message": str(exc)}}
    except NotMonotoneLevelError as exc:
        return 2, {"error": {"cite": "not-monotone-level", "message": str(exc)}}
    except UndeterminableError as exc:
        return 2, {"error": {"cite": "undeterminable", "message": str(exc)}}
    except ValueError as exc:
        return 1, {"error": {"cite": "usage-error", "message": str(exc)}}


def _text_error(doc: dict[str, Any]) -> str:
    err = doc["error"]
    return f"error [{err['cite']}]: {err['message']}\n"


def _text_classes(doc: dict[str, Any]) -> str:
    pairs = [
        ("euler", str(doc["euler"])),
        ("dim", str(doc["dim"])),
        ("level", render_plain(_fraction_of(doc["level"]))),
        ("N_W", str(doc["N_W"])),
        ("omega_W", render_pi(_fraction_of(doc["omega_W"]))),
        ("K_W", render_pi(_fraction_of(doc["K_W"]))),
        ("K_L", render_pi(_fraction_of(doc["K_L"]))),
        ("N_V", str(doc["N_V"])),
        ("pi2_rel", doc["pi2_rel"]),
        ("pi1_total", doc["pi1_total"]),
        ("monotone", "true" if doc["monotone"] else "false"),
        ("monotone_constant", render_pi(_fraction_of(doc["monotone_constant"]))),
        ("disc_area", render_pi(_fraction_of(doc["disc_area"]))),
        ("reduced_omega", render_pi(_fraction_of(doc["reduced_omega"]))),
        ("reduced_c1_real", render_plain(_fraction_of(doc["reduced_c1_real"]))),
    ]
    width = max(len(k) for k, _ in pairs)
    return "".join(f"{k:<{width}}  {v}\n" for k, v in pairs)


def _text_identity(doc: dict[str, Any]) -> str:
    lines = [f"d = {doc['d']}  N = {doc['N']}", "j  S_j"]
    for j, s in enumerate(doc["S"]):
        lines.append(f"{j}  {s}")
    lines.append(f"N·S_0 = {doc['NS0']}  2^d = {doc['pow']}")
    lines.append(f"identity holds: {'true' if doc['holds'] else 'false'}")
    lines.append(f"trig residual = {doc['residual']:.9g}")
    return "\n".join(lines) + "\n"


def _text_fold(doc: dict[str, Any]) -> str:
    lines = [
        f"candidate: {doc['candidate']}",
        f"modulus: {doc['modulus']}",
        f"S = {json.dumps(doc['S'])}",
        f"total = {doc['total']}",
        f"two-periodic: {'true' if doc['two_periodic'] else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def _text_verdict(doc: dict[str, Any]) -> str:
    lines = [f"status: {doc['status']}"]
    constraints = doc["constraints"]
    if constraints is None:
        lines.append("constraints: none")
    else:
        lines.append("constraints:")
        for key in sorted(constraints):
            lines.append(f"  {key} = {json.dumps(constraints[key], sort_keys=True)}")
    lines.append("trace:")
    for step in doc["trace"]:
        lines.append(f"  [{step['cite']}] {step['detail']}")
    return "\n".join(lines) + "\n"


def _text_scan(doc: dict[str, Any]) -> str:
    lines = [f"family: {doc['family']}"]
    errors = 0
    for row in doc["rows"]:
        head = " ".join(f"{k}={v}" for k, v in row["params"].items())
        if row["error"] is not None:
            errors += 1
            err = row["error"]
            lines.append(f"{head} :: error [{err['cite']}] {err['message']}")
        else:
            verdict = row["verdict"]
            tail = verdict["status"]
            if verdict["constraints"] is not None:
                tail += " " + json.dumps(verdict["constraints"], sort_keys=True)
            lines.append(f"{head} :: {tail}")
    lines.append(f"rows: {len(doc['rows'])}  errors: {errors}")
    return "\n".join(lines) + "\n"


_TEXT = {
    "classes": _text_classes,
    "identity": _text_identity,
    "fold": _text_fold,
    "check": _text_verdict,
    "scan": _text_scan,
}


def _run_batch(path: str) -> tuple[int, str]:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        return 1, f"usage error: cannot read batch file: {exc}\n"
    except ValueError as exc:
        # JSONDecodeError, and a file that is not text or holds an int of
        # more digits than CPython converts
        return 1, f"usage error: batch file is not valid JSON: {exc}\n"
    except RecursionError:
        return 1, "usage error: batch file nests too deeply\n"
    if not isinstance(raw, list):
        return 1, "usage error: batch file must hold a JSON array\n"
    parser = _build_parser()
    entries = []
    # validate every entry before running any, so a malformed batch is
    # rejected whole
    for idx, entry in enumerate(raw):
        ok = (
            isinstance(entry, dict)
            and isinstance(entry.get("command"), str)
            and isinstance(entry.get("args"), list)
            and all(isinstance(a, str) for a in entry["args"])
        )
        if not ok:
            return 1, f"usage error: batch entry {idx} must be {{command, args}} of strings\n"
        tokens = _merge_rationals([entry["command"], *entry["args"]])
        try:
            ns = parser.parse_args(tokens)
        except UsageError as exc:
            return 1, f"usage error: batch entry {idx} does not parse: {exc}\n"
        except _HelpRequested:
            return 1, f"usage error: batch entry {idx} asks for help, which has no report\n"
        if ns.batch or not ns.cmd:
            return 1, f"usage error: batch entry {idx} must name a subcommand\n"
        entries.append((entry, ns))
    worst = 0
    reports = []
    for entry, ns in entries:
        code, doc = _execute(ns)
        worst = max(worst, code)
        reports.append(
            {
                "command": entry["command"],
                "args": list(entry["args"]),
                "exit": code,
                "report": doc,
            }
        )
    return worst, canonical_json(reports)


def run(argv: list[str]) -> tuple[int, str]:
    """Dispatch one command line, returning (exit code, rendered output)."""
    try:
        ns = _build_parser().parse_args(_merge_rationals(list(argv)))
    except UsageError as exc:
        return 1, f"usage error: {exc}\n"
    except _HelpRequested as exc:
        return 0, str(exc)
    if ns.batch and ns.cmd:
        return 1, "usage error: --batch excludes a direct subcommand\n"
    if ns.batch:
        return _run_batch(ns.batch)
    if not ns.cmd:
        return 1, "usage error: a subcommand or --batch is required\n"
    code, doc = _execute(ns)
    if ns.format == "json":
        return code, canonical_json(doc)
    if "error" in doc:
        return code, _text_error(doc)
    return code, _TEXT[ns.cmd](doc)


def main(argv: list[str] | None = None) -> int:
    code, text = run(sys.argv[1:] if argv is None else list(argv))
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
