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
import os
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable

from .charnum import CircleBundle, build_cut, maslov_zero_section, pi1_total
from .coring import (
    MAX_DIGITS,
    CohomologyRing,
    _check_digits,
    make_complex_projective,
    make_custom,
    make_product_spheres,
    make_sphere,
    make_torus,
)
from .fold import InvalidModulusError, fold_mod, is_two_periodic, roots_of_unity_residual
from .obstruct import (
    FAMILIES, MAX_LENGTH, MAX_SHARED_DETAIL, HypothesisViolation, ScanRow, TraceStep, Verdict,
    _check_length, _scan_rows,
)

# every family parameter, first-seen order, so argparse messages keep it
_SCAN_PARAMS = tuple(dict.fromkeys(p for params, *_ in FAMILIES.values() for p in params))

# MAX_LENGTH, from obstruct, bounds a scan grid and the --modulus of fold and
# identity.  MAX_DIGITS, from coring, bounds the decimal digits of every number
# the user writes: each integer option, scan range end and candidate field, the
# numerator and denominator of a rational level (exponent included, checked
# before the literal is expanded) and each entry of a custom ring's lists.
# Reports double levels, and CPython prints ints of at most 4,300 digits.


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

    def parse_known_args(self, args: Any = None, namespace: Any = None) -> tuple[argparse.Namespace, list[str]]:
        # "--" as an option's own value (--d=--, or --level -- once glued by
        # _merge_rationals) is refused on every interpreter: argparse reads
        # it as the value from CPython 3.13 on, and before that drops it and
        # hands the option an empty list
        for token in args or ():
            option, _, value = token.partition("=")
            if value == "--" and option.startswith("--"):
                self.error(f"argument {option}: expected one argument")
        return super().parse_known_args(args, namespace)


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
    if kind is dict:
        return _render_dict(doc, pad)
    if kind is not list and kind is not tuple:
        scalar = _SCALARS.get(kind)
        if scalar is not None:
            return scalar(doc)
        result = _RESULTS.get(kind)
        if result is not None:
            return result(doc, pad)
        kind = next((base for base in _BASES if isinstance(doc, base)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")
        if kind in _SCALARS:
            return _SCALARS[kind](doc)
        if kind is dict:
            # read a mapping subclass through items(), as json does
            return _render_dict(dict(doc.items()), pad)
    if not doc:
        return "[]"
    get, inner = _SCALARS.get, pad + "  "
    parts = []
    for v in doc:
        scalar = get(type(v))
        parts.append(scalar(v) if scalar is not None else _render(v, inner))
    sep = ",\n" + inner
    return f"[\n{inner}{sep.join(parts)}\n{pad}]"


def _render_dict(doc: dict[str, Any], pad: str) -> str:
    if not doc:
        return "{}"
    get, inner = _SCALARS.get, pad + "  "
    parts = []
    for k, head in _key_order(tuple(doc)):
        v = doc[k]
        scalar = get(type(v))
        if scalar is not None:
            parts.append(head + scalar(v))
            continue
        # one expression, so no local keeps a rendered child alive
        parts.append(head + _render(v, inner))
    sep = ",\n" + inner
    return f"{{\n{inner}{sep.join(parts)}\n{pad}}}"


def _render_steps(trace: Iterable[TraceStep], pad: str, texts: dict[TraceStep, str]) -> str:
    # trace steps as {"cite", "detail"} at pad, joined as a list's items are;
    # texts keeps each step's text at pad unless its detail is longer than
    # MAX_SHARED_DETAIL, which the scan memo does not keep either
    inner, enc = pad + "  ", encode_basestring_ascii
    parts = []
    for s in trace:
        text = texts.get(s)
        if text is None:
            text = f'{{\n{inner}"cite": {enc(s.cite)},\n{inner}"detail": {enc(s.detail)}\n{pad}}}'
            if len(s.detail) <= MAX_SHARED_DETAIL:
                texts[s] = text
        parts.append(text)
    return f",\n{pad}".join(parts)


def _render_row(row: ScanRow | Verdict, pad: str, texts: dict[TraceStep, str]) -> str:
    # A ScanRow as {"error", "params", "verdict"}, or a Verdict alone as its
    # to_json_dict(), in one pass, its trace steps through texts.
    is_row = type(row) is ScanRow
    verdict, vpad = (row.verdict, pad + "  ") if is_row else (row, pad)
    text = "null"
    if verdict is not None:
        inner, c = vpad + "  ", verdict.constraints
        # constraints that are a mapping render as the dict to_json_dict() copies them into
        constraints = "null" if c is None else _render_dict(c if type(c) is dict else dict(c), inner)
        step = inner + "  "
        steps = f"[\n{step}{_render_steps(verdict.trace, step, texts)}\n{inner}]" if verdict.trace else "[]"
        text = (
            f'{{\n{inner}"constraints": {constraints},\n'
            f'{inner}"status": {encode_basestring_ascii(verdict.status)},\n{inner}"trace": {steps}\n{vpad}}}'
        )
    if not is_row:
        return text
    params = _render(row.params, vpad)
    error = "null" if row.error is None else _render(row.error, vpad)
    return f'{{\n{vpad}"error": {error},\n{vpad}"params": {params},\n{vpad}"verdict": {text}\n{pad}}}'


# the result types whose fields are their JSON keys; they are NamedTuples,
# so _render must look them up here before any tuple test.  Only a scan's
# rows reuse steps, so each result met in a document gets its own texts.
_RESULTS: dict[type, Callable[[Any, str], str]] = {
    TraceStep: lambda step, pad: _render_steps((step,), pad, {}),
    Verdict: lambda verdict, pad: _render_row(verdict, pad, {}),
    ScanRow: lambda row, pad: _render_row(row, pad, {}),
}


def canonical_json(doc: Any) -> str:
    """Exactly json.dumps(doc, indent=2, sort_keys=True) plus a newline.

    The library's entry point to the renderer the command line writes with;
    dict keys must be strings.  A TraceStep, Verdict or ScanRow renders as
    its fields' dict (a Verdict as its to_json_dict()) without building it.
    Only the command line's scan renders a step that many rows share once.
    """
    return _render(doc, "") + "\n"


def round_float(x: float) -> float:
    """Round to 9 significant digits, the only precision we render."""
    return float(f"{x:.9g}")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or a decimal literal into an exact rational.

    Its numerator and denominator may have at most MAX_DIGITS digits.  Digit
    underscores and whitespace beside the slash are refused: Fraction reads
    the first only from Python 3.11 on and the second only from 3.12 on.
    """
    num, slash, den = text.partition("/")
    if "_" in text or slash and (num[-1:].isspace() or den[:1].isspace()):
        raise ValueError(f"bad rational literal {text!r}")
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
    for end in (lo, hi):
        _check_digits(f"an end of range {text!r}", end)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def parse_range(text: str) -> list[int]:
    """Parse 'lo..hi' (inclusive) or a bare integer into a list."""
    lo, hi = _range_bounds(text)
    return list(range(lo, hi + 1))


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
    except ValueError as exc:
        # the only other error: an int literal longer than CPython converts
        raise ValueError(f"an entry of {what} has more than {MAX_DIGITS} digits") from exc
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
    custom:betti=[...],gens=[...] (gens optional).  A field given twice,
    or one the kind does not take, is refused.
    """
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"candidate {spec!r} must look like kind:key=value,...")
    fields: dict[str, str] = {}
    repeated: list[str] = []
    for piece in _split_top(rest):
        if not piece.strip():
            continue
        key, eq, value = piece.partition("=")
        if not eq:
            raise ValueError(f"candidate field {piece!r} is not key=value")
        key = key.strip()
        if key in fields:
            repeated.append(key)
        fields[key] = value.strip()

    def need(key: str) -> str:
        if key not in fields:
            raise ValueError(f"candidate kind {kind!r} needs {key}=")
        return fields.pop(key)

    def need_int(key: str) -> int:
        raw = need(key)
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"candidate field {key}={raw!r} is not an integer") from exc
        _check_digits(f"candidate field {key}={raw!r}", value)
        return value

    if kind == "sphere":
        ring = make_sphere(need_int("d"))
    elif kind == "torus":
        ring = make_torus(need_int("d"))
    elif kind == "prodsph":
        ring = make_product_spheres(need_int("l"), need_int("m"))
    elif kind == "cp":
        ring = make_complex_projective(need_int("n"))
    elif kind == "custom":
        betti = _int_list(need("betti"), "betti")
        gens = _int_list(need("gens"), "gens") if "gens" in fields else ()
        ring = make_custom(betti, gens)
    else:
        raise ValueError(f"unknown candidate kind {kind!r}")
    # after the build, so a spec the build refuses keeps that message;
    # need() has taken out every field the kind reads
    if repeated:
        raise ValueError(f"candidate field {repeated[0]}= is given twice")
    if fields:
        raise ValueError(f"candidate kind {kind!r} does not take {min(fields)}=")
    return ring


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


def _build_parser(tokens: frozenset[str] | None = None) -> _Parser:
    # argparse enters a subparser only for a token equal to its name, so
    # options go only to the subcommands and check targets named in
    # `tokens`; every one is still registered with its help, so choices,
    # errors and --help read the same.  None fills them all.
    def named(name: str) -> bool:
        return tokens is None or name in tokens

    top = _Parser(prog="lagcut", description="obstruction engine for Lagrangians in cuts")
    top.add_argument("--batch", metavar="FILE", help="JSON array of {command, args} entries")
    sub = top.add_subparsers(dest="cmd")

    classes = sub.add_parser("classes", help="characteristic numbers of a monotone cut")
    if named("classes"):
        classes.add_argument("--euler", type=int, required=True)
        classes.add_argument("--level", type=str, required=True, help="rational, e.g. -1/2")
        classes.add_argument("--dim", type=int, default=3, help="dimension of the total space")
        _add_format(classes)

    identity = sub.add_parser("identity", help="folded binomial sums and N*S_0 vs 2^d")
    if named("identity"):
        identity.add_argument("--d", type=int, required=True)
        identity.add_argument("--modulus", type=int, required=True)
        _add_format(identity)

    fold = sub.add_parser("fold", help="fold a candidate ring mod N")
    if named("fold"):
        fold.add_argument("--candidate", type=str, required=True, help="e.g. sphere:d=7")
        fold.add_argument("--modulus", type=int, required=True)
        _add_format(fold)

    check = sub.add_parser("check", help="run one verdict pipeline")
    if named("check"):
        targets = check.add_subparsers(dest="target", required=True)
        for family, (params, _, takes_surjectivity, _) in FAMILIES.items():
            target = targets.add_parser(family)
            if named(family):
                for name in params:
                    target.add_argument(f"--{name}", type=int, required=True)
                if takes_surjectivity:
                    target.add_argument("--surjectivity", action="store_true")
                _add_format(target)

    scan_p = sub.add_parser("scan", help="run a pipeline over a parameter grid")
    if named("scan"):
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
    if ns.modulus < 2 or ns.modulus % 2:
        raise InvalidModulusError("invalid-modulus: identity requires even N >= 2")
    # the even- and odd-index binomial sums are each 2^(d-1): 2-periodic iff every N S_j = 2^d
    S = fold_mod(make_torus(ns.d), ns.modulus)
    doc = {
        "d": ns.d,
        "N": ns.modulus,
        "S": list(S),
        "NS0": ns.modulus * S[0],
        "pow": 1 << ns.d,
        "holds": is_two_periodic(S),
        "residual": round_float(roots_of_unity_residual(ns.d, ns.modulus)),
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
        "S": list(profile),
        "total": sum(profile),
        "two_periodic": is_two_periodic(profile),
    }
    return 0, doc


def _cmd_check(ns: argparse.Namespace) -> tuple[int, Verdict]:
    params, check, *_ = FAMILIES[ns.target]
    return 0, check({p: getattr(ns, p) for p in params}, getattr(ns, "surjectivity", False))


def _cmd_scan(ns: argparse.Namespace, write: Callable[[str], object], pad: str) -> int:
    bounds = {n: _range_bounds(getattr(ns, n)) for n in _SCAN_PARAMS if getattr(ns, n) is not None}
    # the ranges go in unexpanded: scan bounds the grid before it reads one
    ranges = {name: range(lo, hi + 1) for name, (lo, hi) in bounds.items()}
    # each row is written as it is checked, the head with the first, so a scan
    # refused before any row writes nothing; the tail follows the last
    as_json, family, inner = ns.format == "json", ns.family, pad + "    "
    head = f"family: {family}\n"
    if as_json:
        head = f'{{\n{pad}  "family": {encode_basestring_ascii(family)},\n{pad}  "rows": [\n{inner}'
    texts: dict[TraceStep, str] = {}
    count = errors = 0

    def emit(row: ScanRow) -> None:
        nonlocal head, count, errors
        write(head + (_render_row(row, inner, texts) if as_json else _text_row(row)))
        head = ",\n" + inner if as_json else ""
        count += 1
        errors += row.error is not None

    _scan_rows(emit, family, ranges, ns.surjectivity)
    tail = (f"\n{pad}  ]" if count else head.rstrip() + "]") + f"\n{pad}}}"
    write(tail if as_json else f"{head}rows: {count}  errors: {errors}\n")
    return 2 if errors else 0


def _report(ns: argparse.Namespace, write: Callable[[str], object], pad: str) -> int:
    # writes one command's report, JSON at pad without its last newline; returns the exit code
    try:
        # the integer options, which argparse has already read
        for name, value in vars(ns).items():
            if type(value) is int:
                _check_digits(f"--{name}", value)
        if ns.cmd == "scan":
            return _cmd_scan(ns, write, pad)
        code, doc = _COMMANDS[ns.cmd][0](ns)
    except (HypothesisViolation, ValueError) as exc:
        # a refusal names its own rule; any other ValueError is a usage error
        cite = getattr(exc, "cite", "usage-error")
        code, doc = 1 if cite == "usage-error" else 2, {"error": {"cite": cite, "message": str(exc)}}
    if ns.format == "json":
        write(_render(doc, pad))
    elif type(doc) is dict and "error" in doc:
        # a check answers with its Verdict, every other report is a dict
        write(f"error [{doc['error']['cite']}]: {doc['error']['message']}\n")
    else:
        write(_COMMANDS[ns.cmd][1](doc))
    return code


def _text_value(value: Any) -> str:
    # a bool, a rational {num, den}, a multiple of pi {num, den, unit}, or
    # an int or string printed as it is
    if type(value) is bool:
        return "true" if value else "false"
    if type(value) is dict:
        render = render_pi if "unit" in value else render_plain
        return render(_fraction_of(value))
    return str(value)


def _text_classes(doc: dict[str, Any]) -> str:
    width = max(len(k) for k in doc)
    return "".join(f"{k:<{width}}  {_text_value(v)}\n" for k, v in doc.items())


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


def _text_verdict(verdict: Verdict) -> str:
    lines = [f"status: {verdict.status}"]
    constraints = verdict.constraints
    if constraints is None:
        lines.append("constraints: none")
    else:
        lines.append("constraints:")
        for key in sorted(constraints):
            lines.append(f"  {key} = {json.dumps(constraints[key], sort_keys=True)}")
    lines.append("trace:")
    for step in verdict.trace:
        lines.append(f"  [{step.cite}] {step.detail}")
    return "\n".join(lines) + "\n"


def _text_row(row: ScanRow) -> str:
    head = " ".join(f"{k}={v}" for k, v in row.params.items())
    if row.error is not None:
        return f"{head} :: error [{row.error['cite']}] {row.error['message']}\n"
    verdict = row.verdict
    constraints = "" if verdict.constraints is None else " " + json.dumps(verdict.constraints, sort_keys=True)
    return f"{head} :: {verdict.status}{constraints}\n"


# each subcommand but scan (which writes its own rows) once: its report and text renderer
_COMMANDS = {
    "classes": (_cmd_classes, _text_classes),
    "identity": (_cmd_identity, _text_identity),
    "fold": (_cmd_fold, _text_fold),
    "check": (_cmd_check, _text_verdict),
}


def _run_batch(path: str, write: Callable[[str], object]) -> int:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read batch file: {exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"batch file is not valid JSON: {exc}") from None
    except ValueError:
        # the only other error: an int literal longer than CPython converts
        raise UsageError(
            "batch file holds a number too long to read; a batch is a JSON "
            "array of {command, args} entries whose args are strings"
        ) from None
    except RecursionError:
        raise UsageError("batch file nests too deeply") from None
    if not isinstance(raw, list):
        raise UsageError("batch file must hold a JSON array")
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
            raise UsageError(f"batch entry {idx} must be {{command, args}} of strings")
        tokens = _merge_rationals([entry["command"], *entry["args"]])
        try:
            ns = parser.parse_args(tokens)
        except UsageError as exc:
            raise UsageError(f"batch entry {idx} does not parse: {exc}") from None
        except _HelpRequested:
            raise UsageError(f"batch entry {idx} asks for help, which has no report") from None
        if ns.batch or not ns.cmd:
            raise UsageError(f"batch entry {idx} must name a subcommand")
        ns.format = "json"  # a batch is one JSON document, whatever an entry's --format
        entries.append((entry, ns))
    # Each entry is written once it has run.  Its "exit" key sorts before its
    # "report", so only the running entry's pieces are held.
    worst, sep = 0, "[\n  "
    for entry, ns in entries:
        held: list[str] = []
        code = _report(ns, held.append, "    ")
        worst = max(worst, code)
        args = _render(entry["args"], "    ")
        command = encode_basestring_ascii(entry["command"])
        write(f'{sep}{{\n    "args": {args},\n    "command": {command},\n    "exit": {code},\n    "report": ')
        for piece in held:
            write(piece)
        write("\n  }")
        sep = ",\n  "
    write("\n]\n" if entries else "[]\n")
    return worst


def _dispatch(argv: list[str], write: Callable[[str], object]) -> int:
    # One command line, its whole output written to `write`; returns the exit code.
    tokens = _merge_rationals(list(argv))
    try:
        ns = _build_parser(frozenset(tokens)).parse_args(tokens)
        if ns.batch and ns.cmd:
            raise UsageError("--batch excludes a direct subcommand")
        if ns.batch:
            return _run_batch(ns.batch, write)
        if not ns.cmd:
            raise UsageError("a subcommand or --batch is required")
    except UsageError as exc:
        write(f"usage error: {exc}\n")
        return 1
    except _HelpRequested as exc:
        write(str(exc))
        return 0
    code = _report(ns, write, "")
    if ns.format == "json":
        write("\n")
    return code


def run(argv: list[str]) -> tuple[int, str]:
    """Dispatch one command line, returning (exit code, rendered output).

    The output is main()'s pieces joined once, so it holds a whole scan or batch.
    """
    parts: list[str] = []
    code = _dispatch(argv, parts.append)
    return code, "".join(parts)


def main(argv: list[str] | None = None) -> int:
    """Run one command line, writing its output to stdout; return the exit code.

    The bytes are run()'s, but each scan row and batch report is written once it is ready.
    """
    try:
        code = _dispatch(sys.argv[1:] if argv is None else list(argv), sys.stdout.write)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`lagcut scan ... | head`): end without a
        # traceback, stdout pointed at devnull so the exit flush succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
