"""End-to-end tests of the command-line surface."""

import collections
import enum
import json
import os
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lagcut
from lagcut import cli
from lagcut.charnum import UndeterminableError
from lagcut.cli import (
    MAX_LENGTH,
    canonical_json,
    main,
    parse_candidate,
    parse_range,
    parse_rational,
    render_pi,
    render_plain,
    round_float,
    run,
)
from lagcut.coring import MAX_REDUCED_DEGREE, MAX_SUPPORT_PAIRS, MAX_TORUS_DIM
from lagcut.obstruct import FAMILIES, ScanRow, TraceStep, Verdict, exact_verdict, scan
from oracles import brute_fold, pascal_row


def run_json(argv):
    code, out = run(argv + ["--format", "json"])
    assert_roundtrip(out)
    return code, json.loads(out)


def assert_roundtrip(out):
    # canonical form: re-rendering the parsed document is byte identical
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------- renderer

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, True, False, -0.0, 1e300, -1e-300]),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(json_documents)
@example({})
@example({"%": 1, "%d": -2})
@example({"a": [], "b": [1, -2, 10**40]})
@example({"a": True, "b": 1})
@example([{"k": 1}, {"k": [2]}])
@example({"n": [1, "x"]})
def test_canonical_json_is_indented_sorted_json(doc):
    assert canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_canonical_json_renders_subclasses_as_json_does():
    class Level(enum.IntEnum):
        LOW = 3

    class Name(str):
        pass

    class Ratio(float):
        pass

    class Rows(list):
        pass

    doc = collections.OrderedDict(z=Rows([Level.LOW, Name("x"), Ratio(0.5)]), a=Rows())
    assert canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def as_tree(doc):
    """The dict form of a document: each TraceStep as {cite, detail}, each
    Verdict as its to_json_dict() and each ScanRow as {params, verdict, error}."""
    if isinstance(doc, TraceStep):
        return {"cite": doc.cite, "detail": doc.detail}
    if isinstance(doc, Verdict):
        return doc.to_json_dict()
    if isinstance(doc, ScanRow):
        verdict = None if doc.verdict is None else doc.verdict.to_json_dict()
        return {"params": doc.params, "verdict": verdict, "error": doc.error}
    if isinstance(doc, dict):
        return {k: as_tree(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [as_tree(v) for v in doc]
    return doc


def tree_json(doc):
    return json.dumps(as_tree(doc), indent=2, sort_keys=True) + "\n"


# non-ASCII text, control characters, quotes and backslashes
trace_text = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7fé \U0001f600'))
)
constraint_maps = st.one_of(
    st.none(),
    st.just({}),
    st.dictionaries(st.text(max_size=6), json_documents, max_size=4),
    st.dictionaries(st.text(max_size=6), json_documents, max_size=2).map(types.MappingProxyType),
)
trace_steps = st.builds(TraceStep, trace_text, trace_text)
verdicts = st.builds(
    Verdict,
    status=st.one_of(st.sampled_from(["Obstructed", "Constrained", "Inconclusive"]), trace_text),
    constraints=constraint_maps,
    trace=st.lists(trace_steps, max_size=4).map(tuple),
)
row_params = st.dictionaries(
    st.sampled_from(["d", "euler", "grading", "l", "m", "p", "n"]), st.integers(), max_size=3
)
scan_rows = st.one_of(
    st.builds(ScanRow, row_params, verdicts, st.none()),
    st.builds(
        ScanRow,
        row_params,
        st.none(),
        st.fixed_dictionaries({"cite": trace_text, "message": trace_text}),
    ),
)


@settings(max_examples=150, deadline=None)
@given(trace_steps, verdicts, scan_rows, st.lists(scan_rows, max_size=3))
def test_canonical_json_renders_results_as_their_dict_form(step, verdict, row, rows):
    for doc in (step, verdict, row, {"family": "sphere", "rows": rows}, [{"report": verdict}]):
        assert canonical_json(doc) == tree_json(doc)


@settings(max_examples=100, deadline=None)
@given(trace_steps, verdicts, scan_rows)
def test_canonical_json_renders_results_in_tuples_and_lists_as_dicts(step, verdict, row):
    # the records are tuples themselves: each must still render as its dict
    # form, never as a JSON array, wherever it sits
    # one step object at several depths and in many verdicts, as the rows
    # of a scan share their steps
    shared = verdict._replace(trace=(step, *verdict.trace, step))
    many = {"step": step, "verdicts": [shared, shared], "rows": [row._replace(verdict=shared, error=None)] * 2}
    for doc in ((step, verdict, row), [step, verdict, row], ((row,),), {"rows": (row, row)}, many):
        assert canonical_json(doc) == tree_json(doc)
    for record in (step, verdict, row):
        for doc in ((record,), [record]):
            assert type(json.loads(canonical_json(doc))[0]) is dict


@pytest.mark.parametrize("value", [{1, 2}, Fraction(1, 2), object(), b"bytes"])
def test_canonical_json_rejects_unsupported_types(value):
    for doc in (value, [value], {"key": value}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            canonical_json(doc)


# ------------------------------------------------------------------ classes


def test_classes_json_document():
    code, doc = run_json(["classes", "--euler", "1", "--level", "-1/2"])
    assert code == 0
    assert doc == {
        "K_L": {"den": 2, "num": 1, "unit": "pi"},
        "K_W": {"den": 1, "num": 1, "unit": "pi"},
        "N_V": 2,
        "N_W": 1,
        "dim": 3,
        "disc_area": {"den": 1, "num": 1, "unit": "pi"},
        "euler": 1,
        "level": {"den": 2, "num": -1},
        "monotone": True,
        "monotone_constant": {"den": 2, "num": 1, "unit": "pi"},
        "omega_W": {"den": 1, "num": 1, "unit": "pi"},
        "pi1_total": "trivial",
        "pi2_rel": "Z",
        "reduced_c1_real": {"den": 1, "num": 0},
        "reduced_omega": {"den": 1, "num": 1, "unit": "pi"},
    }


def test_classes_text_renders_rationals_in_pi_units():
    code, out = run(["classes", "--euler", "1", "--level", "-1/2"])
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.splitlines())
    assert lines["K_W"] == "1·π"
    assert lines["K_L"] == "1/2·π"
    assert lines["N_V"] == "2"
    assert lines["pi2_rel"] == "Z"
    assert lines["level"] == "-1/2"


def test_classes_decimal_level_matches_fraction_level():
    _, doc_a = run_json(["classes", "--euler", "2", "--level", "-0.5"])
    _, doc_b = run_json(["classes", "--euler", "2", "--level", "-1/2"])
    assert doc_a == doc_b


def test_classes_rejects_nonnegative_level():
    code, out = run(["classes", "--euler", "1", "--level", "1/2"])
    assert code == 2
    assert "not-monotone-level" in out


def test_classes_rejects_bad_rational():
    # Fraction reads digit underscores only from Python 3.11 on, and
    # whitespace beside the slash only from 3.12 on, so a level with either
    # is refused on every interpreter
    for bad in ("abc", "1/0", "-1_0/3", "-1/2_0", "-1 / 3", "-1/ 3", "-1 /3"):
        code, out = run(["classes", "--euler", "1", "--level", bad])
        assert (code, out) == (1, f"error [usage-error]: bad rational literal {bad!r}\n")
    # whitespace around the whole literal is read on every interpreter
    assert run(["classes", "--euler", "1", "--level", " -1/3 "]) == run(["classes", "--euler", "1", "--level", "-1/3"])


@pytest.mark.parametrize(
    "argv, option",
    [
        (["classes", "--euler", "1", "--level", "--", "--dim", "0"], "level"),
        (["check", "torus", "--d=--", "--euler", "3"], "d"),
        (["identity", "--d", "3", "--modulus=--"], "modulus"),
        (["check", "torus", "--d", "3", "--euler", "3", "--format=--"], "format"),
        (["--batch=--"], "batch"),
    ],
)
def test_a_double_dash_as_an_option_value_is_a_usage_error(argv, option):
    # before CPython 3.13 argparse drops such a "--" and hands the option an
    # empty list, and 3.13 reads it as the value; both are refused alike
    assert run(argv) == (1, f"usage error: argument --{option}: expected one argument\n")


def test_classes_reports_an_undeterminable_quantity_with_its_cite(monkeypatch):
    # no argv reaches this refusal, so pi1_total is made to raise it
    def undeterminable(bundle):
        raise UndeterminableError("pi_1 is not determined")

    monkeypatch.setattr(cli, "pi1_total", undeterminable)
    argv = ["classes", "--euler", "2", "--level", "-1/3"]
    assert run_json(argv) == (2, {"error": {"cite": "undeterminable", "message": "pi_1 is not determined"}})
    assert run(argv) == (2, "error [undeterminable]: pi_1 is not determined\n")


def test_classes_json_roundtrip():
    _, out = run(["classes", "--euler", "3", "--level", "-2/3", "--format", "json"])
    assert_roundtrip(out)


# ----------------------------------------------------------------- identity


def test_identity_computed_table():
    code, doc = run_json(["identity", "--d", "8", "--modulus", "4"])
    assert code == 0
    assert doc["S"] == [72, 64, 56, 64]
    assert doc["NS0"] == 288
    assert doc["pow"] == 256
    assert doc["holds"] is False
    assert doc["residual"] < 1e-9


def test_identity_text_and_json_agree():
    _, doc = run_json(["identity", "--d", "8", "--modulus", "4"])
    code, text = run(["identity", "--d", "8", "--modulus", "4"])
    assert code == 0
    for value in doc["S"] + [doc["NS0"], doc["pow"]]:
        assert str(value) in text
    assert "identity holds: false" in text


def test_identity_holding_case():
    _, doc = run_json(["identity", "--d", "3", "--modulus", "2"])
    assert doc["holds"] is True
    assert doc["S"] == [4, 4]


def test_identity_large_d_has_residual():
    code, doc = run_json(["identity", "--d", "1024", "--modulus", "4"])
    assert code == 0
    assert doc["pow"] == 1 << 1024
    assert doc["residual"] <= 1e-9


def test_identity_rejects_odd_modulus():
    code, out = run(["identity", "--d", "5", "--modulus", "3"])
    assert code == 1
    assert "even" in out


def test_identity_reports_the_folded_binomial_row():
    # the report against the Pascal row folded by the reference bucketing,
    # and holds against its definition: every S_j equal and N*S_0 = 2^d
    for d in range(1, 41):
        row = pascal_row(d)
        for N in range(2, 3 * d + 5, 2):
            code, doc = run_json(["identity", "--d", str(d), "--modulus", str(N)])
            S = brute_fold(row, N)
            assert code == 0
            assert doc["S"] == S, (d, N)
            assert (doc["NS0"], doc["pow"]) == (N * S[0], 1 << d), (d, N)
            assert doc["holds"] is (len(set(S)) == 1 and N * S[0] == 1 << d), (d, N)


@pytest.mark.parametrize(
    "d, N, message",
    [
        # the modulus is refused before the torus dimension is read
        ("9000", "3", "invalid-modulus: identity requires even N >= 2"),
        ("9000", "4", "invalid-dimension: torus dimension 9000 is outside [0, 8192]"),
        ("5", "0", "invalid-modulus: identity requires even N >= 2"),
        ("5", "-4", "invalid-modulus: identity requires even N >= 2"),
        # the dimension is refused before the modulus
        ("0", "4", "--d must be >= 1"),
        ("-3", "3", "--d must be >= 1"),
    ],
)
def test_identity_refusals(d, N, message):
    assert run(["identity", "--d", d, "--modulus", N]) == (1, f"error [usage-error]: {message}\n")


def test_identity_json_roundtrip():
    _, out = run(["identity", "--d", "16", "--modulus", "8", "--format", "json"])
    assert_roundtrip(out)


# --------------------------------------------------------------------- fold


def test_fold_specifier_kinds():
    cases = {
        "sphere:d=7": [1, 0, 1, 0, 0],
        "torus:d=3": [2, 3, 3],
        "prodsph:l=2,m=4": [2, 1, 1],
        "cp:n=2": [1, 1, 1],
        "custom:betti=[1,0,2,0,1],gens=[2,2]": [1, 1, 2],
        # gens= is optional and empty pieces are skipped
        "custom:betti=[1]": [1, 0],
        "sphere:,d=3,,": [1, 1],
    }
    for spec, expected in cases.items():
        code, doc = run_json(["fold", "--candidate", spec, "--modulus", str(len(expected))])
        assert code == 0, spec
        assert doc["S"] == expected, spec


def test_fold_reports_periodicity():
    _, doc = run_json(["fold", "--candidate", "sphere:d=6", "--modulus", "4"])
    assert doc["S"] == [1, 0, 1, 0]
    assert doc["two_periodic"] is True
    assert doc["total"] == 2


def test_fold_rejects_bad_specifiers():
    for spec in ("sphere", "sphere:d=x", "blob:d=2", "custom:betti=[1,2", "sphere:d"):
        code, _ = run(["fold", "--candidate", spec, "--modulus", "2"])
        assert code == 1, spec


@pytest.mark.parametrize(
    "spec, message",
    [
        ("torus:d=3,d=4", "candidate field d= is given twice"),
        ("torus:d=3, d =3", "candidate field d= is given twice"),
        ("custom:betti=[1,0,1],gens=[2],gens=[2]", "candidate field gens= is given twice"),
        ("sphere:d=3,x=5", "candidate kind 'sphere' does not take x="),
        ("cp:n=2,betti=[1]", "candidate kind 'cp' does not take betti="),
        ("prodsph:l=1,m=2,n=3", "candidate kind 'prodsph' does not take n="),
        # a spec the ring builder refuses keeps the builder's message
        ("torus:d=3,d=x", "candidate field d='x' is not an integer"),
        ("sphere:d=0,x=5", "invalid-dimension: sphere needs d >= 1"),
        ("sphere:x=5", "candidate kind 'sphere' needs d="),
        ("custom:betti=[1]],gens=[1]", "unbalanced ']' in 'betti=[1]],gens=[1]'"),
    ],
)
def test_fold_refuses_repeated_and_foreign_fields(spec, message):
    code, doc = run_json(["fold", "--candidate", spec, "--modulus", "2"])
    assert code == 1
    assert doc == {"error": {"cite": "usage-error", "message": message}}


# -------------------------------------------------------------------- check


def test_check_sphere_obstructed_json():
    code, doc = run_json(["check", "sphere", "--d", "5", "--euler", "4", "--grading", "8"])
    assert code == 0
    assert doc["status"] == "Obstructed"
    assert doc["constraints"] is None
    assert doc["trace"][-1]["cite"] == "fold-two-periodicity"


def test_check_lens_matches_documented_shape():
    code, doc = run_json(["check", "lens", "--p", "7", "--n", "3"])
    assert code == 0
    assert doc["status"] == "Constrained"
    assert doc["constraints"] == {"m": [1]}


def test_check_exact_with_surjectivity():
    code, doc = run_json(
        ["check", "exact", "--d", "7", "--euler", "6", "--surjectivity"]
    )
    assert code == 0
    assert doc["constraints"]["m"] == [1]
    assert doc["constraints"]["surjectivity_rule_applied"] is True


def test_check_torus_text_mode():
    code, out = run(["check", "torus", "--d", "3", "--euler", "2"])
    assert code == 0
    assert "status: Constrained" in out
    assert "N = [2]" in out


def test_check_violation_exit_code_and_cite():
    code, out = run(["check", "sphere", "--d", "5", "--euler", "4", "--grading", "3"])
    assert code == 2
    assert "grading-divides-twice-chern" in out

    code, doc = run_json(["check", "sphere", "--d", "5", "--euler", "4", "--grading", "3"])
    assert code == 2
    assert doc["error"]["cite"] == "grading-divides-twice-chern"


def test_check_requires_target():
    code, _ = run(["check"])
    assert code == 1


def test_check_json_roundtrip():
    _, out = run(
        ["check", "prodsph", "--l", "2", "--m", "4", "--euler", "8", "--format", "json"]
    )
    assert_roundtrip(out)


# --------------------------------------------------------------------- scan


def test_scan_json_rows_and_order():
    code, doc = run_json(["scan", "--family", "lens", "--p", "2..3", "--n", "1"])
    assert code == 0
    assert doc["family"] == "lens"
    assert [r["params"] for r in doc["rows"]] == [
        {"p": 2, "n": 1},
        {"p": 3, "n": 1},
    ]
    assert doc["rows"][0]["verdict"]["constraints"] == {"m": [1, 2]}


def test_scan_sphere_default_grading():
    _, doc = run_json(["scan", "--family", "sphere", "--d", "5..6", "--euler", "4"])
    assert all(r["params"]["grading"] == 8 for r in doc["rows"])


def test_scan_violation_rows_exit_two():
    code, doc = run_json(
        ["scan", "--family", "sphere", "--d", "5", "--euler", "2", "--grading", "3"]
    )
    assert code == 2
    assert doc["rows"][0]["error"]["cite"] == "grading-divides-twice-chern"
    assert doc["rows"][0]["verdict"] is None


def test_scan_keeps_rows_outside_the_domain():
    # the three l > m rows fall outside the prodsph domain; they keep their
    # place with a usage-error instead of aborting the scan
    code, doc = run_json(
        ["scan", "--family", "prodsph", "--l", "1..3", "--m", "1..3", "--euler", "4"]
    )
    assert code == 2
    assert len(doc["rows"]) == 9
    errors = [r for r in doc["rows"] if r["error"] is not None]
    assert [(r["params"]["l"], r["params"]["m"]) for r in errors] == [(2, 1), (3, 1), (3, 2)]
    assert all(r["error"]["cite"] == "usage-error" and r["verdict"] is None for r in errors)


@pytest.mark.parametrize(
    "family, params",
    [
        ("sphere", {"d": 5, "euler": 4, "grading": 8}),
        ("torus", {"d": 6, "euler": 12}),
        ("prodsph", {"l": 2, "m": 4, "euler": 8}),
        ("lens", {"p": 7, "n": 3}),
        ("exact", {"d": 7, "euler": 6}),
    ],
)
def test_check_matches_one_point_scan(family, params):
    options = [token for name, value in params.items() for token in (f"--{name}", str(value))]
    code, verdict = run_json(["check", family, *options])
    assert code == 0
    code, doc = run_json(["scan", "--family", family, *options])
    assert code == 0
    assert doc["rows"] == [{"params": params, "verdict": verdict, "error": None}]


def test_a_scan_renders_each_shared_step_once(monkeypatch):
    # every lens row at p = 7 reads the same divides step, and rows with the
    # same n the same three dimension steps; each step's text is built once
    encoded = collections.Counter()
    original = cli.encode_basestring_ascii

    def counting(text):
        encoded[text] += 1
        return original(text)

    monkeypatch.setattr(cli, "encode_basestring_ascii", counting)
    code, doc = run_json(["scan", "--family", "lens", "--p", "7..9", "--n", "1..4"])
    assert code == 0
    details = {step["detail"] for row in doc["rows"] for step in row["verdict"]["trace"]}
    assert len(details) < sum(len(row["verdict"]["trace"]) for row in doc["rows"])
    assert {encoded[detail] for detail in details} == {1}


def test_scan_text_mode_lists_rows():
    code, out = run(["scan", "--family", "torus", "--d", "2..3", "--euler", "1"])
    assert code == 0
    assert 'd=2 euler=1 :: Constrained {"N": [2]}' in out
    assert "rows: 2  errors: 0" in out


def test_scan_usage_errors():
    code, _ = run(["scan", "--family", "lens", "--p", "2..4"])
    assert code == 1
    code, _ = run(["scan", "--family", "lens", "--p", "4..2", "--n", "1"])
    assert code == 1
    code, _ = run(["scan", "--family", "nope", "--d", "2"])
    assert code == 1


def test_scan_takes_surjectivity_only_for_the_exact_family():
    argv = ["scan", "--family", "torus", "--d", "2", "--euler", "1", "--surjectivity"]
    message = "family 'torus' does not take ['surjectivity']"
    assert run(argv) == (1, f"error [usage-error]: {message}\n")
    code, doc = run_json(argv)
    assert code == 1
    assert doc["error"] == {"cite": "usage-error", "message": message}
    code, doc = run_json(
        ["scan", "--family", "exact", "--d", "7", "--euler", "6", "--surjectivity"]
    )
    assert code == 0
    _, check = run_json(["check", "exact", "--d", "7", "--euler", "6", "--surjectivity"])
    assert check["constraints"]["m"] == [1]
    assert doc["rows"] == [{"params": {"d": 7, "euler": 6}, "verdict": check, "error": None}]


@pytest.mark.parametrize("family", list(FAMILIES))
def test_families_registry_says_which_take_surjectivity(family):
    # check's flag and scan's refusal both follow the FAMILIES entry
    names, _, takes_surjectivity, _ = FAMILIES[family]
    assert ("--surjectivity" in run(["check", family, "--help"])[1]) is takes_surjectivity
    argv = ["scan", "--family", family] + [arg for n in names for arg in (f"--{n}", "2")]
    code, out = run(argv + ["--surjectivity"])
    refused = f"error [usage-error]: family {family!r} does not take ['surjectivity']\n"
    assert (code, out == refused) == ((0, False) if takes_surjectivity else (1, True))


def test_scan_json_roundtrip():
    _, out = run(
        ["scan", "--family", "exact", "--d", "6..8", "--euler", "4", "--format", "json"]
    )
    assert_roundtrip(out)


# ------------------------------------------------------ rendered verdicts
# check and scan render their result objects directly; each output must be
# what the dict tree from to_json_dict() renders to, in JSON and in text


def verdict_text(doc):
    lines = [f"status: {doc['status']}"]
    if doc["constraints"] is None:
        lines.append("constraints: none")
    else:
        lines.append("constraints:")
        for key, value in sorted(doc["constraints"].items()):
            lines.append(f"  {key} = {json.dumps(value, sort_keys=True)}")
    lines.append("trace:")
    lines += [f"  [{step['cite']}] {step['detail']}" for step in doc["trace"]]
    return "\n".join(lines) + "\n"


def scan_text(doc):
    lines = [f"family: {doc['family']}"]
    for row in doc["rows"]:
        head = " ".join(f"{k}={v}" for k, v in row["params"].items())
        if row["error"] is not None:
            lines.append(f"{head} :: error [{row['error']['cite']}] {row['error']['message']}")
        elif row["verdict"]["constraints"] is None:
            lines.append(f"{head} :: {row['verdict']['status']}")
        else:
            constraints = json.dumps(row["verdict"]["constraints"], sort_keys=True)
            lines.append(f"{head} :: {row['verdict']['status']} {constraints}")
    errors = sum(row["error"] is not None for row in doc["rows"])
    lines.append(f"rows: {len(doc['rows'])}  errors: {errors}")
    return "\n".join(lines) + "\n"


# family, a check's parameters, --surjectivity, and scan ranges that hold
# both verdict rows and rows outside the domain or hypotheses
FAMILY_OUTPUTS = [
    ("sphere", {"d": 5, "euler": 4, "grading": 8}, False, {"d": "2..6", "euler": "1..3", "grading": "2..3"}),
    ("torus", {"d": 6, "euler": 2}, False, {"d": "0..4", "euler": "1..3"}),
    ("prodsph", {"l": 2, "m": 4, "euler": 8}, False, {"l": "1..4", "m": "2..3", "euler": "1..2"}),
    ("lens", {"p": 7, "n": 3}, False, {"p": "0..7", "n": "1..2"}),
    ("exact", {"d": 7, "euler": 6}, True, {"d": "0..5", "euler": "1..3"}),
]


def family_argv(params, surjectivity):
    argv = [token for name, value in params.items() for token in (f"--{name}", str(value))]
    return argv + ["--surjectivity"] if surjectivity else argv


@pytest.mark.parametrize("family,params,surjectivity,ranges", FAMILY_OUTPUTS)
def test_check_output_is_the_rendered_verdict_dict(family, params, surjectivity, ranges):
    tree = FAMILIES[family][1](params, surjectivity).to_json_dict()
    argv = ["check", family] + family_argv(params, surjectivity)
    assert run(argv + ["--format", "json"]) == (0, json.dumps(tree, indent=2, sort_keys=True) + "\n")
    assert run(argv) == (0, verdict_text(tree))


@pytest.mark.parametrize("family,params,surjectivity,ranges", FAMILY_OUTPUTS)
def test_scan_output_is_the_rendered_row_dicts(family, params, surjectivity, ranges):
    rows = scan(family, {k: parse_range(v) for k, v in ranges.items()}, surjectivity)
    assert {row.error is None for row in rows} == {True, False}
    tree = as_tree({"family": family, "rows": rows})
    argv = ["scan", "--family", family] + family_argv(ranges, surjectivity)
    assert run(argv + ["--format", "json"]) == (2, json.dumps(tree, indent=2, sort_keys=True) + "\n")
    assert run(argv) == (2, scan_text(tree))


def test_batch_output_is_the_rendered_report_dicts(tmp_path):
    _, params, _, ranges = FAMILY_OUTPUTS[-1]
    check_args = ["exact"] + family_argv(params, True)
    scan_args = ["--family", "exact"] + family_argv(ranges, True)
    entries = [
        {"command": "check", "args": check_args},
        {"command": "scan", "args": scan_args},
    ]
    tree = [
        {"command": "check", "args": check_args, "exit": 0, "report": exact_verdict(7, 6, True)},
        {
            "command": "scan",
            "args": scan_args,
            "exit": 2,
            "report": {"family": "exact", "rows": scan("exact", {"d": range(0, 6), "euler": range(1, 4)}, True)},
        },
    ]
    expected = json.dumps(as_tree(tree), indent=2, sort_keys=True) + "\n"
    assert run(["--batch", write_batch(tmp_path, entries)]) == (2, expected)


# ------------------------------------------------------------ length limits


@pytest.mark.parametrize(
    "argv",
    [
        ["fold", "--candidate", "sphere:d=3", "--modulus", str(MAX_LENGTH + 1)],
        ["identity", "--d", "3", "--modulus", str(MAX_LENGTH + 2)],
        ["scan", "--family", "lens", "--p", f"2..{MAX_LENGTH + 2}", "--n", "1"],
        ["scan", "--family", "lens", "--p", "2..201", "--n", "1..100"],
        ["scan", "--family", "lens", "--p", f"2..{10**15}", "--n", "1"],
    ],
)
def test_lengths_above_the_limit_are_usage_errors(argv):
    code, doc = run_json(argv)
    assert code == 1
    assert doc["error"]["cite"] == "usage-error"
    assert doc["error"]["message"].endswith(f"above the limit of {MAX_LENGTH}")


@pytest.mark.parametrize("l_range", ["1..100000", f"1..{10**15}"])
def test_scan_rejects_a_parameter_the_family_does_not_take_before_sizing(l_range):
    # the lens grid has 9 points; the range of --l is not part of it
    argv = ["scan", "--family", "lens", "--p", "2..10", "--n", "1", "--l", l_range]
    code, doc = run_json(argv)
    assert code == 1
    assert doc["error"]["cite"] == "usage-error"
    assert doc["error"]["message"] == "family 'lens' does not take ['l']"


def test_lengths_at_the_limit_run():
    code, doc = run_json(["fold", "--candidate", "sphere:d=3", "--modulus", str(MAX_LENGTH)])
    assert code == 0
    assert len(doc["S"]) == MAX_LENGTH
    code, doc = run_json(["identity", "--d", "3", "--modulus", str(MAX_LENGTH)])
    assert code == 0
    assert doc["S"][:5] == [1, 3, 3, 1, 0]


TORUS_ROUTES = {
    "identity": lambda d: ["identity", "--d", str(d), "--modulus", "4"],
    "fold": lambda d: ["fold", "--candidate", f"torus:d={d}", "--modulus", "4"],
    "check": lambda d: ["check", "torus", "--d", str(d), "--euler", "1"],
}


@pytest.mark.parametrize("route", TORUS_ROUTES)
def test_torus_dimension_at_the_limit_runs(route):
    argv = TORUS_ROUTES[route](MAX_TORUS_DIM)
    start = time.perf_counter()
    code, doc = run_json(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert run(argv)[0] == 0
    if route == "identity":
        assert doc["pow"] == sum(doc["S"]) == 1 << MAX_TORUS_DIM
    elif route == "fold":
        assert doc["total"] == 1 << MAX_TORUS_DIM
    else:
        assert doc["constraints"] == {"N": [2]}


@pytest.mark.parametrize("route", TORUS_ROUTES)
def test_torus_dimension_above_the_limit_is_a_usage_error(route):
    argv = TORUS_ROUTES[route](MAX_TORUS_DIM + 1)
    message = (
        f"invalid-dimension: torus dimension {MAX_TORUS_DIM + 1} "
        f"is outside [0, {MAX_TORUS_DIM}]"
    )
    code, doc = run_json(argv)
    assert code == 1
    assert doc["error"] == {"cite": "usage-error", "message": message}
    assert run(argv) == (1, f"error [usage-error]: {message}\n")


def test_scan_keeps_the_torus_row_above_the_limit():
    d = f"{MAX_TORUS_DIM}..{MAX_TORUS_DIM + 1}"
    code, doc = run_json(["scan", "--family", "torus", "--d", d, "--euler", "1"])
    assert code == 2
    below, above = doc["rows"]
    assert below["verdict"]["constraints"] == {"N": [2]}
    assert above["params"] == {"d": MAX_TORUS_DIM + 1, "euler": 1}
    assert above["error"]["cite"] == "usage-error"
    assert f"torus dimension {MAX_TORUS_DIM + 1} is outside" in above["error"]["message"]


HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "argv, top",
    [
        (["check", "prodsph", "--l", "1", "--m", HUGE, "--euler", "6"], int(HUGE) + 1),
        (["fold", "--candidate", f"prodsph:l=1,m={HUGE}", "--modulus", "3"], int(HUGE) + 1),
        (
            ["check", "prodsph", "--l", "10000000000", "--m", "10000000001", "--euler", "6"],
            20000000001,
        ),
    ],
)
def test_generated_degree_bit_set_above_the_limit_is_a_usage_error(argv, top):
    message = (
        f"invalid-dimension: top degree over the generator gcd is {top}, "
        f"above the limit of {MAX_REDUCED_DEGREE}"
    )
    start = time.perf_counter()
    code, doc = run_json(argv)
    assert code == 1
    assert doc["error"] == {"cite": "usage-error", "message": message}
    assert run(argv) == (1, f"error [usage-error]: {message}\n")
    assert time.perf_counter() - start < 1.0


def test_generated_degree_bit_set_at_the_limit_runs():
    argv = ["fold", "--candidate", "prodsph:l=1000000,m=1000001", "--modulus", "3"]
    code, doc = run_json(argv)
    assert code == 0
    assert doc["S"] == [2, 1, 1]
    top = MAX_REDUCED_DEGREE
    code, doc = run_json(["fold", "--candidate", f"prodsph:l=1,m={top - 1}", "--modulus", "2"])
    assert code == 0
    assert doc["S"] == [2, 2]


@pytest.mark.parametrize("n", [MAX_SUPPORT_PAIRS, 100000000])
def test_support_pairs_above_the_limit_are_a_usage_error(n):
    argv = ["fold", "--candidate", f"cp:n={n}", "--modulus", "3"]
    message = (
        f"invalid-dimension: CP^{n} has {n + 1} support pairs, "
        f"above the limit of {MAX_SUPPORT_PAIRS}"
    )
    start = time.perf_counter()
    code, doc = run_json(argv)
    assert code == 1
    assert doc["error"] == {"cite": "usage-error", "message": message}
    assert run(argv) == (1, f"error [usage-error]: {message}\n")
    assert time.perf_counter() - start < 0.1


def test_scan_keeps_the_row_above_the_generated_degree_limit():
    argv = ["scan", "--family", "prodsph", "--l", "1", "--m", HUGE, "--euler", "6"]
    code, doc = run_json(argv)
    assert code == 2
    (row,) = doc["rows"]
    assert row["params"] == {"l": 1, "m": int(HUGE), "euler": 6}
    assert row["error"]["cite"] == "usage-error"
    assert f"above the limit of {MAX_REDUCED_DEGREE}" in row["error"]["message"]
    code, out = run(argv)
    assert code == 2
    assert out.endswith("rows: 1  errors: 1\n")


# -------------------------------------------------------------------- batch


def write_batch(tmp_path, entries):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(entries))
    return str(path)


def test_batch_runs_entries_in_order(tmp_path):
    path = write_batch(
        tmp_path,
        [
            {"command": "check", "args": ["lens", "--p", "7", "--n", "3"]},
            {"command": "check", "args": ["sphere", "--d", "5", "--euler", "4", "--grading", "3"]},
            {"command": "classes", "args": ["--euler", "1", "--level", "-1/2"]},
        ],
    )
    code, out = run(["--batch", path])
    assert code == 2  # max of 0, 2, 0
    assert_roundtrip(out)
    report = json.loads(out)
    assert [entry["exit"] for entry in report] == [0, 2, 0]
    assert report[0]["report"]["status"] == "Constrained"
    assert report[1]["report"]["error"]["cite"] == "grading-divides-twice-chern"
    assert report[2]["report"]["N_V"] == 2


def test_batch_keeps_reports_beside_a_large_identity(tmp_path):
    path = write_batch(
        tmp_path,
        [
            {"command": "identity", "args": ["--d", "1024", "--modulus", "4"]},
            {"command": "check", "args": ["lens", "--p", "7", "--n", "3"]},
        ],
    )
    code, out = run(["--batch", path])
    assert code == 0
    report = json.loads(out)
    assert [entry["exit"] for entry in report] == [0, 0]
    assert report[0]["report"]["residual"] <= 1e-9
    assert report[1]["report"]["constraints"] == {"m": [1]}


def test_batch_report_of_every_subcommand_is_canonical(tmp_path):
    entries = [
        {"command": "classes", "args": ["--euler", "2", "--level", "-1/3"]},
        {"command": "identity", "args": ["--d", "9", "--modulus", "6"]},
        {"command": "fold", "args": ["--candidate", "prodsph:l=2,m=3", "--modulus", "4"]},
        {"command": "check", "args": ["sphere", "--d", "5", "--euler", "4", "--grading", "8"]},
        {"command": "check", "args": ["torus", "--d", "6", "--euler", "12"]},
        {"command": "check", "args": ["exact", "--d", "7", "--euler", "6", "--surjectivity"]},
        {
            "command": "scan",
            "args": ["--family", "prodsph", "--l", "1..3", "--m", "2", "--euler", "4"],
        },
        {"command": "fold", "args": ["--candidate", "custom:betti=[1,2]", "--modulus", "2"]},
    ]
    code, out = run(["--batch", write_batch(tmp_path, entries)])
    assert code == 2
    assert_roundtrip(out)
    assert [entry["exit"] for entry in json.loads(out)] == [0, 0, 0, 0, 0, 0, 2, 1]


def test_batch_empty_is_empty_report(tmp_path):
    path = write_batch(tmp_path, [])
    code, out = run(["--batch", path])
    assert code == 0
    assert out == "[]\n"


def test_batch_validates_before_running(tmp_path):
    path = write_batch(
        tmp_path,
        [
            {"command": "check", "args": ["lens", "--p", "7", "--n", "3"]},
            {"command": "check", "args": ["lens", "--p", "7", "--bogus"]},
        ],
    )
    code, out = run(["--batch", path])
    assert code == 1
    assert "entry 1" in out


def test_batch_rejects_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run(["--batch", str(path)])
    assert code == 1

    path2 = tmp_path / "object.json"
    path2.write_text('{"command": "classes"}')
    code, _ = run(["--batch", str(path2)])
    assert code == 1

    path3 = write_batch(tmp_path, [{"command": "--batch", "args": ["x.json"]}])
    assert run(["--batch", path3]) == (1, "usage error: batch entry 0 must name a subcommand\n")


def test_batch_rejects_missing_file(tmp_path):
    code, _ = run(["--batch", str(tmp_path / "absent.json")])
    assert code == 1


def test_batch_excludes_direct_subcommand(tmp_path):
    path = write_batch(tmp_path, [])
    code, _ = run(["--batch", path, "identity", "--d", "2", "--modulus", "2"])
    assert code == 1


def test_batch_level_tokens_merge(tmp_path):
    # a leading-dash rational inside batch args must parse
    path = write_batch(
        tmp_path, [{"command": "classes", "args": ["--euler", "2", "--level", "-1/3"]}]
    )
    code, out = run(["--batch", path])
    assert code == 0
    assert json.loads(out)[0]["report"]["K_L"] == {"den": 3, "num": 1, "unit": "pi"}


# ------------------------------------------------------------------ plumbing


def test_no_arguments_is_usage_error():
    code, out = run([])
    assert code == 1
    assert "usage" in out


def test_unknown_subcommand_is_usage_error():
    code, _ = run(["frobnicate"])
    assert code == 1


def test_run_adds_options_only_for_the_named_subcommand(monkeypatch):
    # one run builds its parser with options for `classes` alone; a full
    # build, as --batch makes, fills every subcommand and check target
    calls = []
    add_argument = cli._Parser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "add_argument", counted)
    assert run(["classes", "--euler", "2", "--level", "-1/2"])[0] == 0
    named = len(calls)
    calls.clear()
    cli._build_parser()
    assert 2 * named < len(calls)


def test_main_writes_stdout_and_returns_code(capsys):
    code = main(["identity", "--d", "4", "--modulus", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert "identity holds: true" in captured.out


# ------------------------------------------- inputs that used to raise from run

NINES = "9" * 4300  # the longest int CPython parses; twice it has 4,301 digits
ABOVE = "1" + "0" * 4096  # the smallest int of 4,097 digits


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["classes", "--euler", "1", "--level", "-1e5000"],
            "the exponent of '-1e5000' is above the limit of 4096",
        ),
        (
            ["classes", "--euler", "1", "--level", "-1e99999999999999"],
            "the exponent of '-1e99999999999999' is above the limit of 4096",
        ),
        (
            ["classes", "--euler", "1", "--level", f"-{NINES}"],
            f"the numerator of '-{NINES}' has more than 4096 digits",
        ),
        (
            ["classes", "--euler", "1", "--level", "-1e-4096"],
            "the denominator of '-1e-4096' has more than 4096 digits",
        ),
        (
            [
                "fold",
                "--candidate",
                f"custom:betti=[1,{NINES},{NINES},1],gens=[1]",
                "--modulus",
                "3",
            ],
            "an entry of betti has more than 4096 digits",
        ),
        (
            ["fold", "--candidate", "custom:betti=" + "[" * 3000 + "]" * 3000, "--modulus", "3"],
            "betti must be a JSON list of integers",
        ),
        # every integer the command line reads is bounded at MAX_DIGITS, so
        # none reaches CPython's 4,300-digit limit for printing an int
        (["check", "exact", "--d", ABOVE, "--euler", "3"], "--d has more than 4096 digits"),
        (["check", "lens", "--p", "7", "--n", NINES], "--n has more than 4096 digits"),
        (
            ["check", "sphere", "--d", "5", "--euler", ABOVE, "--grading", "4"],
            "--euler has more than 4096 digits",
        ),
        (
            ["check", "prodsph", "--l", "1", "--m", NINES, "--euler", "6"],
            "--m has more than 4096 digits",
        ),
        (["check", "torus", "--d", "3", "--euler", ABOVE], "--euler has more than 4096 digits"),
        (["classes", "--euler", ABOVE, "--level", "-1/2"], "--euler has more than 4096 digits"),
        (["identity", "--d", "3", "--modulus", NINES], "--modulus has more than 4096 digits"),
        (
            ["scan", "--family", "lens", "--p", "7", "--n", f"1..{ABOVE}"],
            f"an end of range '1..{ABOVE}' has more than 4096 digits",
        ),
        (
            ["scan", "--family", "exact", "--d", NINES, "--euler", "3"],
            f"an end of range '{NINES}' has more than 4096 digits",
        ),
        (
            ["fold", "--candidate", f"sphere:d={NINES}", "--modulus", "3"],
            f"candidate field d='{NINES}' has more than 4096 digits",
        ),
        (
            ["fold", "--candidate", f"custom:betti=[1,{NINES}0,1]", "--modulus", "3"],
            "an entry of betti has more than 4096 digits",
        ),
    ],
)
def test_numbers_a_report_cannot_print_are_usage_errors(argv, message):
    code, doc = run_json(argv)
    assert code == 1
    assert doc["error"] == {"cite": "usage-error", "message": message}
    assert run(argv) == (1, f"error [usage-error]: {message}\n")


def test_integers_at_the_digit_limit_run():
    at = "9" * 4096
    code, doc = run_json(["check", "lens", "--p", "7", "--n", at])
    assert code == 0
    assert doc["constraints"] == {"m": [1, 7]}
    code, doc = run_json(["scan", "--family", "exact", "--d", at, "--euler", "3"])
    assert code == 0
    assert doc["rows"][0]["verdict"]["constraints"]["m"] == [1, 3]


def test_a_batch_entry_above_the_digit_limit_is_a_usage_error(tmp_path):
    path = tmp_path / "batch.json"
    entries = [
        {"command": "check", "args": ["lens", "--p", "7", "--n", ABOVE]},
        {"command": "check", "args": ["lens", "--p", "7", "--n", "3"]},
    ]
    path.write_text(json.dumps(entries))
    code, out = run(["--batch", str(path)])
    assert code == 1
    reports = json.loads(out)
    assert [r["exit"] for r in reports] == [1, 0]
    assert reports[0]["report"] == {
        "error": {"cite": "usage-error", "message": "--n has more than 4096 digits"}
    }


def test_levels_within_the_digit_limit_run():
    code, doc = run_json(["classes", "--euler", "1", "--level", "-1e-4095"])
    assert code == 0
    assert doc["level"] == {"num": -1, "den": 10**4095}
    assert doc["K_W"] == {"num": 1, "den": 5 * 10**4094, "unit": "pi"}


def test_help_is_returned_rather_than_printed(tmp_path):
    code, out = run(["--help"])
    assert code == 0
    assert out.startswith("usage: lagcut [-h]")
    code, out = run(["check", "torus", "-h"])
    assert code == 0
    assert out.startswith("usage: lagcut check torus [-h]")
    path = write_batch(tmp_path, [{"command": "classes", "args": ["-h"]}])
    assert run(["--batch", path]) == (
        1,
        "usage error: batch entry 0 asks for help, which has no report\n",
    )


def test_batch_files_json_cannot_read_are_usage_errors(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert run(["--batch", str(path)]) == (1, "usage error: batch file nests too deeply\n")
    path.write_bytes(b"\xff\xfe[")
    code, out = run(["--batch", str(path)])
    assert code == 1
    assert out.startswith("usage error: batch file is not valid JSON: 'utf-8' codec")
    # json.dump cannot write an int CPython will not read back, so these
    # files are written as text
    too_long = (
        1,
        "usage error: batch file holds a number too long to read; a batch is a "
        "JSON array of {command, args} entries whose args are strings\n",
    )
    path.write_text(f"[{NINES}9]")
    assert run(["--batch", str(path)]) == too_long
    path.write_text('[{"command": "fold", "args": [' + "9" * 4400 + "]}]")
    assert run(["--batch", str(path)]) == too_long


def test_module_entry_point():
    # the child imports lagcut from where this process did, whether that is
    # an install or src/ on the pytest path
    src = str(Path(lagcut.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lagcut.cli", "check", "lens", "--p", "7", "--n", "3",
         "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["constraints"] == {"m": [1]}


def test_import_loads_no_introspection_modules():
    # the records are NamedTuples, so importing the CLI pulls in neither
    # dataclasses nor the modules it imports; whatever the interpreter
    # loads before the import does not count
    src = str(Path(lagcut.__file__).resolve().parent.parent)
    code = (
        "import sys; before = set(sys.modules); "
        f"sys.path.insert(0, {src!r}); import lagcut.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    loaded = set(proc.stdout.split())
    assert "lagcut.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


# ------------------------------------------------------------------- helpers


def test_parse_range():
    assert parse_range("5") == [5]
    assert parse_range("2..5") == [2, 3, 4, 5]
    assert parse_range(" 3..3 ") == [3]
    for bad in ("5..2", "x", "1..y", ""):
        with pytest.raises(ValueError):
            parse_range(bad)


def test_parse_rational():
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("0.25") == Fraction(1, 4)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    for bad in ("-1_0/3", "-1/2_0"):
        with pytest.raises(ValueError, match="^bad rational literal"):
            parse_rational(bad)


def test_parse_candidate_labels():
    assert parse_candidate("sphere:d=7").label == "sphere:d=7"
    assert parse_candidate("prodsph:l=2,m=4").betti == (1, 0, 1, 0, 1, 0, 1)
    custom = parse_candidate("custom:betti=[1,0,2,0,1],gens=[2,2]")
    assert custom.dim == 4
    with pytest.raises(ValueError):
        parse_candidate("custom:betti=[1,0,1],gens=[true]")


def test_rational_rendering():
    assert render_pi(Fraction(1, 2)) == "1/2·π"
    assert render_pi(Fraction(-3)) == "-3·π"
    assert render_pi(Fraction(0)) == "0"
    assert render_plain(Fraction(-1, 2)) == "-1/2"
    assert render_plain(Fraction(4)) == "4"


def test_round_float():
    assert round_float(0.123456789123) == 0.123456789
    assert round_float(1e-17) == 1e-17
