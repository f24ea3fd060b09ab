"""End-to-end tests of the command-line surface."""

import collections
import enum
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagcut
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
    for bad in ("abc", "1/0"):
        code, out = run(["classes", "--euler", "1", "--level", bad])
        assert code == 1


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


def test_scan_json_roundtrip():
    _, out = run(
        ["scan", "--family", "exact", "--d", "6..8", "--euler", "4", "--format", "json"]
    )
    assert_roundtrip(out)


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


def test_main_writes_stdout_and_returns_code(capsys):
    code = main(["identity", "--d", "4", "--modulus", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert "identity holds: true" in captured.out


# ------------------------------------------- inputs that used to raise from run

NINES = "9" * 4300  # the longest int CPython parses; twice it has 4,301 digits


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
    ],
)
def test_numbers_a_report_cannot_print_are_usage_errors(argv, message):
    code, doc = run_json(argv)
    assert code == 1
    assert doc["error"] == {"cite": "usage-error", "message": message}
    assert run(argv) == (1, f"error [usage-error]: {message}\n")


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
    path.write_text(f"[{NINES}9]")
    code, out = run(["--batch", str(path)])
    assert code == 1
    assert out.startswith("usage error: batch file is not valid JSON: Exceeds the limit")


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
