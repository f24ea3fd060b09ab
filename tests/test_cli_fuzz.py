"""Generated command lines: cli.run answers every one without raising.

Every subcommand, `scan` and `--batch` are driven with small, boundary
and huge ints (up to the 4,300 digits CPython parses), the first values
above each cost limit, and malformed tokens spliced in.  Every run must
return an exit code in {0, 1, 2} and never print CPython's own digit-limit
message; a command line that parses with `--format json`, and every batch
that runs, must print canonical JSON.  A run, which adds options only for
the subcommand its argv names, must answer exactly as one whose parser has
every subcommand filled.

`check lens --p` and `check exact --euler` also draw in-domain values up
to MAX_DIVISOR_SEARCH, the limit itself included: a divisor check there
takes about a millisecond.  Other in-domain values between a few dozen and
the cost limits are left to the limit tests in test_obstruct.py and
test_cli.py.  A fold check's cost follows the text it prints, which no
limit bounds yet (ROADMAP item 8): at MAX_TORUS_DIM, `check torus --d 8192`
takes about 0.5 s at --euler 720, 3.2 s and 84 MB of text at 5040, and
would print about 2 GB at 720720, while a sphere check at grading
MAX_FOLD_MODULUS takes about 20 ms.  A generated suite cannot
afford that per example.  Scan axes span at most three points for the
same reason.
"""

import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagcut import cli
from lagcut.coring import MAX_REDUCED_DEGREE, MAX_SUPPORT_PAIRS, MAX_TORUS_DIM
from lagcut.obstruct import FAMILIES, MAX_DIVISOR_SEARCH, MAX_FOLD_MODULUS

ABOVE_LIMITS = [
    MAX_FOLD_MODULUS + 1,
    MAX_FOLD_MODULUS + 2,
    MAX_DIVISOR_SEARCH + 1,
    MAX_TORUS_DIM + 1,
    cli.MAX_LENGTH + 1,
    MAX_REDUCED_DEGREE + 1,
    MAX_SUPPORT_PAIRS + 1,
]

# either side of cli.MAX_DIGITS (4,096 digits) and of the 4,300 CPython parses
DIGIT_BOUNDARIES = [10**4096 - 1, 10**4096, -(10**4096), 10**4299, 10**4300 - 1, -(10**4300 - 1)]

ints = st.one_of(
    st.integers(-3, 48),
    st.sampled_from(ABOVE_LIMITS + DIGIT_BOUNDARIES + [2**31, 2**63 - 1, -(2**63), 10**20]),
    st.integers(min_value=2**64),
    st.integers(max_value=-(2**64)),
)
int_tokens = ints.map(str)

malformed = st.one_of(
    st.sampled_from(
        ["", " ", "-", "--", "abc", "1..", "..", "..3", "3..1", "1.5", "0x10", "1e5",
         "nan", "[", "]", "[1,", "--format", "json", "--batch", "--level", "-1/2",
         "--surjectivity", "9" * 4301, "1" + "0" * 5000, "\x00", "é", "--d=3"]
    ),
    st.text(max_size=6),
)

NINES = "9" * 4300  # the longest int CPython parses
levels = st.one_of(
    st.sampled_from(
        ["-1/2", "-0.5", "inf", "-1e-4095", "-1e-4096", "-1e5000", "-1e99999999999999",
         f"-{NINES}", f"-1/{NINES}", f"-{NINES}/7"]
    ),
    st.builds(lambda p, q: f"{p}/{q}", ints, ints),
    malformed,
)

int_lists = st.lists(ints, max_size=5).map(lambda xs: json.dumps(xs))
candidates = st.one_of(
    st.builds(lambda d: f"sphere:d={d}", int_tokens),
    st.builds(lambda d: f"torus:d={d}", int_tokens),
    st.builds(lambda l, m: f"prodsph:l={l},m={m}", int_tokens, int_tokens),
    st.builds(lambda n: f"cp:n={n}", int_tokens),
    st.builds(lambda b, g: f"custom:betti={b},gens={g}", int_lists, int_lists),
    st.sampled_from(
        ["custom:betti=" + "[" * 3000, f"custom:betti=[1,{NINES},{NINES},1],gens=[1]",
         "custom:betti=[1,1],gens=[[1]]", "sphere", "x:y=1"]
    ),
    malformed,
)


def _range(lo, width):
    # ends CPython can print: the nines sit at the top of their range
    return f"{lo}..{lo + width}" if lo + width < 10**4300 else f"{lo - width}..{lo}"


ranges = st.one_of(int_tokens, st.builds(_range, ints, st.integers(0, 2)), malformed)


def _options(names, values, by_name):
    # each option drawn from values, or from its own strategy in by_name
    return st.tuples(*[by_name.get(name, values) for name in names]).map(
        lambda vs: [t for name, v in zip(names, vs) for t in (f"--{name}", v)]
    )


# the largest prime up to MAX_DIVISOR_SEARCH, a product of two primes either
# side of 10^6, and the limit
DIVISOR_SEARCH_VALUES = [2**40 - 87, 999983 * 1000003, MAX_DIVISOR_SEARCH]
divisor_search_tokens = st.one_of(int_tokens, st.sampled_from(DIVISOR_SEARCH_VALUES).map(str))
DIVISOR_SEARCHED = {"lens": {"p": divisor_search_tokens}, "exact": {"euler": divisor_search_tokens}}


def _check(family):
    names = FAMILIES[family][0]
    return _options(names, int_tokens, DIVISOR_SEARCHED.get(family, {})).map(
        lambda opts: ["check", family, *opts]
    )


def _scan(family):
    names = FAMILIES[family][0]
    return _options(names, ranges, {}).map(lambda opts: ["scan", "--family", family, *opts])


commands = st.one_of(
    st.builds(
        lambda e, lv, d: ["classes", "--euler", e, "--level", lv, "--dim", d],
        int_tokens,
        levels,
        int_tokens,
    ),
    st.builds(lambda d, n: ["identity", "--d", d, "--modulus", n], int_tokens, int_tokens),
    st.builds(lambda c, n: ["fold", "--candidate", c, "--modulus", n], candidates, int_tokens),
    *[_check(family) for family in FAMILIES],
    *[_scan(family) for family in FAMILIES],
)


@st.composite
def command_lines(draw):
    argv = draw(commands)
    if draw(st.booleans()):
        argv = argv + ["--surjectivity"]
    argv = argv + ["--format", draw(st.sampled_from(["text", "json"]))]
    # splice malformed tokens in, or drop a token
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        if draw(st.booleans()):
            argv = argv[:at] + [draw(malformed)] + argv[at:]
        elif at < len(argv):
            argv = argv[:at] + argv[at + 1 :]
    return argv


def assert_canonical(out):
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return doc


def prints_json(argv):
    # a command line that parses, names a subcommand and asks for JSON; a
    # line that does not parse, or asks for help, is answered in plain text
    try:
        ns = cli._build_parser().parse_args(cli._merge_rationals(list(argv)))
    except (cli.UsageError, cli._HelpRequested):
        return False
    return ns.cmd is not None and not ns.batch and ns.format == "json"


def run_full(argv):
    # the reference path: the parser filled for every subcommand and check
    # target, whatever argv names
    build = cli._build_parser
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_build_parser", lambda tokens=None: build())
        return cli.run(argv)


@settings(max_examples=250, deadline=None)
@given(command_lines())
# the trace prints d + 2 and 2n + 1, one digit longer than the input
@example(["check", "exact", "--d", NINES, "--euler", "3", "--format", "json"])
@example(["check", "lens", "--p", "7", "--n", NINES, "--format", "text"])
@example(["scan", "--family", "exact", "--d", NINES, "--euler", "3", "--format", "json"])
# a grid of two axes within the digit limit whose size is above it
@example(["scan", "--family", "torus", "--d", f"1..{NINES[:4096]}", "--euler", f"1..{NINES[:4096]}", "--format", "text"])
# a "--" glued to --level as its value
@example(["classes", "--euler", "1", "--level", "--", "--dim", "0", "--format", "text"])
# divisor checks at and just below the limit
@example(["check", "lens", "--p", str(2**40 - 87), "--n", "3", "--format", "json"])
@example(["check", "exact", "--d", "4", "--euler", str(MAX_DIVISOR_SEARCH), "--format", "text"])
def test_run_answers_every_command_line(argv):
    code, out = cli.run(argv)
    assert code in (0, 1, 2)
    assert out.endswith("\n")
    assert "set_int_max_str_digits" not in out
    if prints_json(argv):
        assert_canonical(out)
    assert (code, out) == run_full(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["-h"],
        ["check", "-h"],
        ["check", "torus", "-h"],
        ["scan", "--help"],
        ["check"],
        ["check", "foo"],
        ["nope"],
        [],
        # an abbreviated option, and a subcommand name as an option's value
        ["classes", "--eul", "2", "--level", "-1/2"],
        ["fold", "--candidate", "check", "--modulus", "3"],
        ["--batch", "x", "check"],
    ],
)
def test_fixed_command_lines_answer_as_the_full_parser_does(argv):
    assert cli.run(argv) == run_full(argv)


batch_entries = st.one_of(
    command_lines().map(lambda argv: {"command": argv[0], "args": argv[1:]} if argv else {}),
    st.sampled_from([{}, [], "check", {"command": "check"}, {"command": 1, "args": []},
                     {"command": "fold", "args": [1]}, {"command": "classes", "args": ["-h"]}]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(batch_entries, max_size=3))
def test_batch_answers_every_file(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "batch.json")
        with open(path, "w") as f:
            json.dump(entries, f)
        code, out = cli.run(["--batch", path])
    assert code in (0, 1, 2)
    assert "set_int_max_str_digits" not in out
    if out.startswith("usage error: "):
        assert code == 1
    else:
        reports = assert_canonical(out)
        assert len(reports) == len(entries)
        assert all(r["exit"] in (0, 1, 2) for r in reports)
        assert code == max([r["exit"] for r in reports], default=0)
