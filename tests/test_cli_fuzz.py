"""Generated command lines: cli.run answers every one without raising.

Every subcommand, `scan` and `--batch` are driven with small, boundary
and huge ints (up to the 4,300 digits CPython parses), the first values
above each cost limit, and malformed tokens spliced in.  Every run must
return an exit code in {0, 1, 2}; a command line that parses with
`--format json`, and every batch that runs, must print canonical JSON.

In-domain values between a few dozen and the cost limits are left to the
limit tests in test_obstruct.py and test_cli.py: near a limit a single
check takes up to a second, which a generated suite cannot afford per
example.  Scan axes span at most three points for the same reason.
"""

import json
import os
import tempfile

from hypothesis import given, settings
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

ints = st.one_of(
    st.integers(-3, 48),
    st.sampled_from(
        ABOVE_LIMITS + [2**31, 2**63 - 1, -(2**63), 10**20, 10**4300 - 1, -(10**4300 - 1)]
    ),
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


def _options(names, values):
    return st.tuples(*[values for _ in names]).map(
        lambda vs: [t for name, v in zip(names, vs) for t in (f"--{name}", v)]
    )


def _check(family):
    names = FAMILIES[family][0]
    return _options(names, int_tokens).map(lambda opts: ["check", family, *opts])


def _scan(family):
    names = FAMILIES[family][0]
    return _options(names, ranges).map(lambda opts: ["scan", "--family", family, *opts])


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


@settings(max_examples=250, deadline=None)
@given(command_lines())
def test_run_answers_every_command_line(argv):
    code, out = cli.run(argv)
    assert code in (0, 1, 2)
    assert out.endswith("\n")
    if prints_json(argv):
        assert_canonical(out)


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
    if out.startswith("usage error: "):
        assert code == 1
    else:
        reports = assert_canonical(out)
        assert len(reports) == len(entries)
        assert all(r["exit"] in (0, 1, 2) for r in reports)
        assert code == max([r["exit"] for r in reports], default=0)
