"""Rewrite tests/golden_outputs.json, the pinned bytes of the default output.

    python tests/write_golden_outputs.py

Run from anywhere; it imports lagcut from the `src/` beside this directory.
The file maps each argv of GRID, joined with spaces, to the SHA-256 of its
exit code and output, and test_golden_outputs.py requires every one to
match.  A change that alters an output on purpose reruns this script and
lists each argv whose digest moved.

The grid leaves out `--help`, argparse usage errors and `identity`, whose
bytes vary across Python versions (argparse wording) and libm builds (the
float residual).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_outputs.json"

# the `--batch` entry of GRID names this token; its file holds BATCH
BATCH_FILE = "{batch}"
BATCH = [
    {"command": "scan", "args": ["--family", "sphere", "--d", "2..7", "--euler", "1..3"]},
    {"command": "scan", "args": ["--family", "torus", "--d", "1..6", "--euler", "1..6"]},
    {"command": "scan", "args": ["--family", "prodsph", "--l", "1..3", "--m", "2..4", "--euler", "1..4"]},
    {"command": "scan", "args": ["--family", "lens", "--p", "1..9", "--n", "1..3"]},
    {"command": "scan", "args": ["--family", "exact", "--d", "2..6", "--euler", "1..4", "--surjectivity"]},
    {"command": "check", "args": ["torus", "--d", "4", "--euler", "6"]},
]


def _check_grid() -> list[list[str]]:
    argvs = []
    for d, euler, grading in itertools.product((1, 2, 5, 6, 7), (0, 1, 2, 3), (2, 3, 4, 6)):
        argvs.append(["check", "sphere", "--d", str(d), "--euler", str(euler), "--grading", str(grading)])
    for d, euler in itertools.product((0, 1, 2, 3, 6), (0, 1, 2, 6, 12)):
        argvs.append(["check", "torus", "--d", str(d), "--euler", str(euler)])
    for (l, m), euler in itertools.product(
        ((1, 2), (2, 2), (4, 6), (2, 5), (3, 1), (0, 2)), (0, 1, 3, 6, 12)
    ):
        argvs.append(["check", "prodsph", "--l", str(l), "--m", str(m), "--euler", str(euler)])
    for p, n in itertools.product((0, 2, 3, 7, 12, 13), (0, 1, 3, 6)):
        argvs.append(["check", "lens", "--p", str(p), "--n", str(n)])
    for d, euler, surjectivity in itertools.product((1, 2, 5, 10), (0, 1, 6, 12), (False, True)):
        argv = ["check", "exact", "--d", str(d), "--euler", str(euler)]
        argvs.append(argv + ["--surjectivity"] if surjectivity else argv)
    return argvs


# each with rows outside the domain or against a hypothesis
SCANS = [
    ["--family", "sphere", "--d", "1..7", "--euler", "1..4", "--grading", "2..4"],
    ["--family", "sphere", "--d", "2..9", "--euler", "0..5"],
    ["--family", "torus", "--d", "0..6", "--euler", "0..8"],
    ["--family", "torus", "--d", "1..24", "--euler", "1..30"],
    ["--family", "torus", "--d", "2", "--euler", "1", "--surjectivity"],
    ["--family", "prodsph", "--l", "0..5", "--m", "1..6", "--euler", "1..6"],
    ["--family", "lens", "--p", "0..14", "--n", "0..4"],
    ["--family", "exact", "--d", "1..9", "--euler", "0..7"],
    ["--family", "exact", "--d", "1..9", "--euler", "0..7", "--surjectivity"],
]

# folds with long zero runs, and folds at N <= dim that wrap the ring around
LARGE_FOLDS = [
    ["check", "torus", "--d", "64", "--euler", "720720"],
    ["check", "torus", "--d", "3", "--euler", "5040"],
    ["check", "torus", "--d", "128", "--euler", "20160"],
    ["check", "torus", "--d", "17", "--euler", "2520"],
    ["check", "prodsph", "--l", "100", "--m", "200", "--euler", "720720"],
    ["check", "prodsph", "--l", "9", "--m", "9", "--euler", "360"],
    ["check", "sphere", "--d", "2097153", "--euler", "1048576", "--grading", "2097152"],
    ["check", "sphere", "--d", "25", "--euler", "6", "--grading", "12"],
    ["fold", "--candidate", "torus:d=5", "--modulus", "4096"],
]

CANDIDATES = [
    "sphere:d=0",
    "sphere:d=1",
    "sphere:d=5",
    "torus:d=0",
    "torus:d=1",
    "torus:d=4",
    "torus:d=7",
    "prodsph:l=2,m=3",
    "prodsph:l=3,m=3",
    "prodsph:l=4,m=2",
    "cp:n=0",
    "cp:n=1",
    "cp:n=3",
    "custom:betti=[1,0,1],gens=[2]",
    "custom:betti=[1,1,1,1],gens=[1,2]",
    "custom:betti=[1,2,1],gens=[1]",
    "custom:betti=[1,1,2]",
    "klein:d=2",
]


def grid() -> list[list[str]]:
    """Every argv the golden file pins, formats included."""
    argvs = _check_grid()
    argvs += [["scan", *args] for args in SCANS]
    argvs += LARGE_FOLDS
    for candidate, modulus in itertools.product(CANDIDATES, (0, 1, 2, 3, 4, 8)):
        argvs.append(["fold", "--candidate", candidate, "--modulus", str(modulus)])
    for euler, level, dim in itertools.product((0, 1, 2, 3), ("-1/2", "-3/4", "0", "1/2", "-2"), (3, 5)):
        argvs.append(["classes", "--euler", str(euler), "--level", level, "--dim", str(dim)])
    out = [argv + ["--format", fmt] for argv in argvs for fmt in ("text", "json")]
    return out + [["--batch", BATCH_FILE]]


def digests() -> dict[str, str]:
    """The SHA-256 of (exit code, output) for each argv of grid()."""
    from lagcut.cli import run

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        batch = Path(tmp) / "batch.json"
        batch.write_text(json.dumps(BATCH))
        for argv in grid():
            code, text = run([str(batch) if token == BATCH_FILE else token for token in argv])
            out[" ".join(argv)] = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
    return out


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(grid())} digests to {GOLDEN}")


if __name__ == "__main__":
    main()
