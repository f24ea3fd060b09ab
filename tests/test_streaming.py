"""Streamed output: main writes exactly the text that run returns, and the
scan loop hands its callback exactly the rows that scan returns."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from write_golden_outputs import BATCH, SCANS

import lagcut
from lagcut import obstruct
from lagcut.cli import canonical_json, main, parse_range, run
from lagcut.obstruct import scan

SCAN_ARGVS = [["scan", *args, "--format", fmt] for args in SCANS for fmt in ("text", "json")]


@pytest.mark.parametrize("argv", SCAN_ARGVS, ids=" ".join)
def test_main_writes_what_run_returns(capsys, argv):
    code, text = run(argv)
    assert main(argv) == code
    assert capsys.readouterr().out == text


SMALL_CHECK = {"command": "check", "args": ["torus", "--d", "2", "--euler", "3"]}

# each batch with the exit code of every report, or the whole output when no
# report is written
BATCHES = {
    "golden": (BATCH, [0, 0, 2, 2, 0, 0]),
    "empty": ([], "[]\n"),
    "scan refused before its first row": (
        [SMALL_CHECK, {"command": "scan", "args": ["--family", "torus", "--d", "1..x", "--euler", "1..3"]}],
        [0, 1],
    ),
    "text scan": ([{"command": "scan", "args": ["--family", "lens", "--p", "2..5", "--n", "1..2", "--format", "text"]}], [0]),
    "grading that does not divide 2 N_e": (
        [{"command": "check", "args": ["sphere", "--d", "5", "--euler", "1", "--grading", "3"]}, SMALL_CHECK],
        [2, 0],
    ),
    "malformed late entry": (
        [SMALL_CHECK, SMALL_CHECK, {"command": "check", "args": "torus"}],
        "usage error: batch entry 2 must be {command, args} of strings\n",
    ),
}


@pytest.mark.parametrize("batch, expected", BATCHES.values(), ids=BATCHES)
def test_main_writes_what_run_returns_for_the_golden_batch(capsys, tmp_path, batch, expected):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(batch))
    code, text = run(["--batch", str(path)])
    assert main(["--batch", str(path)]) == code
    assert capsys.readouterr().out == text
    if type(expected) is str:
        assert (code, text) == (1 if batch else 0, expected)
        return
    # every report is JSON, a text scan's included
    reports = json.loads(text)
    assert [r["exit"] for r in reports] == expected
    assert [(r["command"], r["args"]) for r in reports] == [(e["command"], e["args"]) for e in batch]
    assert all(type(r["report"]) is dict for r in reports)
    assert code == max(expected)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--d", "1..x", "--euler", "1..3"], "bad range '1..x'"),
        (["--d", "1..3", "--euler", "1..3", "--l", "2"], "family 'torus' does not take ['l']"),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_refused_scan_writes_only_its_error(capsys, args, message, fmt):
    argv = ["scan", "--family", "torus", *args, "--format", fmt]
    if fmt == "json":
        expected = canonical_json({"error": {"cite": "usage-error", "message": message}})
    else:
        expected = f"error [usage-error]: {message}\n"
    assert run(argv) == (1, expected)
    assert main(argv) == 1
    assert capsys.readouterr().out == expected


def scan_call(args):
    # the family, ranges and surjectivity flag a scan argv names
    family, ranges, surjectivity = None, {}, False
    tokens = iter(args)
    for token in tokens:
        if token == "--surjectivity":
            surjectivity = True
        elif token == "--family":
            family = next(tokens)
        else:
            ranges[token.removeprefix("--")] = parse_range(next(tokens))
    return family, ranges, surjectivity


def outcome(call):
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("args", SCANS, ids=" ".join)
def test_scan_returns_the_rows_its_loop_hands_the_callback(args):
    family, ranges, surjectivity = scan_call(args)
    received = []

    def streamed():
        obstruct._scan_rows(received.append, family, ranges, surjectivity)
        return received

    assert outcome(streamed) == outcome(lambda: scan(family, ranges, surjectivity))


# 4,096 rows and 11.7 MB of JSON
LARGE_SCAN = ["scan", "--family", "torus", "--d", "1..64", "--euler", "1..64", "--format", "json"]

CHILD = """
import os, sys
from lagcut import cli
how, argv = sys.argv[1], sys.argv[2:]
if how == "main":
    sys.stdout = open(os.devnull, "w")
    code, size = cli.main(argv), 0
else:
    code, text = cli.run(argv)
    size = len(text)
print(code, size, file=sys.__stdout__)
"""

# A child's ru_maxrss starts at its parent's RSS at the fork, so each child
# is started by this small launcher rather than by the test process.
LAUNCHER = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-c", *sys.argv[1:]], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def peak(how, argv=LARGE_SCAN):
    # exit code, output size and peak RSS in bytes of one child process
    src = str(Path(lagcut.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, CHILD, how, *argv], capture_output=True, text=True, env=env, check=True
    )
    code, size, rss_kb = map(int, proc.stdout.split())
    return code, size, rss_kb * 1024


def test_main_never_holds_a_scan_document():
    main_code, _, main_peak = peak("main")
    run_code, size, run_peak = peak("run")
    assert main_code == run_code == 0
    assert size > 11_000_000
    assert main_peak <= run_peak - size


def test_a_reader_that_stops_early_ends_the_scan_without_a_traceback():
    # the rows go out as they are rendered, so a reader such as `head` can
    # close the pipe while the scan still runs
    src = str(Path(lagcut.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "lagcut.cli", *LARGE_SCAN], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert proc.stdout.read(100).startswith(b'{\n  "family": "torus",')
    proc.stdout.close()
    with proc.stderr:
        assert proc.wait() == 1
        assert proc.stderr.read() == b""


def large_d_scan(rows):
    # rows of the 4,096-torus ending at N_e = 720; the folds at large N
    # print up to 1.5 MB each, above obstruct.MAX_SHARED_DETAIL
    return ["scan", "--family", "torus", "--d", "4096", "--euler", f"{721 - rows}..720", "--format", "json"]


def test_a_large_d_scan_keeps_no_step_of_an_earlier_row():
    # Every row folds the one ring at gradings that other rows share, so
    # memoizing each distinct step kept megabytes per row until the scan
    # ended: 8 rows once peaked at 87 MB and 16 at 139 MB.  Kept to what
    # one row holds, the scan peaks near the lone check of its largest row,
    # which holds the same ring, whatever its row count.
    lone_code, _, lone = peak("main", ["check", "torus", "--d", "4096", "--euler", "720", "--format", "json"])
    peaks = {}
    for rows in (8, 16):
        code, _, peaks[rows] = peak("main", large_d_scan(rows))
        assert code == lone_code == 0
    assert peaks[16] <= lone + 16 * 2**20
    assert peaks[16] <= peaks[8] + 8 * 2**20


def test_a_torus_check_below_half_its_dimension_builds_no_betti_text():
    # Every grading of this check, N <= 1,440, lies below (dim + 1) / 2 =
    # 4,096.5, so its folds add the Betti list's entries and never build its
    # 14 MB text: it peaks at 63-65 MB, and at 77-80 MB with the text built
    # at its first fold (CPython 3.10-3.13).
    code, _, rss = peak("main", ["check", "torus", "--d", "8192", "--euler", "720", "--format", "json"])
    assert code == 0
    assert rss < 72 * 2**20


def test_a_torus_check_with_one_grading_above_half_its_dimension_builds_no_betti_text():
    # 2 N_e = 4,098 = 2 x 3 x 683, so the one grading above (dim + 1) / 2 is
    # N = 4,098, whose fold writes its own entries instead of building the
    # text of all 8,193 for later folds: it peaks at 73-74 MB, and at 90-91 MB
    # with the text built at that fold (CPython 3.11).
    code, _, rss = peak("main", ["check", "torus", "--d", "8192", "--euler", "2049", "--format", "json"])
    assert code == 0
    assert rss < 82 * 2**20


def test_cp_at_the_support_limit_builds_without_revalidating():
    # CP^(2^20 - 1) holds MAX_SUPPORT_PAIRS pairs, which its factory builds
    # valid by construction: the fold peaks at 121 MB, and at 184 MB with
    # every invariant checked again on the built ring (CPython 3.11).
    code, _, rss = peak("main", ["fold", "--candidate", "cp:n=1048575", "--modulus", "4"])
    assert code == 0
    assert rss < 150 * 2**20


def test_a_batch_of_sixteen_tori_holds_one_ring(tmp_path):
    # Each entry builds its torus, 6.4 MB of binomials at d = 8192, and the
    # torus memo keeps only the last one, so the batch holds one ring at a
    # time: it peaks at 30 MB, and at 132 MB with all 16 tori kept (CPython
    # 3.11).
    path = tmp_path / "batch.json"
    entries = [["torus", "--d", str(d), "--euler", "1", "--format", "json"] for d in range(8177, 8193)]
    path.write_text(json.dumps([{"command": "check", "args": args} for args in entries]))
    code, _, rss = peak("main", ["--batch", str(path)])
    assert code == 0
    assert rss < 48 * 2**20


def large_batch(tmp_path, *entries):
    # a batch file of the entries, then the large scan
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([*entries, {"command": "scan", "args": LARGE_SCAN[1:]}]))
    return ["--batch", str(path)]


def test_main_never_holds_a_batch_document(tmp_path):
    # each report is written once its entry has run, so a batch of the large
    # scan peaks below the scan's own document held whole
    batch_code, _, batch_peak = peak("main", large_batch(tmp_path))
    scan_code, size, scan_peak = peak("run")
    assert batch_code == scan_code == 0
    assert size > 11_000_000
    assert batch_peak < scan_peak


def test_a_reader_that_stops_early_ends_the_batch_without_a_traceback(tmp_path):
    src = str(Path(lagcut.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "lagcut.cli", *large_batch(tmp_path, SMALL_CHECK)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(100).startswith(b'[\n  {\n    "args"')
    proc.stdout.close()
    with proc.stderr:
        assert proc.wait() == 1
        assert proc.stderr.read() == b""
