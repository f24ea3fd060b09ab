"""The default output, byte for byte: every argv of the golden grid hashes
as tests/golden_outputs.json pins it (rewritten by write_golden_outputs.py)."""

import json

from write_golden_outputs import GOLDEN, digests, grid


def test_golden_file_covers_the_grid():
    pinned = json.loads(GOLDEN.read_text())
    assert sorted(pinned) == sorted(" ".join(argv) for argv in grid())


def test_every_output_matches_its_golden_digest():
    pinned = json.loads(GOLDEN.read_text())
    moved = [argv for argv, digest in digests().items() if pinned.get(argv) != digest]
    assert moved == []
