"""Seeded CLI outputs stay byte for byte what tests/golden holds.

A change that moves an output on purpose reruns tests/golden/regen.py and
lists the moved files and digits in CHANGES.md.
"""

import json
from itertools import zip_longest

import pytest

from golden.regen import CASES, HERE, VERSIONS, produce, versions


def _first_difference(expected: str, got: str):
    """(1-based line number, expected line, produced line) of the first
    difference, or None when the texts are equal."""
    lines = zip_longest(expected.splitlines(keepends=True), got.splitlines(keepends=True),
                        fillvalue="")
    for number, (a, b) in enumerate(lines, start=1):
        if a != b:
            return number, a, b
    return None


@pytest.mark.parametrize("case", list(CASES))
def test_seed_1_outputs_match_the_golden_files(case, tmp_path):
    produced = produce(case, tmp_path)
    stored = sorted(p.name for p in (HERE / case).iterdir())
    assert sorted(produced) == stored, f"{case}: produced {sorted(produced)}, stored {stored}"
    recorded = json.loads(VERSIONS.read_text(encoding="utf-8"))
    for name, text in produced.items():
        diff = _first_difference((HERE / case / name).read_bytes().decode("utf-8"), text)
        if diff is not None:
            number, a, b = diff
            pytest.fail(
                f"{case}/{name} line {number} differs: golden {a!r}, produced {b!r}. "
                f"Golden files were written with {recorded}; this run has {versions()}. "
                "If the change is intended, rerun tests/golden/regen.py."
            )
