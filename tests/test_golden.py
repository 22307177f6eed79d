"""Seeded CLI outputs stay byte for byte what tests/golden holds.

A change that moves an output on purpose reruns tests/golden/regen.py and
lists the moved files and digits in CHANGES.md.
"""

import json

import pytest

from golden.regen import CASES, HERE, VERSIONS, differing_lines, produce, versions


@pytest.mark.parametrize("case", list(CASES))
def test_seed_1_outputs_match_the_golden_files(case, tmp_path):
    produced = produce(case, tmp_path)
    stored = sorted(p.name for p in (HERE / case).iterdir())
    assert sorted(produced) == stored, f"{case}: produced {sorted(produced)}, stored {stored}"
    recorded = json.loads(VERSIONS.read_text(encoding="utf-8"))
    for name, text in produced.items():
        moved = differing_lines((HERE / case / name).read_bytes().decode("utf-8"), text)
        if moved:
            number, a, b = moved[0]
            pytest.fail(
                f"{case}/{name} line {number} differs: golden {a!r}, produced {b!r}. "
                f"Golden files were written with {recorded}; this run has {versions()}. "
                "If the change is intended, rerun tests/golden/regen.py."
            )
