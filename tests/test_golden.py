"""Seeded CLI outputs stay byte for byte what tests/golden holds.

A change that moves an output on purpose reruns tests/golden/regen.py and
lists the moved files and digits in CHANGES.md.
"""

import json
import os
import subprocess
import sys

import pytest

from golden.regen import CASES, HERE, VERSIONS, differing_lines, produce, versions

#: prints a case's compared files as one JSON object, and nothing else
_PRODUCE = """
import contextlib, io, json, pathlib, sys, tempfile
from golden.regen import produce
with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
    files = produce(sys.argv[1], pathlib.Path(work))
json.dump(files, sys.stdout)
"""


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


@pytest.mark.parametrize("case", ["oracle-ou", "oracle-dichotomous"])
def test_oracle_outputs_do_not_follow_the_blas_thread_count(case):
    src = str(HERE.parents[1] / "src")
    outputs = []
    for count in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": count,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _PRODUCE, case], cwd=HERE.parent, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
