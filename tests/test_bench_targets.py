"""Every layer the benchmark traces still exists in the package, and fires.

bench/child.py lists the functions its traced run wraps (``TARGETS``). A
refactor that deletes or renames one fails here rather than in a later
``bench/run.py --trace 1``; one that stops a traced layer firing fails the
short traced runs below.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _targets():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("child").TARGETS
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t.module}.{t.attr}")
def test_traced_target_resolves_to_a_package_attribute(target):
    owner = importlib.import_module(target.module)
    for part in target.attr.split("."):
        assert hasattr(owner, part), f"{target.module}.{target.attr} is missing"
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("workload", ["spin-ladder", "three-state-sweep"])
def test_a_short_traced_run_fires_every_expected_layer(workload):
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "1"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["failed"] == 0
