"""Every layer the benchmark traces still exists in the package.

bench/child.py lists the functions its traced run wraps (``TARGETS``). A
refactor that deletes or renames one fails here rather than in a later
``bench/run.py --trace 1``.
"""

import importlib
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
