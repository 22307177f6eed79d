"""Self-test of the span tracer; every traced benchmark run starts with it.

    python3 bench/selftest.py

Checks the self-time arithmetic on a synthetic nested span set (with
overlapping children), that wrappers reach every use site of a function and
record parents, that restore() undoes every patch, and that a missing target
or a metric that never fires is an error rather than a zero.
"""

import math
import sys
import types

import tracer


class SelfTestError(AssertionError):
    """The tracer computes or patches something wrongly."""


def _check(condition: bool, what: str) -> None:
    if not condition:
        raise SelfTestError(f"tracer self-test failed: {what}")


def _self_time_arithmetic() -> None:
    S = tracer.Span
    spans = [
        S("root", 0.0, 10.0, None),
        S("a", 1.0, 4.0, 0),
        S("b", 3.0, 6.0, 0),        # overlaps a: the union [1, 6] counts once
        S("c", 8.0, 9.0, 0),
        S("a.inner", 2.0, 3.0, 1),
        S("late", 9.5, 11.0, 0),    # runs past its parent: only [9.5, 10] counts
    ]
    got = tracer.self_times(spans)
    want = [10.0 - 5.0 - 1.0 - 0.5, 2.0, 3.0, 1.0, 1.0, 1.5]
    _check(all(math.isclose(g, w, abs_tol=1e-12) for g, w in zip(got, want)),
           f"self times {got} != {want}")


def _fake_package():
    """pkg.core defines inner/outer; pkg.user binds inner by name."""
    core = types.ModuleType("_tracerpkg.core")

    def inner(x):
        return x + 1

    def outer(x):
        return core.inner(x) * 2

    core.inner, core.outer = inner, outer
    user = types.ModuleType("_tracerpkg.user")
    user.inner = inner
    pkg = types.ModuleType("_tracerpkg")
    return {"_tracerpkg": pkg, "_tracerpkg.core": core, "_tracerpkg.user": user}


def _wrapping() -> None:
    modules = _fake_package()
    sys.modules.update(modules)
    core, user = modules["_tracerpkg.core"], modules["_tracerpkg.user"]
    original = core.inner
    ticks = iter(range(100))
    tr = tracer.Tracer("_tracerpkg", clock=lambda: float(next(ticks)))
    try:
        tr.install([
            tracer.Target("_tracerpkg.core", "outer", "core.outer"),
            tracer.Target("_tracerpkg.core", "inner", "core.inner",
                          measure=lambda a, k, r: {"core.inner.sum": r}),
        ])
        _check(user.inner is not original, "use site bound by name was not patched")
        _check(core.outer(1) == 4 and user.inner(5) == 6, "wrapped results changed")
        names = [(s.name, s.parent) for s in tr.spans]
        _check(names == [("core.outer", None), ("core.inner", 0), ("core.inner", None)],
               f"spans or parents wrong: {names}")
        m = tr.metrics()
        _check(m["core.outer.calls"] == 1 and m["core.inner.calls"] == 2, "call counts wrong")
        _check(m["core.inner.sum"] == 8, "measure hook not applied")
        # clock ticks: outer [0, 3], inner [1, 2], inner [4, 5]
        _check(m["core.outer.self_s"] == 2.0 and m["core.inner.self_s"] == 2.0,
               f"self times wrong: {m}")
        try:
            tracer.Tracer("_tracerpkg").install([tracer.Target("_tracerpkg.core", "gone", "x")])
        except tracer.TracerError:
            pass
        else:
            _check(False, "a missing target did not raise")
        try:
            tracer.require_fired(m, ["core.outer.self_s", "core.never.self_s"])
        except tracer.TracerError:
            pass
        else:
            _check(False, "a metric that never fired did not raise")
    finally:
        tr.restore()
        for name in modules:
            sys.modules.pop(name, None)
    _check(core.inner is original and user.inner is original, "restore() left a patch")


def run() -> None:
    _self_time_arithmetic()
    _wrapping()


if __name__ == "__main__":
    run()
    print("tracer self-test passed")
