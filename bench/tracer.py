"""In-memory span tracer installed from outside the program.

Wrappers replace module attributes, so the program is traced without edits.
A function bound by name in several modules (``from .liouville import
propagate``) is replaced in every loaded module of the package, because each
such module holds its own reference. Spans record their parent, and a span's
self time is its duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional


class TracerError(RuntimeError):
    """A wrap target is missing, or a metric that must fire never did."""


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    tag: Optional[str] = None


@dataclass(frozen=True)
class Target:
    """One function (or method, ``Class.method``) to wrap.

    ``metric`` is the metric prefix. ``timed`` records a span (self time goes
    to ``<metric>.self_s``); untimed targets only count calls, so their time
    stays in the caller's self time. ``calls`` names the call counter.
    ``tag(args, kwargs)`` splits the span's self time by a label;
    ``measure(args, kwargs, result)`` returns extra counts to add.
    """

    module: str
    attr: str
    metric: str
    timed: bool = True
    calls: Optional[str] = None
    tag: Optional[Callable] = None
    measure: Optional[Callable] = None


def self_times(spans: list) -> list:
    """Self time of each span: duration minus the union of its children."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, []), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


class Tracer:
    def __init__(self, package: str, clock: Callable[[], float] = time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patches: list = []  # (owner, attr, original)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        calls = target.calls or f"{target.metric}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            if not target.timed:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else None
                self.spans.append(None)
                self._stack.append(index)
                start = self.clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = self.clock()
                    self._stack.pop()
                    tag = target.tag(args, kwargs) if target.tag else None
                    self.spans[index] = Span(target.metric, start, end, parent, tag)
            if target.measure:
                self.counts.update(target.measure(args, kwargs, result))
            return result

        return wrapper

    def _package_modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]

    def install(self, targets) -> None:
        """Wrap every target at every use site; a missing target is an error."""
        for target in targets:
            module = sys.modules.get(target.module)
            if module is None:
                raise TracerError(f"module {target.module} is not imported")
            owner_path, _, attr = target.attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                raise TracerError(f"{target.module}.{target.attr} is missing")
            wrapper = self._wrap(target, original)
            if owner is not module:  # a method: the class is shared by all use sites
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in self._package_modules():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self) -> dict:
        """Self time per span name (and per tag) plus every counter."""
        out: dict = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            key = f"{span.name}.self_s"
            out[key] = out.get(key, 0.0) + own
            if span.tag is not None:
                tagged = f"{key}.{span.tag}"
                out[tagged] = out.get(tagged, 0.0) + own
        out.update(self.counts)
        return out


def require_fired(metrics: dict, expected) -> None:
    """Raise unless every expected metric is present and non-zero."""
    dead = sorted(name for name in expected if not metrics.get(name))
    if dead:
        raise TracerError(f"per-layer metrics never fired: {', '.join(dead)}")
