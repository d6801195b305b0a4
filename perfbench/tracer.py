"""Spans around the program's layers, recorded from outside the program.

Each wrapped function records a span: its layer name, start, end and the
span that was open when it was called.  Spans stay in flat arrays until
the run ends; `self_times` then turns them into self time per layer, a
span's duration minus the part its direct children cover and minus the
time `exclude` charged to it (kernel samples taken inside it).

The package imports names with `from .x import f`, so one function can
be bound in several modules.  `install` replaces every binding of each
wrapped function in every loaded module and checks that none is left.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

ROOT = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, layer: str, fn, on_result=None):
        """fn wrapped in a span named `layer`; on_result(tracer, result) may count."""
        nid = self._id(layer)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        excluded = self.excluded
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            excluded.append(0.0)
            starts.append(perf_counter())
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def exclude(self, seconds: float) -> None:
        """Charge time that is not the program's to the innermost open span.

        Called from a signal handler, so every span on the stack already
        has all its array entries.
        """
        if self._stack[-1] >= 0:
            self.excluded[self._stack[-1]] += seconds

    def span_count(self) -> int:
        return len(self.start)

    def self_times(self, first: int, stop: int):
        """Self time and span count per layer over spans first..stop-1."""
        child = {}
        for idx in range(first, stop):
            p = self.parent[idx]
            if p >= first:
                child[p] = child.get(p, 0.0) + self.end[idx] - self.start[idx]
        own: dict[str, float] = {}
        calls: Counter = Counter()
        for idx in range(first, stop):
            layer = self.names[self.name[idx]]
            own[layer] = (own.get(layer, 0.0) + self.end[idx] - self.start[idx]
                          - child.get(idx, 0.0) - self.excluded[idx])
            calls[layer] += 1
        return own, calls


def install(tracer: Tracer, functions, methods) -> None:
    """Wrap module-level functions and class methods in place.

    functions: (module, attribute, layer, on_result) tuples; every module
    binding the same function object gets the wrapper.
    methods: (class, attribute, layer, on_result) tuples.
    """
    originals = []
    for module, attr, layer, on_result in functions:
        fn = getattr(module, attr)
        wrapped = tracer.wrap(layer, fn, on_result)
        for mod in list(sys.modules.values()):
            space = getattr(mod, "__dict__", None)
            if not isinstance(space, dict):
                continue
            for key, value in list(space.items()):
                if value is fn:
                    space[key] = wrapped
        originals.append(fn)
    for cls, attr, layer, on_result in methods:
        setattr(cls, attr, tracer.wrap(layer, cls.__dict__[attr], on_result))
    for mod in list(sys.modules.values()):
        space = getattr(mod, "__dict__", None)
        if isinstance(space, dict):
            for value in list(space.values()):
                if any(value is fn for fn in originals):
                    raise RuntimeError("an unwrapped binding is left in %s" % mod)
