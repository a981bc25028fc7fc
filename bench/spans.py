"""Span recording for the traced benchmark run, from outside the package.

`Tracer.installed()` rebinds every public function of every loaded
`cubicmonodromy.*` module, in every module namespace that holds it, with a
wrapper that records a span (name, start, end, parent).  Cached functions are
wrapped outside their cache, so cache hits show up as short spans.  A few
methods of the closure engine are wrapped on their class.  Everything is put
back when the context exits.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "cubicmonodromy"

# (module, class, method): wrapped on the class, named <module>.<method>
METHODS = (("weyl", "FiniteMatrixGroup", "close"),
           ("weyl", "FiniteMatrixGroup", "stacked"),
           ("weyl", "FiniteMatrixGroup", "census"))


class Tracer:
    """In-memory span list; spans[i] = [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.sizes: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size=None):
        """fn with a span around every call; size(result) is summed per name."""
        spans, stack, sizes = self.spans, self._stack, self.sizes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if size is not None:
                sizes[name] += size(out)
            return out
        return traced

    @contextmanager
    def installed(self):
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and
                   (name == PACKAGE or name.startswith(PACKAGE + "."))}
        wrappers = {}
        for name, mod in modules.items():
            short = name.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == name):
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        undo = []
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(modules[f"{PACKAGE}.{mod_name}"], cls_name)
            raw = cls.__dict__[meth]
            undo.append((cls, meth, raw))
            name = f"{mod_name}.{meth}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(name, raw.__func__, size=len)))
            else:
                setattr(cls, meth, self.wrap(name, raw))
        try:
            yield self
        finally:
            for target, attr, obj in reversed(undo):
                setattr(target, attr, obj)


def summarize(spans: list[list], sizes: dict[str, int]) -> dict:
    """Aggregate a span list into plain dicts.

    calls[name], ms[name]   calls, and time of the spans with no ancestor of
                            the same name (so recursion is not counted twice)
    self_ms[module]         sum of span durations minus their direct children
    entries[name]           spans of name with no ancestor in its module
    within["name<module"]   calls of name made under a span of module
    top_ms                  time of the spans with no parent
    """
    child_ms = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
    calls: dict[str, int] = defaultdict(int)
    ms: dict[str, float] = defaultdict(float)
    self_ms: dict[str, float] = defaultdict(float)
    entries: dict[str, int] = defaultdict(int)
    within: dict[str, int] = defaultdict(int)
    # spans are stored in call order, so a parent's row is filled before its
    # children's: outer[i] is the set of names and modules above span i
    outer: list[frozenset] = []
    top_ms = 0.0
    for idx, (name, start, end, parent) in enumerate(spans):
        module = name.partition(".")[0]
        above = outer[parent] if parent >= 0 else frozenset()
        outer.append(above | {name, module})
        dur = (end - start) * 1e3
        calls[name] += 1
        self_ms[module] += dur - child_ms[idx]
        if parent < 0:
            top_ms += dur
        if name not in above:
            ms[name] += dur
        if module not in above:
            entries[name] += 1
        for key in above:
            if "." not in key:
                within[f"{name}<{key}"] += 1
    return {"calls": dict(calls), "ms": dict(ms), "self_ms": dict(self_ms),
            "entries": dict(entries), "within": dict(within),
            "top_ms": top_ms, "sizes": dict(sizes)}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import ms per module from `python -X importtime` output."""
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        try:
            cumulative = float(parts[1])
        except ValueError:  # the header row
            continue
        out.setdefault(parts[2].strip(), cumulative / 1e3)
    return out
