"""In-memory span tracer that times a package from outside.

A span is one timed call: [name, start, end, parent], where parent is the
index of the span that was open when it started (None at top level).  Spans
are only appended while a traced run is in progress and are written out by
the caller at the end.  Module-level names are replaced by timing wrappers
with `Tracer.wrap`; leaving the `with` block puts every original back.
"""

import functools
import json
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        parent = self._stack[-1] if self._stack else None
        span = [name, self.clock(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self._stack.pop()

    def wrap(self, module, attr, name, around=None):
        """Replace module.attr by a wrapper that records a span per call.

        around(timed, args, kwargs), when given, runs in place of the plain
        call: it may adjust the arguments, must call timed(*args, **kwargs)
        once, and may inspect the result.  Its own work falls outside the
        span.
        """
        original = getattr(module, attr)

        def timed(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        if around is None:
            wrapper = timed
        else:
            def wrapper(*args, **kwargs):
                return around(timed, args, kwargs)

        self._patches.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(wrapper))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f)
            f.write("\n")


def summarize(spans):
    """Per span name: calls, inclusive seconds `s` and self seconds `self_s`.

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive time counts only the outermost span of a name, so
    a name nested inside itself is not counted twice.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        stats = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        stats["calls"] += 1
        stats["self_s"] += end - start - covered[i]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            stats["s"] += end - start
    return out
