"""In-memory spans around the public calls of each layer.

``Tracer.install`` replaces the named module attributes with wrappers that
record ``(name, start, end, parent, op, raised)``; calls made through the
module attribute, by the benchmark or by another layer, are recorded, and a
call made from inside a traced call becomes its child.  The untraced run
installs nothing, so its ops run the program's own functions.
"""

from __future__ import annotations

import functools
import gzip
from collections import defaultdict
from time import perf_counter

from pipeline import BUILDERS

#: module -> public functions wrapped in the traced run
TRACED = {
    "spectral": ("analyze",),
    "operators": BUILDERS,
    "krein": ("congruence_to_involutory", "classification_report",
              "pseudounitary_symmetries_exist"),
    "evolution": ("krein_norm_series", "transition_probability", "propagator"),
}

NAME, START, END, PARENT, OP, RAISED = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None            # id of the op being run, or None
        self._stack = []
        self._saved = []

    def install(self, modules: dict):
        """Wrap ``TRACED`` functions on the given ``{"spectral": module, ...}``."""
        for mod_name, names in TRACED.items():
            module = modules[mod_name]
            for name in names:
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(fn, f"{mod_name}.{name}"))

    def restore(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, fn, label):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(label):
                return fn(*args, **kwargs)
        return traced

    def span(self, label):
        return _Span(self, label)

    def dump(self, path):
        """Write every span as gzipped CSV, times in seconds."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op,raised\n")
            for s in self.spans:
                fh.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[OP]},{int(s[RAISED])}\n")


class _Span:
    __slots__ = ("tracer", "label", "index")

    def __init__(self, tracer, label):
        self.tracer, self.label = tracer, label

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([self.label, perf_counter(), None, parent, tr.op, False])
        tr._stack.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        span = tr.spans[self.index]
        span[END] = perf_counter()
        span[RAISED] = exc_type is not None
        tr._stack.pop()
        return False


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child[i] for i, s in enumerate(spans)]
