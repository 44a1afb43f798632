"""Span tracing from the benchmark's side of each module boundary.

``Tracer.install`` replaces every public module-level function of each layer
by a wrapper that records one span per call: name, start, end and the span
that was open when it was called.  Modules import names directly, so a
function is replaced in every ``novikov`` namespace that binds it.  Methods
(``Field.coerce``, ``Matrix.__post_init__`` ...) are left alone: they are
called millions of times and are timed by probes instead.

Spans are kept in flat arrays in memory and written out when the run ends.
Their durations are scaled to the reference speed, like every other time
(see ``harness``).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = (
    "fields", "linalg", "tensors", "algebra", "operators", "postnov", "ybe",
    "lift", "solver", "properties", "serialize", "cli", "_kernels",
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self._restore = []

    def _wrap(self, label: str, fn):
        nid = self._ids.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer in every namespace."""
        homes = {layer: importlib.import_module(f"novikov.{layer}") for layer in LAYERS}
        namespaces = [m for n, m in sys.modules.items() if n == "novikov" or n.startswith("novikov.")]
        for layer, home in homes.items():
            if layer == "_kernels":
                # The package re-exports the selected backend's functions.
                names = [n for n, v in vars(home).items() if not n.startswith("_") and callable(v)]
                home = home.impl
            else:
                names = [n for n, v in vars(home).items()
                         if not n.startswith("_") and inspect.isfunction(v) and v.__module__ == home.__name__]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._restore.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()

    def rescale(self, lo: int, hi: int, factor: float) -> None:
        """Multiply the durations of the spans in [lo, hi) by ``factor``
        (the host-speed scale of the execution that made them)."""
        start, end = self.start, self.end
        for i in range(lo, hi):
            end[i] = start[i] + round((end[i] - start[i]) * factor)

    def mark(self) -> int:
        return len(self.name_id)

    def spans(self, lo: int = 0, hi=None):
        """(name, duration_ns, parent_index) for the spans in [lo, hi)."""
        hi = len(self.name_id) if hi is None else hi
        for i in range(lo, hi):
            yield i, self.names[self.name_id[i]], self.end[i] - self.start[i], self.parent[i]

    def self_ns(self, lo: int = 0, hi=None) -> dict:
        """Per span index in [lo, hi): its duration minus its children's."""
        hi = len(self.name_id) if hi is None else hi
        own = {}
        for i, _name, dur, par in self.spans(lo, hi):
            own[i] = own.get(i, 0) + dur
            if par >= lo:
                own[par] = own.get(par, 0) - dur
        return own

    def write(self, path: str) -> None:
        """Spans as gzipped JSON lines: a name table, then one
        [name index, start ns, end ns, parent span index] per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.name_id)):
                fh.write(f"[{self.name_id[i]},{self.start[i]},{self.end[i]},{self.parent[i]}]\n")
