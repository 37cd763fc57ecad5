"""Spans around the public callables of each `macdaha` layer.

The tracer is installed from outside the package: every function defined in
a layer's source file whose name is public or a dunder (module functions,
methods, class- and static methods) is replaced by a wrapper that records a
span.  A name imported into another module (``from .qfield import qnum``)
is a separate binding, so every module of the package, and every extra
module handed in, is scanned and each binding of a wrapped object is
replaced.  `uninstall` puts the originals back.

Spans are recorded only while `recording` is on (the benchmark turns it on
around each timed instance), kept in flat arrays (name id, parent index,
start, end) and written out by `write`.  A layer's self time is the time
of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import gzip
import inspect
import os
import sys
import time
from array import array

ROOT = "instance"


class Tracer:
    def __init__(self, layers):
        self.layers = tuple(layers)
        self.names = []          # span name id -> "layer.callable"
        self.name_layer = []     # span name id -> layer
        self.name_of = array("i")  # span index -> name id
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cur = -1
        self.recording = False
        self._patches = []       # (namespace dict or class, name, original)
        self._ids = {}

    # -- installation -----------------------------------------------------

    def _name_id(self, name, layer):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return i

    def _wrap(self, fn, name, layer):
        nid = self._name_id(name, layer)
        perf = time.perf_counter
        tr = self

        def span(*args, **kwargs):
            if not tr.recording:
                return fn(*args, **kwargs)
            i = len(tr.name_of)
            tr.name_of.append(nid)
            tr.parent.append(tr.cur)
            tr.start.append(0.0)
            tr.end.append(0.0)
            prev, tr.cur = tr.cur, i
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[i] = perf()
                tr.start[i] = t0
                tr.cur = prev

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def install(self, package, extra_modules=()):
        """Wrap the public callables of each layer module of `package` and
        rebind them in every module of the package and in `extra_modules`."""
        pkg = package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        replaced = {}            # id(original function object) -> wrapper
        for layer in self.layers:
            mod = sys.modules[f"{pkg}.{layer}"]
            src = os.path.realpath(inspect.getsourcefile(mod))
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer, src)
                elif (callable(obj) and not attr.startswith("_")
                      and _defined_in(obj, src)):
                    replaced[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
        for ns in [vars(m) for m in [*modules, *extra_modules]]:
            for attr, obj in list(ns.items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    ns[attr] = hit[1]

    def _wrap_class(self, cls, layer, src):
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or (attr.startswith("__") and attr.endswith("__"))
            if not public:
                continue
            kind = None
            fn = raw
            if isinstance(raw, (classmethod, staticmethod)):
                kind = type(raw)
                fn = raw.__func__
            if not inspect.isfunction(fn) or not _defined_in(fn, src):
                continue
            w = self._wrap(fn, f"{layer}.{cls.__name__}.{attr}", layer)
            setattr(cls, attr, kind(w) if kind else w)
            self._patches.append((cls, attr, raw))

    def uninstall(self):
        for ns, attr, orig in reversed(self._patches):
            if isinstance(ns, dict):
                ns[attr] = orig
            else:
                setattr(ns, attr, orig)
        self._patches.clear()

    # -- recording --------------------------------------------------------

    def root(self):
        """Open the root span of one instance; returns its index."""
        i = len(self.name_of)
        self.name_of.append(self._name_id(ROOT, ROOT))
        self.parent.append(-1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.cur = i
        self.recording = True
        return i

    def close_root(self, i):
        self.recording = False
        self.end[i] = time.perf_counter()
        self.cur = -1

    # -- results ----------------------------------------------------------

    def summary(self):
        """Per span name: calls, total and self time; per layer the same."""
        n = len(self.name_of)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        by_name = {}
        for i in range(n):
            rec = by_name.setdefault(self.names[self.name_of[i]], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child[i]
        by_layer = {}
        for name, (calls, total, self_s) in by_name.items():
            layer = self.name_layer[self._ids[name]]
            rec = by_layer.setdefault(layer, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        return by_name, by_layer, n

    def write(self, path):
        """Write every span as `index parent name start end` (gzip text)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# index parent name start_s end_s\n")
            for i in range(len(self.name_of)):
                fh.write(f"{i} {self.parent[i]} {self.names[self.name_of[i]]} "
                         f"{self.start[i]:.9f} {self.end[i]:.9f}\n")


def _defined_in(obj, src):
    code = getattr(obj, "__code__", None)
    if code is None:
        obj = getattr(obj, "__wrapped__", None)      # functools caches
        code = getattr(obj, "__code__", None)
    return code is not None and os.path.realpath(code.co_filename) == src
