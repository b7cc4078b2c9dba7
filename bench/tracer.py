"""In-memory spans around calls into qfield's public functions.

``Tracer.install()`` replaces every public module-level function of the
qfield modules by a wrapper that records a span, and rebinds the names other
modules imported (``scattering.u_spinor``, ``propagator.slash``,
``fock.basic_number`` ...) to the same wrapper, so nested calls get their own
spans.  A span is (name, start, end, parent index); spans live in flat
arrays until the run ends and are then written out as JSON.

The layer of a span is the module that defines the function.  Self time is
the span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

MODULES = ("qcore", "fock", "wick", "dirac", "propagator", "scattering",
           "cli")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        # (function name, exception type) -> count
        self.errors: dict = {}
        # counter name -> value, filled by result hooks
        self.counters: dict = {}
        self._restore: list = []

    # ------------------------------------------------------------ spans

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self.intern(name))
        self.parent.append(self.stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None):
        self.end[idx] = time.perf_counter() if end is None else end
        self.stack.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Record a finished span, e.g. one measured in another process."""
        idx = len(self.start)
        self.name.append(self.intern(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return idx

    def wrap(self, qualname: str, fn, on_result=None):
        nid = self.intern(qualname)
        name_a, parent_a, start_a, end_a = (self.name, self.parent,
                                            self.start, self.end)
        stack, errors, clock = self.stack, self.errors, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            end_a.append(0.0)
            stack.append(idx)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end_a[idx] = clock()
                stack.pop()
                key = (qualname, type(exc).__name__)
                errors[key] = errors.get(key, 0) + 1
                raise
            end_a[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(self.counters, result)
            return result
        return wrapper

    # ----------------------------------------------------- installation

    def install(self, hooks: dict | None = None):
        """Wrap the public functions of every qfield module (see MODULES)."""
        import importlib
        hooks = hooks or {}
        package = importlib.import_module("qfield")
        modules = [package] + [importlib.import_module(f"qfield.{m}")
                               for m in MODULES]
        wrappers: dict = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("qfield.")):
                    continue
                layer = obj.__module__.split(".", 1)[1]
                key = f"{layer}.{obj.__name__}"
                if key not in wrappers:
                    wrappers[key] = self.wrap(key, obj, hooks.get(key))
                self._restore.append((mod, attr, obj))
                setattr(mod, attr, wrappers[key])
        return self

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # -------------------------------------------------------- reporting

    def dump(self, path: str, extra: dict | None = None):
        """Write every span as [name, start_s, end_s, parent] plus extras."""
        spans = [[self.names[n], s, e, p] for n, s, e, p in
                 zip(self.name, self.start, self.end, self.parent)]
        with open(path, "w") as fh:
            json.dump({"spans": spans, **(extra or {})}, fh)

    def self_times(self) -> list:
        """Self time of every span, in seconds."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= self.end[idx] - self.start[idx]
        return own

    def roots(self) -> list:
        """For each span, the index of its outermost ancestor."""
        root = list(range(len(self.parent)))
        for idx, par in enumerate(self.parent):
            if par >= 0:
                root[idx] = root[par]
        return root

    def layer(self, nid: int) -> str:
        return self.names[nid].split(".", 1)[0]

    def durations(self, qualname: str) -> list:
        """Durations (s) of the calls of one function that are not nested
        inside another call of the same function."""
        nid = self._ids.get(qualname)
        if nid is None:
            return []
        out = []
        for idx, n in enumerate(self.name):
            if n != nid:
                continue
            par = self.parent[idx]
            while par >= 0 and self.name[par] != nid:
                par = self.parent[par]
            if par < 0:
                out.append(self.end[idx] - self.start[idx])
        return out

    def count(self, qualname: str) -> int:
        nid = self._ids.get(qualname)
        return 0 if nid is None else sum(1 for n in self.name if n == nid)

    def error_count(self, qualname: str) -> int:
        return sum(c for (name, _), c in self.errors.items()
                   if name == qualname)
