"""Span tracer for ivxvsim, installed from outside the package.

`Tracer.install` wraps every public function and every public method of
the measured modules, and rebinds each wrapped function at every name
under which a module of the package holds it: `ceremony.prove_shuffle`
is the same function object as `shuffle.prove_shuffle`, so both names
get the same wrapper.  Methods are wrapped on their class, so instance
lookups see the wrapper.  `uninstall` puts every original back.

Each wrapped call records a span (id, name, start, end, parent id).  A
name's self time is the sum over its spans of the span's duration minus
the durations of its wrapped children; calls run in one thread, so the
children of a span never overlap and their durations simply add up.
Calls, self time and byte counts are kept apart for each root span, the
outermost open span (such as one benchmark operation), so that the work
of one operation can be told from that of another.  The span records
themselves are kept only when they last at least `FLOOR_S`, since a
toy-ceremony round makes over half a million calls shorter than that.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from contextlib import contextmanager

PACKAGE = "ivxvsim"
MODULES = ("groups", "elgamal", "shamir", "shuffle", "functionalities",
           "behavior", "seeding", "ceremony", "adversary")

# Spans shorter than this count in the totals but are not kept as records.
FLOOR_S = 1e-4

# Byte counters kept beside a span's calls and self time:
# span name -> (counter name, bytes of one call from (args, result)).
BYTE_COUNTERS = {
    "shuffle.fs_challenge": ("shuffle.fs_challenge.bytes", lambda args, result: len(args[0])),
    "shuffle.serialize_proof": ("shuffle.proof_bytes", lambda args, result: len(result)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (root name id, name id) -> [calls, self time]
        self._totals: dict[tuple[int, int], list] = {}
        # (root name id, counter name) -> bytes
        self._bytes: dict[tuple[int, str], int] = {}
        self.spans: list[tuple] = []      # (id, name id, start, end, parent id)
        self._stack: list[list] = []      # open spans: [id, wrapped child time, root name id]
        self._last_id = 0
        self._patches: list[tuple] = []   # (namespace, attribute, original)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int):
        self._last_id += 1
        if self._stack:
            parent, root = self._stack[-1][0], self._stack[0][2]
        else:
            parent, root = 0, nid
        frame = [self._last_id, 0.0, root]
        self._stack.append(frame)
        return frame, parent

    def _close(self, nid: int, frame: list, parent: int, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        key = (frame[2], nid)
        total = self._totals.get(key)
        if total is None:
            total = self._totals[key] = [0, 0.0]
        total[0] += 1
        total[1] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if duration >= FLOOR_S:
            self.spans.append((frame[0], nid, start, end, parent))

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        counter, size_of = BYTE_COUNTERS.get(name, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, parent = self._open(nid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(nid, frame, parent, start, clock())
            if counter is not None:
                key = (frame[2], counter)
                self._bytes[key] = self._bytes.get(key, 0) + size_of(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around code outside the package, such as one benchmark
        operation; wrapped calls inside it become its children."""
        nid = self._name_id(name)
        frame, parent = self._open(nid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(nid, frame, parent, start, time.perf_counter())

    def _set(self, namespace, attribute: str, value) -> None:
        original = namespace.__dict__[attribute]
        self._patches.append((namespace, attribute, original))
        setattr(namespace, attribute, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package_modules = [m for key, m in sys.modules.items()
                           if key == PACKAGE or key.startswith(PACKAGE + ".")]
        wrappers = {}   # id(original function) -> wrapper
        for short in MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attribute, obj in list(vars(module).items()):
                if attribute.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attribute}", obj)
                elif isinstance(obj, type):
                    self._wrap_class(short, obj)
        # rebind every module-level name that holds a wrapped function
        for module in package_modules:
            for attribute, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                    self._set(module, attribute, wrappers[id(obj)])

    def _wrap_class(self, short: str, cls: type) -> None:
        for attribute, member in list(vars(cls).items()):
            if attribute.startswith("_"):
                continue
            name = f"{short}.{cls.__qualname__}.{attribute}"
            if isinstance(member, types.FunctionType):
                self._set(cls, attribute, self._wrap(name, member))
            elif isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attribute, type(member)(self._wrap(name, member.__func__)))

    def uninstall(self) -> None:
        while self._patches:
            namespace, attribute, original = self._patches.pop()
            setattr(namespace, attribute, original)

    def totals(self) -> dict:
        """Running totals, each under its root span's name:
        "<root>/<name>.calls", "<root>/<name>.self_s" and
        "<root>/<counter>" for the byte counters."""
        out = {}
        for (root, nid), (calls, self_s) in self._totals.items():
            prefix = f"{self.names[root]}/{self.names[nid]}"
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.self_s"] = self_s
        for (root, counter), size in self._bytes.items():
            out[f"{self.names[root]}/{counter}"] = size
        return out

    def dump(self) -> dict:
        """Spans and totals in a JSON-friendly shape."""
        return {
            "floor_s": FLOOR_S,
            "names": list(self.names),
            "span_fields": ["id", "name", "start", "end", "parent"],
            "spans": [[sid, self.names[nid], start, end, parent]
                      for sid, nid, start, end, parent in self.spans],
            "totals": self.totals(),
        }
