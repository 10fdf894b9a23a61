"""Outside-in span tracer for tourneykit.

The tracer rebinds public functions of the library to timing wrappers
from outside: no library file changes.  Several modules bind the same
function by name (``speed`` and ``verify`` import ``canonical_form``,
``concat`` or ``block_count`` themselves), so a module function is replaced
in every ``tourneykit`` module that holds the same object.  Methods are
replaced on their class.

Every call becomes one span: (name, parent span, start, end).  Spans are
kept in flat arrays in memory and written out once, at the end of a pass,
so tracing costs a few array appends per call and no I/O.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # name -> distinct argument keys seen, for calls wrapped with a key
        self.distinct: dict[str, set] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn: Callable, key: Callable | None) -> Callable:
        nid = self._intern(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        seen = self.distinct.setdefault(name, set()) if key else None

        # span() inlined on local names: this runs up to a million times a pass
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(key(*args, **kwargs))
            sid = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span for a step of the benchmark itself (the pass, a family)."""
        nid = self._intern(name)
        sid = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self._stack.pop()

    def wrap_function(
        self, name: str, module: object, attr: str, key: Callable | None = None
    ) -> None:
        """Replace module.attr in every tourneykit module that binds it."""
        original = getattr(module, attr)
        traced = self._wrap(name, original, key)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "tourneykit" and not mod_name.startswith("tourneykit."):
                continue
            for k, v in list(vars(mod).items()):
                if v is original:
                    setattr(mod, k, traced)

    def wrap_method(self, name: str, cls: type, attr: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(name, raw.__func__, None)))
        else:
            setattr(cls, attr, self._wrap(name, raw, None))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(kind)
        )
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(kind, minlength=k)
        total = np.bincount(kind, weights=dur, minlength=k)
        own = np.bincount(kind, weights=self_time, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span (name index, parent index, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            kind=np.frombuffer(self.kind, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
