"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the library from outside: every
module namespace that holds a wrapped object is rebound to the wrapper
(the library imports mark primitives with ``from .cake_measure import ...``,
so rebinding only the defining module would miss most calls), and
``restore`` puts every original back.  Spans are kept in flat arrays
(name, start, end, parent, problem id, observer time) so a run of a few
million spans stays small, and are written out once, when the run ends.

A span's self time is its duration minus the time its direct children
cover and minus the time the benchmark's own observers (counters that read
a call's arguments or result) spent inside it.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

NO_PARENT = -1


class Tracer:
    """Records nested spans while ``on``; does nothing (one flag test per
    call) while off, so output checks between operations go unrecorded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.problem = array("q")
        self.observer = array("d")
        self.stack = [NO_PARENT]
        self.on = False
        self.problem_id = -1
        self._rebound: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, sid: int) -> int:
        idx = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self.stack[-1])
        self.problem.append(self.problem_id)
        self.end.append(0.0)
        self.observer.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> float:
        t = time.perf_counter()
        self.end[idx] = t
        self.stack.pop()
        return t - self.start[idx]

    def _observed(self, seconds: float) -> None:
        parent = self.stack[-1]
        if parent != NO_PARENT:
            self.observer[parent] += seconds

    def wrap(self, name: str, fn, observe=None):
        """A traced stand-in for fn.  observe(args, result, seconds) runs
        after the span closes, for counters that need arguments or results;
        its time is charged to the enclosing span's observer time, not to
        that span's self time."""
        sid = self._intern(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer._close(idx)
            if observe is not None:
                t0 = time.perf_counter()
                observe(args, result, seconds)
                tracer._observed(time.perf_counter() - t0)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._intern(name))

    def install(self, modules, targets) -> None:
        """Wrap each target and rebind it wherever it is visible.

        targets: (span name, module, attribute, observe) tuples.  An
        attribute "Cls.method" wraps a method on the class.  A plain
        function is rebound under every name, in every given module, that
        refers to the same object.
        """
        for name, module, attr, observe in targets:
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._rebind(owner, meth, self.wrap(name, original, observe))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original, observe)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._rebind(mod, key, traced)

    def _rebind(self, owner, key: str, new) -> None:
        self._rebound.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def restore(self) -> None:
        """Put back every original, last rebinding first."""
        while self._rebound:
            owner, key, original = self._rebound.pop()
            setattr(owner, key, original)

    def __len__(self) -> int:
        return len(self.start)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children and the
        observers inside it cover."""
        start, end, parent = self.start, self.end, self.parent
        own = [e - s - o for s, e, o in zip(start, end, self.observer)]
        for i, p in enumerate(parent):
            if p != NO_PARENT:
                own[p] -= end[i] - start[i]
        return own

    def summary(self) -> dict[str, tuple[int, float]]:
        """span name -> (calls, total self seconds)."""
        calls: dict[str, int] = defaultdict(int)
        own_total: dict[str, float] = defaultdict(float)
        for sid, own in zip(self.name_id, self.self_seconds()):
            name = self.names[sid]
            calls[name] += 1
            own_total[name] += own
        return {name: (calls[name], own_total[name]) for name in calls}

    def child_counts(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose direct parent is parent_name."""
        pid, cid = self._ids.get(parent_name), self._ids.get(child_name)
        if pid is None or cid is None:
            return 0
        ids = self.name_id
        return sum(1 for i, p in enumerate(self.parent)
                   if ids[i] == cid and p != NO_PARENT and ids[p] == pid)

    def write(self, path) -> None:
        """One JSON header line, then the six arrays in header order."""
        fields = [("name_id", self.name_id), ("start", self.start),
                  ("end", self.end), ("parent", self.parent),
                  ("problem", self.problem), ("observer", self.observer)]
        header = {"names": self.names, "count": len(self),
                  "fields": [[f, a.typecode, a.itemsize] for f, a in fields]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in fields:
                a.tofile(fh)


class _Span:
    def __init__(self, tracer: Tracer, sid: int):
        self.tracer, self.sid = tracer, sid

    def __enter__(self):
        self.idx = self.tracer._open(self.sid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
