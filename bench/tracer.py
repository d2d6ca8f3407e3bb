"""In-memory span tracer that times featservo's layers from outside.

Each traced name is replaced where its caller looks it up (for example
`featservo.simulate.ransac_inliers`, which `ServoLoop.step` calls), so the
program itself is unchanged. A span stores its name, start, end and the
span that was open when it started. Counters record calls that are too
frequent to time individually (one per RANSAC hypothesis) against the
innermost open span. Spans stay in memory until `write_csv` at the end of
the run.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.errors: dict[int, str] = {}  # span index -> exception type name
        self.counts: dict[int, dict[str, int]] = {}  # span index -> counter -> calls
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name, fn, on_result=None):
        """Wrap `fn` so each call records a span; `on_result(index, args, result)`
        runs after the span has closed."""
        nid = self._id(name)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = clock()
                stack.pop()
                self.errors[idx] = type(exc).__name__
                raise
            self.end[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(idx, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        """Wrap `fn` so each call increments `name` on the innermost open span."""
        stack = self._stack
        counts = self.counts

        def counted(*args, **kwargs):
            if stack:
                per_span = counts.setdefault(stack[-1], {})
                per_span[name] = per_span.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace `owner.attr` until `restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        """(name_id, parent, duration_ns, self_ns) as numpy arrays."""
        nid = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        has_parent = parent >= 0
        child_total = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )[: dur.size]
        return nid, parent, dur, dur - child_total

    def indices(self, name: str) -> np.ndarray:
        if name not in self._name_ids:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(np.array(self.name_id, dtype=np.int32) == self._name_ids[name])

    def write_csv(self, path) -> None:
        """All spans, one per line: index, name, parent, start_ns, end_ns, error."""
        with open(path, "w") as f:
            f.write("index,name,parent,start_ns,end_ns,error\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i},{self.names[self.name_id[i]]},{self.parent[i]},"
                    f"{self.start[i]},{self.end[i]},{self.errors.get(i, '')}\n"
                )
