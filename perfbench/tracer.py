"""Span tracer that works from outside the program.

It replaces public functions and methods of gasaunet with wrappers that
record a span (name, parent span, start, end) around each call, and puts the
originals back on `uninstall`. Nothing inside `src/` knows about it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        # one row per span: [name, parent index or -1, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def traced(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        """Trace `owner.attr` (module function, class method or instance
        method) until uninstall()."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patched.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, self.traced(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- roll-up -----------------------------------------------------------

    def rollup(self, roots: tuple[str, ...]) -> dict:
        """Inclusive and self seconds, call counts, and the share of root
        time that named child spans cover.

        `total[(name, parent_name)]` keeps the caller, so the same function
        can be attributed to different layers depending on where it ran.
        """
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total: dict[tuple[str, str], float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        root_total = root_self = 0.0
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            dur = t1 - t0
            pname = self.spans[parent][0] if parent >= 0 else ""
            total[(name, pname)] += dur
            self_s[name] += dur - child[i]
            calls[name] += 1
            if name in roots:
                root_total += dur
                root_self += dur - child[i]
        coverage = 1.0 - root_self / root_total if root_total > 0 else 0.0
        return {"total": total, "self": self_s, "calls": calls, "coverage": coverage}

    def inclusive(self, rollup: dict, name: str, parent: str | None = None) -> float:
        return sum(v for (n, p), v in rollup["total"].items() if n == name and parent in (None, p))
