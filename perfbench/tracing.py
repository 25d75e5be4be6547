"""Spans for the traced benchmark run, kept in memory and written at the end.

A span records name, start, end and the span that was open when it began.
The traced run installs wrappers around public functions of the package so
that calls one layer makes into another (hallsets -> melancon, analysis ->
fastfactor, ...) nest. Very hot, tiny calls (Word construction) are timed as
leaves: one running total per name instead of a span per call. The untraced
run never calls `install`.

A layer is a module of the package; a span's layer is its name up to the
first dot. Self time is a span's duration minus its child spans and the
leaf time spent directly inside it.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

# span record fields
NAME, START, END, PARENT, LEAF, ATTRS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls, s
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0, None])
        self._open.append(sid)
        return sid

    def end(self, sid: int, attrs: dict | None = None) -> None:
        rec = self.spans[sid]
        rec[END] = perf_counter()
        rec[ATTRS] = attrs
        self._open.pop()

    def traced(self, name: str, fn, attrs=None):
        """`fn` wrapped in a span; attrs(args, result) adds span attributes."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(sid, {"raised": True})
                raise
            tracer.end(sid, attrs(args, result) if attrs else None)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """`fn` timed into a running total, charged to the open span."""
        tracer = self
        total = self.leaves[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                total[0] += 1
                total[1] += spent
                if tracer._open:
                    tracer.spans[tracer._open[-1]][LEAF] += spent

        return wrapper

    # -- installing wrappers -----------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        # Read the raw attribute so classmethods are restored as classmethods.
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        self.patch(owner, attr, self.traced(name, getattr(owner, attr), attrs))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds."""
        out = [s[END] - s[START] - s[LEAF] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def layer_self(self) -> dict[str, float]:
        """Seconds of self time per layer, leaf time included."""
        totals: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            totals[s[NAME].split(".", 1)[0]] += own
        for name, (_, seconds) in self.leaves.items():
            totals[name.split(".", 1)[0]] += seconds
        return dict(totals)

    def write(self, path) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "leaf_s", "attrs"],
            "spans": self.spans,
            "leaves": {k: {"calls": c, "s": s} for k, (c, s) in self.leaves.items()},
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
