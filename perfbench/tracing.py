"""Span recorder that wraps functions from outside the program.

A ``Tracer`` replaces attributes of modules or classes with timing wrappers
and keeps every span in memory as ``[name, start, end, parent]``, where
``parent`` is the index of the enclosing span (or -1).  Count hooks run after
a wrapped call returns, inside a span named ``OVERHEAD`` that is a sibling of
the call's span; ``Timeline.net`` removes that tracer time from any interval,
so hook work is charged to the tracer and not to the layer that contains it.

Every wrapped attribute is put back by ``restore`` (or on leaving
``installed``), even when the traced run raises.
"""
from __future__ import annotations

import functools
import math
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from contextlib import contextmanager

OVERHEAD = "trace.count"
_MISSING = object()


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self.broken: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``count(counts, args, kwargs, result, exc)`` runs after each call as
        tracer overhead.  An attribute the owner does not define is recorded
        in ``missing`` and left alone, and a hook that raises (the call's
        arguments changed shape) is recorded in ``broken``; metrics that
        depend on either read null instead of failing the run.
        """
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING:
            self.missing.add(name)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                self._close(sid)
                if count is not None:
                    hid = self._open(OVERHEAD)
                    try:
                        count(self.counts, args, kwargs, result, exc)
                    except Exception:
                        self.broken.add(name)
                    finally:
                        self._close(hid)

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, install):
        """Run ``install(self)``, yield, and restore every wrapped attribute."""
        try:
            install(self)
            yield self
        finally:
            self.restore()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        out.append((end - start) - covered(children[i], start, end))
    return out


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Timeline:
    """Span lookups for deriving metrics: net durations, by-name indexes."""

    def __init__(self, spans):
        self.spans = spans
        over = sorted((s[1], s[2]) for s in spans if s[0] == OVERHEAD)
        self._over_start = [s for s, _ in over]
        self._over_cum = [0.0]
        for start, end in over:
            self._over_cum.append(self._over_cum[-1] + (end - start))
        self._over_end = [e for _, e in over]
        self.by_name: defaultdict[str, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            self.by_name[span[0]].append(i)

    def net(self, lo: float, hi: float) -> float:
        """``hi - lo`` minus tracer overhead spans lying inside [lo, hi]."""
        a = bisect_left(self._over_start, lo)
        b = bisect_right(self._over_end, hi)
        inside = self._over_cum[b] - self._over_cum[a] if b > a else 0.0
        return (hi - lo) - inside

    def busy(self, name: str) -> float:
        """Summed net duration of the spans called ``name``; nested calls of
        the same name are counted once, at the outermost."""
        total = 0.0
        for i in self.by_name[name]:
            if not self._inside_same(i):
                total += self.net(self.spans[i][1], self.spans[i][2])
        return total

    def layer_busy(self, layer: str) -> float:
        """Net time inside spans whose name starts with ``layer + '.'``,
        counting each outermost span of the layer once."""
        prefix = layer + "."
        total = 0.0
        for i, span in enumerate(self.spans):
            if span[0].startswith(prefix) and not self._ancestor_has_prefix(i, prefix):
                total += self.net(span[1], span[2])
        return total

    def _inside_same(self, i: int) -> bool:
        name, p = self.spans[i][0], self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def _ancestor_has_prefix(self, i: int, prefix: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0].startswith(prefix):
                return True
            p = self.spans[p][3]
        return False

    def within(self, name: str, outer: int) -> list[int]:
        """Indexes of spans called ``name`` that lie inside span ``outer``."""
        lo, hi = self.spans[outer][1], self.spans[outer][2]
        return [i for i in self.by_name[name] if lo <= self.spans[i][1] and self.spans[i][2] <= hi]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def percentile_report(prefix: str, seconds) -> dict:
    """``{prefix}_p50`` and ``{prefix}_p99`` in ms of a sample of durations
    in seconds, plus ``{prefix}_samples``, the count they rest on; the
    percentiles read None when there are no samples."""
    out = {f"{prefix}_samples": (len(seconds), "count")}
    for q in (50, 99):
        out[f"{prefix}_p{q}"] = (percentile(seconds, q) * 1000.0 if seconds else None, "ms")
    return out
