"""The benchmark's own span recorder and timing proxies.

Nothing under ``src/repro`` is instrumented for the benchmark: a traced
run wraps the *public* functions at each layer boundary (``Model.forward``,
``Reader.materialize``, ``StreamingSource.poll``, ...) with proxies that
record one span per call -- name, start, end, and the span that caused it
(the innermost open span on the same thread).  Spans stay in memory and
are summarized when the timed phase ends.

A name's *self time* is its spans' duration minus the part their child
spans cover, so on one thread the self times of every name plus the root
span's own self time add up to the root's wall clock exactly.
"""

from __future__ import annotations

import collections
import functools
import threading
import time
from dataclasses import dataclass

__all__ = ["Recorder", "NameTotals"]


@dataclass
class NameTotals:
    """What one span name accumulated on one thread."""

    calls: int = 0
    total_s: float = 0.0  # inclusive
    self_s: float = 0.0  # minus direct children


class Recorder:
    """Per-thread span lists plus the patches that feed them.

    A span is the list ``[name, t0, t1, parent]`` with ``parent`` the index
    of the enclosing span in the same thread's list (-1 at the top).
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: dict[int, list] = {}  # thread ident -> span list
        self._patches: list[tuple[object, str, object, bool]] = []
        #: Counts taken at the same boundaries as the spans (bytes moved).
        self.counters: collections.Counter = collections.Counter()

    # -- recording -----------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads[threading.get_ident()] = local.spans
            return local.spans, local.stack

    def begin(self, name: str) -> None:
        spans, stack = self._state()
        spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
        stack.append(len(spans) - 1)

    def end(self) -> None:
        spans, stack = self._state()
        spans[stack.pop()][2] = time.perf_counter()

    def wrap(self, name: str, fn, fold_under: str | None = None):
        """A proxy for ``fn`` recording one ``name`` span per call.

        With ``fold_under``, a call whose enclosing span has that name is
        passed through unrecorded (``Model.predict`` calls
        ``Model.forward``; the inference forward belongs to the predict
        span, not to the training-forward total).
        """
        state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def proxy(*args, **kwargs):
            spans, stack = state()
            parent = stack[-1] if stack else -1
            if fold_under is not None and parent >= 0 and spans[parent][0] == fold_under:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return proxy

    def patch(self, owner, attr: str, name: str, fold_under: str | None = None) -> None:
        """Replace ``owner.attr`` (a class, module or instance attribute)
        with its proxy until :meth:`restore`."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), fold_under))

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr = new`` and remember how to undo it."""
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def clear(self) -> None:
        """Drop everything recorded so far (set-up and warm-up spans).
        Call with no span open on the calling thread."""
        with self._lock:
            for spans in self._threads.values():
                del spans[:]
        self.counters.clear()

    # -- read-out ------------------------------------------------------------

    def snapshot(self) -> list[list]:
        """A copy of every thread's span list, taken when a timed phase
        ends so that what runs afterwards (checks, teardown) stays out."""
        with self._lock:
            return [list(spans) for spans in self._threads.values()]

    @staticmethod
    def totals(spans: list) -> dict[str, NameTotals]:
        """Per-name calls / inclusive / self seconds of one thread's
        finished spans."""
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if t1 > 0.0 and parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, NameTotals] = {}
        for i, (name, t0, t1, _) in enumerate(spans):
            if t1 <= 0.0:
                continue  # still open (another thread mid-call)
            row = out.setdefault(name, NameTotals())
            row.calls += 1
            row.total_s += t1 - t0
            row.self_s += t1 - t0 - child[i]
        return out

    @classmethod
    def merged_totals(cls, snapshot: list[list]) -> dict[str, NameTotals]:
        """Totals over every thread (for named metrics; only one thread's
        totals add up to a wall clock)."""
        merged: dict[str, NameTotals] = {}
        for spans in snapshot:
            for name, row in cls.totals(spans).items():
                into = merged.setdefault(name, NameTotals())
                into.calls += row.calls
                into.total_s += row.total_s
                into.self_s += row.self_s
        return merged
