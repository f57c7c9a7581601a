"""Aggregating span tracer for the traced benchmark run.

Spans are recorded around calls into the program's layers by wrapping
each function where its caller looks it up (a module attribute or a
class attribute), so nothing inside the program changes.  A span's
*self time* is its duration minus the time its child spans cover; the
self times of all spans plus the time outside any span add up to the
run's wall time, which is how the traced run reconciles its layers.

Per-record layers are called millions of times, so spans are not kept
one by one: each name accumulates ``[total, self, calls]`` in memory and
the totals are written out when the run ends.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Tracer:
    """Per-name span totals with parent/child self-time accounting."""

    def __init__(self):
        #: One child-time accumulator (a one-element list) per open span.
        self._stack: List[list] = []
        #: name -> [total seconds, self seconds, calls]
        self.stats: Dict[str, list] = {}
        #: Seconds covered by spans with no parent.
        self.top_level = 0.0
        #: Free-form named counters filled by span hooks.
        self.counts: Dict[str, float] = {}
        self._patches: list = []

    # ------------------------------------------------------------------
    def _stat(self, name: str) -> list:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0.0, 0.0, 0]
        return stat

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _closer(self, name: str):
        stat = self._stat(name)
        stack = self._stack

        def close(duration: float, child: float) -> None:
            stat[0] += duration
            stat[1] += duration - child
            stat[2] += 1
            if stack:
                stack[-1][0] += duration
            else:
                self.top_level += duration

        return close

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        close = self._closer(name)
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            close(end - start, frame[0])

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a top-level span measured before the tracer existed."""
        self._closer(name)(end - start, 0.0)

    def begin(self, name: str) -> tuple:
        """Open a span that :meth:`end` closes (a phase, not a call)."""
        frame = [0.0]
        self._stack.append(frame)
        return self._closer(name), frame, time.perf_counter()

    def end(self, handle: tuple) -> None:
        """Close the innermost open span, opened by :meth:`begin`."""
        close, frame, start = handle
        end = time.perf_counter()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError("spans must close innermost first")
        self._stack.pop()
        close(end - start, frame[0])

    def wrap(self, name: str, fn: Callable,
             hook: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``.

        ``before(args, kwargs)`` runs just before the span opens and its
        return value is passed on; ``hook(result, args, kwargs, end,
        before_value)`` runs just after it closes.  Both run in the
        parent's span, so their cost never lands in the measured layer.
        """
        close = self._closer(name)
        stack = self._stack
        clock = time.perf_counter

        if hook is None and before is None:
            def wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    close(end - start, frame[0])
        else:
            def wrapper(*args, **kwargs):
                entered = None if before is None else before(args, kwargs)
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    close(end - start, frame[0])
                if hook is not None:
                    hook(result, args, kwargs, end, entered)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def patch(self, owner, attr: str, name: str,
              hook: Optional[Callable] = None,
              before: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (module or class) by its traced wrapper."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            traced = classmethod(self.wrap(name, original.__func__,
                                           hook, before))
        else:
            traced = self.wrap(name, original, hook, before)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def substitute(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` by ``replacement`` until :meth:`restore`."""
        original = inspect.getattr_static(owner, attr)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def self_s(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat[1] if stat else 0.0

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return stat[2] if stat else 0
