"""A small span recorder that wraps the program's functions from outside.

The benchmark must not depend on the program's own observability layer
(a later change to ``repro.obs`` must not move the benchmark), so it
keeps its own recorder.  :meth:`Tracer.wrap` replaces one attribute —
a module function, a class method or an instance method — with a
wrapper that records a span around every call; :meth:`Tracer.restore`
(also run on ``with`` exit) puts every original back.

Self time is computed per *view*: a span's self time is its duration
minus the durations of its nearest descendants in the same view.  The
``nn`` view makes ``conv2d`` self time exclude ``im2col``; the ``codec``
view makes a decoder module's time exclude the entropy coder it calls
but keep the ``nn`` kernels it runs, which is what lets the module rows
plus entropy add up to the decode wall time.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass, field

__all__ = ["SpanStats", "Tracer"]


@dataclass
class SpanStats:
    """Aggregate of every finished span with one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: sum of the work counts the span's ``work`` callback returned
    #: (MACs, symbols, bytes, jobs), 0 when it has none.
    work: float = 0.0
    #: per-call durations, kept only for names asked for by ``samples``.
    durations: list[float] = field(default_factory=list)


class _Open:
    __slots__ = ("name", "view", "start", "child_s")

    def __init__(self, name: str, view: str, start: float):
        self.name = name
        self.view = view
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Records spans into per-name :class:`SpanStats`.

    Spans nest on one stack, which belongs to the thread that runs the
    measured loop.  Calls made on other threads (the HTTP fleet's
    server handlers) are wrapped with ``nested=False``: they skip the
    stack and record under a lock, so those threads can record
    concurrently.  Nested spans take no lock, so a worker process
    forked while a handler holds it cannot deadlock in a nested wrapper
    it inherited.
    """

    def __init__(self, samples: tuple[str, ...] = (), clock=time.perf_counter):
        self.stats: dict[str, SpanStats] = {}
        self._clock = clock
        self._samples = set(samples)
        self._stack: list[_Open] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._lock = threading.Lock()

    # -- recording --------------------------------------------------------
    def _enter(self, name: str, view: str) -> _Open:
        frame = _Open(name, view, self._clock())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Open, work: float = 0.0) -> None:
        duration = self._clock() - frame.start
        # Pop down to this frame (an exception may have skipped exits).
        while self._stack and self._stack.pop() is not frame:
            pass
        for parent in reversed(self._stack):
            if parent.view == frame.view:
                parent.child_s += duration
                break
        self._record(frame.name, duration, duration - frame.child_s, work)

    def _record(self, name: str, duration: float, self_s: float, work: float) -> None:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += self_s
        stats.work += work
        if name in self._samples:
            stats.durations.append(duration)

    @contextlib.contextmanager
    def span(self, name: str, view: str):
        """Record one span around a block of the benchmark's own code."""
        frame = self._enter(name, view)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrapping ---------------------------------------------------------
    def wrap(self, owner, attr: str, name, view: str, work=None, *, nested: bool = True) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a span name or ``callable(args, kwargs) -> name``;
        ``work`` is ``callable(args, kwargs, result) -> count``.  With
        ``nested=False`` the span bypasses the nesting stack, so calls
        made from other threads (a server's handler threads) are timed
        without corrupting this thread's self-time accounting.
        """
        is_class = isinstance(owner, type)
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else getattr(owner, attr)
        kind = type(raw) if is_class and own else None
        target = raw.__func__ if kind in (staticmethod, classmethod) else raw
        if not callable(target):
            raise TypeError(f"{owner!r}.{attr} is not callable")
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if nested:
                frame = tracer._enter(label, view)
                try:
                    result = target(*args, **kwargs)
                except BaseException:
                    tracer._exit(frame)
                    raise
                tracer._exit(frame, work(args, kwargs, result) if work else 0.0)
                return result
            start = tracer._clock()
            result = target(*args, **kwargs)
            duration = tracer._clock() - start
            count = work(args, kwargs, result) if work else 0.0
            with tracer._lock:
                tracer._record(label, duration, duration, count)
            return result

        replacement = kind(wrapper) if kind in (staticmethod, classmethod) else wrapper
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw, own))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading ------------------------------------------------------------
    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

