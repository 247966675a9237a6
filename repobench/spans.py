"""Span and counter recording from outside the program.

A :class:`Tracer` replaces public functions and methods of ``repro`` with
wrappers that record a span per call (name, start, end, parent) and
optional counts, and puts every original back on :meth:`Tracer.restore`.
Nothing inside ``src/`` knows it is being traced.

A layer's self time is the time its spans cover minus the part of each
span that its child spans cover, measured on interval unions so that
overlapping children are not subtracted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


#: Name of a span whose self time belongs to the caller of the boundary
#: that opened its parent (see ``Boundary.inherit_arg``).
INHERIT = "<inherit>"


def _owner(spans: list[Span], index: int) -> str:
    while spans[index].name == INHERIT:
        parent = spans[index].parent
        grandparent = spans[parent].parent if parent >= 0 else -1
        index = grandparent if grandparent >= 0 else parent
        if index < 0:
            return INHERIT
    return spans[index].name


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: span time minus the union of its children's time.

    An :data:`INHERIT` span's self time is charged to the span that
    called its parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            clipped = (max(span.start, parent.start), min(span.end, parent.end))
            if clipped[1] > clipped[0]:
                children.setdefault(span.parent, []).append(clipped)
    totals: dict[str, float] = {}
    for index, span in enumerate(spans):
        own = (span.end - span.start) - union_length(children.get(index, ()))
        owner = _owner(spans, index)
        totals[owner] = totals.get(owner, 0.0) + own
    return totals


@dataclass(frozen=True)
class Boundary:
    """One public function or method to wrap.

    ``owner`` is a module or class and ``attr`` the attribute name on it.
    For a module-level function, every loaded ``repro`` module that binds
    the same function object is patched too, because ``from x import f``
    copies the binding. ``count(args, result)`` returns counts to add
    after each call. ``inherit_arg`` is the position of a callable
    argument (a builder the boundary may call back) whose time is charged
    to the boundary's caller rather than to the boundary; its calls are
    counted as ``<name>.builds``.
    """

    name: str
    owner: Any
    attr: str
    count: Callable[[tuple, Any], dict[str, float]] | None = None
    inherit_arg: int | None = None


class Patcher:
    """Replaces attributes of ``repro`` and puts every original back on
    :meth:`restore` (or on leaving a ``with`` block)."""

    def __init__(self) -> None:
        self._patches: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(self, owner: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (a method, classmethod or ``repro``
        module function) with ``wrap(original)``."""
        raw = owner.__dict__[attr]
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(wrap(raw.__func__)))
            else:
                self._set(owner, attr, wrap(raw))
            return
        # A module function: patch every ``repro`` module that binds it.
        wrapped = wrap(raw)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if (name == "repro" or name.startswith("repro.")) and module.__dict__.get(attr) is raw:
                self._set(module, attr, wrapped)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


class Tracer(Patcher):
    """Records spans in memory; one span stack per thread."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def call(self, boundary: Boundary, fn: Callable, args: tuple, kwargs: dict) -> Any:
        if boundary.inherit_arg is not None and len(args) > boundary.inherit_arg:
            args = list(args)
            args[boundary.inherit_arg] = self._inheriting(boundary, args[boundary.inherit_arg])
            args = tuple(args)
        index = self._open(boundary.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(index)
        self.count(boundary.name + ".calls")
        if boundary.count is not None:
            for key, value in boundary.count(args, result).items():
                self.count(key, value)
        return result

    def _inheriting(self, boundary: Boundary, fn: Callable) -> Callable:
        def inner(*args: Any, **kwargs: Any) -> Any:
            self.count(boundary.name + ".builds")
            index = self._open(INHERIT)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return inner

    # -- patching --------------------------------------------------------
    def wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # Each resumption of the generator is one span, so work done
            # by the consumer between items is not charged to it.
            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        index = tracer._open(boundary.name)
                        try:
                            item = next(gen)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            tracer._close(index)
                        yield item
                finally:
                    gen.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer.call(boundary, fn, args, kwargs)

        return wrapper

    def install(self, boundary: Boundary) -> None:
        self.patch(boundary.owner, boundary.attr, lambda fn: self.wrap(boundary, fn))
