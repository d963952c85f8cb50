"""Span wrappers around the public calls of each layer.

The benchmark times layers from outside the program: :func:`installed`
replaces each hooked public function with a wrapper that opens a span
on the calling thread, calls the original and closes the span, and puts
every original back on exit.  Spans nest per thread; a span's self time
is its duration minus the time its direct children cover.

Nothing here runs unless a traced run asks for it, so an untraced run
executes the program's own functions, untouched.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

#: ``before(args, kwargs)``: state the matching ``after`` needs.
Before = Callable[[tuple, dict], Any]
#: ``after(span, args, kwargs, result, state)``: fills a span's counts
#: and tag from the call, inside the span.
After = Callable[["Span", tuple, dict, Any, Any], None]


@dataclass
class Span:
    """One timed call on one thread."""

    name: str
    thread: int
    start: float
    end: float = 0.0
    #: Time covered by direct children (same thread, nested).
    child: float = 0.0
    #: The outermost span open on this thread when this one opened
    #: (itself for a top-level span).
    root: Optional["Span"] = None
    #: The (baseline, candidate) pair a call served, where it can tell.
    tag: Optional[tuple] = None
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Collects finished spans from every thread, in memory."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: List[Span] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, threading.get_ident(), time.perf_counter())
        span.root = stack[0] if stack else span
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += span.duration
        with self._lock:
            self.spans.append(span)


@dataclass(frozen=True)
class Hook:
    """One public callable to wrap: ``owner.attribute``."""

    owner: Any
    attribute: str
    span: str
    after: Optional[After] = None
    before: Optional[Before] = None


def _wrap(tracer: Tracer, hook: Hook, function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span = tracer.open(hook.span)
        try:
            state = (hook.before(args, kwargs) if hook.before is not None
                     else None)
            result = function(*args, **kwargs)
            if hook.after is not None:
                hook.after(span, args, kwargs, result, state)
            return result
        finally:
            tracer.close(span)
    return wrapper


def snapshot(hooks: Sequence[Hook]) -> List[Any]:
    """The objects each hooked attribute resolves to, without binding.

    ``inspect.getattr_static`` sees the raw descriptor (a classmethod
    or staticmethod object, or an inherited function), so two snapshots
    compare equal element by element exactly when nothing is wrapped.
    """
    return [inspect.getattr_static(hook.owner, hook.attribute)
            for hook in hooks]


def unchanged(hooks: Sequence[Hook], before: Sequence[Any]) -> bool:
    """Whether every hooked attribute is still the very object in
    ``before`` (a :func:`snapshot`)."""
    return all(now is then for now, then in zip(snapshot(hooks), before))


@contextlib.contextmanager
def installed(hooks: Sequence[Hook], tracer: Tracer) -> Iterator[None]:
    """Wrap every hook for the duration of the block, then restore."""
    restore = []
    try:
        for hook in hooks:
            owned = vars(hook.owner)
            had_own = hook.attribute in owned
            raw = (owned[hook.attribute] if had_own
                   else inspect.getattr_static(hook.owner, hook.attribute))
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(_wrap(tracer, hook, raw.__func__))
            else:
                wrapped = _wrap(tracer, hook, raw)
            setattr(hook.owner, hook.attribute, wrapped)
            restore.append((hook, had_own, raw))
        yield
    finally:
        for hook, had_own, raw in reversed(restore):
            if had_own:
                setattr(hook.owner, hook.attribute, raw)
            else:
                delattr(hook.owner, hook.attribute)


# ----------------------------------------------------------------------
# Attribution of spans to requests


@dataclass
class Request:
    """One measured call, as the caller saw it."""

    thread: int
    pair: tuple
    start: float
    end: float
    ok: bool = True
    #: Model trainings and calibrations the answer reports (0 warm).
    training_runs: int = 0

    @property
    def latency(self) -> float:
        return self.end - self.start


def request_spans(request: Request, spans: Sequence[Span]) -> List[Span]:
    """The spans that did the work of one request.

    Spans on the caller's own thread count when they lie inside the
    request's interval.  Spans on other threads (a daemon's handler and
    worker threads) count when they lie inside the interval and their
    top-level span on that thread served the request's pair -- two
    clients in flight at once ask different pairs, so the pair tells
    their server-side work apart.
    """
    chosen = []
    for span in spans:
        if span.start < request.start or span.end > request.end:
            continue
        if span.thread == request.thread or span.root.tag == request.pair:
            chosen.append(span)
    return chosen
