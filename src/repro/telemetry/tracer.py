"""The tracing half of the telemetry subsystem: spans across every layer.

The source paper is a workload *characterization* — its contribution is
measurement — so the reproduction carries its own measurement plane: a
process-wide :class:`Tracer` whose :meth:`Tracer.span` context managers
emit begin/end events for plan compilation, plan execution, fused stages,
per-node kernel dispatch, NTT engine calls, autotune races, boundary
conversions and pool round trips.  Design constraints, in order:

* **Free when off.**  ``TRACER.enabled`` is a plain attribute; hot call
  sites guard on it and the disabled :meth:`Tracer.span` returns one
  shared :data:`NULL_SPAN` singleton — no event, no allocation beyond the
  call itself.
* **Thread-safe when on.**  Events append to one list (atomic under the
  GIL); parent linkage uses a thread-local span stack, so concurrent
  threads produce independently well-nested span trees.
* **Process-boundary aware.**  Worker processes of the ``parallel``
  backend record spans locally and ship them back with their shard
  results; :meth:`Tracer.ingest` re-parents those spans under the
  coordinator's dispatch span and clamps their timestamps into the
  dispatch interval (``time.perf_counter`` is ``CLOCK_MONOTONIC`` on
  Linux, so worker clocks are directly comparable; the clamp is the
  deterministic safety net).  Span ids embed the recording PID, so ids
  never collide across processes.

Events are plain tuples ``(phase, name, ts, pid, tid, sid, parent,
attrs)`` with ``phase`` ``"B"`` or ``"E"`` — picklable (they cross the
pool boundary) and directly consumable by :mod:`repro.telemetry.export`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

__all__ = ["NULL_SPAN", "Span", "TRACER", "Tracer"]

#: Index aliases into the event tuples (kept in one place for the tests
#: and exporters — events stay tuples for pickling speed).
PHASE, NAME, TS, PID, TID, SID, PARENT, ATTRS = range(8)


class _NullSpan:
    """The shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    #: Null spans have no identity; reading ``.sid`` must stay valid so
    #: call sites can use the result of ``with ... as span`` unguarded.
    sid = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: Singleton returned by :meth:`Tracer.span` when tracing is off.
NULL_SPAN = _NullSpan()


class Span:
    """One live span: a context manager emitting a begin/end event pair."""

    __slots__ = ("tracer", "name", "attrs", "sid", "parent", "forced_parent")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict | None) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs or None
        self.sid: str | None = None
        self.parent: str | None = None
        #: Explicit parent sid (set by :meth:`Tracer.span_under`) overriding
        #: the thread-local stack — the seam that stitches one served
        #: request's spans across threads into a single tree.
        self.forced_parent: str | None = None

    def __enter__(self) -> "Span":
        tracer = self.tracer
        stack = tracer._stack()
        if self.forced_parent is not None:
            self.parent = self.forced_parent
        else:
            self.parent = stack[-1] if stack else None
        self.sid = tracer._new_sid()
        tracer._events.append(
            (
                "B",
                self.name,
                time.perf_counter(),
                tracer._pid,
                threading.get_ident(),
                self.sid,
                self.parent,
                self.attrs,
            )
        )
        stack.append(self.sid)
        return self

    def __exit__(self, *exc) -> bool:
        tracer = self.tracer
        stack = tracer._stack()
        if stack and stack[-1] == self.sid:
            stack.pop()
        tracer._events.append(
            (
                "E",
                self.name,
                time.perf_counter(),
                tracer._pid,
                threading.get_ident(),
                self.sid,
                self.parent,
                None,
            )
        )
        return False


class Tracer:
    """Process-wide span recorder (one module-level instance: :data:`TRACER`)."""

    def __init__(self) -> None:
        #: The single hot-path check.  Plain attribute by design: call
        #: sites read it once and skip every other cost when ``False``.
        self.enabled = False
        self._events: list[tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counter = itertools.count(1)
        self._pid = os.getpid()

    # -- recording -------------------------------------------------------------
    def span(self, name: str, **attrs) -> Span | _NullSpan:
        """A context manager emitting begin/end events around its body.

        Returns :data:`NULL_SPAN` (no allocation, no event) when tracing
        is disabled; the very hottest call sites additionally guard with
        ``if TRACER.enabled`` so not even this call happens.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    def span_under(self, parent_sid: str | None, name: str, **attrs) -> "Span | _NullSpan":
        """A span parented under ``parent_sid`` instead of the thread stack.

        A served request's work hops threads — event loop to HE executor to
        batcher flush task — where the thread-local stack cannot express the
        logical nesting.  The span still pushes onto the *current* thread's
        stack, so synchronous children opened inside the body nest normally.
        """
        if not self.enabled:
            return NULL_SPAN
        span = Span(self, name, attrs)
        span.forced_parent = parent_sid
        return span

    def begin(self, name: str, parent: str | None = None, **attrs) -> str | None:
        """Emit a begin event without touching any thread-local stack.

        The open/close pair may live on different threads or interleave with
        other logical operations on the same thread (an asyncio handler held
        across ``await``), which a context-manager span must never do — the
        stack would misparent every concurrent handler's spans.  Returns the
        new span id (``None`` while tracing is off); close it with
        :meth:`end`, and parent children explicitly via :meth:`span_under`.
        """
        if not self.enabled:
            return None
        sid = self._new_sid()
        self._events.append(
            (
                "B", name, time.perf_counter(), self._pid,
                threading.get_ident(), sid, parent, attrs or None,
            )
        )
        return sid

    def end(self, sid: str | None, name: str) -> None:
        """Close a span opened with :meth:`begin` (no-op for ``sid=None``).

        Recorded even if tracing was disabled mid-flight, so begin/end pairs
        stay balanced for the exporters.
        """
        if sid is None:
            return
        self._events.append(
            (
                "E", name, time.perf_counter(), self._pid,
                threading.get_ident(), sid, None, None,
            )
        )

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_sid(self) -> str:
        # The PID prefix keeps ids unique across the pool's processes, so
        # ingested worker spans can never collide with coordinator spans.
        return "%d.%d" % (self._pid, next(self._counter))

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Enable recording (refreshing the cached PID — safe after fork)."""
        self._pid = os.getpid()
        self.enabled = True

    def stop(self) -> None:
        """Disable recording; already-captured events stay readable."""
        self.enabled = False

    def clear(self) -> None:
        """Drop every captured event."""
        with self._lock:
            self._events = []

    def reset_after_fork(self) -> None:
        """Fresh state for a forked worker: inherited events/stacks are the
        parent's and must never be re-shipped from here."""
        self.enabled = False
        self._events = []
        self._local = threading.local()
        self._counter = itertools.count(1)
        self._pid = os.getpid()

    # -- reading ---------------------------------------------------------------
    def events(self) -> list[tuple]:
        """A snapshot of every captured event."""
        return list(self._events)

    def mark(self) -> int:
        """An opaque cursor for :meth:`events_since` (capture without clearing)."""
        return len(self._events)

    def events_since(self, mark: int) -> list[tuple]:
        """Events recorded after ``mark`` — lets a caller measure one region
        without clobbering an enclosing trace (e.g. a CLI ``--trace`` run)."""
        return list(self._events[mark:])

    # -- cross-process ---------------------------------------------------------
    def ingest(
        self,
        events: list[tuple],
        parent_sid: str | None,
        lo: float | None = None,
        hi: float | None = None,
    ) -> None:
        """Adopt spans recorded in another process.

        Top-level spans (``parent is None`` — the worker's task root) are
        re-parented under ``parent_sid`` so pool tasks appear as children
        of the dispatch that submitted them; with ``lo``/``hi`` given,
        timestamps are clamped into the dispatch interval so the nesting
        holds even if the worker's clock disagrees.  Worker PIDs/TIDs are
        preserved — that is the per-worker attribution.
        """
        adopted = []
        for phase, name, ts, pid, tid, sid, parent, attrs in events:
            if lo is not None:
                ts = min(max(ts, lo), hi if hi is not None else ts)
            if parent is None:
                parent = parent_sid
            adopted.append((phase, name, ts, pid, tid, sid, parent, attrs))
        with self._lock:
            self._events.extend(adopted)


#: The process-wide tracer every instrumented layer records into.
TRACER = Tracer()
