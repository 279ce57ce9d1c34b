"""Simulated CUDA streams and events over a modeled clock.

A :class:`Stream` is an in-order queue with its own modeled clock: an
operation enqueued on it starts at ``max(stream clock, waited
events)`` and advances the clock by its modeled duration, stamping a
:class:`~repro.runtime.timeline.Span` on the shared
:class:`~repro.runtime.timeline.Timeline`.  Ordering *between* streams
is expressed the CUDA way — :meth:`Stream.record_event` /
:meth:`Stream.wait_event` — so copy, compute and communication lanes
genuinely overlap unless an event says otherwise.

Execution stays eager and deterministic: the data side of every
operation completes immediately in program order; streams model only
*when* the work would finish on a real device.  What one serial clock
would charge for the same work is the timeline's ``serial_s`` (on a
device, :attr:`~repro.device.gpu.Device.clock`).
"""

from __future__ import annotations

from .timeline import Span, Timeline


class Event:
    """A marker on a stream: 'everything enqueued before this is done'."""

    __slots__ = ("time_s", "span")

    def __init__(self, time_s: float, span: Span | None = None):
        self.time_s = time_s
        self.span = span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Event t={self.time_s * 1e6:.2f}us>"


class Stream:
    """One in-order execution lane with a modeled clock."""

    def __init__(self, timeline: Timeline, name: str, lane: str):
        self.timeline = timeline
        self.name = name
        self.lane = lane
        #: modeled completion time of the last enqueued operation
        self.clock = 0.0
        self._last_span: Span | None = None
        #: spans of events waited on since the last enqueue (become
        #: dependency edges of the next span)
        self._pending_deps: list[int] = []

    def enqueue(self, name: str, duration_s: float, cat: str,
                wait=(), args: dict | None = None) -> Span:
        """Place one modeled operation on this stream.

        The operation starts once the stream is idle *and* every event
        in ``wait`` has fired; the stream clock advances to its end.
        """
        deps: list[int] = []
        if self._last_span is not None:
            deps.append(self._last_span.sid)
        deps.extend(self._pending_deps)
        self._pending_deps.clear()
        start = self.clock
        for ev in wait:
            if ev is None:
                continue
            start = max(start, ev.time_s)
            if ev.span is not None:
                deps.append(ev.span.sid)
        span = self.timeline.add_span(self.lane, name, cat, start,
                                      start + duration_s, deps, args)
        self.clock = span.t1
        self._last_span = span
        return span

    def record_event(self) -> Event:
        """An event that fires when all work enqueued so far is done."""
        return Event(self.clock, self._last_span)

    def wait_event(self, event: Event | None) -> None:
        """Make all *subsequently* enqueued work wait for ``event``."""
        if event is None:
            return
        if event.time_s > self.clock:
            self.clock = event.time_s
        if event.span is not None:
            self._pending_deps.append(event.span.sid)

    def synchronize(self) -> float:
        """Modeled time at which this stream drains (its clock)."""
        return self.clock

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Stream {self.name} @ {self.clock * 1e6:.2f}us>"


class StreamRuntime:
    """The per-device stream set: compute + copy lanes + comm.

    Mirrors the classic CUDA setup — a default compute stream, a
    dedicated H2D copy stream, a dedicated D2H copy stream and a
    communication lane (NIC / CUDA-aware MPI progress).
    """

    LANES = ("compute", "h2d", "d2h", "comm")

    def __init__(self, timeline: Timeline | None = None):
        self.timeline = timeline if timeline is not None else Timeline()
        self.compute = Stream(self.timeline, "compute", "compute")
        self.h2d = Stream(self.timeline, "h2d", "h2d")
        self.d2h = Stream(self.timeline, "d2h", "d2h")
        self.comm = Stream(self.timeline, "comm", "comm")
        self.streams = [self.compute, self.h2d, self.d2h, self.comm]

    def synchronize(self) -> float:
        """Device-wide barrier: all streams drain; clocks align.

        Returns the modeled time of the barrier.  Subsequent work on
        any stream starts no earlier than this point — the modeled
        analogue of ``cudaDeviceSynchronize``.
        """
        t = max(s.clock for s in self.streams)
        for s in self.streams:
            s.clock = t
        return t

    @property
    def elapsed_s(self) -> float:
        """Makespan of everything modeled so far."""
        return self.timeline.end_s

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<StreamRuntime {len(self.timeline)} spans, "
                f"elapsed {self.elapsed_s * 1e6:.1f}us>")
