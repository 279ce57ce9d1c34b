"""The unified modeled timeline: lanes, spans and overlap accounting.

Every modeled cost in the framework — kernel launches, H2D/D2H
transfers, JIT compiles, halo messages, allreduces — lands here as a
:class:`Span` on a *lane* (one lane per stream: compute, h2d, d2h,
comm).  Spans carry their dependency edges (program order within a
stream plus explicit event waits), so the timeline can answer the
questions the serial device clock cannot:

* per-lane busy time and the *serial sum* (what a one-clock model
  would report),
* the *makespan* (``end_s``) under the modeled concurrency,
* the **overlap fraction** ``1 - end_s / serial_s`` — how much of the
  serial cost was hidden behind other lanes,
* the **critical path**: the dependency chain of spans that determines
  the makespan, i.e. where an optimizer would have to shave time.

The timeline is pure bookkeeping — it never influences *what* executes
(data operations stay eager and bitwise identical); it only models
*when* the work would have completed on a device with streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Span:
    """One modeled operation on one lane of the timeline."""

    sid: int                    #: dense index into ``Timeline.spans``
    lane: str                   #: stream lane ("compute", "h2d", ...)
    name: str                   #: operation label (kernel name, ...)
    cat: str                    #: category ("kernel", "h2d", "comm", ...)
    t0: float                   #: modeled start, seconds
    t1: float                   #: modeled end, seconds
    #: sids of spans this one waited on (program order + event waits)
    deps: tuple[int, ...] = ()
    args: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0


class Timeline:
    """An append-only collection of spans with overlap analytics."""

    def __init__(self):
        self.spans: list[Span] = []

    # -- recording -----------------------------------------------------

    def add_span(self, lane: str, name: str, cat: str, t0: float,
                 t1: float, deps=(), args: dict | None = None) -> Span:
        deps = tuple(dict.fromkeys(d for d in deps if d is not None))
        args = dict(args or {})
        span = Span(sid=len(self.spans), lane=lane, name=name, cat=cat,
                    t0=t0, t1=t1, deps=deps, args=args)
        self.spans.append(span)
        return span

    # -- aggregate metrics ---------------------------------------------

    @property
    def end_s(self) -> float:
        """Makespan: modeled completion time of the last span."""
        return max((s.t1 for s in self.spans), default=0.0)

    @property
    def serial_s(self) -> float:
        """What a single serial clock would charge: sum of durations."""
        return sum(s.duration_s for s in self.spans)

    def lane_busy(self) -> dict[str, float]:
        """Busy (occupied) seconds per lane."""
        busy: dict[str, float] = {}
        for s in self.spans:
            busy[s.lane] = busy.get(s.lane, 0.0) + s.duration_s
        return busy

    def cat_busy(self) -> dict[str, float]:
        """Busy seconds per span category (kernel/gather/comm/...)."""
        busy: dict[str, float] = {}
        for s in self.spans:
            busy[s.cat] = busy.get(s.cat, 0.0) + s.duration_s
        return busy

    def lane_spans(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.spans:
            counts[s.lane] = counts.get(s.lane, 0) + 1
        return counts

    @property
    def overlap_fraction(self) -> float:
        """Fraction of the serial cost hidden by lane concurrency.

        ``0.0`` means fully serial (every span waited for the one
        before); approaching ``1 - 1/n_lanes`` means near-perfect overlap.
        """
        serial = self.serial_s
        if serial <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.end_s / serial)

    # -- critical path --------------------------------------------------

    def critical_path(self) -> tuple[float, list[Span]]:
        """The dependency chain that determines the makespan.

        Walks back from the last-finishing span, at each step following
        the predecessor (event wait or same-lane program order) with
        the latest finish time — the edge that actually gated the
        span's start.  Returns ``(sum of chain durations, chain)`` in
        execution order.  The length is at most ``end_s``; the gap is
        idle time even the critical chain spent waiting (e.g. network
        latency modeled inside a span keeps it on the chain).
        """
        if not self.spans:
            return 0.0, []
        cur = max(self.spans, key=lambda s: s.t1)
        chain = [cur]
        while cur.deps:
            preds = [self.spans[d] for d in cur.deps]
            pred = max(preds, key=lambda s: s.t1)
            if pred.t1 <= 0.0 and pred.duration_s == 0.0:
                break
            chain.append(pred)
            cur = pred
        chain.reverse()
        return sum(s.duration_s for s in chain), chain

    @property
    def critical_path_s(self) -> float:
        return self.critical_path()[0]

    # -- views -----------------------------------------------------------

    def since(self, t: float) -> "Timeline":
        """A rebased sub-timeline of the spans starting at or after
        ``t`` — useful for measuring one algorithmic step on a
        long-lived runtime.  Span times are shifted so the window
        starts at 0; dependency edges are remapped where both ends
        stay inside the window and dropped otherwise."""
        view = Timeline()
        selected = [s for s in self.spans if s.t0 >= t]
        base = min((s.t0 for s in selected), default=0.0)
        remap = {s.sid: i for i, s in enumerate(selected)}
        for s in selected:
            view.add_span(s.lane, s.name, s.cat, s.t0 - base, s.t1 - base,
                          deps=tuple(remap[d] for d in s.deps
                                     if d in remap),
                          args=s.args)
        return view

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Timeline {len(self.spans)} spans, "
                f"end {self.end_s * 1e6:.1f} us, "
                f"overlap {self.overlap_fraction:.1%}>")
