"""Fair-share and FIFO scheduling of sessions over one device.

The server's loop asks its scheduler which session runs next and for
how much modeled service; the scheduler never touches the sessions'
data — fairness is purely a matter of *when* each ready chunk of work
is placed on the shared lanes.

:class:`FIFOScheduler`
    Non-preemptive first-come-first-served: the head session runs to
    completion before the next starts.  The baseline every serving
    system is measured against — and exactly what head-of-line
    blocking looks like when a batch job arrives before interactive
    traffic.

:class:`FairShareScheduler`
    Weighted deficit round-robin (DRR) over tenants: each visit tops a
    tenant's deficit up by ``quantum_s * weight`` and runs its
    sessions (FIFO within the tenant) until the deficit is spent,
    charging the *actual* modeled seconds each step consumed.  Tenants
    with no ready work bank nothing (their deficit resets), so an idle
    tenant cannot burst past active ones later — the standard DRR
    anti-starvation rule, stride-equivalent for steady loads.
"""

from __future__ import annotations

import math
from collections import deque

from .tenant import Session


class FIFOScheduler:
    """First-come-first-served, one session at a time, to completion."""

    policy = "fifo"

    def __init__(self):
        self._queue: deque[Session] = deque()

    def add(self, session: Session) -> None:
        self._queue.append(session)

    def remove(self, session: Session) -> None:
        try:
            self._queue.remove(session)
        except ValueError:
            pass

    def next(self) -> tuple[Session, float] | None:
        """The session to run next and its service budget (seconds)."""
        if not self._queue:
            return None
        return self._queue[0], math.inf

    def charge(self, session: Session, used_s: float) -> None:
        session.tenant.stats.service_s += used_s

    @property
    def pending(self) -> int:
        return len(self._queue)


class FairShareScheduler:
    """Weighted deficit round-robin over tenants, FIFO within each."""

    policy = "fair"

    def __init__(self, quantum_s: float = 50e-6):
        if quantum_s <= 0.0:
            raise ValueError("quantum must be positive")
        self.quantum_s = quantum_s
        self._queues: dict[str, deque[Session]] = {}
        self._deficit: dict[str, float] = {}
        #: round-robin order of tenant names with ready work
        self._order: deque[str] = deque()

    def add(self, session: Session) -> None:
        name = session.tenant.name
        q = self._queues.get(name)
        if q is None:
            q = self._queues[name] = deque()
        if not q and name not in self._order:
            self._order.append(name)
            # no banking: an idle tenant re-enters with a clean slate
            self._deficit[name] = 0.0
        q.append(session)

    def remove(self, session: Session) -> None:
        q = self._queues.get(session.tenant.name)
        if q is None:
            return
        try:
            q.remove(session)
        except ValueError:
            return
        if not q:
            self._retire(session.tenant.name)

    def _retire(self, name: str) -> None:
        try:
            self._order.remove(name)
        except ValueError:
            pass
        self._deficit.pop(name, None)

    def next(self) -> tuple[Session, float] | None:
        if not self._order:
            return None
        name = self._order[0]
        session = self._queues[name][0]
        if self._deficit[name] <= 0.0:
            self._deficit[name] += self.quantum_s * session.tenant.weight
        return session, self._deficit[name]

    def charge(self, session: Session, used_s: float) -> None:
        name = session.tenant.name
        session.tenant.stats.service_s += used_s
        if name not in self._deficit:
            return
        self._deficit[name] -= used_s
        if self._deficit[name] <= 0.0 and name in self._queues:
            # quantum spent: rotate to the next tenant in the round
            if self._order and self._order[0] == name:
                self._order.rotate(-1)

    @property
    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())


def make_scheduler(policy: str, quantum_s: float = 50e-6):
    """The scheduler implementing ``policy``: ``off`` runs sessions
    back-to-back, which is FIFO order without admission control."""
    if policy == "fair":
        return FairShareScheduler(quantum_s=quantum_s)
    if policy in ("fifo", "off"):
        return FIFOScheduler()
    raise ValueError(f"unknown serving policy {policy!r}: accepted "
                     f"values are fair, fifo, off")
