"""Tenants and sessions: the units the serving layer schedules.

A :class:`Tenant` wraps one per-tenant :class:`~repro.core.context.Context`
built over the server's *shared* device (one memory pool, one stream
runtime) and *shared* compiled-kernel cache.  Everything a tenant
observes through its context — module cache, fusion queue, field
cache, expression counters — is private to it; everything the device
records while the tenant's work runs is attributed to it through the
stats hooks and the timeline tenant tag, so no counter or span from
one tenant bleeds into another's report.

A :class:`Session` is one schedulable workload: a generator factory
``workload(ctx)`` whose generator performs a bounded chunk of work per
``next()`` (one solver iteration, one sweep) and returns its result
via ``StopIteration``.  The scheduler interleaves sessions at those
yield points; the serving layer never alters *what* a session
computes, only *when* its chunks run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..memory.cache import CacheStats


@dataclass
class TenantStats:
    """Per-tenant serving counters (strictly isolated)."""

    #: kernel launches attributed to this tenant (folds included)
    launches: int = 0
    #: modeled seconds attributed, split by operation kind
    #: (kernel/fold/h2d/d2h/jit)
    modeled_s_by_kind: dict = field(default_factory=dict)
    #: measured host wall-clock of this tenant's kernel executions
    wall_s: float = 0.0
    #: shared compiled-kernel cache outcomes for this tenant
    jit_hits: int = 0
    jit_misses: int = 0
    #: subset of ``jit_hits`` where another tenant compiled the kernel
    jit_shared_hits: int = 0
    #: scheduler accounting
    sessions_submitted: int = 0
    sessions_completed: int = 0
    sessions_rejected: int = 0
    #: modeled service seconds the scheduler charged to this tenant
    service_s: float = 0.0
    #: the tenant's private field cache's counters (a tenant owns its
    #: :class:`~repro.memory.cache.FieldCache`, so they are its own)
    _cache: CacheStats = field(default_factory=CacheStats, repr=False,
                               compare=False)

    @property
    def cache_events(self) -> dict:
        """Field software-cache events, read live from the tenant's
        own :class:`~repro.memory.cache.CacheStats`."""
        c = self._cache
        return {"hit": c.hits, "miss": c.misses, "page_in": c.page_ins,
                "page_out": c.page_outs, "spill": c.spills}

    @property
    def modeled_s(self) -> float:
        """Total modeled seconds attributed to this tenant."""
        return sum(self.modeled_s_by_kind.values())

    def as_json(self) -> dict:
        out = asdict(self)
        del out["_cache"]
        out["modeled_s"] = self.modeled_s
        out["cache_events"] = self.cache_events
        return out


class Tenant:
    """One tenant: a weighted principal with its own context state."""

    def __init__(self, name: str, ctx, weight: float = 1.0,
                 server=None):
        if weight <= 0.0:
            raise ValueError(f"tenant weight must be positive, "
                             f"got {weight}")
        self.name = name
        self.ctx = ctx
        self.weight = float(weight)
        self.stats = TenantStats()
        if ctx is not None:   # scheduler unit tests build bare tenants
            self.stats._cache = ctx.field_cache.stats
        self._server = server

    def timeline(self):
        """This tenant's spans on the shared timeline (tag-filtered)."""
        return self.ctx.device.runtime.timeline.for_tenant(self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Tenant {self.name} weight={self.weight:g} "
                f"{self.stats.sessions_completed}/"
                f"{self.stats.sessions_submitted} sessions>")


#: session lifecycle states
PENDING = "pending"        # submitted, waiting for arrival/admission
QUEUED = "queued"          # held back by admission control (memory)
READY = "ready"            # admitted, schedulable
RUNNING = "running"        # between first and last step
DONE = "done"              # completed; ``result`` holds the value
REJECTED = "rejected"      # failed admission (``error`` names why)


class Session:
    """One schedulable workload instance owned by a tenant."""

    _counter = 0

    def __init__(self, tenant: Tenant, workload, name: str | None = None,
                 arrival_s: float = 0.0, mem_bytes: int = 0):
        Session._counter += 1
        self.tenant = tenant
        self.workload = workload
        self.name = name or f"session{Session._counter}"
        #: modeled arrival time (server virtual clock); the session is
        #: not schedulable before it
        self.arrival_s = float(arrival_s)
        #: declared device-memory footprint for admission control
        #: (0 = undeclared: always admitted)
        self.mem_bytes = int(mem_bytes)
        self.state = PENDING
        self.result = None
        #: rendered failure reason (never the exception object itself:
        #: a live traceback would pin the workload's fields and their
        #: device allocations)
        self.error: str | None = None
        #: server-virtual-clock stamps
        self.started_s: float | None = None
        self.completed_s: float | None = None
        self.steps = 0
        self._gen = None

    @property
    def latency_s(self) -> float | None:
        """Makespan latency: completion minus arrival (modeled)."""
        if self.completed_s is None:
            return None
        return self.completed_s - self.arrival_s

    def start(self) -> None:
        self._gen = self.workload(self.tenant.ctx)
        self.state = RUNNING

    def step(self) -> bool:
        """Run one chunk; returns True when the session completed."""
        self.steps += 1
        try:
            next(self._gen)
        except StopIteration as stop:
            self.result = stop.value
            self._gen = None
            self.state = DONE
            return True
        return False

    def fail(self, reason: str, state: str = REJECTED) -> None:
        self.error = reason
        self._gen = None        # drop the frame: frees its fields
        self.state = state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Session {self.name} tenant={self.tenant.name} "
                f"{self.state} steps={self.steps}>")
