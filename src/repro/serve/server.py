"""The multi-tenant server: one device pool, many tenants.

A :class:`Server` owns one shared :class:`~repro.device.gpu.Device`
(one memory pool, one stream runtime, one modeled clock) and one
:class:`SharedKernelCache`, and multiplexes the sessions of N tenants
onto it under the scheduling policy it was constructed with:

``fair`` (default)
    Weighted deficit round-robin over tenants with admission control.
``fifo``
    Non-preemptive first-come-first-served with admission control.
``off``
    Inert: sessions run back-to-back in submission order, no
    admission queueing — equivalent to bare contexts in sequence.

Isolation contract
------------------
Each tenant gets its own :class:`~repro.core.context.Context` over the
shared device, so module cache, fusion queue, field cache (and with
it the software-cache counters ``TenantStats.cache_events`` reads) and
expression counters are private; everything the *shared* device
records while a tenant's chunk runs is routed to that tenant through
``timeline.tenant`` — the shared device's one "who is running" field,
set around each slice:

* every span emitted during a slice carries an ``args["tenant"]`` tag,
  so ``tenant.timeline()`` is an exact per-tenant view of the shared
  trace;
* ``device.stats.attribution`` (modeled seconds / wall / launches by
  operation kind), the shared kernel cache's hit/miss split and the
  fault plan's ``tenant_hook`` all read it.

The scheduler only decides *when* ready chunks run, never *what* they
compute: a single-tenant workload is bitwise identical (results,
reduction scalars, modeled clock, spans modulo the tenant tag) to the
same workload on a bare :class:`~repro.core.context.Context`.

Admission control
-----------------
Sessions declare a device-memory footprint (``mem_bytes``).  A
declared footprint larger than the budget can never run and raises
:class:`AdmissionRejected` at submit; one that does not *currently*
fit is queued and admitted as running sessions complete.  A session
that still exhausts the pool at runtime — the field cache's
:class:`~repro.memory.cache.SpillImpossible` path, reachable because
undeclared footprints are admitted optimistically — is failed in
place: its pending fused statements are discarded, its generator (and
with it, its fields) dropped, and no other tenant observes anything
but the freed memory.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..core.context import Context
from ..device.gpu import Device
from ..device.specs import DeviceSpec, K20X_ECC_OFF
from ..driver.cache import KernelCache
from ..memory.cache import SpillImpossible
from .scheduler import make_scheduler
from .tenant import QUEUED, READY, Session, Tenant


class AdmissionRejected(Exception):
    """A session's declared footprint can never be admitted.

    Raised at submit time when ``mem_bytes`` exceeds the server's
    memory budget outright (queueing would deadlock: no amount of
    completions frees enough).  Carries enough structure for callers
    to report or degrade gracefully.
    """

    def __init__(self, tenant: str, session: str, requested: int,
                 budget: int, reason: str):
        self.tenant = tenant
        self.session = session
        self.requested = requested
        self.budget = budget
        self.reason = reason
        super().__init__(
            f"admission rejected for {tenant}/{session}: {reason} "
            f"(requested {requested} bytes, budget {budget})")

    @property
    def diagnostic(self):
        """The rejection as a structured diagnostic record."""
        from ..diagnostics import Diagnostic, Severity

        return Diagnostic(
            severity=Severity.ERROR, pass_name="admission-control",
            message=self.reason, obj=f"{self.tenant}/{self.session}",
            location=f"requested={self.requested} budget={self.budget}")


class SharedKernelCache(KernelCache):
    """One view of the kernel store shared by every tenant.

    Kernel PTX derives from *structural* expression signatures — field
    uids never appear in the text — so two tenants running the same
    workload shape produce byte-identical PTX and the second one's
    lookup is a hit of this view: no modeled JIT charge.  Storage is
    the process-wide store (:mod:`repro.driver.cache`); this class adds
    only tenant attribution — each lookup also counts on the running
    tenant's :class:`~repro.serve.tenant.TenantStats`, as a
    *cross-tenant* hit when the tenant that first compiled a digest
    differs from the one hitting it: the multi-tenant payoff the
    serving benchmark measures.
    """

    def __init__(self):
        super().__init__()
        #: the shared device's timeline (wired by :class:`Server`):
        #: its ``tenant`` names whose slice is running
        self.timeline = None
        #: PTX digest -> name of the tenant that first compiled it
        self._owner: dict[str, str] = {}
        #: the server's tenant registry (wired by :class:`Server`)
        self.tenants: dict[str, Tenant] = {}

    def _by_tenant(self, counter: str) -> dict[str, int]:
        return {name: getattr(t.stats, counter)
                for name, t in self.tenants.items()
                if getattr(t.stats, counter)}

    @property
    def hits_by_tenant(self) -> dict[str, int]:
        return self._by_tenant("jit_hits")

    @property
    def misses_by_tenant(self) -> dict[str, int]:
        return self._by_tenant("jit_misses")

    @property
    def cross_hits_by_tenant(self) -> dict[str, int]:
        return self._by_tenant("jit_shared_hits")

    @property
    def cross_tenant_hits(self) -> int:
        """Total hits on kernels compiled by a *different* tenant."""
        return sum(self.cross_hits_by_tenant.values())

    def get_or_compile(self, ptx_text: str, env=None, module=None):
        kernel, was_cached = super().get_or_compile(ptx_text, env, module)
        tenant = self.tenants.get(self.timeline.tenant)
        if tenant is None:
            return kernel, was_cached
        who, stats = tenant.name, tenant.stats
        key = self.key_for(ptx_text)
        if was_cached:
            stats.jit_hits += 1
            if self._owner.get(key, who) != who:
                stats.jit_shared_hits += 1
        else:
            self._owner[key] = who
            stats.jit_misses += 1
        return kernel, was_cached


@dataclass
class ServingStats:
    """Server-wide counters (per-tenant detail lives on TenantStats)."""

    #: scheduling decisions taken by the drain loop
    decisions: int = 0
    #: sessions held back by admission control at least once
    admission_queued: int = 0
    #: sessions rejected (at submit or by a runtime spill failure)
    admission_rejections: int = 0
    sessions_submitted: int = 0
    sessions_completed: int = 0
    #: modeled seconds the device sat idle waiting for arrivals
    idle_s: float = 0.0

    def as_json(self) -> dict:
        return asdict(self)


class Server:
    """Fair-share multiplexer of tenant sessions over one device."""

    def __init__(self, spec: DeviceSpec = K20X_ECC_OFF,
                 pool_capacity: int | None = None,
                 policy: str = "fair",
                 quantum_s: float = 50e-6,
                 mem_budget: int | None = None,
                 faults=None):
        #: "fair", "fifo" or "off" (anything else raises here)
        self.scheduler = make_scheduler(policy, quantum_s=quantum_s)
        self.policy = policy
        self.device = Device(spec, pool_capacity=pool_capacity,
                             faults=faults)
        self.kernel_cache = SharedKernelCache()
        self.kernel_cache.timeline = self.device.runtime.timeline
        self.quantum_s = quantum_s
        #: admission budget in bytes (defaults to the pool capacity)
        self.mem_budget = (mem_budget if mem_budget is not None
                           else self.device.pool.capacity)
        #: ``off`` disables admission queueing entirely: sessions run
        #: back-to-back exactly as bare contexts would
        self.admission_enabled = self.policy != "off"
        self.tenants: dict[str, Tenant] = {}
        self.kernel_cache.tenants = self.tenants
        self.stats = ServingStats()
        self._reserved = 0
        #: admission queue (FIFO — held sessions admit in order, so a
        #: large request cannot be starved by later small ones)
        self._held: list[Session] = []
        #: submitted sessions whose modeled arrival is in the future
        self._arrivals: list[Session] = []
        self.sessions: list[Session] = []
        self._clock0 = self.device.clock
        self._idle_s = 0.0
        # route every shared-device cost to the running tenant
        # (``timeline.tenant``, set around each slice)
        self.device.stats.attribution = self._attribute
        if self.device.faults.plan is not None:
            timeline = self.device.runtime.timeline
            self.device.faults.plan.tenant_hook = lambda: timeline.tenant

    # -- tenants --------------------------------------------------------

    def tenant(self, name: str, weight: float = 1.0) -> Tenant:
        """Register a tenant: a private context over the shared pool."""
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already registered")
        ctx = Context(spec=self.device.spec, device=self.device,
                      kernel_cache=self.kernel_cache)
        t = Tenant(name, ctx, weight=weight, server=self)
        self.tenants[name] = t
        return t

    def _attribute(self, kind: str, name: str, modeled_s: float,
                   wall_s: float, nbytes: int) -> None:
        t = self.tenants.get(self.device.runtime.timeline.tenant)
        if t is None:
            return
        st = t.stats
        st.modeled_s_by_kind[kind] = (
            st.modeled_s_by_kind.get(kind, 0.0) + modeled_s)
        st.wall_s += wall_s
        if kind in ("kernel", "fold"):
            st.launches += 1

    # -- the virtual clock ----------------------------------------------

    @property
    def vclock_s(self) -> float:
        """Server time: modeled device seconds since construction,
        plus idle gaps spent waiting for future arrivals."""
        return (self.device.clock - self._clock0) + self._idle_s

    # -- submission / admission -----------------------------------------

    def submit(self, tenant: Tenant, workload, name: str | None = None,
               arrival_s: float = 0.0, mem_bytes: int = 0) -> Session:
        """Submit one workload; returns its :class:`Session` handle.

        Raises :class:`AdmissionRejected` only when the declared
        footprint exceeds the budget outright; a footprint that does
        not fit *now* queues and admits later.
        """
        session = Session(tenant, workload, name=name,
                          arrival_s=arrival_s, mem_bytes=mem_bytes)
        tenant.stats.sessions_submitted += 1
        self.stats.sessions_submitted += 1
        self.sessions.append(session)
        if self.admission_enabled and session.mem_bytes > self.mem_budget:
            reason = "declared footprint exceeds the memory budget"
            session.fail(reason)
            tenant.stats.sessions_rejected += 1
            self.stats.admission_rejections += 1
            raise AdmissionRejected(tenant.name, session.name,
                                    session.mem_bytes, self.mem_budget,
                                    reason)
        if session.arrival_s > self.vclock_s:
            self._arrivals.append(session)
        else:
            self._try_admit(session)
        return session

    def _try_admit(self, session: Session) -> None:
        if (self.admission_enabled
                and self._reserved + session.mem_bytes > self.mem_budget):
            if session.state != QUEUED:
                session.state = QUEUED
                self.stats.admission_queued += 1
            self._held.append(session)
            return
        self._reserved += session.mem_bytes
        session.state = READY
        self.scheduler.add(session)

    def _admit_held(self) -> None:
        # FIFO admission: stop at the first session that still does
        # not fit so later small requests cannot starve it
        while self._held:
            head = self._held[0]
            if self._reserved + head.mem_bytes > self.mem_budget:
                return
            self._held.pop(0)
            self._reserved += head.mem_bytes
            head.state = READY
            self.scheduler.add(head)

    def _release_arrivals(self) -> None:
        now = self.vclock_s
        due = [s for s in self._arrivals if s.arrival_s <= now]
        if not due:
            return
        self._arrivals = [s for s in self._arrivals if s.arrival_s > now]
        for s in sorted(due, key=lambda s: s.arrival_s):
            self._try_admit(s)

    def _release(self, session: Session) -> None:
        self._reserved -= session.mem_bytes
        self._admit_held()

    # -- the drain loop --------------------------------------------------

    def drain(self) -> list[Session]:
        """Run until every submitted session completes or fails."""
        while True:
            self._release_arrivals()
            self._admit_held()
            choice = self.scheduler.next()
            if choice is None:
                if self._arrivals:
                    # idle forward to the earliest future arrival
                    gap = (min(s.arrival_s for s in self._arrivals)
                           - self.vclock_s)
                    if gap > 0.0:
                        self._idle_s += gap
                        self.stats.idle_s += gap
                    continue
                break
            session, budget_s = choice
            self.stats.decisions += 1
            self._run_slice(session, budget_s)
        return self.sessions

    def _run_slice(self, session: Session, budget_s: float) -> None:
        tenant = session.tenant
        ctx = tenant.ctx
        timeline = self.device.runtime.timeline
        clock_before = self.device.clock
        timeline.tenant = tenant.name
        outcome = "continue"
        try:
            with ctx:
                if session.state == READY:
                    session.started_s = self.vclock_s
                    session.start()
                try:
                    while True:
                        if session.step():
                            # land the tail of the deferred queue while
                            # this tenant's attribution is still active
                            ctx.flush()
                            outcome = "done"
                            break
                        if self.device.clock - clock_before >= budget_s:
                            break
                except SpillImpossible as exc:
                    # this session cannot fit: drop its pending fused
                    # statements (they reference a dead workload) and
                    # its generator frame, freeing the fields — other
                    # tenants observe nothing but the released memory
                    ctx.fusion.discard()
                    session.fail(f"memory admission failure: {exc}")
                    outcome = "rejected"
        finally:
            timeline.tenant = None
        used = self.device.clock - clock_before
        self.scheduler.charge(session, used)
        if outcome == "done":
            session.completed_s = self.vclock_s
            tenant.stats.sessions_completed += 1
            self.stats.sessions_completed += 1
            self.scheduler.remove(session)
            self._release(session)
        elif outcome == "rejected":
            tenant.stats.sessions_rejected += 1
            self.stats.admission_rejections += 1
            self.scheduler.remove(session)
            self._release(session)

    # -- reporting -------------------------------------------------------

    def as_json(self) -> dict:
        """One JSON-able report of this server: policy, scheduler and
        admission decisions, shared JIT cache, per-tenant stats."""
        return {
            "mode": self.policy,
            "scheduler": {"policy": self.scheduler.policy,
                          "decisions": self.stats.decisions,
                          "quantum_s": self.quantum_s},
            "admission": {"budget_bytes": self.mem_budget,
                          "queued": self.stats.admission_queued,
                          "rejections": self.stats.admission_rejections},
            "jit_cache": {
                "kernels": len(self.kernel_cache),
                "cross_tenant_hits": self.kernel_cache.cross_tenant_hits,
                "hits_by_tenant": dict(self.kernel_cache.hits_by_tenant),
                "misses_by_tenant": dict(
                    self.kernel_cache.misses_by_tenant)},
            "tenants": {
                name: dict(t.stats.as_json(), weight=t.weight)
                for name, t in sorted(self.tenants.items())},
            "sessions": self.stats.as_json(),
        }

