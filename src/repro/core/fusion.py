"""Deferred evaluation: the statement queue and kernel-fusion engine.

The paper's expression templates collapse one *expression* into one
kernel; this module extends the same idea across *statements*.  An
assignment no longer launches immediately — it enters the context's
:class:`FusionQueue` as a :class:`Statement` carrying the data-hazard
facts of its (already normalized) AST.  A small list scheduler places
each incoming statement into the earliest compatible *group*: an
ordered set of statements over the same lattice and subset with no
cross-statement shift hazard between them.  At a barrier the queue
drains in order; multi-statement groups compile into a single
multi-output kernel (:func:`repro.core.codegen.build_fused_kernel`)
with common-subexpression elimination and register-forwarded
intermediates, so the axpy chains of the Krylov solvers read and write
each field once instead of once per statement.

Hazard model (the PR-1 lint walk provides the read sets):

* plain read-after-write inside a group is *forwarded* — the consumer
  uses the producer's register value, eliminating a store/load pair's
  traffic (the store still happens; the re-load does not);
* a **shifted** read of any field written by a group is a barrier: the
  writer thread and the reader thread differ, so the statements must
  be separate launches (exactly the race the ``shift-alias`` lint
  describes);
* write-after-write to one field keeps the launches separate as well —
  fusing them would dead-store the first write, which is a semantic
  change this engine deliberately avoids;
* reductions, host access (``to_numpy`` / ``from_numpy`` /
  ``gaussian``), comm exchanges and explicit :meth:`Context.flush`
  drain the queue.  A reduction whose operands are compatible with the
  trailing group is *absorbed* into it: the group's kernel also writes
  the per-thread partials, saving the separate partials launch.

Every group goes through the same lookup, binding and launch steps as
an eager statement (:mod:`repro.core.evaluator`); a single-statement
group also uses the eager statement's expression kernel, so its cache
key, PTX and byte accounting are identical to the eager evaluator's.
The ``REPRO_FUSION`` knob (default ``on``) restores fully eager
evaluation with ``off``; results are bitwise identical either way —
fusion changes *where* values flow (registers vs memory), never the
arithmetic that produces them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..diagnostics import fusion_mode
from .codegen import build_fused_kernel, partials_names
from .evaluator import _launch_statement, bind_params, launch, launch_env
from .expr import Expr, FieldRef, SlotAssigner, _spec_sig
from .lint import _walk

if TYPE_CHECKING:
    from .context import Context

#: Upper bound on statements fused into one kernel — a register-
#: pressure guard, not a correctness limit (the autotuner sees the
#: real register count either way).
MAX_GROUP_STATEMENTS = 8

#: Upper bound on pending groups before an automatic drain.
MAX_PENDING_GROUPS = 32


def _expr_facts(expr: Expr) -> tuple[set[int], set[int]]:
    """(plain-read uids, shift-read uids) of a normalized AST."""
    reads: set[int] = set()
    shift_reads: set[int] = set()
    for node, under_shift in _walk(expr):
        if isinstance(node, FieldRef):
            (shift_reads if under_shift else reads).add(node.field.uid)
    return reads, shift_reads


class Statement:
    """One pending ``dest = expr`` assignment."""

    __slots__ = ("dest", "expr", "subset", "subset_mode", "lattice",
                 "reads", "shift_reads", "temps", "cost")

    def __init__(self, dest, expr: Expr, subset, temps):
        self.dest = dest
        self.expr = expr
        self.subset = subset
        self.subset_mode = not subset.is_full
        self.lattice = dest.lattice
        self.reads, self.shift_reads = _expr_facts(expr)
        self.temps = temps
        self.cost = None


class ReductionJob:
    """A reduction's partials pass, candidate for tail-group fusion."""

    __slots__ = ("kind", "exprs", "subset", "lattice", "reads",
                 "shift_reads", "out_names")

    def __init__(self, kind: str, exprs, subset, lattice):
        self.kind = kind
        self.exprs = list(exprs)
        self.subset = subset
        self.lattice = lattice
        self.reads = set()
        self.shift_reads = set()
        for e in self.exprs:
            r, s = _expr_facts(e)
            self.reads |= r
            self.shift_reads |= s
        #: the kernel's partials pointers, one f64 column each
        self.out_names = partials_names(kind)

    @property
    def out_regions(self) -> dict[str, int]:
        """``{param: nbytes}`` of the partials columns (launch env)."""
        return dict.fromkeys(self.out_names, len(self.subset) * 8)

    def bind_partials(self, ctx: "Context", params: dict) -> int:
        """Point the partials pointers in ``params`` at consecutive
        columns of the context's scratch buffer; returns its address."""
        n = len(self.subset)
        scratch = ctx.scratch(n * 8 * len(self.out_names))
        for i, p in enumerate(self.out_names):
            params[p] = scratch + i * n * 8
        return scratch


class Group:
    """An ordered run of statements that will launch as one kernel."""

    __slots__ = ("lattice", "subset", "subset_mode", "stmts", "writes",
                 "reads", "shift_reads")

    def __init__(self, stmt: Statement):
        self.lattice = stmt.lattice
        self.subset = stmt.subset
        self.subset_mode = stmt.subset_mode
        self.stmts = [stmt]
        self.writes = {stmt.dest.uid}
        self.reads = set(stmt.reads)
        self.shift_reads = set(stmt.shift_reads)

    def add(self, stmt: Statement) -> None:
        self.stmts.append(stmt)
        self.writes.add(stmt.dest.uid)
        self.reads |= stmt.reads
        self.shift_reads |= stmt.shift_reads


class PendingCost:
    """Lazy :class:`~repro.device.memmodel.KernelCost` of a queued
    statement.

    Reading any attribute (``time_s``, ``bytes_moved``, ...) is a
    barrier: the queue drains and the attribute comes from the real
    cost of the launch that executed the statement.  For a fused
    multi-statement group every member reports the *group's* kernel
    cost — the launch is genuinely shared.
    """

    __slots__ = ("_queue", "_stmt")

    def __init__(self, queue: "FusionQueue", stmt: Statement):
        self._queue = queue
        self._stmt = stmt

    def _resolve(self):
        if self._stmt.cost is None:
            self._queue.flush()
        return self._stmt.cost

    def __getattr__(self, name):
        return getattr(self._resolve(), name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "pending" if self._stmt.cost is None else repr(self._stmt.cost)
        return f"<PendingCost {state}>"


class FusionQueue:
    """Per-context deferred-evaluation queue and group scheduler."""

    def __init__(self, ctx: "Context", enabled: bool | None = None):
        self.ctx = ctx
        self.enabled = (fusion_mode() == "on") if enabled is None else enabled
        self.groups: list[Group] = []
        self._flushing = False

    # -- scheduling ------------------------------------------------------

    def _dep_bound(self, g: Group, stmt: Statement) -> str | None:
        """How ``stmt`` may be placed relative to existing group ``g``.

        ``"after"``: a following launch (shift hazard or WAW) —
        placement strictly after ``g``.  ``"join"``: a plain-value
        dependency — ``stmt`` may share ``g`` (forwarding / in-kernel
        statement order handles it) or go later, but never earlier.
        ``None``: independent.
        """
        d = stmt.dest.uid
        if (g.writes & stmt.shift_reads) or d in g.shift_reads \
                or d in g.writes:
            return "after"
        if (g.writes & stmt.reads) or d in g.reads:
            return "join"
        return None

    def _compatible(self, g: Group, stmt: Statement) -> bool:
        # destination precision must match: the fused kernel's default
        # arithmetic type equals each member's eager kernel's, which
        # is what makes fusion bitwise-transparent
        return (g.lattice is stmt.lattice
                and g.subset_mode == stmt.subset_mode
                and (g.subset is stmt.subset
                     or g.subset.name == stmt.subset.name)
                and (stmt.dest.spec.precision
                     == g.stmts[0].dest.spec.precision)
                and len(g.stmts) < MAX_GROUP_STATEMENTS)

    def enqueue(self, dest, expr: Expr, subset, temps) -> PendingCost:
        if len(self.groups) >= MAX_PENDING_GROUPS:
            self.flush()
        stmt = Statement(dest, expr, subset, temps)
        lower = 0
        for i, g in enumerate(self.groups):
            bound = self._dep_bound(g, stmt)
            if bound == "after":
                lower = i + 1
            elif bound == "join":
                lower = max(lower, i)
        placed = False
        for i in range(lower, len(self.groups)):
            if self._compatible(self.groups[i], stmt):
                self.groups[i].add(stmt)
                placed = True
                break
        if not placed:
            self.groups.append(Group(stmt))
        return PendingCost(self, stmt)

    # -- barriers --------------------------------------------------------

    def flush(self) -> None:
        """Drain the queue: launch every pending group in order."""
        if self._flushing or not self.groups:
            return
        self._flushing = True
        try:
            while self.groups:
                g = self.groups.pop(0)
                _launch_group(self.ctx, g)
        finally:
            self._flushing = False

    def discard(self) -> None:
        """Drop every pending statement *without* launching.

        The serving layer's failed-session cleanup: when a session is
        rejected mid-flight (e.g. :class:`~repro.memory.cache.
        SpillImpossible` under admission pressure) its queued
        statements reference fields of a dead workload — launching
        them at the tenant's next barrier would replay the failure
        into an unrelated session.  Temporaries are still released.
        """
        while self.groups:
            g = self.groups.pop(0)
            _release_temps(self.ctx, g.stmts)

    def flush_for_reduction(self, job: ReductionJob) -> int | None:
        """Drain the queue for a reduction, absorbing it if possible.

        If the trailing group is compatible with ``job`` (same lattice
        and subset, none of its writes read through a shift by the
        reduction), the group's kernel also computes the reduction
        partials: returns the device scratch address holding them.
        Otherwise the queue just drains and ``None`` is returned — the
        caller runs the standalone partials kernel.
        """
        if self._flushing or not self.groups:
            return None
        tail = self.groups[-1]
        absorbable = (tail.lattice is job.lattice
                      and tail.subset_mode == (not job.subset.is_full)
                      and (tail.subset is job.subset
                           or tail.subset.name == job.subset.name)
                      and (job.exprs[0].spec.precision
                           == tail.stmts[0].dest.spec.precision)
                      and not (tail.writes & job.shift_reads))
        if not absorbable:
            self.flush()
            return None
        self.groups.pop()
        self.flush()
        self._flushing = True
        try:
            _, scratch = _launch_group(self.ctx, tail, reduction=job)
        finally:
            self._flushing = False
        return scratch


# -- group launch -----------------------------------------------------------


def _release_temps(ctx: "Context", stmts) -> None:
    for st in stmts:
        for t in st.temps:
            ctx.field_cache.release(t)


def _launch_group(ctx: "Context", group: Group,
                  reduction: ReductionJob | None = None):
    """Look up (or build) and launch one group.

    Returns ``(KernelCost, scratch_address_or_None)``.  A single
    statement without an absorbed reduction launches its own
    expression kernel, so its cache key, PTX and byte accounting are
    identical to ``REPRO_FUSION=off``.
    """
    stmts = group.stmts
    if len(stmts) == 1 and reduction is None:
        st = stmts[0]
        st.cost = _launch_statement(st.dest, st.expr, st.subset, ctx)
        _release_temps(ctx, stmts)
        return st.cost, None

    lattice = group.lattice
    subset = group.subset
    subset_mode = group.subset_mode

    slots = SlotAssigner()
    parts = []
    for st in stmts:
        sig = st.expr.signature(slots)
        dslot = slots.field_slot(st.dest)
        parts.append(f"{sig}->D{dslot}:{_spec_sig(st.dest.spec)}")
    if reduction is not None:
        rsig = ",".join(e.signature(slots) for e in reduction.exprs)
        parts.append(f"red:{reduction.kind}({rsig})")
    key = ("fus:" + ";".join(parts)
           + ("|sub" if subset_mode else "|full"))

    # destinations are ordinary ``p_f`` regions here; the only output
    # pointers are the partials buffers of an absorbed reduction
    env = launch_env(lattice, subset, slots,
                     {} if reduction is None else reduction.out_regions)
    entry = ctx.lookup_kernel(
        key, "fus_",
        lambda name: build_fused_kernel(
            name, [(st.dest, st.expr) for st in stmts],
            reduction=(None if reduction is None
                       else (reduction.kind, reduction.exprs)),
            subset_mode=subset_mode),
        env)

    # -- paging: one make_available for the whole group's working set --
    written: set[int] = set()
    need_host: set[int] = set()
    for st in stmts:
        need_host |= {u for u in st.reads if u not in written}
        need_host |= st.shift_reads
        written.add(st.dest.uid)
    if reduction is not None:
        need_host |= {u for u in reduction.reads if u not in written}
        need_host |= reduction.shift_reads
    write_only = set() if subset_mode else (written - need_host)
    addrs = ctx.field_cache.make_available(slots.fields,
                                           write_only=write_only)

    params = bind_params(ctx, lattice, subset, slots, addrs)
    scratch = None
    if reduction is not None:
        scratch = reduction.bind_partials(ctx, params)
    cost = launch(ctx, entry, params, len(subset),
                  stmts[0].dest.spec.precision)
    for st in stmts:
        ctx.field_cache.mark_device_dirty(st.dest)
        st.cost = cost
    _release_temps(ctx, stmts)
    ctx.stats.fusion_groups += 1
    ctx.stats.fused_statements += len(stmts)
    return cost, scratch
