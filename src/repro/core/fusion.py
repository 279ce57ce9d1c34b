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

Every statement path is this one: :func:`_launch_group` is the only
launcher and :func:`repro.core.codegen.build_fused_kernel` the only
builder.  A statement is a group of one, a standalone reduction is a
group with no statement and only a tail, and the multi-statement
mechanisms switch on from what the group *is* (more than one member).
The ``REPRO_FUSION`` knob (default ``on``) is read once, here: ``off``
makes the queue flush after every enqueue, so it never holds two
statements and every launch is a group of one — the same kernels,
cache keys and byte accounting a lone statement gets under ``on``.
Results are bitwise identical either way — fusion changes *where*
values flow (registers vs memory), never the arithmetic that produces
them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..diagnostics import fusion_mode
from ..ptx.absint import KernelEnv, MemRegion, table_region
from .codegen import build_fused_kernel, partials_names
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


class Group:
    """An ordered run of statements that will launch as one kernel.

    May be empty: a standalone reduction launches as the tail of a
    group with no statement.
    """

    __slots__ = ("lattice", "subset", "subset_mode", "stmts", "writes",
                 "reads", "shift_reads", "need_host")

    def __init__(self, lattice, subset, stmts=()):
        self.lattice = lattice
        self.subset = subset
        self.subset_mode = not subset.is_full
        self.stmts: list[Statement] = []
        self.writes: set[int] = set()
        self.reads: set[int] = set()
        self.shift_reads: set[int] = set()
        #: fields whose current contents the kernel loads from memory
        #: (a plain read of an earlier member's destination is
        #: forwarded in registers instead)
        self.need_host: set[int] = set()
        for stmt in stmts:
            self.add(stmt)

    def add(self, stmt: Statement) -> None:
        self.need_host |= stmt.reads - self.writes
        self.need_host |= stmt.shift_reads
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

    def enqueue(self, dest, expr: Expr, subset, temps):
        """Queue ``dest = expr``; returns its (lazy) launch cost."""
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
            self.groups.append(Group(stmt.lattice, subset, [stmt]))
        if not self.enabled:
            # REPRO_FUSION=off: the queue never holds two statements
            self.flush()
            return stmt.cost
        return PendingCost(self, stmt)

    # -- barriers --------------------------------------------------------

    def flush(self) -> None:
        """Drain the queue: launch every pending group in order."""
        if self._flushing or not self.groups:
            return
        self._flushing = True
        try:
            while self.groups:
                _launch_group(self.ctx, self.groups.pop(0))
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

    def flush_for_reduction(self, job: ReductionJob) -> int:
        """Drain the queue for a reduction and launch its partials;
        returns the device scratch address holding them.

        If the trailing group is compatible with ``job`` (same lattice,
        subset and precision, none of its writes read through a shift
        by the reduction) the reduction is *absorbed*: the group's
        kernel also computes the partials.  Otherwise the queue just
        drains and the tail launches on an empty group — the
        standalone partials kernel.
        """
        tail = self.groups[-1] if self.groups and not self._flushing else None
        if (tail is not None and tail.lattice is job.lattice
                and tail.subset_mode == (not job.subset.is_full)
                and (tail.subset is job.subset
                     or tail.subset.name == job.subset.name)
                and (job.exprs[0].spec.precision
                     == tail.stmts[0].dest.spec.precision)
                and not (tail.writes & job.shift_reads)):
            self.groups.pop()
        else:
            tail = Group(job.lattice, job.subset)
        self.flush()
        was_flushing, self._flushing = self._flushing, True
        try:
            return _launch_group(self.ctx, tail, job)
        finally:
            self._flushing = was_flushing


# -- group launch: the steps every statement path goes through --------------


def _release_temps(ctx: "Context", stmts) -> None:
    for st in stmts:
        for t in st.temps:
            ctx.field_cache.release(t)


def launch_env(lattice, subset, slots: SlotAssigner,
               out_names: tuple[str, ...]) -> KernelEnv:
    """Launch-time facts for the abstract-interpretation verifier:
    what the launcher will actually bind — exact site counts, field
    view sizes, the content range / bulk stride of every gather table,
    and one f64 partials column per ``out_names`` pointer."""
    nsites = lattice.nsites
    regions = {p: MemRegion(p, len(subset) * 8) for p in out_names}
    for i, f in enumerate(slots.fields):
        regions[f"p_f{i}"] = MemRegion(f"p_f{i}",
                                       nsites * f.spec.bytes_per_site)
    for i, (mu, sign) in enumerate(slots.shifts):
        regions[f"p_sh{i}"] = table_region(f"p_sh{i}",
                                           lattice.shift_map(mu, sign))
    if not subset.is_full:
        regions["p_stab"] = table_region("p_stab", subset.sites)
    return KernelEnv(scalars={"p_lo": nsites, "p_n": len(subset)},
                     regions=regions)


def _launch_group(ctx: "Context", group: Group,
                  reduction: ReductionJob | None = None) -> int | None:
    """Look up (or build), bind, page in and launch one group — the
    one launcher of every statement path (paper Secs. III-VII).

    Sets each member statement's ``cost``; returns the scratch address
    of the partials when there is a ``reduction`` tail.  The kernel
    family follows from the group's shape: one statement ``eval_``, a
    lone tail ``red_``, anything larger ``fus_`` — and only those
    count as fusion groups.
    """
    stmts = group.stmts
    lattice, subset = group.lattice, group.subset
    subset_mode = group.subset_mode
    n_active = len(subset)

    # -- structural signature -> generated-module cache; a miss runs
    # -- the code generator, the PTX verifier and the driver JIT
    slots = SlotAssigner()
    parts = []
    for st in stmts:
        sig = st.expr.signature(slots)
        dslot = slots.field_slot(st.dest)
        parts.append(f"{sig}->D{dslot}:{_spec_sig(st.dest.spec)}")
    out_names = ()
    if reduction is not None:
        rsig = ",".join(e.signature(slots) for e in reduction.exprs)
        parts.append(f"red:{reduction.kind}({rsig})")
        out_names = reduction.out_names
    fused = len(parts) > 1
    key = (("fus:" if fused else "") + ";".join(parts)
           + ("|sub" if subset_mode else "|full"))
    entry = ctx.lookup_kernel(
        key, "fus_" if fused else "eval_" if stmts else "red_",
        lambda name: build_fused_kernel(
            name, [(st.dest, st.expr) for st in stmts],
            reduction=(None if reduction is None
                       else (reduction.kind, reduction.exprs)),
            subset_mode=subset_mode),
        launch_env(lattice, subset, slots, out_names))

    # -- bind what may allocate *before* paging: a first-use table
    # -- upload or a scratch grow can spill, and must not spill a field
    # -- whose address this launch has already taken.  Shift tables
    # -- come from this walk's slots: the kernel text is direction-
    # -- independent, so one compiled kernel serves every (mu, sign).
    params: dict[str, object] = {"p_lo": lattice.nsites, "p_n": n_active}
    if subset_mode:
        params["p_stab"] = ctx.upload_table(
            ("subset", lattice.dims, subset.name), subset.sites)
    for i, (mu, sign) in enumerate(slots.shifts):
        params[f"p_sh{i}"] = ctx.upload_table(
            ("shift", lattice.dims, mu, sign), lattice.shift_map(mu, sign))
    for i, sn in enumerate(slots.scalar_slots):
        params[f"p_s{i}_re"] = sn.value.real
        if sn.spec.is_complex:
            params[f"p_s{i}_im"] = sn.value.imag
    scratch = None
    need_host = group.need_host
    if reduction is not None:
        # one f64 partials column per pointer, consecutive in scratch
        scratch = ctx.scratch(n_active * 8 * len(out_names))
        for i, p in enumerate(out_names):
            params[p] = scratch + i * n_active * 8
        need_host = (need_host | (reduction.reads - group.writes)
                     | reduction.shift_reads)

    # -- automated memory management (paper Sec. IV): one
    # -- make_available for the whole group's working set
    write_only = set() if subset_mode else (group.writes - need_host)
    addrs = ctx.field_cache.make_available(slots.fields,
                                           write_only=write_only)
    for i, f in enumerate(slots.fields):
        params[f"p_f{i}"] = addrs[f.uid]

    # -- launch through the per-kernel auto-tuner (paper Sec. VII), or
    # -- at the context's fixed block size
    info = entry.module.info
    precision = (stmts[0].dest.spec if stmts
                 else reduction.exprs[0].spec).precision
    if ctx.autotuner is not None:
        cost = ctx.autotuner.launch(entry.compiled, info, params, n_active,
                                    precision=precision)
    else:
        cost = ctx.device.launch(entry.compiled, info, params, n_active,
                                 block_size=ctx.default_block_size,
                                 precision=precision)
    for st in stmts:
        ctx.field_cache.mark_device_dirty(st.dest)
        st.cost = cost
    _release_temps(ctx, stmts)
    if fused:
        ctx.stats.fusion_groups += 1
        ctx.stats.fused_statements += len(stmts)
    return scratch
