"""Deferred evaluation: the statement queue and kernel-fusion engine.

The paper's expression templates collapse one *expression* into one
kernel; this module extends the same idea across *statements*.  An
assignment no longer launches immediately — the replay of its
statement plan (:mod:`repro.core.evaluator`) enters the context's
:class:`FusionQueue`, one :class:`Statement` per template, each
carrying the data-hazard facts of its normalized AST.  A small list scheduler places
each incoming statement into the earliest compatible *group*: an
ordered set of statements over the same lattice and subset with no
cross-statement shift hazard between them.  At a barrier the queue
drains in order; multi-statement groups compile into a single
multi-output kernel (:func:`repro.core.codegen.build_fused_kernel`)
with common-subexpression elimination and register-forwarded
intermediates, so the axpy chains of the Krylov solvers read and write
each field once instead of once per statement.

Hazard model (the read sets are the normalized root's ``reads`` and
``shift_reads``, computed when its nodes were built, under every
``REPRO_VERIFY`` mode):

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
launcher, a group's :class:`LaunchPlan` the only memo of what its
lookup bound, and :func:`repro.core.codegen.build_fused_kernel` the
only builder.  A statement is a group of one, a standalone reduction is a
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
from ..ptx.absint import KernelEnv, MemRegion
from .codegen import build_fused_kernel, partials_names
from .expr import Expr, SlotAssigner, _NONE, _union, group_key, leaf_fields

if TYPE_CHECKING:
    from .context import Context

#: Upper bound on statements fused into one kernel — a register-
#: pressure guard, not a correctness limit (the autotuner sees the
#: real register count either way).
MAX_GROUP_STATEMENTS = 8

#: Upper bound on pending groups before an automatic drain.
MAX_PENDING_GROUPS = 32


class Statement:
    """One pending ``dest = expr`` assignment: the template ``tpl`` of
    the :class:`repro.core.evaluator.StatementPlan` ``plan`` bound to
    ``env`` (the root's binds, then the temporaries); ``reads`` and
    ``shift_reads`` are the normalized tree's.  ``leaves`` and ``expr``
    are built only when the launcher asks (a launch plan miss, a
    module-cache miss), unless the replay that follows a recording
    hands ``expr`` over; ``frees`` is whether the statement is the last
    to read the plan's own temporaries."""

    __slots__ = ("dest", "subset", "subset_mode", "lattice", "precision",
                 "frag", "reads", "shift_reads", "footprint", "temps",
                 "cost", "plan", "tpl", "binds", "frees", "_env", "_root",
                 "_leaves", "_expr")

    def __init__(self, plan, tpl, env: list, root: Expr, expr: Expr | None,
                 frees: bool):
        self.dest = dest = env[tpl.dest]
        self.frag = tpl.frag
        self.subset, self.subset_mode = tpl.subset, tpl.subset_mode
        self.lattice = dest.lattice
        self.precision = dest.spec.precision
        self.reads = frozenset([env[i].uid for i in tpl.reads])
        self.shift_reads = frozenset([env[i].uid for i in tpl.shift_reads])
        self.temps = [env[i] for i in tpl.temps]
        self.cost = None
        self.plan, self.tpl, self.frees = plan, tpl, frees
        self.binds = [env[i] for i in tpl.binds]
        #: device bytes of each distinct field the statement binds
        self.footprint = {env[i].uid: n for i, n in tpl.footprint}
        self._env, self._root = env, root
        self._leaves, self._expr = None, expr

    @property
    def leaves(self) -> tuple:
        if self._leaves is None:
            env = self._env
            self._leaves = tuple([env[i] if type(i) is int else i
                                  for i in self.tpl.leaves])
        return self._leaves

    @property
    def expr(self) -> Expr:
        if self._expr is None:
            plan = self.plan
            self._expr = plan.trees(self._root, self._env)[
                plan.templates.index(self.tpl)]
        return self._expr


class ReductionJob:
    """A reduction's partials pass, candidate for tail-group fusion;
    ``reads`` and ``footprint`` as for :class:`Statement`, over all of
    ``exprs``."""

    __slots__ = ("kind", "exprs", "subset", "subset_mode", "lattice",
                 "precision", "reads", "shift_reads", "footprint",
                 "out_names")

    def __init__(self, kind: str, exprs, subset, lattice):
        self.kind = kind
        self.exprs = list(exprs)
        self.subset, self.subset_mode = subset, not subset.is_full
        self.lattice = lattice
        self.precision = self.exprs[0].spec.precision
        self.reads = self.shift_reads = _NONE
        self.footprint = {}
        for e in self.exprs:
            self.reads = _union(self.reads, e.reads)
            self.shift_reads = _union(self.shift_reads, e.shift_reads)
            self.footprint.update(
                (f.uid, f.nbytes) for f in leaf_fields(e.leaves))
        #: the kernel's partials pointers, one f64 column each
        self.out_names = partials_names(kind)


class Group:
    """An ordered run of statements that will launch as one kernel.

    May be empty: a standalone reduction launches as the tail of a
    group with no statement.
    """

    __slots__ = ("lattice", "subset", "subset_mode", "stmts", "writes",
                 "reads", "shift_reads", "need_host", "footprint")

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
        #: bytes of each distinct field the kernel binds: one
        #: ``make_available`` must hold them all at once
        self.footprint: dict[int, int] = {}
        for stmt in stmts:
            self.add(stmt)

    def add(self, stmt: Statement) -> None:
        self.need_host |= stmt.reads - self.writes
        self.need_host |= stmt.shift_reads
        self.stmts.append(stmt)
        self.writes.add(stmt.dest.uid)
        self.reads |= stmt.reads
        self.shift_reads |= stmt.shift_reads
        self.footprint.update(stmt.footprint)


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
        if not g.writes.isdisjoint(stmt.shift_reads) or d in g.shift_reads \
                or d in g.writes:
            return "after"
        if not g.writes.isdisjoint(stmt.reads) or d in g.reads:
            return "join"
        return None

    def _may_share(self, g: Group, job) -> bool:
        """Whether ``job`` (a :class:`Statement` or a
        :class:`ReductionJob`) may launch in ``g``'s kernel: the same
        lattice and subset; the same precision, since the fused
        kernel's default arithmetic type equals each member's lone
        kernel's, which is what makes fusion bitwise-transparent; and
        room in the pool for all their fields, since the launch pins
        them together."""
        return (g.lattice is job.lattice
                and g.subset_mode == job.subset_mode
                and (g.subset is job.subset
                     or g.subset.name == job.subset.name)
                and job.precision == g.stmts[0].precision
                and (sum({**g.footprint, **job.footprint}.values())
                     <= self.ctx.device.pool.capacity))

    def enqueue(self, stmt: Statement):
        """Queue ``stmt``; returns its (lazy) launch cost."""
        if len(self.groups) >= MAX_PENDING_GROUPS:
            self.flush()
        lower = 0
        for i, g in enumerate(self.groups):
            bound = self._dep_bound(g, stmt)
            if bound == "after":
                lower = i + 1
            elif bound == "join":
                lower = max(lower, i)
        placed = False
        for i in range(lower, len(self.groups)):
            g = self.groups[i]
            if (len(g.stmts) < MAX_GROUP_STATEMENTS
                    and self._may_share(g, stmt)):
                g.add(stmt)
                placed = True
                break
        if not placed:
            self.groups.append(Group(stmt.lattice, stmt.subset, [stmt]))
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

    def flush_for_reduction(self, job: ReductionJob) -> int:
        """Drain the queue for a reduction and launch its partials;
        returns the device scratch address holding them.

        If ``job`` may share the trailing group's launch and reads none
        of its writes through a shift, the reduction is *absorbed*: the
        group's kernel also computes the partials.  Otherwise the queue
        just drains and the tail launches on an empty group — the
        standalone partials kernel.
        """
        tail = self.groups[-1] if self.groups and not self._flushing else None
        if (tail is not None and self._may_share(tail, job)
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
    view sizes, the content range / bulk stride of every gather table
    (measured once per table by its owner), and one f64 partials
    column per ``out_names`` pointer."""
    nsites = lattice.nsites
    regions = {p: MemRegion(p, len(subset) * 8) for p in out_names}
    for i, f in enumerate(slots.fields):
        regions[f"p_f{i}"] = MemRegion(f"p_f{i}",
                                       nsites * f.spec.bytes_per_site)
    for i, (mu, sign) in enumerate(slots.shifts):
        regions[f"p_sh{i}"] = MemRegion(f"p_sh{i}",
                                        *lattice.shift_facts(mu, sign))
    if not subset.is_full:
        regions["p_stab"] = MemRegion("p_stab", *subset.table_facts)
    return KernelEnv(scalars={"p_lo": nsites, "p_n": len(subset)},
                     regions=regions)


class LaunchPlan:
    """What the lookup of a group found: the module-cache entry, the
    binding's table parameters, and where in the group's ``binds``
    (:func:`launch_plan_key`) each field and scalar slot finds its
    object — the one memo of a binding."""

    __slots__ = ("entry", "tables", "fields", "scalars", "lattice",
                 "subset")

    def __init__(self, entry, tables: dict, slots: SlotAssigner,
                 binds: list, lattice, subset):
        pos: dict = {}
        for i, x in enumerate(binds):
            pos.setdefault(id(x), i)
        self.entry, self.tables = entry, tables
        self.fields = tuple(pos[id(f)] for f in slots.fields)
        self.scalars = tuple(
            (pos[id(sn)], f"p_s{i}_re",
             f"p_s{i}_im" if sn.spec.is_complex else None)
            for i, sn in enumerate(slots.scalar_slots))
        # the key holds their ids
        self.lattice, self.subset = lattice, subset


def launch_plan_key(group: Group, reduction: ReductionJob | None):
    """``(key, binds)`` of a group: ``binds`` concatenates each
    statement's ``binds`` and the tail's fields and scalars; the key is
    the statements' templates, the tail's kind, fragments and shifts,
    the lattice and subset, and the pattern of which ``binds`` entries
    are one object — everything :func:`group_key` and the lookup
    read."""
    binds: list = []
    for st in group.stmts:
        binds += st.binds
    tail = None
    if reduction is not None:
        shifts: list = []
        for e in reduction.exprs:
            for x in e.leaves:
                (shifts if type(x) is tuple else binds).append(x)
        tail = (reduction.kind, tuple([e.frag for e in reduction.exprs]),
                tuple(shifts))
    seen: dict = {}
    pattern = tuple([seen.setdefault(id(x), len(seen)) for x in binds])
    return ((tuple([st.tpl for st in group.stmts]), tail, id(group.lattice),
             id(group.subset), pattern), binds)


def _launch_group(ctx: "Context", group: Group,
                  reduction: ReductionJob | None = None) -> int | None:
    """Bind, page in and launch one group from its :class:`LaunchPlan`
    — the one launcher of every statement path (paper Secs. III-VII).

    Sets each member statement's ``cost``; returns the scratch address
    of the partials when there is a ``reduction`` tail.  The kernel
    family follows from the group's shape: one statement ``eval_``, a
    lone tail ``red_``, anything larger ``fus_`` — and only those
    count as fusion groups.  A launch plan miss keys the group and
    looks its kernel up (or builds it), and keeps the plan unless a
    statement came from a one-shot plan.
    """
    stmts = group.stmts
    lattice, subset = group.lattice, group.subset
    subset_mode = group.subset_mode
    n_active = len(subset)
    out_names = () if reduction is None else reduction.out_names
    fused = len(stmts) + (reduction is not None) > 1

    pkey, binds = launch_plan_key(group, reduction)
    plan = ctx.plans.get(pkey)
    if plan is None:
        # -- structural signature -> generated-module cache; a miss
        # -- runs the code generator, the PTX verifier and the driver
        # -- JIT.  The lookup also binds the tables (a first-use upload
        # -- may spill, so it comes before paging, as does a scratch
        # -- grow); shift tables follow the slots: one kernel serves
        # -- every (mu, sign)
        tail = (None if reduction is None
                else (reduction.kind, reduction.exprs))
        key, slots = group_key([(st.dest, st) for st in stmts], tail,
                               subset_mode)
        entry, tables = ctx.lookup_kernel(
            key, "fus_" if fused else "eval_" if stmts else "red_",
            lambda name: build_fused_kernel(
                name, [(st.dest, st.expr) for st in stmts], tail,
                subset_mode),
            (lattice, subset, tuple(slots.shifts)),
            lambda: launch_env(lattice, subset, slots, out_names))
        plan = LaunchPlan(entry, tables, slots, binds, lattice, subset)
        if all(st.plan.kept for st in stmts):
            ctx.plans[pkey] = plan
    else:
        ctx.stats.module_cache_hits += 1
    entry = plan.entry
    params = dict(plan.tables)
    for i, re, im in plan.scalars:
        value = binds[i].value
        params[re] = value.real
        if im is not None:
            params[im] = value.imag
    fields = [binds[i] for i in plan.fields]
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
    addrs = ctx.field_cache.make_available(fields, write_only=write_only)
    for i, f in enumerate(fields):
        params[f"p_f{i}"] = addrs[f.uid]

    # -- launch through the per-kernel auto-tuner (paper Sec. VII), or
    # -- at the context's fixed block size
    info = entry.module.info
    precision = (stmts[0] if stmts else reduction).precision
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
        if st.frees:
            # the plan's temporaries are read: a replay may reuse them
            st.plan.pending = False
    _release_temps(ctx, stmts)
    if fused:
        ctx.stats.fusion_groups += 1
        ctx.stats.fused_statements += len(stmts)
    return scratch
