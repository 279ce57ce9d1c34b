"""Expression evaluation: the front half of an assignment.

``evaluate(dest, expr, subset)`` is what an assignment like
``psi = u * phi`` runs through (paper Sec. III): the AST is linted,
*normalized* — shifts of non-leaf subexpressions are materialized
into temporaries (QDP++ semantics; also the paper's "shifts of shifts
execute the inner-most shift non-overlapping"), and a destination
aliased inside a shift or read under ``adj``/``transpose`` is copied
first — type-checked against its destination, and handed to the
context's statement queue.  No step walks the tree: the lint tests
the root's facts (:class:`~repro.core.expr.Expr`) against the
destination, normalization descends only where they show something to
copy, and the queue's hazard facts are the normalized root's read
sets.  Lookup, paging, binding and launch (paper Secs. IV-VII) are the
queue's one launcher, :func:`repro.core.fusion._launch_group`.

Every statement is enqueued by the replay of a *plan*.  The first
root of a type is *recorded*: lint, normalization and type check run
and enqueue nothing, and the context's plan table keeps, under the
root's type (its fragment), the aliasing pattern of its leaves, its
destination type, lattice, subset and the ``REPRO_VERIFY`` mode, a
:class:`StatementPlan` — the statements they produced, as templates
over the leaves' positions, and the temporaries those write.  That
root and every later one of the key enqueue the templates bound to
their own fields and scalars and to the plan's temporaries, or to
fresh ones while a queued replay has yet to read those (the paper's
kernel cache keyed by the expression-template type, carried up to the
statement).  A plan whose lint reported a finding, or whose root reads
a field of another lattice, is replayed once and not kept.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..device.memmodel import KernelCost
from ..diagnostics import verify_mode
from .codegen import _check_assign_types
from .fusion import Statement
from .lint import check_assignment

if TYPE_CHECKING:
    from ..qdp.lattice import Subset
from .context import Context, default_context
from .expr import (
    BinaryNode,
    CustomOpNode,
    Expr,
    FieldRef,
    PowNode,
    ScalarParam,
    ShiftNode,
    TraceNode,
    UnaryNode,
    as_expr,
    leaf_fields,
)


def _rebuild(node: Expr, new_children) -> Expr:
    """Rebuild an inner node (not a shift) with replaced children."""
    if isinstance(node, BinaryNode):
        return BinaryNode(node.op, new_children[0], new_children[1])
    if isinstance(node, UnaryNode):
        return UnaryNode(node.op, new_children[0])
    if isinstance(node, TraceNode):
        return TraceNode(node.which, new_children[0])
    if isinstance(node, CustomOpNode):
        return CustomOpNode(node.name, tuple(new_children), node.spec,
                            node.gen)
    if isinstance(node, PowNode):
        return PowNode(new_children[0], node.exponent)
    raise TypeError(f"cannot rebuild {type(node).__name__}")


def _normalize(node: Expr, dest, materialize, stores: bool = True,
               flipped: bool = False) -> Expr:
    """Materialize shift-of-expression and shift-of-destination, and a
    destination read under ``adj``/``transpose`` (``flipped``).

    The kernel stores component (i, j) before it generates (j, i), so
    a transposed read of the destination would load words the
    statement has already overwritten; like an aliased shift it reads
    a copy instead.  A reduction, which stores nothing, passes its
    first field as ``dest`` with ``stores=False``.

    ``materialize(expr, dest)`` returns a :class:`FieldRef` to the
    temporary holding ``expr`` (:func:`_materializer` evaluates it;
    :meth:`StatementPlan.trees` hands out the plan's own).  A subtree
    whose facts show nothing to materialize comes back unvisited, as
    the same object; a rebuilt node computes its facts anew.
    """
    d = dest.uid
    if not (node.deep or d in node.shift_reads
            or stores and d in (node.reads if flipped else node.flip_reads)):
        return node
    if isinstance(node, FieldRef):          # a flipped read of dest
        return materialize(node, dest)
    if isinstance(node, ShiftNode):
        # a shift of a non-leaf or of the destination: the shifted
        # operand becomes a fresh temporary, which the statement's
        # stores cannot reach
        child = materialize(_normalize(node.child, dest, materialize,
                                       stores), dest)
        return ShiftNode(child, node.mu, node.sign)
    flipped = flipped or (isinstance(node, UnaryNode)
                          and node.op in ("adj", "transpose"))
    children = node.children()
    new = [_normalize(c, dest, materialize, stores, flipped)
           for c in children]
    if all(a is b for a, b in zip(new, children)):
        return node
    return _rebuild(node, new)


def _materializer(ctx: Context, temps: list,
                  rec: "_Recording | None" = None):
    """The ``materialize`` of a real evaluation: each operand is
    evaluated into a fresh temporary on ``dest``'s lattice, appended
    to ``temps`` so the caller can
    :meth:`~repro.memory.cache.FieldCache.release` it once the
    statement that consumes it has launched — a dead temporary must
    never cost D2H spill traffic later.  While a plan is recorded
    (``rec``), the temporary's statement joins the recording."""
    def materialize(expr: Expr, dest) -> FieldRef:
        temp = _new_temp(dest.lattice, expr.spec, ctx)
        if rec is None:
            evaluate(temp, expr, context=ctx)
        else:
            rec.temps.append(temp)
            rec.record(temp, expr, dest.lattice.all_sites)
        temps.append(temp)
        return FieldRef(temp)
    return materialize


def _new_temp(lattice, spec, ctx: Context):
    from ..qdp.fields import LatticeField

    return LatticeField(lattice, spec, context=ctx, name="__temp")


class _Recording:
    """Lint, normalization and type check of one root, enqueuing
    nothing: the statements it yields, in launch order, as ``(dest,
    normalized expr, subset, temps)``, and the temporaries they write;
    ``clean`` turns false when the lint reported a finding (such a
    plan is replayed once and never kept: it warns every time)."""

    __slots__ = ("ctx", "mode", "stmts", "temps", "clean")

    def __init__(self, ctx: Context, mode: str):
        self.ctx, self.mode = ctx, mode
        self.stmts: list[tuple] = []
        self.temps: list = []
        self.clean = True

    def record(self, dest, expr: Expr, subset) -> None:
        """Record ``dest = expr``, after the statements of the
        temporaries its normalization materializes."""
        # -- AST lint: surface data hazards before any kernel is built
        if check_assignment(dest, expr, subset=subset, mode=self.mode):
            self.clean = False
        temps: list = []
        expr = _normalize(expr, dest, _materializer(self.ctx, temps, self))
        # type errors must surface at the assignment site, not at the
        # (possibly much later) deferred launch
        _check_assign_types(dest.spec, expr)
        self.stmts.append((dest, expr, subset, temps))


def plan_key(dest, expr: Expr, subset, mode: str):
    """``(key, binds)`` of ``dest = expr``; ``key`` is None when a
    field lives on another lattice than ``dest`` (never kept: the lint
    must see it).

    ``binds`` is ``dest`` and then each distinct field or scalar of
    ``expr.leaves`` in first-occurrence order; the key is the root's
    fragment, its leaves with each bound leaf replaced by its
    ``binds`` position (a shift by its ``(mu, sign)``), the
    destination's type, the lattice and subset, and ``mode`` — all
    that lint, normalization and type check read, so a root of an
    equal key yields the same statements over its own ``binds``.
    """
    lattice = dest.lattice
    binds = [dest]
    index = {id(dest): 0}
    pattern = []
    foreign = False
    for x in expr.leaves:
        if type(x) is tuple:
            pattern.append(x)
            continue
        i = index.get(id(x))
        if i is None:
            if type(x) is not ScalarParam and x.lattice is not lattice:
                foreign = True
            i = index[id(x)] = len(binds)
            binds.append(x)
        pattern.append(i)
    if foreign:
        return None, binds
    return ((expr.frag, tuple(pattern), dest.spec.ident, id(lattice),
             id(subset), mode), binds)


class Template:
    """One statement of a :class:`StatementPlan`, over positions in the
    plan's *env* — the root's ``binds`` followed by the temporaries —
    what a :class:`~repro.core.fusion.Statement` binds."""

    __slots__ = ("dest", "subset", "subset_mode", "frag", "leaves",
                 "reads", "shift_reads", "footprint", "temps", "binds")

    def __init__(self, stmt: tuple, pos: dict, upos: dict):
        dest, expr, subset, temps = stmt
        self.dest = pos[id(dest)]
        self.subset, self.subset_mode = subset, not subset.is_full
        self.frag = expr.frag
        self.leaves = tuple(x if type(x) is tuple else pos[id(x)]
                            for x in expr.leaves)
        self.reads = tuple(upos[u] for u in expr.reads)
        self.shift_reads = tuple(upos[u] for u in expr.shift_reads)
        #: device bytes of each distinct field the statement binds
        footprint = {pos[id(f)]: f.nbytes for f in leaf_fields(expr.leaves)}
        footprint[self.dest] = dest.nbytes
        self.footprint = tuple(footprint.items())
        self.temps = tuple(pos[id(t)] for t in temps)
        #: the distinct env positions the statement binds, for the
        #: launcher's cross-statement pattern
        self.binds = tuple(dict.fromkeys(
            [i for i in self.leaves if type(i) is int] + [self.dest]))


class StatementPlan:
    """The statements one root type yields, and the temporaries they
    write — owned by the plan, reused by every replay that finds them
    free and released to the pool after each launch like any
    temporary."""

    __slots__ = ("templates", "temps", "pending", "lattice", "kept")

    def __init__(self, rec: _Recording, binds: list):
        # the key holds its id (the templates hold the subsets)
        self.lattice = binds[0].lattice
        env = binds + rec.temps
        pos = {id(x): i for i, x in enumerate(env)}
        upos = {x.uid: i for i, x in enumerate(env)
                if type(x) is not ScalarParam}
        self.temps = rec.temps
        self.templates = tuple(Template(st, pos, upos) for st in rec.stmts)
        #: a replay on the plan's temporaries is queued, and they are
        #: yet to be read: the launcher clears this when its root
        #: statement (the last, which reads them) has launched
        self.pending = False
        #: in the context's plan table (a one-shot plan is not, and
        #: nor is a launch plan of its statements)
        self.kept = False

    def replay(self, ctx: Context, root: Expr, binds: list,
               trees: list | None = None):
        """Enqueue the templates bound to ``binds`` — and to the plan's
        temporaries, or to fresh ones while those are pending; returns
        the root statement's cost, as :func:`evaluate` does.  ``trees``
        are the normalized trees of a replay on the recording's own
        ``binds``."""
        temps, frees = self.temps, False
        if self.pending:
            temps = [_new_temp(t.lattice, t.spec, ctx) for t in temps]
        elif temps:
            self.pending = frees = True
        env = binds + temps
        ctx.stats.expressions_evaluated += len(self.templates)
        enqueue = ctx.fusion.enqueue
        last = len(self.templates) - 1
        for j, t in enumerate(self.templates):
            cost = enqueue(Statement(self, t, env, root,
                                     None if trees is None else trees[j],
                                     frees and j == last))
        return cost

    def trees(self, root: Expr, env: list) -> list:
        """The normalized tree of each template under ``env`` — what
        the code generator reads on a module-cache miss — by the
        normalization of ``root`` that recorded the plan, handing out
        ``env``'s temporaries in the order it created them."""
        temps = iter(env[len(env) - len(self.temps):])
        out = {}

        def materialize(expr: Expr, dest) -> FieldRef:
            temp = next(temps)
            out[id(temp)] = _normalize(expr, temp, materialize)
            return FieldRef(temp)

        out[id(env[0])] = _normalize(root, env[0], materialize)
        return [out[id(env[t.dest])] for t in self.templates]


def evaluate(dest, expr, subset: "Subset | None" = None,
             context: Context | None = None) -> KernelCost:
    """Evaluate ``dest = expr`` (optionally on a subset of sites).

    The statement is *enqueued* on the context's fusion queue.  With
    fusion on (the ``REPRO_FUSION`` knob, default) a lazy
    :class:`~repro.core.fusion.PendingCost` is returned; the kernel —
    possibly fused with neighboring statements — launches at the next
    barrier.  With it off the queue drains at once and the modeled
    :class:`KernelCost` of the launch comes back directly.

    The root replays its :func:`plan_key`'s plan, recorded first if
    the context has none; a plan whose lint reported a finding, or
    whose root reads a field of another lattice, is replayed once and
    not kept.
    """
    ctx = context if context is not None else getattr(
        dest, "context", None) or default_context()
    lattice = dest.lattice
    if subset is None:
        subset = lattice.all_sites
    expr = as_expr(expr)
    if len(subset) == 0:
        # nothing to evaluate (e.g. an empty interior on a lattice
        # whose local extent equals the face depth)
        return KernelCost(time_s=0.0, bandwidth_bytes_s=0.0,
                          mem_time_s=0.0, flop_time_s=0.0,
                          bytes_moved=0, flops=0)
    mode = verify_mode()
    key, binds = plan_key(dest, expr, subset, mode)
    plan = None if key is None else ctx.plans.get(key)
    if plan is not None:
        return plan.replay(ctx, expr, binds)
    rec = _Recording(ctx, mode)
    rec.record(dest, expr, subset)
    plan = StatementPlan(rec, binds)
    if rec.clean and key is not None:
        plan.kept = True
        ctx.plans[key] = plan
    return plan.replay(ctx, expr, binds, [st[1] for st in rec.stmts])
