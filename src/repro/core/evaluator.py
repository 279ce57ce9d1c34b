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
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..device.memmodel import KernelCost
from ..diagnostics import verify_mode
from .codegen import _check_assign_types
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
    ShiftNode,
    TraceNode,
    UnaryNode,
    as_expr,
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


def _normalize(node: Expr, dest, ctx: Context, temps: list,
               stores: bool = True, flipped: bool = False) -> Expr:
    """Materialize shift-of-expression and shift-of-destination, and a
    destination read under ``adj``/``transpose`` (``flipped``).

    The kernel stores component (i, j) before it generates (j, i), so
    a transposed read of the destination would load words the
    statement has already overwritten; like an aliased shift it reads
    a copy instead.  A reduction, which stores nothing, passes its
    first field as ``dest`` with ``stores=False``.

    Created temporaries are appended to ``temps`` so the caller can
    :meth:`~repro.memory.cache.FieldCache.release` them once the
    statement that consumes them has launched — a dead temporary must
    never cost D2H spill traffic later.  A subtree whose facts show
    nothing to materialize comes back unvisited, as the same object;
    a rebuilt node computes its facts anew.
    """
    d = dest.uid
    if not (node.deep or d in node.shift_reads
            or stores and d in (node.reads if flipped else node.flip_reads)):
        return node
    if isinstance(node, FieldRef):          # a flipped read of dest
        return _materialize(node, dest, ctx, temps)
    if isinstance(node, ShiftNode):
        # a shift of a non-leaf or of the destination: the shifted
        # operand becomes a fresh temporary, which the statement's
        # stores cannot reach
        child = _materialize(_normalize(node.child, dest, ctx, temps,
                                        stores),
                             dest, ctx, temps)
        return ShiftNode(child, node.mu, node.sign)
    flipped = flipped or (isinstance(node, UnaryNode)
                          and node.op in ("adj", "transpose"))
    children = node.children()
    new = [_normalize(c, dest, ctx, temps, stores, flipped)
           for c in children]
    if all(a is b for a, b in zip(new, children)):
        return node
    return _rebuild(node, new)


def _materialize(expr: Expr, dest, ctx: Context, temps: list) -> FieldRef:
    """Evaluate ``expr`` into a fresh temporary on ``dest``'s lattice."""
    temp = _new_temp(dest.lattice, expr.spec, ctx)
    evaluate(temp, expr, context=ctx)
    temps.append(temp)
    return FieldRef(temp)


def _new_temp(lattice, spec, ctx: Context):
    from ..qdp.fields import LatticeField

    return LatticeField(lattice, spec, context=ctx, name="__temp")


def evaluate(dest, expr, subset: "Subset | None" = None,
             context: Context | None = None) -> KernelCost:
    """Evaluate ``dest = expr`` (optionally on a subset of sites).

    The statement is *enqueued* on the context's fusion queue.  With
    fusion on (the ``REPRO_FUSION`` knob, default) a lazy
    :class:`~repro.core.fusion.PendingCost` is returned; the kernel —
    possibly fused with neighboring statements — launches at the next
    barrier.  With it off the queue drains at once and the modeled
    :class:`KernelCost` of the launch comes back directly.
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
    # -- AST lint: surface data hazards before any kernel is built ------
    check_assignment(dest, expr, subset=subset, mode=verify_mode())
    temps: list = []
    expr = _normalize(expr, dest, ctx, temps)
    # type errors must surface at the assignment site, not at the
    # (possibly much later) deferred launch
    _check_assign_types(dest.spec, expr)
    ctx.stats.expressions_evaluated += 1
    return ctx.fusion.enqueue(dest, expr, subset, temps)
