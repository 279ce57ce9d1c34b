"""Expression evaluation: the launch orchestration path.

``evaluate(dest, expr, subset)`` is what an assignment like
``psi = u * phi`` runs through (paper Secs. III-V):

1. *Normalize* the AST: shifts of non-leaf subexpressions are
   materialized into temporaries (QDP++ semantics; also the paper's
   "shifts of shifts execute the inner-most shift non-overlapping"),
   and a destination aliased inside a shift is copied first.
2. Compute the structural *signature*; hit or populate the generated-
   module cache, invoking the code generator + PTX verifier + driver
   JIT on a miss (the compile cost is charged to the device clock).
3. Walk the AST leaves and *make the referenced fields available* in
   device memory through the software cache (paper Sec. IV).
4. Bind parameters and launch through the per-kernel auto-tuner
   (paper Sec. VII).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..device.memmodel import KernelCost
from ..diagnostics import verify_mode
from ..ptx.absint import KernelEnv, MemRegion, table_region
from .codegen import _check_assign_types, build_expression_kernel
from .lint import check_assignment

if TYPE_CHECKING:
    from ..qdp.lattice import Subset
from .context import Context, default_context
from .expr import (
    BinaryNode,
    CustomOpNode,
    Expr,
    FieldRef,
    ShiftNode,
    SlotAssigner,
    TraceNode,
    UnaryNode,
    _spec_sig,
    as_expr,
)


def _rebuild(node: Expr, new_children) -> Expr:
    """Rebuild an inner node with replaced children."""
    if isinstance(node, BinaryNode):
        return BinaryNode(node.op, new_children[0], new_children[1])
    if isinstance(node, UnaryNode):
        return UnaryNode(node.op, new_children[0])
    if isinstance(node, TraceNode):
        return TraceNode(node.which, new_children[0])
    if isinstance(node, ShiftNode):
        return ShiftNode(new_children[0], node.mu, node.sign)
    if isinstance(node, CustomOpNode):
        return CustomOpNode(node.name, tuple(new_children), node.spec,
                            node.gen)
    from .expr import PowNode

    if isinstance(node, PowNode):
        return PowNode(new_children[0], node.exponent)
    raise TypeError(f"cannot rebuild {type(node).__name__}")


def _normalize(node: Expr, dest, ctx: Context,
               temps: list | None = None) -> Expr:
    """Materialize shift-of-expression and shift-of-destination.

    Created temporaries are appended to ``temps`` so the caller can
    :meth:`~repro.memory.cache.FieldCache.release` them once the
    statement that consumes them has launched — a dead temporary must
    never cost D2H spill traffic later.
    """
    children = node.children()
    if not children:
        return node
    new = [_normalize(c, dest, ctx, temps) for c in children]
    if isinstance(node, ShiftNode):
        child = new[0]
        needs_temp = not isinstance(child, FieldRef)
        aliases_dest = (isinstance(child, FieldRef)
                        and child.field.uid == dest.uid)
        if needs_temp or aliases_dest:
            temp = _new_temp(dest.lattice, child.spec, ctx)
            evaluate(temp, child, context=ctx)
            if temps is not None:
                temps.append(temp)
            child = FieldRef(temp)
        return ShiftNode(child, node.mu, node.sign)
    if all(a is b for a, b in zip(new, children)):
        return node
    return _rebuild(node, new)


def _new_temp(lattice, spec, ctx: Context):
    from ..qdp.fields import LatticeField

    return LatticeField(lattice, spec, context=ctx, name="__temp")


def evaluate(dest, expr, subset: "Subset | None" = None,
             context: Context | None = None) -> KernelCost:
    """Evaluate ``dest = expr`` (optionally on a subset of sites).

    With fusion enabled (the ``REPRO_FUSION`` knob, default on) the
    statement is *enqueued* on the context's fusion queue and a lazy
    :class:`~repro.core.fusion.PendingCost` is returned; the kernel —
    possibly fused with neighboring statements — launches at the next
    barrier.  Otherwise launches eagerly and returns the modeled
    :class:`KernelCost` directly.
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
        from ..device.memmodel import KernelCost

        return KernelCost(time_s=0.0, bandwidth_bytes_s=0.0,
                          mem_time_s=0.0, flop_time_s=0.0,
                          bytes_moved=0, flops=0)
    # -- AST lint: surface data hazards before any kernel is built ------
    mode = verify_mode()
    check_assignment(dest, expr, subset=subset, mode=mode)
    temps: list = []
    expr = _normalize(expr, dest, ctx, temps)
    # type errors must surface at the assignment site, not at the
    # (possibly much later) deferred launch
    _check_assign_types(dest.spec, expr)
    ctx.stats.expressions_evaluated += 1

    if ctx.fusion.enabled:
        return ctx.fusion.enqueue(dest, expr, subset, temps)

    cost = _launch_statement(dest, expr, subset, ctx)
    for t in temps:
        ctx.field_cache.release(t)
    return cost


def _launch_statement(dest, expr: Expr, subset, ctx: Context) -> KernelCost:
    """Look up (or build) and launch one statement's own kernel.

    Single-statement fusion groups also drain through here, so their
    kernels, cache keys and modeled costs are identical under
    ``REPRO_FUSION=on`` and ``off``.
    """
    lattice = dest.lattice
    slots = SlotAssigner()
    sig = expr.signature(slots)
    subset_mode = not subset.is_full
    key = f"{sig}->{_spec_sig(dest.spec)}|{'sub' if subset_mode else 'full'}"
    env = launch_env(lattice, subset, slots,
                     {"p_dst": lattice.nsites * dest.spec.bytes_per_site})
    entry = ctx.lookup_kernel(
        key, "eval_",
        lambda name: build_expression_kernel(name, expr, dest.spec,
                                             subset_mode),
        env)

    # -- automated memory management: page in the AST's leaves ----------
    fields = slots.fields
    reads = {f.uid for f in fields}
    write_only = ({dest.uid}
                  if (not subset_mode and dest.uid not in reads) else set())
    addrs = ctx.field_cache.make_available([dest] + fields,
                                           write_only=write_only)

    params = bind_params(ctx, lattice, subset, slots, addrs)
    params["p_dst"] = addrs[dest.uid]
    cost = launch(ctx, entry, params, len(subset), dest.spec.precision)
    ctx.field_cache.mark_device_dirty(dest)
    return cost


# -- the launch steps every statement path shares (eager statements
# -- above, fused groups in .fusion, reduction partials in .reduction)


def launch_env(lattice, subset, slots: SlotAssigner,
               out_regions: dict[str, int]) -> KernelEnv:
    """Launch-time facts for the abstract-interpretation verifier:
    what :func:`bind_params` will actually provide — exact site
    counts, field view sizes, and the content range / bulk stride of
    every gather table — plus the caller's output pointers as
    ``{param: nbytes}``."""
    nsites = lattice.nsites
    regions = {p: MemRegion(p, nbytes) for p, nbytes in out_regions.items()}
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


def bind_params(ctx: Context, lattice, subset, slots: SlotAssigner,
                addrs: dict[int, int]) -> dict[str, object]:
    """Bind the shared parameter block (everything but the caller's
    output pointers) from this launch's slot walk; ``addrs`` is what
    ``make_available`` returned for ``slots.fields``.

    Shift tables come from *this* walk's slots: the kernel text is
    direction-independent (the gather table is a parameter), so one
    compiled kernel serves every (mu, sign).
    """
    params: dict[str, object] = {"p_lo": lattice.nsites,
                                 "p_n": len(subset)}
    if not subset.is_full:
        params["p_stab"] = ctx.upload_table(
            ("subset", lattice.dims, subset.name), subset.sites)
    for i, (mu, sign) in enumerate(slots.shifts):
        params[f"p_sh{i}"] = ctx.upload_table(
            ("shift", lattice.dims, mu, sign), lattice.shift_map(mu, sign))
    for i, f in enumerate(slots.fields):
        params[f"p_f{i}"] = addrs[f.uid]
    for i, sn in enumerate(slots.scalar_slots):
        params[f"p_s{i}_re"] = sn.value.real
        if sn.spec.is_complex:
            params[f"p_s{i}_im"] = sn.value.imag
    return params


def launch(ctx: Context, entry, params: dict, n_active: int,
           precision: str) -> KernelCost:
    """Launch a looked-up kernel through the per-kernel auto-tuner
    (paper Sec. VII), or at the context's fixed block size."""
    module, compiled = entry.module, entry.compiled
    if ctx.autotuner is not None:
        return ctx.autotuner.launch(compiled, module.info, params, n_active,
                                    precision=precision)
    return ctx.device.launch(compiled, module.info, params, n_active,
                             block_size=ctx.default_block_size,
                             precision=precision)
