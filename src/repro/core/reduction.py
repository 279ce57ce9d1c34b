"""Global reductions: norm2, innerProduct, sum.

Reductions are two-stage, as on a real GPU: a generated PTX kernel
computes one f64 partial per thread (accumulating in double precision
regardless of field precision, as QDP-JIT does), and a device
primitive folds the partial buffer.  Only the final scalar crosses to
the host — fields are never paged out for a reduction.
"""

from __future__ import annotations

import hashlib

from dataclasses import replace as dc_replace
from typing import TYPE_CHECKING

from ..ptx.absint import MemRegion, merge_envs
from ..ptx.builder import KernelBuilder
from ..ptx.isa import PTXType
from ..ptx.module import PTXModule
from .codegen import CVal, Unparser, emit_reduction_partials

if TYPE_CHECKING:
    from ..qdp.lattice import Subset
from .context import Context
from .evaluator import _analysis_env, _normalize, _shift_table
from .expr import Expr, ExprTypeError, FieldRef, SlotAssigner, as_expr
from .fusion import ReductionJob


class ReductionError(Exception):
    pass


def _find_field(expr: Expr):
    if isinstance(expr, FieldRef):
        return expr.field
    for c in expr.children():
        f = _find_field(c)
        if f is not None:
            return f
    return None


def _build_reduction_kernel(name: str, kind: str, exprs: list[Expr],
                            slots: SlotAssigner, subset_mode: bool):
    """Generate the partials kernel for a reduction.

    ``kind``: ``norm2`` (sum of |component|^2), ``sum`` (component sum
    of a scalar-shaped expression, complex out) or ``inner``
    (sum over components of conj(a)*b, complex out).
    """
    kb = KernelBuilder(name)
    p_lo = kb.add_param("p_lo", PTXType.S32)
    p_n = kb.add_param("p_n", PTXType.S32)
    p_stab = (kb.add_param("p_stab", PTXType.U64, is_pointer=True)
              if subset_mode else None)
    p_shifts = [kb.add_param(f"p_sh{i}", PTXType.U64, is_pointer=True)
                for i in range(len(slots.shifts))]
    complex_out = kind in ("sum", "inner")
    p_out_re = kb.add_param("p_out_re", PTXType.U64, is_pointer=True)
    p_out_im = (kb.add_param("p_out_im", PTXType.U64, is_pointer=True)
                if complex_out else None)
    p_fields = [kb.add_param(f"p_f{i}", PTXType.U64, is_pointer=True)
                for i in range(len(slots.fields))]
    scalar_params = []
    for i, sn in enumerate(slots.scalar_slots):
        ft = PTXType.F32 if sn.spec.precision == "f32" else PTXType.F64
        pre = kb.add_param(f"p_s{i}_re", ft)
        pim = kb.add_param(f"p_s{i}_im", ft) if sn.spec.is_complex else None
        scalar_params.append((pre, pim))

    up = Unparser(kb, slots, exprs[0].spec, subset_mode)
    up.nsites_reg = kb.ld_param(p_lo)
    n_active = kb.ld_param(p_n)
    stab_base = kb.ld_param(p_stab) if subset_mode else None
    up._shift_bases = [kb.ld_param(p) for p in p_shifts]
    out_re_base = kb.ld_param(p_out_re)
    out_im_base = kb.ld_param(p_out_im) if p_out_im is not None else None
    up._leaf_bases = [kb.ld_param(p) for p in p_fields]
    for (pre, pim) in scalar_params:
        re = kb.ld_param(pre)
        im = kb.ld_param(pim) if pim is not None else None
        up._scalar_vals.append(CVal(re=re, im=im))

    gid = kb.global_thread_id()
    oob = kb.setp("ge", gid, n_active)
    exit_lbl = kb.new_label("EXIT")
    kb.bra(exit_lbl, guard=oob)
    if subset_mode:
        g64 = kb.cvt(gid, PTXType.S64)
        off = kb.mul(g64, kb.imm(4, PTXType.S64))
        addr = kb.add(stab_base, kb.cvt(off, PTXType.U64))
        up.site_reg = kb.ld_global(addr, PTXType.S32)
    else:
        up.site_reg = gid
    up._view_sites[None] = up.site_reg

    emit_reduction_partials(up, kind, exprs, out_re_base, out_im_base, gid)
    kb.label(exit_lbl)
    kb.ret()
    return PTXModule.from_builder(kb)


def _validate(kind: str, exprs: list[Expr]) -> None:
    """Shape checks, up front so fused and standalone paths agree."""
    spec = exprs[0].spec
    if kind == "sum" and (spec.spin or spec.color):
        raise ReductionError(
            "sum() needs a scalar-shaped expression; trace first")
    if kind == "inner":
        a, b = exprs
        if a.spec.spin != b.spec.spin or a.spec.color != b.spec.color:
            raise ExprTypeError("innerProduct shape mismatch")
    if kind not in ("norm2", "sum", "inner"):
        raise ReductionError(f"unknown reduction kind {kind!r}")


def _reduce(kind: str, exprs: list[Expr], subset: Subset | None,
            context: Context | None):
    exprs = [as_expr(e) for e in exprs]
    f0 = _find_field(exprs[0])
    if f0 is None:
        raise ReductionError("reduction needs at least one lattice field")
    ctx = context if context is not None else f0.context
    lattice = f0.lattice
    if subset is None:
        subset = lattice.all_sites
    temps: list = []
    exprs = [_normalize(e, f0, ctx, temps) for e in exprs]
    _validate(kind, exprs)

    n_active = len(subset)
    complex_out = kind in ("sum", "inner")

    # a reduction is a queue barrier; if the trailing pending group is
    # compatible, its fused kernel also writes our partials and the
    # separate partials launch disappears entirely
    scratch = None
    if ctx.fusion.enabled:
        job = ReductionJob(kind, exprs, subset, lattice)
        scratch = ctx.fusion.flush_for_reduction(job)

    if scratch is None:
        scratch = _launch_partials(ctx, kind, exprs, subset, lattice,
                                   n_active, complex_out)
    for t in temps:
        ctx.field_cache.release(t)
    ctx.stats.reductions += 1
    re = ctx.device.reduce_f64(scratch, n_active)
    if complex_out:
        im = ctx.device.reduce_f64(scratch + n_active * 8, n_active)
        return complex(re, im)
    return re


def _launch_partials(ctx: Context, kind: str, exprs: list[Expr],
                     subset, lattice, n_active: int,
                     complex_out: bool) -> int:
    """The standalone partials kernel (pre-fusion launch path)."""
    slots = SlotAssigner()
    sigs = ",".join(e.signature(slots) for e in exprs)
    subset_mode = not subset.is_full
    key = f"red:{kind}({sigs})|{'sub' if subset_mode else 'full'}"

    # launch env for the analysis passes: the expression env minus the
    # destination field, plus the f64 partials buffer(s)
    env = _analysis_env(lattice, subset, subset_mode, slots,
                        exprs[0].spec)
    regions = dict(env.regions)
    del regions["p_dst"]
    regions["p_out_re"] = MemRegion("p_out_re", len(subset) * 8)
    if complex_out:
        regions["p_out_im"] = MemRegion("p_out_im", len(subset) * 8)
    env = dc_replace(env, regions=regions)

    entry = ctx.module_cache.lookup(key)
    if entry is None:
        name = "red_" + hashlib.sha256(key.encode()).hexdigest()[:12]
        module = _build_reduction_kernel(name, kind, exprs, slots,
                                         subset_mode)
        entry = ctx.build_kernel(module, env)
        ctx.module_cache[key] = entry
    module, compiled = entry
    prev = ctx.analysis_envs.get(module.name)
    ctx.analysis_envs[module.name] = (env if prev is None
                                      else merge_envs(prev, env))

    scratch = ctx_scratch(ctx, n_active * 8 * (2 if complex_out else 1))
    addrs = ctx.field_cache.make_available(slots.fields)

    params = {"p_lo": lattice.nsites, "p_n": n_active,
              "p_out_re": scratch}
    if complex_out:
        params["p_out_im"] = scratch + n_active * 8
    if subset_mode:
        params["p_stab"] = ctx.upload_table(
            ("subset", lattice.dims, subset.name), subset.sites)
    for i, (mu, sign) in enumerate(slots.shifts):
        params[f"p_sh{i}"] = _shift_table(ctx, lattice, mu, sign)
    for i, f in enumerate(slots.fields):
        params[f"p_f{i}"] = addrs[f.uid]
    for i, sn in enumerate(slots.scalar_slots):
        params[f"p_s{i}_re"] = sn.value.real
        if sn.spec.is_complex:
            params[f"p_s{i}_im"] = sn.value.imag

    precision = exprs[0].spec.precision
    if ctx.autotuner is not None:
        ctx.autotuner.launch(compiled, module.info, params, n_active,
                             precision=precision)
    else:
        ctx.device.launch(compiled, module.info, params, n_active,
                          block_size=ctx.default_block_size,
                          precision=precision)
    return scratch


def ctx_scratch(ctx: Context, nbytes: int) -> int:
    """A grow-only scratch allocation on the context's device."""
    cur = getattr(ctx, "_scratch", None)
    if cur is not None and cur[1] >= nbytes:
        return cur[0]
    if cur is not None:
        ctx.device.mem_free(cur[0])
    addr = ctx.field_cache._allocate_with_spill(nbytes, set())
    ctx._scratch = (addr, nbytes)
    return addr


# -- public API ---------------------------------------------------------------

def norm2(x, subset: Subset | None = None, context: Context | None = None
          ) -> float:
    """``norm2(x)``: the squared 2-norm, summed over all components
    and (subset) sites.  Always accumulated in double precision."""
    return _reduce("norm2", [x], subset, context)


def innerProduct(a, b, subset: Subset | None = None,
                 context: Context | None = None) -> complex:
    """``<a|b>`` with the physics convention: conjugate on the left."""
    return _reduce("inner", [a, b], subset, context)


def innerProductReal(a, b, subset: Subset | None = None,
                     context: Context | None = None) -> float:
    """Real part of the inner product (one fewer reduction column
    would be possible; we reuse the complex kernel for simplicity)."""
    return _reduce("inner", [a, b], subset, context).real


def sum_sites(x, subset: Subset | None = None,
              context: Context | None = None) -> complex:
    """Sum a scalar-shaped (LatticeComplex/LatticeReal) expression
    over sites.  Use ``trace(...)`` to scalarize matrices first."""
    return _reduce("sum", [x], subset, context)
