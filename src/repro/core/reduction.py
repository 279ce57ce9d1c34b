"""Global reductions: norm2, innerProduct, sum.

Reductions are two-stage, as on a real GPU: a generated PTX kernel
computes one f64 partial per thread (accumulating in double precision
regardless of field precision, as QDP-JIT does), and a device
primitive folds the partial buffer.  Only the final scalar crosses to
the host — fields are never paged out for a reduction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..qdp.lattice import Subset
from .context import Context
from .evaluator import _materializer, _normalize
from .expr import Expr, ExprTypeError, as_expr, leaf_fields
from .fusion import ReductionJob


class ReductionError(Exception):
    pass


def _find_field(expr: Expr):
    """The first field ``expr`` reads, in signature order."""
    return next(iter(leaf_fields(expr.leaves)), None)


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
    materialize = _materializer(ctx, temps)
    exprs = [_normalize(e, f0, materialize, stores=False) for e in exprs]
    _validate(kind, exprs)

    # a reduction is a queue barrier; if the trailing pending group is
    # compatible, its fused kernel also writes our partials and the
    # separate partials launch disappears entirely
    job = ReductionJob(kind, exprs, subset, lattice)
    scratch = ctx.fusion.flush_for_reduction(job)
    for t in temps:
        ctx.field_cache.release(t)
    ctx.stats.reductions += 1
    n_active = len(subset)
    cols = [ctx.device.reduce_f64(scratch + i * n_active * 8, n_active)
            for i in range(len(job.out_names))]
    return complex(*cols) if len(cols) == 2 else cols[0]


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
