"""Mixed-precision defect-correction solver on the framework's own
kernels.

The QUDA comparator has its reliable-update mixed CG; this is the
framework-native counterpart: an outer double-precision defect
correction around inner single-precision CG solves.  The precision
conversions run through the expression pipeline's implicit promotion
(cvt instructions in the generated kernels, paper Sec. III-D), so
this module doubles as an end-to-end exercise of the mixed-precision
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.reduction import norm2
from ..qdp.fields import LatticeField, latt_fermion
from ..qdp.lattice import Subset
from .solver import cg


@dataclass
class MixedSolveResult:
    converged: bool
    outer_iterations: int
    inner_iterations: int
    residual_norm: float
    history: list[float] = field(default_factory=list)


def mixed_precision_cg(op_dp, op_sp, x: LatticeField, b: LatticeField, *,
                       tol: float = 1e-10, inner_tol: float = 1e-5,
                       max_outer: int = 30, max_inner: int = 1000,
                       subset: Subset | None = None) -> MixedSolveResult:
    """Solve ``A x = b`` (A Hermitian PD) in mixed precision.

    ``op_dp(dest, src)`` applies A on f64 fields; ``op_sp`` on f32
    fields.  Each outer step computes the true f64 residual, solves
    the error equation in f32 to ``inner_tol``, and accumulates the
    correction in f64 — converging to full double-precision accuracy
    while the bandwidth-hungry iterations move half the bytes.
    """
    lattice = x.lattice
    ctx = x.context
    r = latt_fermion(lattice, "f64", ctx)
    ax = latt_fermion(lattice, "f64", ctx)
    r32 = latt_fermion(lattice, "f32", ctx)
    e32 = latt_fermion(lattice, "f32", ctx)

    b2 = norm2(b, subset=subset)
    if b2 == 0.0:
        x.assign(0.0 * x.ref(), subset=subset)
        return MixedSolveResult(True, 0, 0, 0.0, [0.0])

    inner_total = 0
    history = []
    for outer in range(1, max_outer + 1):
        op_dp(ax, x)
        r.assign(b - ax, subset=subset)
        rel = (norm2(r, subset=subset) / b2) ** 0.5
        history.append(rel)
        if rel <= tol:
            return MixedSolveResult(True, outer - 1, inner_total, rel,
                                    history)
        # demote the residual, solve the error equation in f32
        r32.assign(r.ref(), subset=subset)
        e32.zero()
        res = cg(op_sp, e32, r32, tol=inner_tol, max_iter=max_inner,
                 subset=subset)
        inner_total += res.iterations
        # promote and accumulate the correction
        x.assign(x + e32, subset=subset)
    op_dp(ax, x)
    r.assign(b - ax, subset=subset)
    rel = (norm2(r, subset=subset) / b2) ** 0.5
    history.append(rel)
    return MixedSolveResult(rel <= tol, max_outer, inner_total, rel,
                            history)
