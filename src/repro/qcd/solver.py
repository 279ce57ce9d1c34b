"""Krylov solvers over the QDP expression layer.

These are the framework-native solvers (the paper's "QDP-JIT" path);
the separately tuned comparator lives in :mod:`repro.quda`.  All
vector updates are data-parallel expressions with the scalar
coefficients passed as kernel *parameters*, so the whole solve runs on
the (simulated) device with a fixed, small set of JIT-compiled kernels
— no recompilation inside the iteration loop.

Implemented: CG on a Hermitian positive-definite operator (M-dagger M
or the even-odd Schur complement), BiCGStab on the non-Hermitian
operator, and the multi-shift CG needed by the RHMC rational forces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.reduction import innerProduct, norm2
from ..qdp.fields import LatticeField
from ..qdp.lattice import Subset


@dataclass
class SolveResult:
    """Outcome of a Krylov solve."""

    converged: bool
    iterations: int
    residual_norm: float       # sqrt(|r|^2 / |b|^2), relative
    residual_history: list[float] = field(default_factory=list)


class SolverError(RuntimeError):
    pass


def cg(apply_op, x: LatticeField, b: LatticeField, *,
       tol: float = 1e-8, max_iter: int = 1000,
       subset: Subset | None = None) -> SolveResult:
    """Conjugate gradient for ``A x = b`` with A Hermitian PD.

    ``apply_op(dest, src)`` computes ``dest = A src`` (restricted to
    ``subset`` if given).  ``x`` holds the initial guess and receives
    the solution.  ``tol`` is on the relative residual norm.
    """
    ctx = x.context
    lattice = x.lattice
    def mk():
        return LatticeField(lattice, x.spec, context=ctx)
    r, p, ap = mk(), mk(), mk()

    b2 = norm2(b, subset=subset)
    if b2 == 0.0:
        x.assign(0.0 * x.ref(), subset=subset)
        return SolveResult(True, 0, 0.0, [0.0])

    apply_op(ap, x)
    r.assign(b - ap, subset=subset)
    p.assign(r.ref(), subset=subset)
    rr = norm2(r, subset=subset)
    history = [(rr / b2) ** 0.5]
    if history[-1] <= tol:
        return SolveResult(True, 0, history[-1], history)

    for k in range(1, max_iter + 1):
        apply_op(ap, p)
        pap = innerProduct(p, ap, subset=subset).real
        if pap <= 0.0:
            raise SolverError(
                f"CG breakdown: <p|Ap> = {pap:g} <= 0 (operator not PD?)")
        alpha = rr / pap
        x.assign(x + alpha * p, subset=subset)
        r.assign(r - alpha * ap, subset=subset)
        rr_new = norm2(r, subset=subset)
        history.append((rr_new / b2) ** 0.5)
        if history[-1] <= tol:
            return SolveResult(True, k, history[-1], history)
        beta = rr_new / rr
        p.assign(r + beta * p, subset=subset)
        rr = rr_new
    return SolveResult(False, max_iter, history[-1], history)


def bicgstab(apply_op, x: LatticeField, b: LatticeField, *,
             tol: float = 1e-8, max_iter: int = 1000,
             subset: Subset | None = None) -> SolveResult:
    """BiCGStab for a general (non-Hermitian) operator."""
    ctx = x.context
    lattice = x.lattice
    def mk():
        return LatticeField(lattice, x.spec, context=ctx)
    r, r0, p, v, s, t = (mk() for _ in range(6))

    b2 = norm2(b, subset=subset)
    if b2 == 0.0:
        x.assign(0.0 * x.ref(), subset=subset)
        return SolveResult(True, 0, 0.0, [0.0])

    apply_op(v, x)
    r.assign(b - v, subset=subset)
    r0.assign(r.ref(), subset=subset)
    rho = alpha = omega = 1.0 + 0.0j
    p.assign(0.0 * r.ref(), subset=subset)
    v.assign(0.0 * r.ref(), subset=subset)
    rr = norm2(r, subset=subset)
    history = [(rr / b2) ** 0.5]
    if history[-1] <= tol:
        return SolveResult(True, 0, history[-1], history)

    for k in range(1, max_iter + 1):
        rho_new = innerProduct(r0, r, subset=subset)
        if rho_new == 0.0:
            raise SolverError("BiCGStab breakdown: rho = 0")
        beta = (rho_new / rho) * (alpha / omega)
        p.assign(r + beta * (p - omega * v), subset=subset)
        apply_op(v, p)
        denom = innerProduct(r0, v, subset=subset)
        if denom == 0.0:
            raise SolverError("BiCGStab breakdown: <r0|v> = 0")
        alpha = rho_new / denom
        s.assign(r - alpha * v, subset=subset)
        apply_op(t, s)
        t2 = norm2(t, subset=subset)
        if t2 == 0.0:
            x.assign(x + alpha * p, subset=subset)
            history.append(0.0)
            return SolveResult(True, k, 0.0, history)
        omega = innerProduct(t, s, subset=subset) / t2
        x.assign(x + alpha * p + omega * s, subset=subset)
        r.assign(s - omega * t, subset=subset)
        rr = norm2(r, subset=subset)
        history.append((rr / b2) ** 0.5)
        if history[-1] <= tol:
            return SolveResult(True, k, history[-1], history)
        rho = rho_new
    return SolveResult(False, max_iter, history[-1], history)


@dataclass
class MultiShiftResult:
    converged: bool
    iterations: int
    residual_norms: list[float]


def multishift_cg(apply_op, xs: list[LatticeField], b: LatticeField,
                  shifts: list[float], *, tol: float = 1e-8,
                  max_iter: int = 1000,
                  subset: Subset | None = None) -> MultiShiftResult:
    """Multi-shift CG: solve ``(A + sigma_i) x_i = b`` for all shifts
    at the cost of a single Krylov sequence.

    The workhorse of the RHMC rational force (paper Sec. VIII-D uses
    the rational approximation of [14]).  Shifts must be >= 0 with A
    Hermitian PD; ``xs`` must be zero-initialized fields, one per
    shift.  Uses the standard beta/zeta recurrences (Jegerlehner).
    """
    if len(xs) != len(shifts):
        raise ValueError("one solution field per shift required")
    if any(s < 0 for s in shifts):
        raise ValueError("multishift CG requires non-negative shifts")
    ns = len(shifts)
    ctx = b.context
    lattice = b.lattice
    def mk():
        return LatticeField(lattice, b.spec, context=ctx)
    r, p, ap = mk(), mk(), mk()
    ps = [mk() for _ in range(ns)]

    b2 = norm2(b, subset=subset)
    if b2 == 0.0:
        for x in xs:
            x.assign(0.0 * b.ref(), subset=subset)
        return MultiShiftResult(True, 0, [0.0] * ns)

    # base (sigma = 0) CG state drives everything
    r.assign(b.ref(), subset=subset)
    p.assign(b.ref(), subset=subset)
    for x, ps_i in zip(xs, ps):
        x.assign(0.0 * b.ref(), subset=subset)
        ps_i.assign(b.ref(), subset=subset)

    # Jegerlehner (hep-lat/9612014) recurrences in CG (alpha, beta)
    # notation: zeta tracks the collinearity r_n^sigma = zeta_n r_n.
    zeta = [1.0] * ns        # zeta_n
    zeta_old = [1.0] * ns    # zeta_{n-1}
    alpha_old = 1.0          # alpha_{n-1}
    beta_old = 0.0           # beta_{n-1}
    active = [True] * ns
    rr = b2
    resid = [1.0] * ns

    for k in range(1, max_iter + 1):
        apply_op(ap, p)
        pap = innerProduct(p, ap, subset=subset).real
        if pap <= 0.0:
            raise SolverError(f"multishift CG breakdown: <p|Ap> = {pap:g}")
        alpha = rr / pap

        zeta_new = [0.0] * ns
        for i in range(ns):
            if not active[i]:
                continue
            s = shifts[i]
            denom = (alpha * beta_old * (zeta_old[i] - zeta[i])
                     + zeta_old[i] * alpha_old * (1.0 + s * alpha))
            if denom == 0.0:
                raise SolverError("multishift CG: zeta recurrence breakdown")
            zeta_new[i] = zeta[i] * zeta_old[i] * alpha_old / denom
            alpha_i = alpha * zeta_new[i] / zeta[i]
            xs[i].assign(xs[i] + alpha_i * ps[i], subset=subset)

        r.assign(r - alpha * ap, subset=subset)
        rr_new = norm2(r, subset=subset)
        beta = rr_new / rr
        rnorm = (rr_new / b2) ** 0.5

        all_done = True
        for i in range(ns):
            if not active[i]:
                continue
            resid[i] = abs(zeta_new[i]) * rnorm
            if resid[i] <= tol:
                active[i] = False
                continue
            all_done = False
            beta_i = beta * (zeta_new[i] / zeta[i]) ** 2
            zn = zeta_new[i]
            ps[i].assign(zn * r + beta_i * ps[i], subset=subset)
            zeta_old[i] = zeta[i]
            zeta[i] = zeta_new[i]
        if all_done:
            return MultiShiftResult(True, k, resid)

        p.assign(r + beta * p, subset=subset)
        alpha_old = alpha
        beta_old = beta
        rr = rr_new
    return MultiShiftResult(all(not a for a in active), max_iter, resid)
