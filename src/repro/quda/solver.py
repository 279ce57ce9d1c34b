"""The QUDA-style solver: mixed-precision CG with reliable updates.

It runs on the host against the optimized Dslash (QUDA owns its own
kernels and data layout); the device interface
(:mod:`repro.quda.interface`) hands fields over in the QDP-JIT layout
without copies.

The mixed-precision scheme is QUDA's reliable-updates CG: the
iteration runs in single precision, while the true residual is
recomputed in double precision whenever the iterated residual has
dropped by ``delta``, correcting accumulated drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class QudaSolveResult:
    converged: bool
    iterations: int
    residual_norm: float
    reliable_updates: int = 0
    history: list[float] = field(default_factory=list)


def _dot(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.vdot(a, b))


def _norm2(a: np.ndarray) -> float:
    return float(np.vdot(a, a).real)


def mixed_precision_cg(apply_dp, apply_sp, b: np.ndarray, *,
                       tol: float = 1e-10, max_iter: int = 2000,
                       delta: float = 0.1) -> tuple[np.ndarray,
                                                    QudaSolveResult]:
    """Reliable-updates mixed-precision CG for Hermitian PD A.

    ``apply_dp(x)`` applies A in double precision, ``apply_sp(x)`` in
    single.  Returns (solution, result).
    """
    b2 = _norm2(b)
    if b2 == 0.0:
        return np.zeros_like(b), QudaSolveResult(True, 0, 0.0)
    x = np.zeros_like(b)
    r = b.copy()
    rr = b2
    r_sp = r.astype(np.complex64)
    p = r_sp.copy()
    x_sp = np.zeros_like(r_sp)
    rr_sp = rr
    max_rr = rr
    reliable = 0
    history = [1.0]
    for k in range(1, max_iter + 1):
        ap = apply_sp(p)
        pap = _dot(p, ap).real
        if pap <= 0:
            raise RuntimeError("mixed CG breakdown")
        alpha = rr_sp / pap
        x_sp += np.complex64(alpha) * p
        r_sp -= np.complex64(alpha) * ap
        rr_new = _norm2(r_sp)
        history.append((rr_new / b2) ** 0.5)
        if rr_new < delta * max_rr or rr_new / b2 <= tol ** 2:
            # reliable update: fold the SP solution into DP, recompute
            # the true residual in DP
            x += x_sp.astype(np.complex128)
            r = b - apply_dp(x)
            rr_true = _norm2(r)
            reliable += 1
            history[-1] = (rr_true / b2) ** 0.5
            if history[-1] <= tol:
                return x, QudaSolveResult(True, k, history[-1],
                                          reliable, history)
            r_sp = r.astype(np.complex64)
            x_sp[:] = 0
            rr_sp = rr_true
            max_rr = rr_true
            beta = 0.0  # restart the direction after a reliable update
            p = r_sp.copy()
            continue
        beta = rr_new / rr_sp
        p = r_sp + np.complex64(beta) * p
        rr_sp = rr_new
        max_rr = max(max_rr, rr_new)
    # final fold
    x += x_sp.astype(np.complex128)
    r = b - apply_dp(x)
    return x, QudaSolveResult(False, max_iter, (_norm2(r) / b2) ** 0.5,
                              reliable, history)

