"""The Chroma <-> QUDA device interface (paper Sec. VIII-D).

"We are using QUDA's device interface to call-out from Chroma to the
linear solvers.  The interface supports the optimized data layout as
used in the QDP-JIT/PTX library and thus eliminates the requirement to
copy the spinor, gauge and clover fields to the CPU memory and
changing the data layout prior to calling the solvers."

Two modes are modeled:

* ``device_interface=True`` (the QDP-JIT+QUDA configuration): fields
  are handed over in place; no transfer is charged.
* ``device_interface=False`` (the CPU+QUDA configuration): every solve
  pays a layout-change + PCIe round trip for the gauge field and the
  spinors, charged to the context's device clock — the overhead the
  paper identifies as one reason CPU+QUDA scales poorly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..device.memmodel import transfer_time
from ..qcd.wilson import WilsonParams
from ..qdp.fields import LatticeField, multi1d
from .dslash import OptimizedDslash
from .solver import QudaSolveResult, gcr, mixed_precision_cg


@dataclass
class QudaInvertParam:
    """Solve configuration (the mirror of QUDA's QudaInvertParam)."""

    tol: float = 1e-10
    max_iter: int = 2000
    solver: str = "cg"            # "cg" (mixed precision) | "gcr"
    delta: float = 0.1            # reliable-update threshold
    n_krylov: int = 16            # GCR basis size
    device_interface: bool = True


class QudaSolver:
    """Solve M+ M x = b through the QUDA comparator stack.

    The optimized Dslash is the isotropic Wilson hopping term, so
    params with an anisotropy or a clover term are rejected rather
    than solved as the isotropic Wilson operator.
    """

    def __init__(self, u: multi1d, params: WilsonParams,
                 invert: QudaInvertParam | None = None):
        if params.anisotropy is not None or params.clover_coeff is not None:
            raise ValueError(
                "QudaSolver models the isotropic Wilson operator only; "
                f"got anisotropy={params.anisotropy!r}, "
                f"clover_coeff={params.clover_coeff!r}")
        self.u = u
        self.params = params
        self.invert = invert or QudaInvertParam()
        self._dslash = OptimizedDslash(u)
        self.transfer_seconds_charged = 0.0

    def _charge_interface_overhead(self, *fields: LatticeField) -> None:
        """Charge layout-change + PCIe traffic for the non-device path."""
        if self.invert.device_interface:
            return
        ctx = self.u[0].context
        nbytes = sum(f.nbytes for f in self.u) + sum(
            f.nbytes for f in fields)
        t = 2 * transfer_time(ctx.device.spec, nbytes)   # in and out
        ctx.device.charge_interface_transfer(t, name="quda_layout_xfer")
        self.transfer_seconds_charged += t

    def _mdagm(self, psi: np.ndarray, sp: bool = False) -> np.ndarray:
        """M+ M psi; ``sp``: in single precision (complex64 spinors
        and links), the inner solve of :func:`mixed_precision_cg`."""
        kappa = self.params.kappa
        d = self._dslash
        if sp:
            psi = psi.astype(np.complex64, copy=False)
        m = psi - kappa * d.apply(psi, +1)
        return m - kappa * d.apply(m, -1)

    def solve(self, x: LatticeField, b: LatticeField) -> QudaSolveResult:
        """x = (M+ M)^{-1} b; returns the QUDA-side solve result."""
        self._dslash.refresh_gauge(self.u)
        self._charge_interface_overhead(x, b)
        b_arr = b.to_numpy()
        inv = self.invert
        if inv.solver == "cg":
            sol, res = mixed_precision_cg(
                lambda v: self._mdagm(v),
                lambda v: self._mdagm(v, sp=True),
                b_arr, tol=inv.tol, max_iter=inv.max_iter, delta=inv.delta)
        elif inv.solver == "gcr":
            sol, res = gcr(lambda v: self._mdagm(v), b_arr, tol=inv.tol,
                           max_iter=inv.max_iter, n_krylov=inv.n_krylov)
        else:
            raise ValueError(f"unknown solver {inv.solver!r}")
        x.from_numpy(sol)
        return res
