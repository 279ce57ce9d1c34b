"""The QUDA comparator: a separately implemented, hand-optimized
Wilson Dslash.

The paper benchmarks its generated Dslash against the QUDA library's
hand-tuned implementation (Sec. VIII-C): QUDA reaches 346 GFLOPS (SP,
V=40^4) / 171 GFLOPS (DP, 32^4) on the same hardware where the
generated code reaches 197 / 90 — a 1.76x / 1.9x "headroom" for hand
tuning.

Two things live here:

1. A *functional* optimized Dslash (`OptimizedDslash`): a direct
   implementation using the spin-projection trick (project to
   half-spinors before the color multiply, reconstruct after), exactly
   the optimization hand-written kernels apply, in double or single
   precision.  It is cross-validated
   against the expression-generated Dslash in the tests — an
   independent implementation agreeing to machine precision.
2. A *performance model* (`quda_dslash_gflops`) for the tuned GPU
   kernel, expressed through the same bandwidth model as the rest of
   the framework but with the reduced memory traffic that spin
   projection + texture/read-only-cache reuse give a hand kernel.
"""

from __future__ import annotations

import numpy as np

from ..device.memmodel import kernel_cost
from ..device.specs import DeviceSpec
from ..qcd.dslash import DSLASH_FLOPS_PER_SITE
from ..qcd.halfspinor import projection_matrices
from ..qdp.fields import multi1d
from ..qdp.lattice import Lattice


class OptimizedDslash:
    """Hand-optimized Wilson hopping term (the QUDA algorithm).

    Uses the spin-projector rank-2 structure: ``(1 -/+ gamma_mu)`` has
    rank 2, so each hop compresses the spinor to two spin rows
    (``projection_matrices``' ``T``), multiplies the link onto those
    two and reconstructs four (``R``) — the optimization that QUDA's
    hand kernels (and their flop count of 1320/site) are built around.
    A complex64 spinor is applied in single precision throughout:
    complex64 links (cast in :meth:`refresh_gauge`) and projectors.
    """

    def __init__(self, u: multi1d):
        self.lattice: Lattice = u[0].lattice
        self._tf = [self.lattice.shift_map(mu, +1)
                    for mu in range(self.lattice.nd)]
        self._tb = [self.lattice.shift_map(mu, -1)
                    for mu in range(self.lattice.nd)]
        self.refresh_gauge(u)

    def refresh_gauge(self, u: multi1d) -> None:
        """Re-read the gauge field (after an HMC link update), keeping
        a complex64 copy for single-precision applies."""
        self.u = [f.to_numpy() for f in u]
        self.u_sp = [x.astype(np.complex64) for x in self.u]

    def apply(self, psi: np.ndarray, sign: int = +1) -> np.ndarray:
        """D psi for a (nsites, 4, 3) spinor batch; returns a new array
        of ``psi``'s dtype (complex64 or complex128)."""
        sp = psi.dtype == np.complex64
        out = np.zeros_like(psi)
        for mu in range(self.lattice.nd):
            u = (self.u_sp if sp else self.u)[mu]
            tf, rf = (m.astype(psi.dtype)
                      for m in projection_matrices(mu, +sign))
            tb, rb = (m.astype(psi.dtype)
                      for m in projection_matrices(mu, -sign))
            # forward hop: R U_mu(x) T psi(x+mu)
            h = np.einsum("st,ntc->nsc", tf, psi[self._tf[mu]])
            out += np.einsum("st,ntc->nsc", rf,
                             np.einsum("ncd,nsd->nsc", u, h))
            # backward hop: R U+_mu(x-mu) T psi(x-mu), the link applied
            # at the sending site
            h = np.einsum("st,ntc->nsc", tb, psi)
            g = np.einsum("ndc,nsd->nsc", u.conj(), h)
            out += np.einsum("st,ntc->nsc", rb, g[self._tb[mu]])
        return out


def quda_dslash_bytes_per_site(precision: str,
                               gauge_compression: int = 18) -> int:
    """Memory traffic per site of the tuned kernel.

    Spin projection halves the neighbor-spinor traffic (half spinors:
    12 words instead of 24); the read-only data cache gives additional
    reuse on the gauge field, modeled as an effective traffic factor.
    ``gauge_compression`` is 18 (uncompressed, as in the paper's
    comparison), 12 or 8 reals per link.
    """
    word = 4 if precision == "f32" else 8
    halfspinor_words = 12
    spinor_words = 24
    # 8 neighbor half-spinors + 8 gauge links + 1 spinor out
    words = 8 * halfspinor_words + 8 * gauge_compression + spinor_words
    return words * word


#: Effective cache-reuse factor of the hand kernel (texture/read-only
#: path): calibrated so the model lands on the paper's measured 346
#: GFLOPS (SP, 40^4) / 171 GFLOPS (DP, 32^4) on the K20m (ECC on).
QUDA_CACHE_REUSE = {"f32": 0.4745, "f64": 0.4805}


def quda_dslash_gflops(spec: DeviceSpec, volume: int, precision: str,
                       gauge_compression: int = 18) -> float:
    """Modeled tuned-Dslash performance on one GPU."""
    bytes_per_site = int(quda_dslash_bytes_per_site(
        precision, gauge_compression) * QUDA_CACHE_REUSE[precision])
    cost = kernel_cost(spec, nsites=volume, block_size=128,
                       regs_per_thread=64, bytes_per_site=bytes_per_site,
                       flops_per_site=DSLASH_FLOPS_PER_SITE,
                       precision=precision)
    return cost.gflops
