"""Figure 4/5: sustained bandwidth of the generated kernels vs volume.

For each test function of Table II, the kernel is *actually generated*
(expression -> AST -> PTX) on a reference lattice; its measured
bytes-per-site and flops-per-site metadata then drive the device
bandwidth model across the volume sweep V = L^4, L = 2..28.  This is
exactly what the plotted quantity is on real hardware: total bytes
moved divided by kernel time.

The curves for the five different kernels nearly coincide — paper
Sec. VIII-B: "the performance of our generated code depends very
little on the actual function which it implements" — because the
sustained bandwidth is a property of the launch geometry, not of the
unrolled arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.context import Context
from ..device.memmodel import kernel_cost
from ..device.specs import DeviceSpec, K20X_ECC_OFF
from ..qdp.fields import (
    latt_color_matrix,
    latt_fermion,
    latt_spin_matrix,
)
from ..qdp.lattice import Lattice


@dataclass(frozen=True)
class KernelStats:
    """Static per-site cost of one generated kernel.

    ``transactions_per_warp`` / ``ideal_transactions_per_warp`` come
    from the abstract-interpretation coalescing analysis
    (:mod:`repro.ptx.absint`): estimated vs stride-1 memory
    transactions a warp issues across all global accesses.
    """

    name: str
    flops_per_site: int
    bytes_per_site: int
    regs_per_thread: int
    transactions_per_warp: float = 0.0
    ideal_transactions_per_warp: float = 0.0

    @property
    def flop_per_byte(self) -> float:
        return self.flops_per_site / self.bytes_per_site

    @property
    def mem_efficiency(self) -> float:
        """Fraction of streaming bandwidth the access pattern can use
        (1.0 when every access is coalesced — the SoA layout)."""
        if self.transactions_per_warp <= 0.0:
            return 1.0
        return (self.ideal_transactions_per_warp
                / self.transactions_per_warp)


def _clover_expr(lattice, precision, ctx, rng):
    from ..qcd.clover import CloverTerm
    from ..qcd.gauge import unit_gauge

    u = unit_gauge(lattice, precision, ctx)
    a = CloverTerm(u, coeff=0.1, precision=precision)
    psi = latt_fermion(lattice, precision, ctx)
    return a.apply_expr(psi)


def generate_test_kernels(precision: str = "f64",
                          spec: DeviceSpec = K20X_ECC_OFF
                          ) -> dict[str, KernelStats]:
    """Generate the five Table II kernels; return their static costs.

    Uses a small reference lattice — the kernels are volume-parametric
    so the metadata is exact for any V.
    """
    import numpy as np

    ctx = Context(spec, autotune=False)
    lattice = Lattice((4, 4, 4, 4))
    rng = np.random.default_rng(0)

    u1 = latt_color_matrix(lattice, precision, ctx)
    u2 = latt_color_matrix(lattice, precision, ctx)
    u3 = latt_color_matrix(lattice, precision, ctx)
    psi1 = latt_fermion(lattice, precision, ctx)
    psi2 = latt_fermion(lattice, precision, ctx)
    g2 = latt_spin_matrix(lattice, precision, ctx)
    g3 = latt_spin_matrix(lattice, precision, ctx)

    cases = {
        "lcm": (latt_color_matrix(lattice, precision, ctx), u2 * u3),
        "upsi": (latt_fermion(lattice, precision, ctx), u1 * psi2),
        "spmat": (latt_spin_matrix(lattice, precision, ctx), g2 * g3),
        "matvec": (latt_fermion(lattice, precision, ctx),
                   u1 * psi1 + u1 * psi2),
        "clover": (latt_fermion(lattice, precision, ctx),
                   _clover_expr(lattice, precision, ctx, rng)),
    }
    from ..ptx.absint import analyze_module

    out = {}
    for name, (dest, expr) in cases.items():
        dest.assign(expr)
        ctx.flush()   # deferred queue: force the launch (and compile) now
        # module_cache is insertion ordered: the entry just added by
        # this assignment is the expression kernel we want
        entry = list(ctx.module_cache.values())[-1]
        module, compiled = entry.module, entry.compiled
        analysis = analyze_module(module, env=entry.env)
        out[name] = KernelStats(
            name=name,
            flops_per_site=module.info.flops_per_site,
            bytes_per_site=module.info.bytes_per_site,
            regs_per_thread=compiled.regs_per_thread,
            transactions_per_warp=analysis.transactions_per_warp,
            ideal_transactions_per_warp=(
                analysis.ideal_transactions_per_warp),
        )
    return out


def sustained_bandwidth_curve(stats: KernelStats, ls: list[int],
                              precision: str,
                              spec: DeviceSpec = K20X_ECC_OFF,
                              block_size: int = 128
                              ) -> list[tuple[int, float]]:
    """(L, sustained GB/s) for V = L^4 — one curve of Fig. 4/5.

    The queueing-model bandwidth is scaled by the kernel's statically
    predicted memory efficiency: an uncoalesced access pattern moves
    more transactions per useful byte, cutting the *effective*
    streaming rate proportionally.  The generated SoA kernels are
    fully coalesced (efficiency 1.0), reproducing the paper's curves
    unchanged.
    """
    out = []
    eff = stats.mem_efficiency
    for l in ls:
        v = l ** 4
        cost = kernel_cost(spec, nsites=v, block_size=block_size,
                           regs_per_thread=stats.regs_per_thread,
                           bytes_per_site=stats.bytes_per_site,
                           flops_per_site=stats.flops_per_site,
                           precision=precision)
        out.append((l, cost.sustained_gbs * eff))
    return out


def figure_4_5(precision: str, ls: list[int] | None = None,
               spec: DeviceSpec = K20X_ECC_OFF
               ) -> dict[str, list[tuple[int, float]]]:
    """All five curves of Fig. 4 (f32) or Fig. 5 (f64)."""
    if ls is None:
        ls = list(range(2, 29, 2))
    stats = generate_test_kernels(precision, spec)
    return {name: sustained_bandwidth_curve(s, ls, precision, spec)
            for name, s in stats.items()}
