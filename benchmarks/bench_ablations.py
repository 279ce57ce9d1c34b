"""Ablations of the paper's design choices.

Each ablation removes one optimization the paper describes and
measures the modeled impact:

* auto-tuning OFF (fixed small blocks) vs ON — paper Sec. VII;
* CUDA-aware MPI vs staging through host memory — paper Sec. V;
* the QDP-JIT+QUDA zero-copy device interface vs the CPU+QUDA
  copy/re-layout path — paper Sec. VIII-D;
* QUDA gauge compression (18 vs 12 vs 8 reals) — paper Sec. VIII-C.
"""

import numpy as np

from repro.comm.netmodel import IB_QDR_CUDA_AWARE, IB_QDR_STAGED
from repro.core.context import Context
from repro.device import K20M_ECC_ON
from repro.perfmodel.dslashperf import measure_dslash_kernels, model_dslash_timing
from repro.qdp.fields import latt_fermion
from repro.qdp.lattice import Lattice
from repro.quda import quda_dslash_gflops

from _util import header, report, table


def test_ablation_autotune(benchmark):
    """Fixed tiny blocks lose bandwidth; the tuner recovers it."""
    lat = Lattice((16, 16, 16, 16))
    rng = np.random.default_rng(0)

    def run(autotune, block):
        ctx = Context(autotune=autotune, default_block_size=block)
        a = latt_fermion(lat, context=ctx)
        a.gaussian(rng)
        b = latt_fermion(lat, context=ctx)
        for _ in range(8):
            b.assign(2.0 * a)
        return ctx.device.stats.modeled_kernel_time_s

    tuned = benchmark.pedantic(lambda: run(True, 128), rounds=1,
                               iterations=1)
    fixed32 = run(False, 32)
    header("Ablation: auto-tuning (paper Sec. VII)")
    report(f"8 launches, tuned:          {tuned * 1e6:8.1f} us",
           f"8 launches, fixed block 32: {fixed32 * 1e6:8.1f} us",
           f"penalty for skipping tuning: "
           f"{(fixed32 / tuned - 1) * 100:.0f}%")
    assert fixed32 > tuned


def test_ablation_cuda_aware_mpi(benchmark):
    """Staging halos through host memory costs PCIe round trips."""
    stats = measure_dslash_kernels("f32")
    l = 32

    def total(net):
        # non-overlapped: the comm cost is exposed, which is exactly
        # what makes the staging penalty visible
        return model_dslash_timing(l, "f32", False, stats,
                                   net=net).total_s

    aware = benchmark(lambda: total(IB_QDR_CUDA_AWARE))
    staged = total(IB_QDR_STAGED)
    header("Ablation: CUDA-aware MPI (paper Sec. V)")
    report(f"Dslash 32^4, CUDA-aware: {aware * 1e3:7.3f} ms",
           f"Dslash 32^4, staged:     {staged * 1e3:7.3f} ms",
           f"staging penalty: {(staged / aware - 1) * 100:.1f}%")
    assert staged > aware


def test_ablation_device_interface(benchmark):
    """The CPU+QUDA interface overhead vs the zero-copy path."""
    from repro.perfmodel.hmcperf import (
        PRODUCTION_WORKLOAD,
        _interface_overhead,
    )
    from repro.perfmodel.machines import BLUEWATERS_XK

    header("Ablation: QUDA device interface (paper Sec. VIII-D)")
    rows = []
    for p in (128, 256, 512, 800):
        t = benchmark.pedantic(
            _interface_overhead, args=(PRODUCTION_WORKLOAD, p,
                                       BLUEWATERS_XK),
            rounds=1, iterations=1) if p == 128 else _interface_overhead(
                PRODUCTION_WORKLOAD, p, BLUEWATERS_XK)
        rows.append((p, f"{t:.0f} s"))
    table(rows, ("partition", "copy+re-layout per trajectory"))
    report("the QDP-JIT+QUDA configuration eliminates this entirely")
    assert _interface_overhead(PRODUCTION_WORKLOAD, 128,
                               BLUEWATERS_XK) > 0


def test_ablation_gauge_compression(benchmark):
    """QUDA's 12/8-real gauge reconstruction trades flops for bytes."""
    gf = benchmark(lambda: {c: quda_dslash_gflops(K20M_ECC_ON, 32 ** 4,
                                                  "f32",
                                                  gauge_compression=c)
                            for c in (18, 12, 8)})
    header("Ablation: QUDA gauge compression (paper Sec. VIII-C)")
    rows = [(c, f"{g:.0f}") for c, g in gf.items()]
    table(rows, ("reals/link", "GFLOPS (SP, 32^4)"))
    report("the paper's comparison used 18 (uncompressed) for equal "
           "work; compression is QUDA's extra headroom")
    assert gf[8] > gf[12] > gf[18]
