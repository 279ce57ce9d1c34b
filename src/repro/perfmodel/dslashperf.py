"""Figure 6: Dslash with/without comm-compute overlap, 2 GPUs.

The model reproduces the schedule of
:class:`repro.comm.overlap.DistributedWilsonDslash` analytically:
the kernel components' per-site costs come from the *actually
generated* expression kernels (verified bit-exact in the integration
tests at small volumes), and the component times for any volume come
from the device bandwidth model plus the interconnect model — the
same extrapolation a performance engineer would do, with every
constant tied to a measured or documented quantity.

Setup as in the paper (Sec. VIII-C): two K20m GPUs (ECC on) in two
12k nodes, MVAPICH2 with CUDA-aware MPI, lattice split in the time
direction, V = L^4 global.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..comm.netmodel import IB_QDR_CUDA_AWARE, NetworkModel
from ..comm.overlap import DslashTiming
from ..core.context import Context
from ..device.memmodel import kernel_cost
from ..device.specs import DeviceSpec, K20M_ECC_ON
from ..qdp.fields import latt_color_matrix, latt_fermion
from ..qdp.lattice import Lattice


@dataclass(frozen=True)
class DslashKernelStats:
    """Per-site costs of the four kernel families in the schedule."""

    # adj(u)*psi temporaries
    prep_bytes: int
    prep_flops: int
    prep_regs: int
    # shift interior fill (gather copy of a fermion)
    fill_bytes: int
    fill_regs: int
    # the main 8-term accumulation kernel
    main_bytes: int
    main_flops: int
    main_regs: int
    # face gather/scatter copies (per word moved, fermion)
    face_words: int


def measure_dslash_kernels(precision: str) -> DslashKernelStats:
    """Generate the schedule's kernels once and read their metadata."""
    from ..core.expr import adj, shift
    from ..qcd.gamma import projector_const

    ctx = Context(autotune=False)
    lattice = Lattice((4, 4, 4, 4))
    u = [latt_color_matrix(lattice, precision, ctx) for _ in range(4)]
    psi = latt_fermion(lattice, precision, ctx)
    tb = latt_fermion(lattice, precision, ctx)
    hf = [latt_fermion(lattice, precision, ctx) for _ in range(4)]
    hb = [latt_fermion(lattice, precision, ctx) for _ in range(4)]
    dest = latt_fermion(lattice, precision, ctx)

    def last_entry():
        ctx.flush()     # force the deferred launch so the module exists
        return list(ctx.module_cache.values())[-1]

    tb.assign(adj(u[0]) * psi)
    prep = last_entry()

    hf[0].assign(shift(psi.ref(), +1, 0), subset=lattice.even)
    fill = last_entry()

    total = None
    for mu in range(4):
        term = (projector_const(mu, +1, precision)
                * (u[mu] * hf[mu]) + projector_const(mu, -1, precision)
                * hb[mu].ref())
        total = term if total is None else total + term
    dest.assign(total)
    main = last_entry()

    return DslashKernelStats(
        prep_bytes=prep.module.info.bytes_per_site,
        prep_flops=prep.module.info.flops_per_site,
        prep_regs=prep.compiled.regs_per_thread,
        fill_bytes=fill.module.info.bytes_per_site,
        fill_regs=fill.compiled.regs_per_thread,
        main_bytes=main.module.info.bytes_per_site,
        main_flops=main.module.info.flops_per_site,
        main_regs=main.compiled.regs_per_thread,
        face_words=24,
    )


#: Effective-traffic factor of the generated Dslash kernels: on real
#: Kepler the L2/read-only caches capture part of the 8-fold reuse of
#: neighbor spinors and the shared gauge links, so the sustained
#: traffic is well below the naive per-kernel byte count.  Calibrated
#: to the paper's measured 197 GFLOPS (SP, 40^4) / 90 GFLOPS (DP,
#: 32^4) for the generated implementation (Sec. VIII-C).
QDPJIT_CACHE_REUSE = {"f32": 0.44, "f64": 0.485}


def model_dslash_timing(l: int, precision: str, overlap: bool,
                        stats: DslashKernelStats | None = None,
                        spec: DeviceSpec = K20M_ECC_ON,
                        net: NetworkModel = IB_QDR_CUDA_AWARE,
                        n_ranks: int = 2) -> DslashTiming:
    """Modeled distributed-Dslash timing at global volume L^4."""
    if stats is None:
        stats = measure_dslash_kernels(precision)
    reuse = QDPJIT_CACHE_REUSE[precision]
    stats = DslashKernelStats(
        prep_bytes=int(stats.prep_bytes * reuse),
        prep_flops=stats.prep_flops, prep_regs=stats.prep_regs,
        fill_bytes=int(stats.fill_bytes * reuse),
        fill_regs=stats.fill_regs,
        main_bytes=int(stats.main_bytes * reuse),
        main_flops=stats.main_flops, main_regs=stats.main_regs,
        face_words=stats.face_words)
    word = 4 if precision == "f32" else 8
    v_local = l ** 4 // n_ranks
    # local dims (l, l, l, l/n): faces in the split direction only
    face = l ** 3
    nd = 4

    def kcost(nsites, bytes_per_site, flops_per_site, regs):
        return kernel_cost(spec, nsites=nsites, block_size=128,
                           regs_per_thread=regs,
                           bytes_per_site=bytes_per_site,
                           flops_per_site=flops_per_site,
                           precision=precision).time_s

    # 1. four adj(u)*psi temporaries over the full local volume
    prepare = nd * kcost(v_local, stats.prep_bytes, stats.prep_flops,
                         stats.prep_regs)
    # 2. gathers: only the split direction crosses ranks, but the
    #    schedule gathers all 8 faces (periodic wrap shares the path);
    #    intra-GPU "messages" for unsplit directions are pool copies
    #    modeled at device bandwidth (they are cheap), the split
    #    direction pays the network.
    gbytes = stats.face_words * word * face
    gather = 8 * kcost(face, stats.face_words * word * 2, 0, 16)
    # the fwd and bwd halo messages travel in opposite directions on a
    # full-duplex link and pipeline: one exposed message time
    comm = net.message_time(gbytes)
    # unsplit-direction wraps: device-internal copies
    comm_local = 6 * (gbytes / (spec.max_bandwidth_fraction
                                * spec.peak_bandwidth))
    comm += comm_local
    # 3. interior fills: 8 shifted temporaries, (V - face) sites each
    interior_fill = 8 * kcost(v_local - face, stats.fill_bytes, 0,
                              stats.fill_regs)
    # 4. scatters
    scatter = 8 * kcost(face, stats.face_words * word * 2, 0, 16)
    # 5. main kernel
    n_boundary = min(v_local, 8 * face)
    n_inner = max(v_local - n_boundary, 0)
    if overlap:
        main_inner = kcost(n_inner, stats.main_bytes, stats.main_flops,
                           stats.main_regs)
        main_face = kcost(n_boundary, stats.main_bytes, stats.main_flops,
                          stats.main_regs)
    else:
        main_inner = kcost(v_local, stats.main_bytes, stats.main_flops,
                           stats.main_regs)
        main_face = 0.0
    # lay the schedule out on a stream runtime: the reported total is
    # the event-ordered makespan, and the timeline can be exported as
    # a Chrome trace
    from ..runtime.stream import StreamRuntime

    rt = StreamRuntime()
    c, m = rt.compute, rt.comm
    c.enqueue("prepare", prepare, "kernel")
    c.enqueue("gather", gather, "gather")
    m.wait_event(c.record_event())
    m.enqueue("halo", comm, "comm", args={"bytes": gbytes})
    comm_ev = m.record_event()
    if overlap:
        c.enqueue("interior_fill", interior_fill, "kernel")
        c.enqueue("main_inner", main_inner, "kernel")
        c.wait_event(comm_ev)           # halo must land before scatter
        c.enqueue("scatter", scatter, "scatter")
        c.enqueue("main_face", main_face, "kernel")
    else:
        c.wait_event(comm_ev)           # sequential: idle until it lands
        c.enqueue("interior_fill", interior_fill, "kernel")
        c.enqueue("scatter", scatter, "scatter")
        c.enqueue("main_full", main_inner, "kernel")
    return DslashTiming(prepare_s=prepare, gather_s=gather, comm_s=comm,
                        interior_fill_s=interior_fill, scatter_s=scatter,
                        main_inner_s=main_inner, main_face_s=main_face,
                        overlap=overlap, total_s=rt.synchronize(),
                        timeline=rt.timeline)


def figure_6(ls=None, stats_sp=None, stats_dp=None
             ) -> dict[str, list[tuple[int, float]]]:
    """The four curves of Fig. 6: (L, GFLOPS) for SP/DP x on/off."""
    if ls is None:
        ls = [8, 12, 16, 20, 24, 28, 32, 36, 40]
    stats_sp = stats_sp or measure_dslash_kernels("f32")
    stats_dp = stats_dp or measure_dslash_kernels("f64")
    out = {"sp_overlap": [], "sp_nooverlap": [],
           "dp_overlap": [], "dp_nooverlap": []}
    for l in ls:
        v = l ** 4
        for prec, stats in (("sp", stats_sp), ("dp", stats_dp)):
            fp = "f32" if prec == "sp" else "f64"
            for ov in (True, False):
                t = model_dslash_timing(l, fp, ov, stats)
                key = f"{prec}_{'overlap' if ov else 'nooverlap'}"
                out[key].append((l, t.gflops(v)))
    return out
