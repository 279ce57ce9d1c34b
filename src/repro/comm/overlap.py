"""Overlapping MPI communication and computation (paper Sec. V).

For an expression with shift operations the local sub-grid is
partitioned into *inner sites* and *face sites*.  Face data is
gathered into contiguous GPU buffers and sent; while it is in flight,
the compute kernel runs on the inner sites; once the halo lands, the
remaining sites are evaluated.  This module implements that schedule
for the Wilson Dslash — the paper's Fig. 6 benchmark — with overlap
switchable on/off, producing *identical field values* either way (the
integration tests assert bit-level agreement) but different modeled
times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.expr import adj
from ..qdp.lattice import Subset
from ..qdp.typesys import fermion
from .vm import DistributedField, VirtualMachine
from ..qcd.gamma import projector_const
from ..qcd.dslash import DSLASH_FLOPS_PER_SITE


@dataclass
class DslashTiming:
    """Modeled wall-clock breakdown of one distributed Dslash."""

    prepare_s: float       # backward-hop temporaries adj(u)*psi
    gather_s: float
    comm_s: float
    interior_fill_s: float
    scatter_s: float
    main_inner_s: float
    main_face_s: float
    overlap: bool
    #: the total: makespan of this apply's window on the
    #: stream-runtime timeline (event-ordered lanes)
    total_s: float
    #: the window's spans (a :class:`repro.runtime.Timeline` view),
    #: exportable with :func:`repro.runtime.write_chrome_trace`
    timeline: object = field(default=None, repr=False, compare=False)

    @property
    def serial_s(self) -> float:
        """The no-overlap serial sum of every component."""
        return (self.prepare_s + self.gather_s + self.comm_s
                + self.interior_fill_s + self.scatter_s
                + self.main_inner_s + self.main_face_s)

    def gflops(self, global_volume: int) -> float:
        return DSLASH_FLOPS_PER_SITE * global_volume / self.total_s / 1e9


class DistributedWilsonDslash:
    """The Wilson hopping term on a virtual parallel machine.

    Built from the high-level domain abstractions, exactly as the
    paper stresses (Sec. VIII-C): the per-rank kernels come from the
    same expression code generators as the single-GPU path; this class
    only adds the halo schedule.
    """

    def __init__(self, vm: VirtualMachine, u: list[DistributedField],
                 precision: str = "f64"):
        self.vm = vm
        self.u = u
        self.precision = precision
        nd = vm.local_lattice.nd
        fspec = fermion(precision)
        # persistent shifted-neighbor temporaries, one per direction
        self.hf = [vm.field(fspec, f"hopf{mu}") for mu in range(nd)]
        self.hb = [vm.field(fspec, f"hopb{mu}") for mu in range(nd)]
        self.tb = [vm.field(fspec, f"tb{mu}") for mu in range(nd)]
        self._boundary: Subset | None = None
        self._interior: Subset | None = None
        if vm.resilience is not None:
            # a shrink changes the local geometry under our feet: the
            # cached inner/face partition must be recomputed
            vm.resilience.on_shrink(self._invalidate_partition)

    def _invalidate_partition(self, vm) -> None:
        self._interior = None
        self._boundary = None

    # -- site partition (inner vs face, paper Sec. V) -------------------

    def _partition(self) -> tuple[Subset, Subset]:
        if self._interior is None:
            local = self.vm.local_lattice
            dirs = [(mu, s) for mu in range(local.nd) for s in (+1, -1)]
            inner = local.inner_sites(dirs)
            import numpy as np

            mask = np.ones(local.nsites, dtype=bool)
            mask[inner] = False
            face = np.nonzero(mask)[0].astype(np.int32)
            self._interior = Subset("dslash_inner", inner)
            self._boundary = Subset("dslash_face", face)
        return self._interior, self._boundary

    def _main_expr(self, rank: int, sign: int = +1):
        total = None
        nd = self.vm.local_lattice.nd
        for mu in range(nd):
            p_minus = projector_const(mu, +sign, self.precision)
            p_plus = projector_const(mu, -sign, self.precision)
            fwd = p_minus * (self.u[mu].shards[rank]
                             * self.hf[mu].shards[rank])
            bwd = p_plus * self.hb[mu].shards[rank].ref()
            term = fwd + bwd
            total = term if total is None else total + term
        return total

    def apply(self, dest: DistributedField, psi: DistributedField,
              overlap: bool = True, sign: int = +1) -> DslashTiming:
        """dest = D psi, returning the modeled timing breakdown."""
        vm = self.vm
        nd = vm.local_lattice.nd
        # window this apply on the VM timeline: the makespan between
        # the two synchronization points is the overlapped total
        t_begin = vm.runtime.synchronize()

        # 1. backward-hop temporaries t_mu = adj(u_mu) * psi (local)
        prepare = 0.0
        for mu in range(nd):
            prepare += vm.assign_local(
                self.tb[mu],
                lambda r, m=mu: adj(self.u[m].shards[r]) * psi.shards[r])

        # 2. gather faces + launch all sends
        exchanges = []
        gather = 0.0
        comm = 0.0
        for mu in range(nd):
            # non-overlap mode runs the textbook sequential schedule:
            # every send completes before anything else is enqueued
            ex_f = vm.exchange(psi, mu, +1, blocking=not overlap)
            ex_b = vm.exchange(self.tb[mu], mu, -1, blocking=not overlap)
            exchanges.append((mu, ex_f, ex_b))
            gather += ex_f.gather_time + ex_b.gather_time
            comm += ex_f.comm_time + ex_b.comm_time

        # 3. interior fills of the shifted temporaries (overlappable)
        interior_fill = 0.0
        for mu in range(nd):
            interior_fill += vm.fill_shift_interior(self.hf[mu], psi, mu, +1)
            interior_fill += vm.fill_shift_interior(self.hb[mu],
                                                    self.tb[mu], mu, -1)

        inner, face = self._partition()
        main_inner = 0.0
        main_face = 0.0
        if overlap:
            # 4a. main kernel on inner sites while the halo flies
            main_inner = vm.assign_local(
                dest, lambda r: self._main_expr(r, sign), subset=inner)
            # 5. halo lands: scatter, then finish the face sites
            scatter = 0.0
            for mu, ex_f, ex_b in exchanges:
                scatter += vm.scatter_halo(self.hf[mu], ex_f)
                scatter += vm.scatter_halo(self.hb[mu], ex_b)
            main_face = vm.assign_local(
                dest, lambda r: self._main_expr(r, sign), subset=face)
        else:
            # sequential: wait for the halo, then one full-volume kernel
            scatter = 0.0
            for mu, ex_f, ex_b in exchanges:
                scatter += vm.scatter_halo(self.hf[mu], ex_f)
                scatter += vm.scatter_halo(self.hb[mu], ex_b)
            main_inner = vm.assign_local(
                dest, lambda r: self._main_expr(r, sign))

        total = vm.runtime.synchronize() - t_begin
        return DslashTiming(
            prepare_s=prepare, gather_s=gather, comm_s=comm,
            interior_fill_s=interior_fill, scatter_s=scatter,
            main_inner_s=main_inner, main_face_s=main_face,
            overlap=overlap, total_s=total,
            timeline=vm.timeline.since(t_begin))
