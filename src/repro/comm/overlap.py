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

Each term is :func:`repro.qcd.dslash.hop` of a forward and a backward
half spinor, so the result is the single-rank operator's bit for bit.
Only the directions the processor grid splits take the halo path
(gather, message, interior fill, scatter), and a face carries the
12-word half spinor: the reconstruct is local.  Along an unsplit
direction the main kernel reads the on-rank neighbour through the
local shift table, with no message from a rank to itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.expr import shift
from ..qdp.lattice import Subset
from ..qcd.dslash import (DSLASH_FLOPS_PER_SITE, backward_half,
                          forward_half, hop)
from ..qcd.halfspinor import half_fermion
from .vm import DistributedField, VirtualMachine


@dataclass
class DslashTiming:
    """Modeled wall-clock breakdown of one distributed Dslash."""

    prepare_s: float       # the half-spinor temporaries tb, tf
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
    only adds the halo schedule, and only for the directions the
    processor grid splits (:attr:`ProcessorGrid.split_dims`).
    """

    def __init__(self, vm: VirtualMachine, u: list[DistributedField],
                 precision: str = "f64"):
        self.vm = vm
        self.u = u
        nd = vm.local_lattice.nd
        hspec = half_fermion(precision)
        # 12-word temporaries: every direction's backward half spinor;
        # per split direction, the forward one it sends and both halos
        split = sorted(vm.grid.split_dims)
        self.tf = {mu: vm.field(hspec, f"tf{mu}") for mu in split}
        self.hf = {mu: vm.field(hspec, f"hopf{mu}") for mu in split}
        self.hb = {mu: vm.field(hspec, f"hopb{mu}") for mu in split}
        self.tb = [vm.field(hspec, f"tb{mu}") for mu in range(nd)]
        self._boundary: Subset | None = None
        self._interior: Subset | None = None

    # -- site partition (inner vs face, paper Sec. V) -------------------

    def _partition(self) -> tuple[Subset, Subset]:
        if self._interior is None:
            local = self.vm.local_lattice
            dirs = [(mu, s) for mu in range(local.nd) for s in (+1, -1)]
            inner = local.inner_sites(dirs)
            mask = np.ones(local.nsites, dtype=bool)
            mask[inner] = False
            face = np.nonzero(mask)[0].astype(np.int32)
            self._interior = Subset("dslash_inner", inner)
            self._boundary = Subset("dslash_face", face)
        return self._interior, self._boundary

    def _main_expr(self, rank: int, psi: DistributedField,
                   split: frozenset[int], sign: int = +1):
        total = None
        for mu in range(self.vm.local_lattice.nd):
            if mu in split:
                fwd = self.hf[mu].shards[rank]
                bwd = self.hb[mu].shards[rank]
            else:
                # the neighbour is on-rank: read it through the shift
                fwd = forward_half(shift(psi.shards[rank], +1, mu), mu, sign)
                bwd = shift(self.tb[mu].shards[rank].ref(), -1, mu)
            term = hop(self.u[mu].shards[rank], fwd, bwd, mu, sign)
            total = term if total is None else total + term
        return total

    def apply(self, dest: DistributedField, psi: DistributedField,
              overlap: bool = True, sign: int = +1) -> DslashTiming:
        """dest = D psi, returning the modeled timing breakdown."""
        if dest is psi:
            # the main kernel reads psi's on-rank neighbours directly;
            # the inner-site pass would overwrite what the face pass reads
            raise ValueError("DistributedWilsonDslash.apply: dest must "
                             "not be psi")
        vm = self.vm
        nd = vm.local_lattice.nd
        split = vm.grid.split_dims
        # window this apply on the VM timeline: the makespan between
        # the two synchronization points is the overlapped total
        t_begin = vm.runtime.synchronize()

        # 1. half-spinor temporaries (local): tb_mu, and tf_mu to send
        prepare = 0.0
        for mu in range(nd):
            prepare += vm.assign_local(
                self.tb[mu], lambda r, m=mu: backward_half(
                    self.u[m].shards[r], psi.shards[r], m, sign))
        for mu in sorted(split):
            prepare += vm.assign_local(
                self.tf[mu], lambda r, m=mu: forward_half(
                    psi.shards[r], m, sign))

        # 2. gather faces + launch all sends (split directions only)
        exchanges = []
        gather = 0.0
        comm = 0.0
        for mu in sorted(split):
            # non-overlap mode runs the textbook sequential schedule:
            # every send completes before anything else is enqueued
            ex_f = vm.exchange(self.tf[mu], mu, +1, blocking=not overlap)
            ex_b = vm.exchange(self.tb[mu], mu, -1, blocking=not overlap)
            exchanges.append((mu, ex_f, ex_b))
            gather += ex_f.gather_time + ex_b.gather_time
            comm += ex_f.comm_time + ex_b.comm_time

        # 3. interior fills of the shifted temporaries (overlappable)
        interior_fill = 0.0
        for mu, _, _ in exchanges:
            interior_fill += vm.fill_shift_interior(self.hf[mu],
                                                    self.tf[mu], mu, +1)
            interior_fill += vm.fill_shift_interior(self.hb[mu],
                                                    self.tb[mu], mu, -1)

        def main(r):
            return self._main_expr(r, psi, split, sign)

        inner, face = self._partition()
        main_inner = main_face = scatter = 0.0
        if overlap:
            # 4. main kernel on inner sites while the halo flies
            main_inner = vm.assign_local(dest, main, subset=inner)
        # 5. halo lands: scatter, then finish the face sites (or, in
        # the sequential schedule, run one full-volume kernel)
        for mu, ex_f, ex_b in exchanges:
            scatter += vm.scatter_halo(self.hf[mu], ex_f)
            scatter += vm.scatter_halo(self.hb[mu], ex_b)
        if overlap:
            main_face = vm.assign_local(dest, main, subset=face)
        else:
            main_inner = vm.assign_local(dest, main)

        total = vm.runtime.synchronize() - t_begin
        return DslashTiming(
            prepare_s=prepare, gather_s=gather, comm_s=comm,
            interior_fill_s=interior_fill, scatter_s=scatter,
            main_inner_s=main_inner, main_face_s=main_face,
            overlap=overlap, total_s=total,
            timeline=vm.timeline.since(t_begin))
