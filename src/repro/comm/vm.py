"""The virtual parallel machine: P ranks in one process.

Each rank owns a full framework context (simulated GPU, kernel cache,
field cache) and a hypercubic sub-grid of the global lattice.  The VM
executes rank operations round-robin; because ranks are homogeneous
and the workload is bulk-synchronous, the modeled wall-clock of a
collective step is the maximum over ranks of its modeled per-rank
cost, and message transfer times come from the interconnect model.

Data motion is real: halo exchange gathers face sites into contiguous
device buffers with generated kernels (paper Sec. V), moves the bytes
between the ranks' device pools, and scatters them on the receiving
side — so multi-rank results are bit-comparable to single-rank runs,
which the integration tests assert.

Modeled time lands on the VM's own stream runtime
(:mod:`repro.runtime.stream`): collective kernel steps (the max over
ranks) queue on the ``compute`` lane, halo messages and scalar
allreduces on the ``comm`` lane.  A message waits on the event of the
gather that filled its send buffer, and the halo scatter waits on the
message's completion event — so communication genuinely overlaps
whatever compute is enqueued in between, and ``vm.timeline`` reports
the overlapped makespan, per-lane busy time and the critical path
instead of a flat per-component sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.context import Context
from ..core.evaluator import evaluate
from ..core.expr import shift as shift_expr
from ..core.reduction import innerProduct, norm2
from ..device.specs import DeviceSpec, K20X_ECC_OFF
from ..qdp.fields import LatticeField
from ..qdp.lattice import Lattice
from ..qdp.typesys import TypeSpec
from ..runtime.stream import Event, StreamRuntime
from .faces import FaceKernels
from .grid import Decomposition, ProcessorGrid
from .netmodel import IB_QDR_CUDA_AWARE, NetworkModel


class HaloMismatchError(RuntimeError):
    """A halo operation was handed state that does not fit the
    machine.

    Raised by :meth:`VirtualMachine.exchange`/:meth:`scatter_halo`
    when a field belongs to a different VM or an
    :class:`ExchangeResult` no longer matches the machine's geometry
    (e.g. it predates a shrink-and-redistribute recovery).  Carries
    the offending (rank, mu, sign) and renders as a structured
    diagnostic, like the cache's ``NoValidCopyError``.
    """

    def __init__(self, op: str, reason: str, mu: int, sign: int,
                 rank: int | None = None):
        self.op = op
        self.reason = reason
        self.mu = mu
        self.sign = sign
        self.rank = rank
        where = f" on rank {rank}" if rank is not None else ""
        super().__init__(
            f"{op}: {reason} (mu={mu}, sign={sign:+d}{where})")

    @property
    def diagnostic(self):
        from ..diagnostics import Diagnostic, Severity

        where = (f"rank {self.rank}, " if self.rank is not None
                 else "") + f"mu={self.mu}, sign={self.sign:+d}"
        return Diagnostic(
            severity=Severity.ERROR, pass_name="halo-exchange",
            message=self.reason, obj=self.op, location=where)


class DistributedField:
    """A lattice field split over the VM's ranks (one shard each)."""

    def __init__(self, vm: "VirtualMachine", spec: TypeSpec,
                 name: str | None = None):
        self.vm = vm
        self.spec = spec
        self.name = name or "dfield"
        self._reshard()
        if vm.resilience is not None:
            vm.resilience.register(self)

    def _reshard(self) -> None:
        """(Re)build the per-rank shards for the VM's current grid —
        called at construction and after a shrink rebuilt the rank
        map (the old shards' contexts are gone)."""
        vm = self.vm
        self.shards = [LatticeField(vm.local_lattice, self.spec,
                                    context=vm.contexts[r],
                                    name=f"{self.name}@r{r}")
                       for r in range(vm.nranks)]

    def from_global(self, arr: np.ndarray) -> None:
        """Scatter a global (gnsites, *shape) array to the shards."""
        vm = self.vm
        g = vm.global_lattice
        want = (g.nsites,) + self.spec.shape
        if arr.shape != want:
            raise ValueError(f"expected {want}, got {arr.shape}")
        ranks, lidx = vm.decomp.owner_of(g.coords)
        for r in range(vm.nranks):
            sel = ranks == r
            local = np.empty((vm.local_lattice.nsites,) + self.spec.shape,
                             dtype=arr.dtype)
            local[lidx[sel]] = arr[sel]
            self.shards[r].from_numpy(local)

    def to_global(self) -> np.ndarray:
        """Gather the shards into a global array."""
        vm = self.vm
        g = vm.global_lattice
        ranks, lidx = vm.decomp.owner_of(g.coords)
        dtype = (self.spec.complex_dtype if self.spec.is_complex
                 else self.spec.dtype)
        out = np.empty((g.nsites,) + self.spec.shape, dtype=dtype)
        for r in range(vm.nranks):
            sel = ranks == r
            local = self.shards[r].to_numpy()
            out[sel] = local[lidx[sel]]
        return out

    def gaussian(self, rng: np.random.Generator) -> None:
        for s in self.shards:
            s.gaussian(rng)


class VirtualMachine:
    """P simulated ranks over a decomposed global lattice."""

    def __init__(self, global_dims, grid_dims,
                 spec: DeviceSpec = K20X_ECC_OFF,
                 net: NetworkModel = IB_QDR_CUDA_AWARE,
                 pool_capacity: int | None = None,
                 autotune: bool = True,
                 faults=None,
                 resilience=None,
                 recover_policy: str = "buddy"):
        from ..faults.inject import FaultInjector
        from ..faults.plan import active_plan

        self.decomp = Decomposition(tuple(int(d) for d in global_dims),
                                    ProcessorGrid(tuple(int(d)
                                                        for d in grid_dims)))
        self.grid = self.decomp.grid
        self.nranks = self.grid.size
        self.local_lattice = self.decomp.local_lattice()
        self.global_lattice = self.decomp.global_lattice()
        self.net = net
        # one plan shared across every rank (and the halo layer), so
        # a single trace/counter set covers the whole machine
        if faults is None:
            plan = active_plan()
        elif faults is False:
            plan = None
        else:
            plan = faults
        self._plan = plan
        self._ctx_args = dict(spec=spec, pool_capacity=pool_capacity,
                              autotune=autotune)
        self.contexts = [self._make_rank_context()
                         for _ in range(self.nranks)]
        #: halo-layer fault injector (drop/corrupt/timeout recovery);
        #: shares the rank devices' plan
        self.faults = FaultInjector(plan)
        self.face_kernels = [FaceKernels(c) for c in self.contexts]
        #: the VM's stream runtime: the *collective* step timeline
        #: (max-over-ranks costs), distinct from each rank context's
        #: per-device runtime
        self.runtime = StreamRuntime()
        self.timeline = self.runtime.timeline
        # persistent per-(rank, mu, sign) send/recv buffers
        self._buffers: dict[tuple, tuple[int, int]] = {}
        #: rank fault tolerance (``resilience=None`` consults the
        #: REPRO_RESILIENCE knob; ``False``/``"off"`` disables, a mode
        #: string overrides).  ``None`` manager = the off path, which
        #: is bitwise invisible: no hooks run, no state is kept.
        if resilience is None:
            from ..diagnostics import resilience_mode

            mode = resilience_mode()
        elif resilience is False:
            mode = "off"
        else:
            mode = resilience
        if mode == "off":
            self.resilience = None
        else:
            from ..resilience import ResilienceManager

            self.resilience = ResilienceManager(self, mode=mode,
                                                policy=recover_policy)

    # -- construction helpers -------------------------------------------

    def _make_rank_context(self) -> Context:
        """A fresh rank context (also the spare a buddy restore
        targets), sharing the machine-wide fault plan."""
        plan = self._plan
        return Context(self._ctx_args["spec"],
                       pool_capacity=self._ctx_args["pool_capacity"],
                       autotune=self._ctx_args["autotune"],
                       faults=plan if plan is not None else False)

    def _rebuild(self, grid: ProcessorGrid) -> None:
        """Re-host the machine on ``grid`` (shrink recovery): fresh
        decomposition, contexts and face kernels; the old comm
        buffers die with the old device pools.  Field payloads are
        the resilience manager's job — it re-partitions every
        registered field right after this."""
        self.decomp = Decomposition(self.decomp.global_dims, grid)
        self.grid = grid
        self.nranks = grid.size
        self.local_lattice = self.decomp.local_lattice()
        self.contexts = [self._make_rank_context()
                         for _ in range(self.nranks)]
        self.face_kernels = [FaceKernels(c) for c in self.contexts]
        self._buffers.clear()

    def field(self, spec: TypeSpec, name: str | None = None
              ) -> DistributedField:
        return DistributedField(self, spec, name)

    def _buffer(self, rank: int, kind: str, mu: int, sign: int,
                nbytes: int) -> int:
        key = (rank, kind, mu, sign)
        entry = self._buffers.get(key)
        if entry is not None and entry[1] >= nbytes:
            return entry[0]
        if entry is not None:
            self.contexts[rank].device.mem_free(entry[0])
        addr = self.contexts[rank].field_cache._allocate_with_spill(
            nbytes, set())
        self._buffers[key] = (addr, nbytes)
        return addr

    # -- local (comm-free) evaluation --------------------------------------

    def assign_local(self, dest: DistributedField, build_expr,
                     subset=None) -> float:
        """Evaluate a *local* expression on every rank.

        ``build_expr(rank)`` returns the expression for that rank's
        shard (it must not contain boundary-crossing shifts — use
        :meth:`shift_into` for those).  Returns the modeled step time
        (max over ranks) and queues it on the compute lane.
        """
        worst = 0.0
        for r in range(self.nranks):
            cost = evaluate(dest.shards[r], build_expr(r), subset=subset,
                            context=self.contexts[r])
            worst = max(worst, cost.time_s)
        name = f"assign:{dest.name}"
        if subset is not None:
            name += f"[{subset.name}]"
        self.runtime.compute.enqueue(name, worst, "kernel")
        return worst

    # -- reductions --------------------------------------------------------------

    def _allreduce_time(self) -> float:
        """Modeled allreduce of one scalar: a latency-bound tree."""
        import math

        hops = max(1, math.ceil(math.log2(max(self.nranks, 2))))
        return 2 * hops * self.net.latency_s

    def _charge_allreduce(self, name: str) -> None:
        """Queue a scalar allreduce on the comm lane.

        An allreduce is a synchronization point: it consumes per-rank
        partials (wait on compute), and the host blocks on the scalar
        before it can launch anything else (compute waits on comm
        after).  On the timeline it therefore never overlaps — which
        is exactly the latency wall the paper's strong-scaling
        discussion attributes to global sums.
        """
        rt = self.runtime
        rt.comm.wait_event(rt.compute.record_event())
        rt.comm.enqueue(name, self._allreduce_time(), "reduce",
                        args={"ranks": self.nranks})
        rt.compute.wait_event(rt.comm.record_event())

    def norm2(self, x: DistributedField, subset=None) -> float:
        total = 0.0
        for r in range(self.nranks):
            total += norm2(x.shards[r], subset=subset,
                           context=self.contexts[r])
        self._charge_allreduce(f"allreduce:norm2:{x.name}")
        return total

    def innerProduct(self, a: DistributedField, b: DistributedField,
                     subset=None) -> complex:
        total = 0.0 + 0.0j
        for r in range(self.nranks):
            total += innerProduct(a.shards[r], b.shards[r], subset=subset,
                                  context=self.contexts[r])
        self._charge_allreduce(f"allreduce:dot:{a.name}.{b.name}")
        return total

    # -- halo exchange ------------------------------------------------------------

    def exchange(self, src: DistributedField, mu: int, sign: int,
                 run_gather: bool = True,
                 blocking: bool = False) -> "ExchangeResult":
        """Move the halo for ``shift(src, sign, mu)``.

        The receiver of the forward shift needs the sender's lower
        boundary plane: each rank gathers its plane into a contiguous
        device buffer, the buffer moves to the neighbor's recv buffer
        (network model), and the result records the per-rank recv
        buffer addresses plus component times.  Scattering into the
        destination is a separate step (so the overlap scheduler can
        place it after the compute-on-inner-sites kernel).

        On the timeline the gather runs on the compute lane and the
        message on the comm lane, ordered after the gather's event; the
        returned :class:`ExchangeResult` carries the message completion
        event, which :meth:`scatter_halo` makes the compute lane wait
        on.  Compute enqueued between the two genuinely overlaps the
        message.  ``blocking=True`` synchronizes the runtime after the
        send instead — the sequential schedule, where nothing hides
        behind the wire time.
        """
        if src.vm is not self:
            raise HaloMismatchError(
                "exchange", f"field {src.name!r} belongs to a "
                f"different virtual machine", mu, sign)
        tag = f"{mu}{'+' if sign > 0 else '-'}:{src.name}"
        if self.resilience is not None:
            # the exchange barrier: checkpoint cut, straggler sweep,
            # rank-kill draw (+ recovery) — may rebuild the machine,
            # so the local geometry is read *after* the hook
            self.resilience.at_exchange(src, tag)
        local = self.local_lattice
        spec = src.spec
        send_sites = local.face_sites(mu, -sign)   # the plane we send
        recv_sites = local.face_sites(mu, sign)    # the face we fill
        nface = send_sites.size
        nbytes = spec.words_per_site * spec.word_bytes * nface

        gather_worst = 0.0
        send_addrs = []
        for r in range(self.nranks):
            ctx = self.contexts[r]
            sbuf = self._buffer(r, "send", mu, sign, nbytes)
            send_addrs.append(sbuf)
            if run_gather:
                # gather reads src's device data outside the evaluator:
                # deferred statements targeting it must land first
                ctx.flush()
                kernel = self.face_kernels[r].get(
                    "gather", spec.words_per_site, spec.precision,
                    local.nsites, send_sites)
                addrs = ctx.field_cache.make_available([src.shards[r]])
                params = {
                    "p_lo": local.nsites,
                    "p_n": nface,
                    "p_sites": ctx.upload_table(
                        ("face", local.dims, mu, -sign), send_sites),
                    "p_dst": sbuf,
                    "p_src": addrs[src.shards[r].uid],
                }
                cost = ctx.device.launch(kernel.compiled, kernel.module.info,
                                         params, nface, block_size=128,
                                         precision=spec.precision)
                gather_worst = max(gather_worst, cost.time_s)

        # move bytes: rank r's send buffer -> neighbor(-sign... who
        # receives r's plane?  For a forward shift, rank r's lower
        # plane goes to rank r - mu_hat.
        recv_addrs = [0] * self.nranks
        penalties = []
        halo_faults = self.faults.active
        for r in range(self.nranks):
            dst_rank = self.grid.neighbor(r, mu, -sign)
            rbuf = self._buffer(dst_rank, "recv", mu, sign, nbytes)
            recv_addrs[dst_rank] = rbuf
            data = self.contexts[r].device.pool.read(send_addrs[r], nbytes)
            if halo_faults:
                penalties.extend(self.faults.deliver_halo(
                    self.contexts[dst_rank].device, rbuf, data,
                    self.net, f"halo:{tag}@r{r}"))
            else:
                self.contexts[dst_rank].device.pool.write(rbuf, data)
        comm_time = self.net.message_time(nbytes)

        rt = self.runtime
        if run_gather:
            rt.compute.enqueue(f"gather:{tag}", gather_worst, "gather",
                               args={"bytes": nbytes, "nface": nface})
        # the message reads the gathered send buffer
        rt.comm.wait_event(rt.compute.record_event())
        rt.comm.enqueue(f"halo:{tag}", comm_time, "comm",
                        args={"bytes": nbytes})
        if penalties:
            # recovery follows the failed delivery: timeouts, backoff
            # and checksum-verified retransmits extend the comm lane,
            # and the scatter's event below waits on all of it
            comm_time += self.faults.charge_penalties(rt, penalties)
        event = rt.comm.record_event()
        if blocking:
            rt.synchronize()
        return ExchangeResult(mu=mu, sign=sign, nface=nface,
                              recv_sites=recv_sites, recv_addrs=recv_addrs,
                              gather_time=gather_worst, comm_time=comm_time,
                              nbytes=nbytes, event=event)

    def scatter_halo(self, dest: DistributedField,
                     ex: "ExchangeResult") -> float:
        """Unpack a received halo into ``dest``'s face sites.

        The scatter kernel waits on the exchange's message event: it
        cannot start until the halo has landed in the recv buffer.
        """
        local = self.local_lattice
        spec = dest.spec
        if dest.vm is not self:
            raise HaloMismatchError(
                "scatter_halo", f"field {dest.name!r} belongs to a "
                f"different virtual machine", ex.mu, ex.sign)
        if (len(ex.recv_addrs) != self.nranks
                or ex.nface != local.face_sites(ex.mu, ex.sign).size):
            raise HaloMismatchError(
                "scatter_halo", f"stale exchange result: expected "
                f"{self.nranks} ranks x "
                f"{local.face_sites(ex.mu, ex.sign).size} face sites, "
                f"got {len(ex.recv_addrs)} x {ex.nface} (did the "
                f"machine shrink since the exchange?)",
                ex.mu, ex.sign)
        worst = 0.0
        for r in range(self.nranks):
            ctx = self.contexts[r]
            # the scatter writes dest's faces behind the evaluator's
            # back: pending statements touching dest must launch first
            ctx.flush()
            kernel = self.face_kernels[r].get(
                "scatter", spec.words_per_site, spec.precision,
                local.nsites, ex.recv_sites)
            addrs = ctx.field_cache.make_available([dest.shards[r]])
            params = {
                "p_lo": local.nsites,
                "p_n": ex.nface,
                "p_sites": ctx.upload_table(
                    ("face", local.dims, ex.mu, ex.sign), ex.recv_sites),
                "p_dst": addrs[dest.shards[r].uid],
                # under resilience the recv buffer may have moved (a
                # buddy restore re-homes the dead rank's pool): the
                # buffer table, not the captured address, is current
                "p_src": (self._buffer(r, "recv", ex.mu, ex.sign,
                                       ex.nbytes)
                          if self.resilience is not None
                          else ex.recv_addrs[r]),
            }
            cost = ctx.device.launch(kernel.compiled, kernel.module.info,
                                     params, ex.nface, block_size=128,
                                     precision=spec.precision)
            ctx.field_cache.mark_device_dirty(dest.shards[r])
            worst = max(worst, cost.time_s)
        rt = self.runtime
        if ex.event is not None:
            rt.compute.wait_event(ex.event)
        tag = f"{ex.mu}{'+' if ex.sign > 0 else '-'}:{dest.name}"
        rt.compute.enqueue(f"scatter:{tag}", worst, "scatter",
                           args={"bytes": ex.nbytes, "nface": ex.nface})
        return worst

    def fill_shift_interior(self, dest: DistributedField,
                            src: DistributedField, mu: int,
                            sign: int) -> float:
        """dest = shift(src) on the sites whose source is on-rank."""
        local = self.local_lattice
        inner = _interior_subset(local, mu, sign)
        worst = 0.0
        for r in range(self.nranks):
            cost = evaluate(dest.shards[r],
                            shift_expr(src.shards[r].ref(), sign, mu),
                            subset=inner, context=self.contexts[r])
            worst = max(worst, cost.time_s)
        self.runtime.compute.enqueue(f"fill:{dest.name}", worst, "kernel")
        return worst

    def shift_into(self, dest: DistributedField, src: DistributedField,
                   mu: int, sign: int) -> None:
        """dest = shift(src, sign, mu), non-overlapped (sequential)."""
        ex = self.exchange(src, mu, sign, blocking=True)
        self.fill_shift_interior(dest, src, mu, sign)
        self.scatter_halo(dest, ex)


@dataclass
class ExchangeResult:
    mu: int
    sign: int
    nface: int
    recv_sites: np.ndarray
    recv_addrs: list[int]
    gather_time: float
    comm_time: float
    nbytes: int
    #: comm-lane completion event of the halo message; the scatter
    #: waits on it (``None`` only for hand-built results in tests)
    event: Event | None = field(default=None, repr=False, compare=False)


_interior_cache: dict[tuple, object] = {}


def _interior_subset(local: Lattice, mu: int, sign: int):
    """Subset of sites whose shift source is on-rank (cached)."""
    from ..qdp.lattice import Subset

    key = (local.dims, mu, sign)
    sub = _interior_cache.get(key)
    if sub is None:
        sub = Subset(f"int{mu}{'+' if sign > 0 else '-'}",
                     local.inner_sites([(mu, sign)]))
        _interior_cache[key] = sub
    return sub
