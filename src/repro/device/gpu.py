"""The simulated CUDA device + runtime.

A :class:`Device` owns the flat device memory pool and executes
JIT-compiled kernels.  Execution is *functionally real* — the compiled
kernel reads and writes the pool through typed views, producing the
same answers a GPU would — while *time* is modeled by
:mod:`repro.device.memmodel` and accounted in one place,
:meth:`Device.charge`.  Each modeled cost is added there to

* the serial ``clock`` (every cost in program order: what a one-stream
  device would take),
* its :class:`DeviceStats` counter,
* the :class:`~repro.runtime.stream.StreamRuntime` timeline, as a span
  on its category's lane — kernels on the compute stream, H2D/D2H
  copies on dedicated copy streams — so copy and compute time
  genuinely overlap unless an event orders them,

so the three always describe the same seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..driver.jitcompiler import CompiledKernel
from ..memory.pool import DevicePool
from ..ptx.isa import KernelInfo
from ..runtime.stream import Stream, StreamRuntime
from ..runtime.timeline import Span
from .memmodel import KernelCost, LaunchError, kernel_cost, transfer_time
from .specs import DeviceSpec, K20X_ECC_OFF

_VIEW_DTYPES = ("float32", "float64", "int32", "int64", "uint32", "uint64")

#: span categories that share a :attr:`DeviceStats.modeled_s` counter
#: (every other category is its own): each counter stays one
#: accumulator in program order
_COUNTER = {"fold": "kernel", "h2d": "transfer", "d2h": "transfer"}
#: span categories with a lane of their own (the rest run on compute)
_COPY_LANES = ("h2d", "d2h")


@dataclass
class DeviceStats:
    """Cumulative counters for one device."""

    kernel_launches: int = 0
    #: subset of ``kernel_launches``: fixed-function partial-buffer
    #: folds (:meth:`Device.reduce_f64`), not generated kernels —
    #: fusion can eliminate the latter but never the former
    fold_launches: int = 0
    launch_failures: int = 0
    #: modeled seconds per counter — ``kernel`` (launches and folds),
    #: ``transfer`` (h2d and d2h) and ``jit``; written only by
    #: :meth:`Device.charge`, so the values sum to ``Device.clock``
    modeled_s: dict = field(default_factory=dict)
    #: modeled global-memory traffic of generated kernels (sum of
    #: ``KernelCost.bytes_moved``); fused kernels move fewer bytes
    modeled_kernel_bytes: int = 0
    wall_kernel_time_s: float = 0.0
    bytes_h2d: int = 0
    bytes_d2h: int = 0
    n_h2d: int = 0
    n_d2h: int = 0
    per_kernel_time_s: dict = field(default_factory=dict)
    #: measured host wall-clock per kernel name (what the active
    #: execution backend actually cost, vs the modeled GPU time above)
    per_kernel_wall_s: dict = field(default_factory=dict)

    @property
    def modeled_kernel_time_s(self) -> float:
        return self.modeled_s.get("kernel", 0.0)

    @property
    def modeled_transfer_time_s(self) -> float:
        return self.modeled_s.get("transfer", 0.0)

    @property
    def modeled_jit_time_s(self) -> float:
        return self.modeled_s.get("jit", 0.0)


class Device:
    """A simulated CUDA device.

    Parameters
    ----------
    spec:
        The device specification (defaults to the paper's K20x with
        ECC disabled).
    pool_capacity:
        Bytes of device memory actually backed by host RAM.  Defaults
        to ``min(spec.memory_bytes, 1 GiB)``; the allocator enforces
        this capacity, which is what drives LRU spills in tests.
    """

    def __init__(self, spec: DeviceSpec = K20X_ECC_OFF,
                 pool_capacity: int | None = None):
        self.spec = spec
        if pool_capacity is None:
            pool_capacity = min(spec.memory_bytes, 1 << 30)
        self.pool = DevicePool(pool_capacity)
        self._views = {name: self.pool.view(name) for name in _VIEW_DTYPES}
        self.stats = DeviceStats()
        #: serial reference clock: the sum of every modeled cost, in
        #: program order (what a one-stream device would take)
        self.clock = 0.0
        #: the stream/event runtime; every modeled cost is also a span
        #: on its lane-based timeline
        self.runtime = StreamRuntime()
        #: modeled :class:`KernelCost` per launch shape (a function of
        #: the shape and ``spec``; a shape that cannot launch raises)
        self._costs: dict[tuple, KernelCost] = {}

    # -- memory ---------------------------------------------------------

    def mem_alloc(self, nbytes: int) -> int:
        return self.pool.allocate(nbytes)

    def mem_free(self, addr: int) -> None:
        self.pool.free(addr)

    def memcpy_htod(self, addr: int, host: np.ndarray,
                    stream: Stream | None = None,
                    name: str = "memcpy_htod") -> float:
        """Copy host array to device; returns the modeled time.

        The copy itself happens immediately (data is real); its time
        is modeled on ``stream`` — the dedicated H2D copy stream by
        default, so uploads overlap with compute unless an event
        orders them.  Use ``stream.record_event()`` right after the
        call to obtain the completion event.
        """
        self.pool.write(addr, host)
        return self.charge_copy("h2d", name, host.nbytes, stream)

    def memcpy_dtoh(self, addr: int, nbytes: int, dtype=np.uint8,
                    stream: Stream | None = None,
                    name: str = "memcpy_dtoh",
                    out: np.ndarray | None = None) -> np.ndarray:
        """Copy device memory back to the host: into a new array, or
        straight into the host buffer ``out`` (its leading
        ``out.nbytes`` bytes; the charge is for all ``nbytes``).

        Modeled on the dedicated D2H copy stream by default, ordered
        after all compute enqueued so far (the copy reads what kernels
        wrote — the conservative CUDA event the software cache would
        record).
        """
        out = self.pool.read(addr, nbytes, dtype=dtype, out=out)
        s = stream if stream is not None else self.runtime.d2h
        s.wait_event(self.runtime.compute.record_event())
        self.charge_copy("d2h", name, nbytes, s)
        return out

    # -- kernel launch ----------------------------------------------------

    def launch(self, kernel: CompiledKernel, info: KernelInfo,
               params: dict, nsites: int, block_size: int,
               precision: str = "f64",
               regs_per_thread: int | None = None,
               stream: Stream | None = None) -> KernelCost:
        """Launch ``kernel`` over ``nsites`` threads of real work.

        Executes the compiled kernel against device memory and charges
        the modeled time to the device clock and to ``stream`` (the
        compute stream by default).  Raises :class:`LaunchError`
        (without executing) when the launch configuration exhausts SM
        resources.
        """
        import time as _time

        if regs_per_thread is None:
            regs_per_thread = kernel.regs_per_thread
        shape = (nsites, block_size, regs_per_thread, info.bytes_per_site,
                 info.flops_per_site, precision)
        cost = self._costs.get(shape)
        if cost is None:
            try:
                cost = self._costs[shape] = kernel_cost(
                    self.spec, nsites=nsites, block_size=block_size,
                    regs_per_thread=regs_per_thread,
                    bytes_per_site=info.bytes_per_site,
                    flops_per_site=info.flops_per_site,
                    precision=precision)
            except LaunchError:
                self.stats.launch_failures += 1
                raise
        grid = math.ceil(nsites / block_size)
        w0 = _time.perf_counter()
        # inactive (guarded-off) lanes compute on whatever their safe
        # clamped loads return — exactly like masked SIMT lanes on a
        # real GPU; their FP exceptions are meaningless
        with np.errstate(all="ignore"):
            kernel(self._views, params, grid, block_size)
        wall = _time.perf_counter() - w0
        self.stats.kernel_launches += 1
        self.stats.modeled_kernel_bytes += cost.bytes_moved
        self.stats.wall_kernel_time_s += wall
        per = self.stats.per_kernel_time_s
        per[kernel.name] = per.get(kernel.name, 0.0) + cost.time_s
        pw = self.stats.per_kernel_wall_s
        pw[kernel.name] = pw.get(kernel.name, 0.0) + wall
        self.charge("kernel", kernel.name, cost.time_s, stream=stream,
                    args={"bytes": cost.bytes_moved, "nsites": nsites,
                          "block": block_size})
        return cost

    def reduce_f64(self, addr: int, count: int,
                   stream: Stream | None = None) -> float:
        """Device-side sum reduction over ``count`` f64 partials.

        The second stage of a two-stage reduction: a generated kernel
        writes per-thread partials, this primitive folds them.  Time
        is modeled as one full-occupancy streaming pass over the
        partial buffer, on the compute stream (it consumes what the
        partials kernel just wrote there).
        """
        view = self._views["float64"]
        start = addr >> 3
        value = float(view[start:start + count].sum())
        from .memmodel import sustained_bandwidth

        bw = sustained_bandwidth(self.spec, 256, 16, max(count, 1), 8)
        t = count * 8 / bw + self.spec.launch_overhead_s
        self.stats.kernel_launches += 1
        self.stats.fold_launches += 1
        self.charge("fold", "reduce_f64", t, stream=stream,
                    args={"count": count})
        return value

    # -- the ledger -----------------------------------------------------

    def charge(self, cat: str, name: str, seconds: float, *,
               stream: Stream | None = None,
               args: dict | None = None) -> Span:
        """Account one modeled cost: the only writer of ``clock``,
        ``stats.modeled_s`` and this device's timeline.

        The span lands on ``stream`` — by default the lane of its
        category: the copy streams for ``h2d``/``d2h``, compute for
        everything else.
        """
        self.clock += seconds
        totals = self.stats.modeled_s
        counter = _COUNTER.get(cat, cat)
        totals[counter] = totals.get(counter, 0.0) + seconds
        if stream is None:
            stream = getattr(self.runtime,
                             cat if cat in _COPY_LANES else "compute")
        return stream.enqueue(name, seconds, cat, args=args)

    def charge_copy(self, cat: str, name: str, nbytes: int,
                    stream: Stream | None = None) -> float:
        """Count and charge one pool copy of ``nbytes`` in direction
        ``cat`` (``"h2d"``/``"d2h"``); returns its modeled time."""
        st = self.stats
        if cat == "h2d":
            st.bytes_h2d += nbytes
            st.n_h2d += 1
        else:
            st.bytes_d2h += nbytes
            st.n_d2h += 1
        t = transfer_time(self.spec, nbytes)
        self.charge(cat, name, t, stream=stream, args={"bytes": nbytes})
        return t

    def charge_jit(self, modeled_seconds: float) -> None:
        """Account the modeled driver-JIT compilation cost.

        Driver JIT (``cuModuleLoadData``) is synchronous: it occupies
        the compute lane — nothing launches while the module loads.
        """
        self.charge("jit", "driver_jit", modeled_seconds)

    def charge_interface_transfer(self, modeled_seconds: float,
                                  name: str = "interface_xfer") -> None:
        """Account modeled layout-change/PCIe time charged outside the
        pool-copy paths (e.g. the non-device QUDA interface)."""
        self.charge("h2d", name, modeled_seconds)
