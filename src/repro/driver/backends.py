"""Execution backends: two dispatch names, one callable.

``sim`` (default) and ``cpu`` are the accepted values of the
``REPRO_BACKEND`` knob, which the owning
:class:`~repro.driver.cache.KernelCache` resolves once, when it is
created.  Both build the same callable — the one PTX -> NumPy generator
of :mod:`repro.driver.jitcompiler` — once per kernel per process: the
first view to dispatch a kernel builds it, ``cpu`` through
:func:`repro.llvm.cputarget.compile_cpu_kernel` and ``sim`` through
:func:`~repro.driver.jitcompiler.build_sim_kernel`, and every later
view, under either name, finds it on the kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .jitcompiler import build_sim_kernel


@dataclass
class BackendStats:
    """One kernel cache's (one context's) backend accounting."""

    #: the knob value the owning cache resolved at construction
    mode: str = "sim"
    #: kernels that could not be built for ``mode`` (none can fail yet)
    fallbacks: int = 0


@dataclass
class BuildStats:
    """Build counters: ``misses`` built a callable, ``hits`` found one
    another view had built."""

    hits: int = 0
    misses: int = 0
    total_compile_seconds: float = 0.0

    @property
    def n_kernels(self) -> int:
        return self.misses


#: the kernel store's builds, over every view and both dispatch names
STORE_BUILDS = BuildStats()


def select_backend(kernel, stats: BackendStats,
                   lanes: int | None = None) -> None:
    """Build ``kernel.func`` for the cache's backend unless a view has.

    Called by the kernel cache once per kernel, the first time it sees
    the digest; ``stats.mode`` is the backend the cache resolved, and
    ``lanes`` the launch width the first build packs for (None: per
    word).
    """
    if kernel.func is not None:
        STORE_BUILDS.hits += 1
        return
    t0 = time.perf_counter()
    if stats.mode == "cpu":
        # an attribute lookup at call time: a rebinding of the module
        # attribute (the benchmarks/e2e span) must see the call
        from ..llvm import cputarget

        kernel.func = cputarget.compile_cpu_kernel(kernel.ptx_text,
                                                   kernel.parsed, lanes)
    else:
        kernel.func = build_sim_kernel(kernel.parsed, lanes)
    STORE_BUILDS.misses += 1
    STORE_BUILDS.total_compile_seconds += time.perf_counter() - t0
