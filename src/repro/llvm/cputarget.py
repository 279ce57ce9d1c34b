"""The ``cpu`` row of the backend build table (paper Sec. XI).

There is one PTX -> NumPy generator,
:class:`repro.driver.jitcompiler._Translator`; ``cpu`` is a dispatch
name that builds the same callable under its own entry in the kernel
store and its own build counters.  It is kept because
``benchmarks/e2e`` traces :func:`compile_cpu_kernel` and reads
:func:`code_cache_stats`.
"""

from __future__ import annotations

from ..driver.backends import BuildStats, build_stats
from ..driver.jitcompiler import build_sim_kernel
from ..driver.parser import ParsedKernel, parse_ptx


def code_cache_stats() -> BuildStats:
    """The live counters of the store's ``cpu`` builds: ``misses``
    built a kernel, ``hits`` reused one another context built."""
    return build_stats("cpu")


def compile_cpu_kernel(ptx_text: str, parsed: ParsedKernel | None = None):
    """PTX text -> the launch function ``(views, params, grid_dim,
    block_dim)`` (uncached: the store caches); ``parsed`` is the
    already-parsed form of ``ptx_text`` when the caller has it."""
    if parsed is None:
        parsed = parse_ptx(ptx_text)
    return build_sim_kernel(parsed)
