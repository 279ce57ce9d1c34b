"""The ``cpu`` dispatch name's build entry point (paper Sec. XI).

There is one PTX -> NumPy generator,
:class:`repro.driver.jitcompiler._Translator`; under ``cpu`` the kernel
store builds a kernel's one callable through :func:`compile_cpu_kernel`.
Both are kept because ``benchmarks/e2e`` traces :func:`compile_cpu_kernel`
and reads :func:`code_cache_stats`.
"""

from __future__ import annotations

from ..driver.backends import STORE_BUILDS, BuildStats
from ..driver.jitcompiler import build_sim_kernel
from ..driver.parser import ParsedKernel, parse_ptx


def code_cache_stats() -> BuildStats:
    """The live counters of the kernel store's builds (both dispatch
    names): ``misses`` built a kernel, ``hits`` reused one another
    context built."""
    return STORE_BUILDS


def compile_cpu_kernel(ptx_text: str, parsed: ParsedKernel | None = None,
                       lanes: int | None = None):
    """PTX text -> the launch function ``(views, params, grid_dim,
    block_dim)`` (uncached: the store caches); ``parsed`` is the
    already-parsed form of ``ptx_text`` when the caller has it,
    ``lanes`` the launch width to pack for."""
    if parsed is None:
        parsed = parse_ptx(ptx_text)
    return build_sim_kernel(parsed, lanes)
