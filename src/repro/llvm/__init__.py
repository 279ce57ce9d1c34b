"""The ``cpu`` dispatch name (paper Sec. XI): the driver JIT's one
generator under a second name."""

from .cputarget import code_cache_stats, compile_cpu_kernel

__all__ = [
    "code_cache_stats",
    "compile_cpu_kernel",
]
