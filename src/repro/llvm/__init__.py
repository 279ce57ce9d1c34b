"""The LLVM backend (paper Sec. XI, Future Work): a compiled CPU
work-item target — the ``cpu`` row of the backend build table — that
walks the driver's parsed PTX instruction stream."""

from .cputarget import TranspileError, code_cache_stats, compile_cpu_kernel

__all__ = [
    "TranspileError",
    "code_cache_stats",
    "compile_cpu_kernel",
]
