"""The LLVM backend (paper Sec. XI, Future Work — implemented): a
compiled CPU work-item target (the ``cpu`` entry of the backend
registry) that walks the driver's parsed PTX instruction stream, and a
PTX -> LLVM IR text unparser over the same stream."""

from .cputarget import (
    CompiledCPUKernel,
    clear_code_cache,
    code_cache_stats,
    compile_cpu_kernel,
)
from .transpiler import TranspileError, Transpiler, transpile

__all__ = [
    "CompiledCPUKernel",
    "TranspileError",
    "Transpiler",
    "clear_code_cache",
    "code_cache_stats",
    "compile_cpu_kernel",
    "transpile",
]
