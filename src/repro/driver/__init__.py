"""The simulated NVIDIA driver: PTX parser, JIT compiler, kernel store."""

from .cache import CacheStats, KernelCache, clear_kernel_store
from .jitcompiler import (
    CompiledKernel,
    JITCompileError,
    compile_ptx,
    modeled_jit_time,
)
from .parser import ParsedKernel, PTXParseError, parse_ptx

__all__ = [
    "CacheStats",
    "CompiledKernel",
    "JITCompileError",
    "KernelCache",
    "ParsedKernel",
    "PTXParseError",
    "clear_kernel_store",
    "compile_ptx",
    "modeled_jit_time",
    "parse_ptx",
]
