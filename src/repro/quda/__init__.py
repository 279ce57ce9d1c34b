"""The QUDA comparator library: hand-optimized Dslash, mixed-precision
CG solver, and the zero-copy device interface."""

from .dslash import (
    OptimizedDslash,
    QUDA_CACHE_REUSE,
    quda_dslash_bytes_per_site,
    quda_dslash_gflops,
)
from .interface import QudaInvertParam, QudaSolver
from .solver import QudaSolveResult, mixed_precision_cg

__all__ = [
    "OptimizedDslash",
    "QUDA_CACHE_REUSE",
    "QudaInvertParam",
    "QudaSolveResult",
    "QudaSolver",
    "mixed_precision_cg",
    "quda_dslash_bytes_per_site",
    "quda_dslash_gflops",
]
