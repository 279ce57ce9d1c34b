"""Analytic machine/performance models regenerating the paper's
evaluation figures (see DESIGN.md experiment index)."""

from .dslashperf import (
    DslashKernelStats,
    QDPJIT_CACHE_REUSE,
    figure_6,
    measure_dslash_kernels,
    model_dslash_timing,
)
from .hmcperf import (
    COMM_PER_NODE,
    PRODUCTION_WORKLOAD,
    QDPJIT_REST_RATE,
    QUDA_SOLVER_RATE,
    HMCWorkload,
    figure_7,
    figure_8,
    node_hours,
    resource_cost_factor,
    speedup,
    trajectory_time,
)
from .kernelperf import (
    KernelStats,
    figure_4_5,
    generate_test_kernels,
    sustained_bandwidth_curve,
)
from .machines import (
    BLUEWATERS_XE,
    BLUEWATERS_XK,
    INTERLAGOS,
    TITAN_XK,
    CPUSocket,
    NodeModel,
)

__all__ = [
    "BLUEWATERS_XE",
    "BLUEWATERS_XK",
    "COMM_PER_NODE",
    "CPUSocket",
    "DslashKernelStats",
    "HMCWorkload",
    "INTERLAGOS",
    "KernelStats",
    "NodeModel",
    "PRODUCTION_WORKLOAD",
    "QDPJIT_CACHE_REUSE",
    "QDPJIT_REST_RATE",
    "QUDA_SOLVER_RATE",
    "TITAN_XK",
    "figure_4_5",
    "figure_6",
    "figure_7",
    "figure_8",
    "generate_test_kernels",
    "measure_dslash_kernels",
    "model_dslash_timing",
    "node_hours",
    "resource_cost_factor",
    "speedup",
    "sustained_bandwidth_curve",
    "trajectory_time",
]
