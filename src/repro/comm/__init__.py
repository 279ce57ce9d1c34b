"""Virtual MPI: processor grids, halo exchange, comm/compute overlap."""

from .grid import Decomposition, DecompositionError, ProcessorGrid
from .netmodel import GEMINI, IB_QDR_CUDA_AWARE, IB_QDR_STAGED, NetworkModel
from .overlap import DistributedWilsonDslash, DslashTiming
from .vm import (
    DistributedField,
    ExchangeResult,
    HaloMismatchError,
    VirtualMachine,
)

__all__ = [
    "Decomposition",
    "DecompositionError",
    "DistributedField",
    "HaloMismatchError",
    "DistributedWilsonDslash",
    "DslashTiming",
    "ExchangeResult",
    "GEMINI",
    "IB_QDR_CUDA_AWARE",
    "IB_QDR_STAGED",
    "NetworkModel",
    "ProcessorGrid",
    "VirtualMachine",
]
