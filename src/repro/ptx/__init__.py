"""The PTX-like virtual ISA (the framework's *secondary language*).

See paper Sec. III: generated kernels are expressed in this
assembly-like language and handed as text to the driver JIT.
"""

from .builder import KernelBuilder, PTXBuildError, promote
from .cfg import CFG, BasicBlock, build_cfg
from .isa import (
    BINARY_OPS,
    CMP_OPS,
    UNARY_OPS,
    Immediate,
    Instruction,
    KernelInfo,
    Param,
    PTXType,
    Register,
    Special,
)
from .module import PTX_TARGET, PTX_VERSION, PTXModule
from .verifier import PASSES, PTXVerificationError, run_passes, verify

__all__ = [
    "BINARY_OPS",
    "BasicBlock",
    "CFG",
    "CMP_OPS",
    "UNARY_OPS",
    "Immediate",
    "Instruction",
    "KernelBuilder",
    "KernelInfo",
    "PASSES",
    "Param",
    "PTXBuildError",
    "PTXModule",
    "PTXType",
    "PTXVerificationError",
    "PTX_TARGET",
    "PTX_VERSION",
    "Register",
    "Special",
    "build_cfg",
    "promote",
    "run_passes",
    "verify",
]
