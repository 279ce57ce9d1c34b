"""The SSA view of a generated kernel and its structural check.

The code generators (:mod:`repro.core.codegen`) emit SSA by
construction — every value gets a fresh register.  ``repro.ir`` makes
that checkable: :mod:`repro.ir.ssa` reifies the instruction stream as
an SSA function (def/use positions over the :mod:`repro.ptx.cfg`
graph), :mod:`repro.ir.verify` checks single definition, defs dominate
uses and no dangling operands, and :func:`prepare_module` runs that
check on every kernel build before the module is rendered.  There is
no mid-end optimiser: as in the paper, the stream the unparser emits
is the stream the driver JIT gets (DESIGN §11 records why the pass
pipeline that once lived here was removed).
"""

from .pipeline import prepare_module
from .ssa import SSAFunction
from .verify import IRVerificationError, check_ssa

__all__ = [
    "IRVerificationError",
    "SSAFunction",
    "check_ssa",
    "prepare_module",
]
