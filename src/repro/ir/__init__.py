"""The build path's structural check of a generated kernel.

The code generators (:mod:`repro.core.codegen`) emit SSA by
construction — every value gets a fresh register.
:func:`prepare_module` checks that on every kernel build, before the
module is rendered, by running the PTX verifier's ``ssa-structure``
pass (:mod:`repro.ptx.verifier`) alone; the driver JIT runs it on
every stream it parses from text, since it is half of the JIT's entry
contract.  There is no mid-end
optimiser: as in the paper, the stream the unparser emits is the
stream the driver JIT gets (DESIGN §11 records why the pass pipeline
that once lived here was removed).
"""

from .pipeline import prepare_module

__all__ = ["prepare_module"]
