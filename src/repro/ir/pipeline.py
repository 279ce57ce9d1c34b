"""The IR layer's one entry point on the kernel build path.

:func:`prepare_module` sits between the expression unparser and PTX
rendering on every kernel build (eager statements, fused groups,
reduction partials, halo face copies), once per structural key per
process.  It runs the verifier's ``ssa-structure`` pass over the
freshly generated stream and hands the *same* module object on, so
rendered text, resource metadata and byte accounting are untouched.
It reads no knob: this is the only structural check that still runs
under ``REPRO_VERIFY=off``, and a generator that emits a twice-assigned
or dangling register has a bug that must surface here, by name, not as
a wrong kernel downstream.
"""

from __future__ import annotations

from ..ptx.module import PTXModule
from ..ptx.verifier import PTXVerificationError, run_passes


def prepare_module(module: PTXModule) -> PTXModule:
    """SSA-check a freshly built module and return it unchanged.

    Raises :class:`~repro.ptx.verifier.PTXVerificationError` on a
    violation.
    """
    errs = run_passes(module, passes=["ssa-structure"])
    if errs:
        raise PTXVerificationError(
            "\n".join(f"{module.name}: {d.message}" for d in errs), errs)
    return module
