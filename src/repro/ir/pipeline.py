"""The IR layer's one entry point on the kernel build path.

:func:`prepare_module` sits between the expression unparser and PTX
rendering on every kernel build (eager statements, fused groups,
reduction partials, halo face copies), once per structural key per
process, and in :func:`repro.driver.jitcompiler.compile_ptx` on every
stream parsed from text.  It runs the verifier's ``ssa-structure``
pass over the stream and hands the *same* module object on, so
rendered text, resource metadata and byte accounting are untouched.
It reads no knob: with the forward-branch rule of
:func:`repro.ptx.cfg.build_cfg` it is the JIT's entry contract, which
holds under every ``REPRO_VERIFY`` mode, and a generator that emits a
twice-assigned or dangling register has a bug that must surface here,
by name, not as a wrong kernel downstream.
"""

from __future__ import annotations

from ..ptx.module import PTXModule
from ..ptx.verifier import PTXVerificationError, run_passes


def prepare_module(module: PTXModule, *, cfg=None) -> PTXModule:
    """SSA-check a module and return it unchanged.

    ``cfg`` is the stream's control-flow graph when the caller already
    built it.  Raises :class:`~repro.ptx.verifier.PTXVerificationError`
    on a violation, :class:`~repro.ptx.cfg.BackwardBranchError` on a
    backward branch.
    """
    errs = run_passes(module, passes=["ssa-structure"], cfg=cfg)
    if errs:
        raise PTXVerificationError(
            "\n".join(f"{module.name}: {d.message}" for d in errs), errs)
    return module
