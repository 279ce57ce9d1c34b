"""Structural SSA verification.

Three invariants, checked on every freshly generated stream (a
generator that breaks them has a bug, and the break must surface
*there*, not as a bewildering downstream failure in the driver JIT):

1. **Single definition** — every register is written by at most one
   instruction.
2. **Defs dominate uses** — every read is dominated by the write
   (same block and textually later, or in a dominated block).
3. **No dangling operands** — every register read has a definition
   somewhere in the function.

Violations are reported as :class:`~repro.diagnostics.Diagnostic`
records under the pass name ``ssa-structure`` so the PTX verifier can
run the same check as a standard pipeline pass; the strict entry
point :func:`assert_ssa` raises :class:`IRVerificationError` listing
every finding.
"""

from __future__ import annotations

from ..diagnostics import Diagnostic, Severity, errors
from .ssa import SSAFunction, regname

PASS_NAME = "ssa-structure"


class IRVerificationError(Exception):
    """An SSA function failed structural verification.

    Carries the full diagnostics list (``.diagnostics``).
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


def check_ssa(fn: SSAFunction, obj: str = "") -> list[Diagnostic]:
    """Check the SSA structural invariants; return all findings."""
    obj = obj or fn.name
    out: list[Diagnostic] = []

    def err(message: str, pos: int | None = None) -> None:
        location = (fn.instructions[pos].render()
                    if pos is not None and pos < len(fn.instructions) else "")
        out.append(Diagnostic(Severity.ERROR, PASS_NAME, message,
                              obj=obj, location=location))

    # 1. single definition per register
    for key in sorted(fn.extra_defs):
        first = fn.defs[key]
        for pos in fn.extra_defs[key]:
            err(f"register {regname(key)} redefined (first definition "
                f"at instruction {first})", pos)

    # 3. no dangling operands (checked before dominance so a dangling
    # register is reported once, not once per use)
    for key in sorted(fn.uses):
        if key in fn.defs:
            continue
        err(f"use of register {regname(key)} with no definition",
            fn.uses[key][0])

    # 2. defs dominate uses
    dom = fn.cfg.dominators()
    for key in sorted(fn.defs):
        d = fn.defs[key]
        db = fn.pos_block[d]
        for p in fn.uses.get(key, ()):
            pb = fn.pos_block[p]
            if pb not in dom:
                continue   # unreachable block; reported elsewhere
            ok = (d < p) if db == pb else (db in dom[pb])
            if not ok:
                err(f"definition of {regname(key)} does not dominate "
                    f"its use", p)
    return out


def assert_ssa(fn: SSAFunction, obj: str = "") -> None:
    """Raise :class:`IRVerificationError` on any structural violation."""
    diagnostics = check_ssa(fn, obj=obj)
    errs = errors(diagnostics)
    if errs:
        summary = "\n".join(f"{obj or fn.name}: {d.message}" for d in errs)
        raise IRVerificationError(summary, diagnostics)
