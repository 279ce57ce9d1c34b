"""The SSA view of one kernel's instruction stream.

An :class:`SSAFunction` wraps the flat :class:`~repro.ptx.isa.Instruction`
list with the derived facts the structural check needs: the position
of each register's (single) definition, every use position, the
control-flow graph (:mod:`repro.ptx.cfg`) and a position→block map.  Nothing is
re-lowered — the instruction stream *is* the IR; the builder already
allocates a fresh register per value, so the stream is SSA by
construction and this class merely makes that structure queryable
(and checkable, see :mod:`repro.ir.verify`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ptx.cfg import CFG, build_cfg
from ..ptx.isa import Instruction, Register
from ..ptx.module import PTXModule

#: Key identifying a virtual register across the function
#: (:attr:`repro.ptx.isa.Register.key`).
RegKey = tuple[str, int]


def regname(key: RegKey) -> str:
    from ..ptx.isa import PTXType

    return f"{PTXType(key[0]).reg_prefix}{key[1]}"


def source_registers(inst: Instruction):
    """Every register the instruction reads (sources and guard)."""
    for op in inst.srcs:
        if isinstance(op, Register):
            yield op
    if inst.guard is not None:
        yield inst.guard


@dataclass
class SSAFunction:
    """One kernel as an SSA function over the PTX dialect."""

    name: str
    instructions: list[Instruction]
    cfg: CFG
    #: first (and, in well-formed SSA, only) definition per register
    defs: dict[RegKey, int] = field(default_factory=dict)
    #: further definitions — present only when the SSA invariant is broken
    extra_defs: dict[RegKey, list[int]] = field(default_factory=dict)
    #: every read position per register (guard reads included)
    uses: dict[RegKey, list[int]] = field(default_factory=dict)
    #: block index containing each instruction position
    pos_block: list[int] = field(default_factory=list)

    @classmethod
    def from_instructions(cls, name: str, instructions: list[Instruction],
                          cfg: CFG | None = None) -> "SSAFunction":
        instructions = list(instructions)
        if cfg is None:
            cfg = build_cfg(instructions)
        fn = cls(name=name, instructions=instructions, cfg=cfg)
        fn.pos_block = [0] * len(instructions)
        for blk in cfg.blocks:
            for pos in range(blk.start, blk.stop):
                fn.pos_block[pos] = blk.index
        for pos, inst in enumerate(instructions):
            for r in source_registers(inst):
                fn.uses.setdefault(r.key, []).append(pos)
            if inst.dst is not None:
                key = inst.dst.key
                if key in fn.defs:
                    fn.extra_defs.setdefault(key, []).append(pos)
                else:
                    fn.defs[key] = pos
        return fn

    @classmethod
    def from_module(cls, module: PTXModule) -> "SSAFunction":
        return cls.from_instructions(module.name, module.instructions)
