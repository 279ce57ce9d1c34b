"""The SSA view of one kernel's instruction stream.

An :class:`SSAFunction` wraps the flat :class:`~repro.ptx.isa.Instruction`
list with the derived facts every IR pass needs: the position of each
register's (single) definition, every use position, the control-flow
graph (:mod:`repro.ptx.cfg`) and a position→block map.  Nothing is
re-lowered — the instruction stream *is* the IR; the builder already
allocates a fresh register per value, so the stream is SSA by
construction and this class merely makes that structure queryable
(and checkable, see :mod:`repro.ir.verify`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ptx.cfg import CFG, build_cfg
from ..ptx.isa import Instruction, Param, Register
from ..ptx.module import PTXModule

#: Key identifying a virtual register across the function
#: (:attr:`repro.ptx.isa.Register.key`).
RegKey = tuple[str, int]


def regname(key: RegKey) -> str:
    from ..ptx.isa import PTXType

    return f"{PTXType(key[0]).reg_prefix}{key[1]}"


#: Opcodes with an effect beyond writing their destination register.
SIDE_EFFECT_OPS = frozenset({"st.global", "bra", "ret", "label"})


def source_registers(inst: Instruction):
    """Every register the instruction reads (sources and guard)."""
    for op in inst.srcs:
        if isinstance(op, Register):
            yield op
    if inst.guard is not None:
        yield inst.guard


def is_removable(inst: Instruction) -> bool:
    """Whether the instruction may be deleted if its result is unused.

    Loads are removable — the dialect has no volatile accesses, and a
    dead load performs no observable work in the execution model.
    """
    return inst.dst is not None and inst.opcode not in SIDE_EFFECT_OPS


def is_speculative(inst: Instruction) -> bool:
    """Whether the instruction may move relative to memory operations.

    Pure register arithmetic (and ``ld.param``, which reads immutable
    launch state) reorders freely; ``ld.global`` must keep its order
    relative to ``st.global`` because kernel parameters may alias
    (``p_dst`` is also a source when the destination appears on the
    right-hand side).
    """
    return is_removable(inst) and inst.opcode != "ld.global"


@dataclass
class SSAFunction:
    """One kernel as an SSA function over the PTX dialect."""

    name: str
    params: list[Param]
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
    def from_instructions(cls, name: str, params: list[Param],
                          instructions: list[Instruction],
                          cfg: CFG | None = None) -> "SSAFunction":
        instructions = list(instructions)
        if cfg is None:
            cfg = build_cfg(instructions)
        fn = cls(name=name, params=list(params),
                 instructions=instructions, cfg=cfg)
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
        return cls.from_instructions(module.name, module.info.params,
                                     list(module.instructions))

    def to_module(self, info=None) -> PTXModule:
        """Render back to a :class:`PTXModule`.

        With ``info`` (the original module's :class:`KernelInfo`) the
        round trip is bitwise exact; without it a fresh info is derived
        from the stream (register declarations from the names in use,
        no flop/byte accounting — callers that care thread the
        original through, see :mod:`repro.ir.pipeline`).
        """
        if info is None:
            from ..ptx.builder import register_counts
            from ..ptx.isa import KernelInfo

            info = KernelInfo(name=self.name, params=list(self.params),
                              n_instructions=len(self.instructions),
                              regs_per_thread=register_counts(
                                  self.instructions))
        return PTXModule(info=info, instructions=list(self.instructions))

    # -- queries used by the passes -----------------------------------

    def use_counts(self) -> dict[RegKey, int]:
        return {k: len(v) for k, v in self.uses.items()}

    def has_backward_edge(self) -> bool:
        """Any branch to a label at or before the branch itself.

        The generators emit forward-only control flow (a single bounds
        early-exit); passes that reason about execution order in
        layout order bail out when this ever becomes false.
        """
        label_pos = {i.label: pos for pos, i in enumerate(self.instructions)
                     if i.opcode == "label"}
        for pos, inst in enumerate(self.instructions):
            if inst.opcode == "bra":
                target = label_pos.get(inst.label)
                if target is not None and target <= pos:
                    return True
        return False
