"""Register liveness analysis.

The builder emits SSA-style code (every value gets a fresh register),
which wildly overstates the register pressure of the kernel a real
PTX->SASS compiler would produce.  The driver JIT therefore runs a
liveness pass and reports the *maximum number of simultaneously live
registers* (in 32-bit slots) as the kernel's register footprint — this
is what feeds the SM occupancy model and the launch-failure check that
the auto-tuner (paper Sec. VII) relies on.

The analysis is a classic backward dataflow over the kernel's CFG
(:mod:`repro.ptx.cfg`), iterated to fixpoint so values live around a
loop's back edge are counted through the whole loop body — a single
linear backward sweep misses exactly those, underreporting pressure
for kernels with backward branches.  Guarded instructions are handled
conservatively (a guarded write does not kill the destination, since
inactive lanes keep the old value).
"""

from __future__ import annotations

from .cfg import DataflowAnalysis, build_cfg, solve
from .isa import Instruction, PTXType, Register


#: type suffix -> 32-bit register slots (64-bit values take two)
_SLOTS = {t.value: 2 if t.nbytes == 8 else 1 for t in PTXType}


def _regkey(r: Register) -> tuple[str, int]:
    return (r.type.value, r.index)


def _scan_backward(instructions: list[Instruction], live_out: set,
                   watermark=None) -> set:
    """Backward walk of one block; returns the live set at its top.

    ``watermark``, if given, is called with the live 32-bit slot
    count after each instruction (used to record the peak).
    """
    live = set(live_out)
    slots = sum(_SLOTS[t] for t, _ in live)

    def add(r: Register) -> None:
        nonlocal slots
        key = _regkey(r)
        if key not in live:
            live.add(key)
            slots += _SLOTS[key[0]]

    def kill(r: Register) -> None:
        nonlocal slots
        key = _regkey(r)
        if key in live:
            live.discard(key)
            slots -= _SLOTS[key[0]]

    def note() -> None:
        if watermark is not None:
            watermark(slots)

    for inst in reversed(instructions):
        if inst.opcode in ("label", "bra", "ret"):
            if inst.guard is not None:
                add(inst.guard)
            note()
            continue
        # A write kills the register *before* (in reverse order) the
        # reads of the same instruction are added — unless guarded.
        if inst.dst is not None and inst.guard is None:
            kill(inst.dst)
        for op in inst.srcs:
            if isinstance(op, Register):
                add(op)
        if inst.guard is not None:
            add(inst.guard)
            if inst.dst is not None:
                add(inst.dst)  # partial write: old value still needed
        note()
    return live


class _Liveness(DataflowAnalysis):
    """live-in(b) = gen(b) ∪ (live-out(b) − kill(b)), meet = union."""

    direction = "backward"

    def transfer(self, block, instructions, fact):
        return frozenset(_scan_backward(instructions, set(fact)))


def max_live_registers(instructions: list[Instruction]) -> int:
    """Maximum 32-bit register slots simultaneously live.

    Returns at least 8 (a floor accounting for the fixed overhead —
    parameter pointers, special registers — every real kernel carries).
    """
    cfg = build_cfg(instructions)
    live_at_end, _ = solve(cfg, _Liveness())

    max_slots = 0

    def watermark(slots: int) -> None:
        nonlocal max_slots
        max_slots = max(max_slots, slots)

    for b in cfg.reachable():
        blk = cfg.blocks[b]
        out = set(live_at_end.get(b, frozenset()))
        watermark(sum(_SLOTS[t] for t, _ in out))
        _scan_backward(blk.instructions(cfg.instructions), out,
                       watermark=watermark)
    return max(max_slots, 8)
