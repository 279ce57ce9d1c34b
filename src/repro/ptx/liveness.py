"""Register liveness analysis.

The builder emits SSA-style code (every value gets a fresh register),
which wildly overstates the register pressure of the kernel a real
PTX->SASS compiler would produce.  The driver JIT therefore runs a
liveness pass and reports the *maximum number of simultaneously live
registers* (in 32-bit slots) as the kernel's register footprint — this
is what feeds the SM occupancy model and the launch-failure check that
the auto-tuner (paper Sec. VII) relies on.

The analysis is a classic backward dataflow over the kernel's CFG
(:mod:`repro.ptx.cfg`), solved by :func:`solve` in one sweep: a CFG
has no back edge, so in reversed reverse postorder every block comes
after all its successors.  The sweep that computes a block's live-in
also records the block's slot watermark, so every block is scanned
once.  A guarded definition kills its register like any other: every
register is defined once, so there is no older value for the lanes the
guard turns off to keep.
"""

from __future__ import annotations

from .cfg import CFG, build_cfg
from .isa import Instruction, PTXType, Register


def _scan_backward(instructions: list[Instruction],
                   live_out) -> tuple[set, int]:
    """Backward walk of one block; returns the live set at its top
    and the peak 32-bit slot count seen on the way (the live-out
    itself included)."""
    live = set(live_out)
    slots = peak = sum(PTXType(t).slots for t, _ in live)
    for inst in reversed(instructions):
        reads = [op for op in inst.srcs if isinstance(op, Register)]
        guard, dst = inst.guard, inst.dst
        if guard is not None:
            reads.append(guard)
        if dst is not None and dst.key in live:
            # a write kills the register *before* (in reverse order)
            # the reads of the same instruction are added
            live.discard(dst.key)
            slots -= dst.slots
        for r in reads:
            if r.key not in live:
                live.add(r.key)
                slots += r.slots
        if slots > peak:
            peak = slots
    return live, peak


class _Liveness:
    """live-in(b) = gen(b) ∪ (live-out(b) − kill(b)), meet = union.

    ``peak`` holds each block's slot watermark under its live-out.
    """

    def __init__(self):
        self.peak: dict[int, int] = {}

    def transfer(self, block, instructions, fact):
        live, self.peak[block.index] = _scan_backward(instructions, fact)
        return frozenset(live)


def solve(cfg: CFG, liveness: _Liveness):
    """Run the backward liveness problem over ``cfg`` in one sweep
    (reverse postorder, reversed: every successor first).

    Returns ``(live_out, live_in)``: dicts keyed by block index holding
    the live set at each block's end and at its top, for every
    reachable block (an exit has nothing live after it).
    """
    live_out: dict[int, frozenset] = {}
    live_in: dict[int, frozenset] = {}
    for b in reversed(cfg.rpo()):
        blk = cfg.blocks[b]
        live_out[b] = frozenset().union(*(live_in[s] for s in blk.successors))
        live_in[b] = liveness.transfer(
            blk, blk.instructions(cfg.instructions), live_out[b])
    return live_out, live_in


def max_live_registers(instructions: list[Instruction],
                       cfg: CFG | None = None) -> int:
    """Maximum 32-bit register slots simultaneously live.

    ``cfg`` is the stream's control-flow graph when the caller already
    built it.  Returns at least 8 (a floor accounting for the fixed
    overhead — parameter pointers, special registers — every real
    kernel carries).
    """
    if cfg is None:
        cfg = build_cfg(instructions)
    live = _Liveness()
    solve(cfg, live)
    return max(8, *live.peak.values())
