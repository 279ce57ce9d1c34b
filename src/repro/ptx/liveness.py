"""Register liveness analysis.

The builder emits SSA-style code (every value gets a fresh register),
which wildly overstates the register pressure of the kernel a real
PTX->SASS compiler would produce.  The driver JIT therefore runs a
liveness pass and reports the *maximum number of simultaneously live
registers* (in 32-bit slots) as the kernel's register footprint — this
is what feeds the SM occupancy model and the launch-failure check that
the auto-tuner (paper Sec. VII) relies on.

The analysis is a classic backward dataflow over the kernel's CFG
(:mod:`repro.ptx.cfg`): one sweep on the acyclic CFGs the generators
emit, iterated to fixpoint when there is a back edge, so values live
around a loop are counted through the whole loop body — a single
linear backward sweep misses exactly those, underreporting pressure
for kernels with backward branches.  The sweep that computes a
block's live-in also records the block's slot watermark, so every
block is scanned once per round.  Guarded instructions are handled
conservatively (a guarded write does not kill the destination, since
inactive lanes keep the old value).
"""

from __future__ import annotations

from .cfg import CFG, DataflowAnalysis, build_cfg, solve
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
        if dst is not None:
            if guard is not None:
                reads.append(dst)   # partial write: old value still needed
            elif dst.key in live:
                # a write kills the register *before* (in reverse
                # order) the reads of the same instruction are added
                live.discard(dst.key)
                slots -= dst.slots
        for r in reads:
            if r.key not in live:
                live.add(r.key)
                slots += r.slots
        if slots > peak:
            peak = slots
    return live, peak


class _Liveness(DataflowAnalysis):
    """live-in(b) = gen(b) ∪ (live-out(b) − kill(b)), meet = union.

    ``peak`` holds each block's slot watermark under the live-out of
    its latest transfer — the final one once :func:`solve` returns.
    """

    direction = "backward"

    def __init__(self):
        self.peak: dict[int, int] = {}

    def transfer(self, block, instructions, fact):
        live, self.peak[block.index] = _scan_backward(instructions, fact)
        return frozenset(live)


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
    for b in cfg.rpo():
        if b not in live.peak:      # no path from here to an exit
            blk = cfg.blocks[b]
            live.transfer(blk, blk.instructions(cfg.instructions), ())
    return max(8, *live.peak.values())
