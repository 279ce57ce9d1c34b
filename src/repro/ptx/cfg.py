"""Control-flow graphs over PTX streams.

The verifier, the abstract interpreter and the liveness analysis all
need to reason about *paths* through a kernel, not just its textual
order: a register may be defined on one arm of a branch only.  This
module provides the shared graph: basic-block construction from a flat
instruction list, reachability, reverse postorder and dominators.

Every ``bra`` must target a label after it (DESIGN.md §11):
:func:`build_cfg` raises :class:`BackwardBranchError` otherwise, so no
graph has a back edge and every analysis is one sweep in reverse
postorder, each block after all its predecessors.

Control flow in the dialect is ``bra`` (optionally guarded) and
``ret`` (optionally guarded); a guarded terminator falls through as
well as transferring, an unguarded one does not.  Branches to labels
that do not exist simply produce no edge — the verifier's operand
pass reports them, and every other analysis stays well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .isa import Instruction


class BackwardBranchError(ValueError):
    """A ``bra`` targets a label at or before it."""

    def __init__(self, label: str):
        super().__init__(f"backward branch to {label!r}")
        self.label = label


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions.

    ``start``/``stop`` index into the owning CFG's instruction list
    (half-open).  ``label`` is the block's leading label, if any.
    """

    index: int
    start: int
    stop: int
    label: str | None = None
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    def instructions(self, all_instructions: list[Instruction]):
        return all_instructions[self.start:self.stop]


class CFG:
    """The control-flow graph of one kernel."""

    def __init__(self, instructions: list[Instruction],
                 blocks: list[BasicBlock]):
        self.instructions = instructions
        self.blocks = blocks
        self._rpo: list[int] | None = None

    @property
    def entry(self) -> int:
        return 0

    def reachable(self) -> set[int]:
        """Blocks reachable from the entry."""
        return set(self.rpo())

    def rpo(self) -> list[int]:
        """Reverse postorder over the reachable blocks (computed once;
        the graph is never edited after :func:`build_cfg`)."""
        if self._rpo is None:
            seen = {self.entry}
            order: list[int] = []
            # iterative DFS: (block, next-successor-position) pairs
            stack = [(self.entry, 0)] if self.blocks else []
            while stack:
                blk, i = stack[-1]
                succs = self.blocks[blk].successors
                if i < len(succs):
                    stack[-1] = (blk, i + 1)
                    s = succs[i]
                    if s not in seen:
                        seen.add(s)
                        stack.append((s, 0))
                else:
                    order.append(blk)
                    stack.pop()
            order.reverse()
            self._rpo = order
        return self._rpo

    def dominators(self) -> dict[int, set[int]]:
        """Dominator sets for every reachable block.

        ``b in dominators()[x]`` iff every path from the entry to
        ``x`` passes through ``b``: one pass in reverse postorder
        intersects the sets of a block's reachable predecessors, all
        already final.
        """
        dom: dict[int, set[int]] = {}
        for b in self.rpo():
            preds = [dom[p] for p in self.blocks[b].predecessors if p in dom]
            dom[b] = set.intersection(*preds) | {b} if preds else {b}
        return dom


def build_cfg(instructions: list[Instruction]) -> CFG:
    """Partition an instruction stream into basic blocks with edges.

    Raises :class:`BackwardBranchError` for a ``bra`` whose label is at
    or before it (a loop, or a jump back that forms no cycle).
    """
    n = len(instructions)
    # -- leaders: entry, label targets, and fall-throughs of terminators
    leaders = {0}
    placed = set()
    for i, inst in enumerate(instructions):
        if inst.opcode == "label":
            leaders.add(i)
            placed.add(inst.label)
        elif inst.opcode == "bra" and inst.label in placed:
            raise BackwardBranchError(inst.label)
        elif inst.opcode in ("bra", "ret") and i + 1 < n:
            leaders.add(i + 1)
    starts = sorted(leaders) if n else [0]

    blocks: list[BasicBlock] = []
    label_block: dict[str, int] = {}
    for bi, start in enumerate(starts):
        stop = starts[bi + 1] if bi + 1 < len(starts) else n
        label = None
        if start < n and instructions[start].opcode == "label":
            label = instructions[start].label
        blocks.append(BasicBlock(index=bi, start=start, stop=stop,
                                 label=label))
        if label is not None:
            label_block[label] = bi

    def link(src: int, dst: int) -> None:
        if dst not in blocks[src].successors:
            blocks[src].successors.append(dst)
        if src not in blocks[dst].predecessors:
            blocks[dst].predecessors.append(src)

    for b in blocks:
        if b.start == b.stop:          # empty block (empty program)
            continue
        last = instructions[b.stop - 1]
        falls_through = True
        if last.opcode == "bra":
            target = label_block.get(last.label)
            if target is not None:
                link(b.index, target)
            falls_through = last.guard is not None
        elif last.opcode == "ret":
            falls_through = last.guard is not None
        if falls_through and b.index + 1 < len(blocks):
            link(b.index, b.index + 1)
    return CFG(instructions, blocks)
