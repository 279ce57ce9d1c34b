"""Control-flow graphs and dataflow analysis over PTX streams.

The verifier and the liveness analysis both need to reason about
*paths* through a kernel, not just its textual order: a register may
be defined on one arm of a branch only, and a value may be live
around a loop's back edge.  This module provides the shared
machinery: basic-block construction from a flat instruction list,
reachability, dominators, and a generic forward/backward dataflow
solver.  The solver sweeps the blocks in reverse postorder: on an
acyclic CFG — every generated kernel, whose branches all go forward —
one sweep *is* the fixpoint; a CFG with a back edge (hand-written
loops) is swept round-robin until nothing changes.

Control flow in the dialect is ``bra`` (optionally guarded) and
``ret`` (optionally guarded); a guarded terminator falls through as
well as transferring, an unguarded one does not.  Branches to labels
that do not exist simply produce no edge — the verifier's operand
pass reports them, and every other analysis stays well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .isa import Instruction


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

    def block_of(self, inst_index: int) -> int:
        """The block containing instruction ``inst_index``."""
        for b in self.blocks:
            if b.start <= inst_index < b.stop:
                return b.index
        raise IndexError(f"instruction {inst_index} not in any block")

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

    @property
    def is_acyclic(self) -> bool:
        """No retreating edge: every edge leads forward in reverse
        postorder, so one sweep in that order sees each block after
        all its predecessors."""
        position = {b: i for i, b in enumerate(self.rpo())}
        return all(position[s] > i for b, i in position.items()
                   for s in self.blocks[b].successors)

    def dominators(self) -> dict[int, set[int]]:
        """Dominator sets for every reachable block.

        ``b in dominators()[x]`` iff every path from the entry to
        ``x`` passes through ``b``.  Computed with the standard
        iterative intersection over reverse postorder.
        """
        order = self.rpo()
        reachable = set(order)
        dom: dict[int, set[int]] = {self.entry: {self.entry}}
        changed = True
        while changed:
            changed = False
            for b in order:
                if b == self.entry:
                    continue
                preds = [p for p in self.blocks[b].predecessors
                         if p in reachable and p in dom]
                if not preds:
                    continue
                new = set.intersection(*(dom[p] for p in preds)) | {b}
                if dom.get(b) != new:
                    dom[b] = new
                    changed = True
        return dom


def build_cfg(instructions: list[Instruction]) -> CFG:
    """Partition an instruction stream into basic blocks with edges."""
    n = len(instructions)
    # -- leaders: entry, label targets, and fall-throughs of terminators
    leaders = {0}
    for i, inst in enumerate(instructions):
        if inst.opcode == "label":
            leaders.add(i)
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


class DataflowAnalysis:
    """Base class for dataflow problems over a :class:`CFG`.

    Facts are arbitrary immutable values (typically ``frozenset``).
    Subclasses set ``direction`` and implement :meth:`boundary` (the
    fact at the entry for forward problems, at every exit for
    backward ones), :meth:`meet` and :meth:`transfer`.  ``transfer``
    receives the fact flowing *into* the block — for a backward
    problem that is the fact at the block's end.
    """

    direction = "forward"   # or "backward"

    def boundary(self):
        return frozenset()

    def meet(self, facts):
        """Combine facts from multiple edges (default: union)."""
        out = frozenset()
        for f in facts:
            out = out | f
        return out

    def transfer(self, block: BasicBlock, instructions, fact):
        raise NotImplementedError


def solve(cfg: CFG, analysis: DataflowAnalysis):
    """Run ``analysis`` to fixpoint over ``cfg`` — a single sweep
    when the CFG is acyclic.

    Returns ``(inputs, outputs)``: dicts keyed by block index holding
    the fact entering and leaving each block's transfer function.
    Unreachable blocks are absent from both.  For backward problems
    "entering" means the fact at the block's *end*.
    """
    forward = analysis.direction == "forward"
    order = cfg.rpo()
    if not forward:
        order = list(reversed(order))
    reachable = set(order)
    # acyclic: every feeding block is swept before its reader
    one_sweep = cfg.is_acyclic

    inputs: dict[int, object] = {}
    outputs: dict[int, object] = {}
    changed = True
    while changed:
        changed = False
        for b in order:
            blk = cfg.blocks[b]
            edges = blk.predecessors if forward else blk.successors
            feeds = [outputs[e] for e in edges
                     if e in reachable and e in outputs]
            at_boundary = ((forward and b == cfg.entry)
                           or (not forward and not blk.successors))
            if at_boundary:
                feeds = feeds + [analysis.boundary()]
            if not feeds:
                continue
            fact_in = analysis.meet(feeds)
            fact_out = analysis.transfer(
                blk, blk.instructions(cfg.instructions), fact_in)
            if inputs.get(b) != fact_in or outputs.get(b) != fact_out:
                inputs[b] = fact_in
                outputs[b] = fact_out
                changed = True
        if one_sweep:
            break
    return inputs, outputs
