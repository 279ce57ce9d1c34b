"""Optimization passes over the SSA IR.

Every pass has the same shape: it takes an :class:`~repro.ir.ssa.SSAFunction`
and returns ``(new_instructions, stats)`` where ``stats`` is a flat
``{counter: int}`` dict.  Passes never mutate the input function; the
pipeline (:mod:`repro.ir.pipeline`) rebuilds the SSA view and re-runs
the structural verifier between passes.

All passes are *value-preserving*: they only remove recomputation of
a value that provably already exists (``gvn``, ``hoist``), rewrite an
integer operation to a bitwise-equal cheaper form (``strength``),
delete instructions whose results are never observed (``dce``), or
reorder pure single-use instructions (``sink``).  Field results are
therefore bitwise identical with the pipeline on or off.

Memory is modeled conservatively: kernel parameters may alias (the
destination pointer is also a source when the destination appears on
the right-hand side), so a ``st.global`` anywhere invalidates *every*
available load, and loads never move relative to stores.
"""

from __future__ import annotations

from ..ptx.isa import Immediate, Instruction, Register, Special
from .ssa import (
    SSAFunction,
    is_removable,
    is_speculative,
    source_registers,
)

#: Binary opcodes for which operand order does not matter.
COMMUTATIVE = frozenset({"add", "mul", "mul.lo", "mul.wide",
                         "min", "max", "and", "or", "xor"})
#: Three-operand multiply-adds: the first two operands commute.
MULADD = frozenset({"fma", "mad.lo"})


def _rewrite(inst: Instruction, repl: dict) -> Instruction:
    """Apply the register replacement map to one instruction."""
    if not repl:
        return inst
    changed = False
    srcs = []
    for op in inst.srcs:
        if isinstance(op, Register) and op.key in repl:
            srcs.append(repl[op.key])
            changed = True
        else:
            srcs.append(op)
    guard = inst.guard
    if guard is not None and guard.key in repl:
        guard = repl[guard.key]
        changed = True
    if not changed:
        return inst
    return Instruction(inst.opcode, inst.type, inst.dst, tuple(srcs),
                       cmp=inst.cmp, src_type=inst.src_type,
                       label=inst.label, guard=guard,
                       guard_negated=inst.guard_negated)


# --- global value numbering ------------------------------------------------

def _operand_key(op, numbers: dict):
    if isinstance(op, Register):
        key = op.key
        return ("v", numbers.get(key, key))
    if isinstance(op, Immediate):
        v = op.value
        return ("i", op.type.value,
                float(v) if op.type.is_float else int(v))
    if isinstance(op, Special):
        return ("s", op.which)
    # _ParamRef (ld.param): identified by the parameter name
    return ("p", getattr(op, "pname", str(op)))


def _value_key(inst: Instruction, numbers: dict):
    ops = [_operand_key(op, numbers) for op in inst.srcs]
    if inst.opcode in COMMUTATIVE:
        ops.sort()
    elif inst.opcode in MULADD:
        ops[:2] = sorted(ops[:2])
    guard = (None if inst.guard is None
             else (_operand_key(inst.guard, numbers), inst.guard_negated))
    return (inst.opcode,
            inst.type.value if inst.type is not None else None,
            inst.cmp,
            inst.src_type.value if inst.src_type is not None else None,
            guard, tuple(ops))


def gvn(fn: SSAFunction) -> tuple[list[Instruction], dict]:
    """Global value numbering over pure instructions.

    Two instructions computing the same value — same opcode, type and
    *value numbers* of their operands, with commutative operands
    canonically ordered — collapse onto the first, provided its block
    dominates the later occurrence.  This generalizes the fusion
    layer's per-group structural CSE memo: the memo keys on AST shape
    and misses e.g. ``a*b`` vs ``b*a``; value numbering does not.

    ``ld.global`` is excluded (its value depends on memory state; see
    :func:`hoist`), as is everything without a destination.

    Reuse is *pressure-bounded*: a recomputation is collapsed only
    while the earlier value is still live (their live ranges
    overlap).  Merging then removes the duplicate's whole range and
    any extension of the canonical range is covered by it, so the
    register pressure at every program point stays the same or drops.
    Merging across a *gap* — the canonical value already dead when
    the duplicate is defined — is refused: it would keep the value
    live through the gap, and deduplicating e.g. the per-word address
    chains shared by several statements of a fused kernel that way
    keeps dozens of 64-bit offsets live across the whole kernel.
    Trading instructions for registers is the wrong trade here: the
    occupancy model charges the liveness-based register footprint,
    and recomputation is cheap.
    """
    dom = fn.cfg.dominators()
    last_use = {key: max(positions) for key, positions in fn.uses.items()}
    numbers: dict = {}          # register key -> value number
    table: dict = {}            # value key -> (Register, block, number)
    repl: dict = {}
    next_number = 0
    out: list[Instruction] = []
    stats = {"values_numbered": 0, "eliminated": 0}

    for pos, inst in enumerate(fn.instructions):
        inst = _rewrite(inst, repl)
        if not is_speculative(inst):
            if inst.dst is not None:
                numbers[inst.dst.key] = next_number
                next_number += 1
            out.append(inst)
            continue
        block = fn.pos_block[pos]
        dup_key = inst.dst.key
        key = _value_key(inst, numbers)
        hit = table.get(key)
        if hit is not None:
            canon, canon_block, number = hit
            canon_key = canon.key
            dominates = (canon_block == block
                         or canon_block in dom.get(block, ()))
            still_live = pos <= last_use.get(canon_key, -1)
            if dominates and still_live:
                repl[dup_key] = canon
                numbers[dup_key] = number
                last_use[canon_key] = max(last_use[canon_key],
                                          last_use.get(dup_key, pos))
                stats["eliminated"] += 1
                continue
        numbers[dup_key] = next_number
        table[key] = (inst.dst, block, next_number)
        next_number += 1
        stats["values_numbered"] += 1
        out.append(inst)
    return out, stats


# --- redundant-load hoisting -----------------------------------------------

def hoist(fn: SSAFunction) -> tuple[list[Instruction], dict]:
    """Redundant-load elimination (the load-hoisting pass).

    A ``ld.global`` whose address register, type and guard match an
    earlier load — with the earlier load's block dominating this one
    and **no store in between** — reuses the earlier result instead
    of touching memory again.  With the forward-only control flow the
    generators emit, "in between" in layout order covers every
    execution path, so a single availability table with a clear-on-
    store epoch is sound; kernels with backward edges skip the pass.

    Reuse is pressure-bounded exactly like :func:`gvn`: the earlier
    loaded value is reused only while it is still live, so the pass
    never trades registers for the eliminated loads.
    """
    stats = {"loads_eliminated": 0}
    if fn.has_backward_edge():
        return list(fn.instructions), stats
    dom = fn.cfg.dominators()
    last_use = {key: max(positions) for key, positions in fn.uses.items()}
    avail: dict = {}   # (addr key, type, guard key) -> (Register, block)
    repl: dict = {}
    out: list[Instruction] = []

    for pos, inst in enumerate(fn.instructions):
        inst = _rewrite(inst, repl)
        if inst.opcode == "st.global":
            avail.clear()
            out.append(inst)
            continue
        if inst.opcode == "ld.global":
            (addr,) = inst.srcs
            guard = (None if inst.guard is None
                     else (inst.guard.key, inst.guard_negated))
            key = (addr.key, inst.type.value, guard)
            block = fn.pos_block[pos]
            dup_key = inst.dst.key
            hit = avail.get(key)
            if hit is not None:
                canon, canon_block = hit
                canon_key = canon.key
                dominates = (canon_block == block
                             or canon_block in dom.get(block, ()))
                still_live = pos <= last_use.get(canon_key, -1)
                if dominates and still_live:
                    repl[dup_key] = canon
                    last_use[canon_key] = max(last_use[canon_key],
                                              last_use.get(dup_key, pos))
                    stats["loads_eliminated"] += 1
                    continue
            avail[key] = (inst.dst, block)
        out.append(inst)
    return out, stats


# --- strength reduction ----------------------------------------------------

def _imm_int(op) -> int | None:
    if isinstance(op, Immediate) and op.type.is_int:
        return int(op.value)
    return None


def strength(fn: SSAFunction) -> tuple[list[Instruction], dict]:
    """Strength reduction on integer index arithmetic.

    Bitwise-equal rewrites only (low-bits integer arithmetic in two's
    complement), so field results cannot change:

    * ``mul.lo r, a, 2^k``  →  ``shl r, a, k``
    * ``mul.lo r, a, 1``    →  copy-propagate ``a``
    * ``mad.lo r, a, 0, c`` →  copy-propagate ``c``
    * ``mad.lo r, a, 1, c`` →  ``add r, a, c``
    * ``add/sub r, a, 0`` / ``shl r, a, 0``  →  copy-propagate ``a``

    Floating point is never touched (identities change rounding and
    signed-zero/NaN behavior).  Copies are recorded in a replacement
    map rather than emitted as ``mov``; the defining instruction goes
    dead and ``dce`` removes it.
    """
    repl: dict = {}
    out: list[Instruction] = []
    stats = {"reduced": 0, "copies_propagated": 0}

    for inst in fn.instructions:
        inst = _rewrite(inst, repl)
        t = inst.type
        if (inst.dst is None or inst.guard is not None
                or t is None or not t.is_int):
            out.append(inst)
            continue
        op = inst.opcode
        if op == "mul.lo":
            a, b = inst.srcs
            if _imm_int(a) is not None and isinstance(b, Register):
                a, b = b, a
            v = _imm_int(b)
            if isinstance(a, Register) and v is not None:
                if v == 1:
                    repl[inst.dst.key] = a
                    stats["copies_propagated"] += 1
                    continue
                if v > 1 and (v & (v - 1)) == 0:
                    out.append(Instruction(
                        "shl", t, inst.dst,
                        (a, Immediate(t, v.bit_length() - 1))))
                    stats["reduced"] += 1
                    continue
        elif op == "mad.lo":
            a, b, c = inst.srcs
            if _imm_int(a) is not None and isinstance(b, Register):
                a, b = b, a
            v = _imm_int(b)
            if isinstance(a, Register) and v is not None:
                if v == 0 and isinstance(c, Register):
                    repl[inst.dst.key] = c
                    stats["copies_propagated"] += 1
                    continue
                if v == 1:
                    out.append(Instruction("add", t, inst.dst, (a, c)))
                    stats["reduced"] += 1
                    continue
        elif op in ("add", "shl", "shr", "or", "xor", "sub"):
            a, b = inst.srcs
            if op == "add" and _imm_int(a) == 0 and isinstance(b, Register):
                a, b = b, a
            if isinstance(a, Register) and _imm_int(b) == 0:
                repl[inst.dst.key] = a
                stats["copies_propagated"] += 1
                continue
        out.append(inst)
    return out, stats


# --- rematerialization -----------------------------------------------------

#: Minimum def-to-use distance (instructions) before a value is worth
#: recomputing at the use, and the maximum distance a clone is reused.
REMAT_DISTANCE = 32
#: Largest pure chain (instructions) cloned for one rematerialization.
REMAT_MAX_CHAIN = 12


def remat(fn: SSAFunction) -> tuple[list[Instruction], dict]:
    """Split long live ranges by recomputing pure values near their uses.

    The dominant register cost in the generated kernels is not
    transient arithmetic but values computed once and consumed much
    later — above all the per-word address chains the builder's CSE
    memo shares across the statements of a fused kernel.  Each such
    address is a 64-bit register held live across hundreds of
    instructions; together they set the liveness peak the occupancy
    model charges.

    This pass is deliberately the *inverse* of :func:`gvn` where GVN's
    trade is wrong: when an operand's definition is more than
    ``REMAT_DISTANCE`` instructions above the use, the pure chain that
    computes it (arithmetic, conversions, ``ld.param`` — never
    ``ld.global``, whose value depends on memory state) is re-emitted
    just before the use into fresh registers.  The original's live
    range contracts to its nearby uses (and :func:`dce` deletes it
    outright when every use was redirected); each clone lives only a
    few instructions.  Chain sources that are still live at the use
    are referenced directly — never extending any original range —
    and a clone is reused by later uses within ``REMAT_DISTANCE`` so
    repeated remats of the same value don't recreate the long range.

    Recomputed integer and float arithmetic over identical inputs is
    bitwise deterministic, so field results are unchanged.

    Registers compared in a ``setp`` are never cloned: the abstract
    interpreter refines their range along the branch edges (the
    ``gid < n`` bounds guard), and a recomputed copy is a fresh name
    that refinement does not reach — the in-bounds proof would fall
    back to the guard-domination heuristic.  Chains reference such
    registers directly while they are live, or stay put.
    """
    instrs = fn.instructions
    def_pos = fn.defs
    last_use = {key: max(ps) for key, ps in fn.uses.items()}
    refined = {op.key for inst in instrs if inst.opcode == "setp"
               for op in inst.srcs if isinstance(op, Register)}

    next_index: dict = {}
    for inst in instrs:
        for r in (*source_registers(inst),
                  *((inst.dst,) if inst.dst is not None else ())):
            t = r.type
            if r.index >= next_index.get(t, 0):
                next_index[t] = r.index + 1

    def fresh(t) -> Register:
        i = next_index.get(t, 0)
        next_index[t] = i + 1
        return Register(t, i)

    def plan(key, pos, acc, planned) -> bool:
        """Topo-order the def positions to clone so ``key`` is
        computable at ``pos``; False if the chain leaves the pure
        fragment or grows past ``REMAT_MAX_CHAIN``."""
        if key in planned:
            return True
        dpos = def_pos.get(key)
        if dpos is None:
            return False
        if last_use.get(key, -1) >= pos:
            return True          # still live: reference it directly
        if key in refined:
            return False
        d = instrs[dpos]
        if not is_speculative(d) or d.guard is not None:
            return False
        for s in source_registers(d):
            if not plan(s.key, pos, acc, planned):
                return False
        planned.add(key)
        acc.append(dpos)
        return len(acc) <= REMAT_MAX_CHAIN

    stats = {"rematerialized": 0, "cloned": 0}
    out: list[Instruction] = []
    for blk in fn.cfg.blocks:
        cache: dict = {}     # orig key -> (clone Register, clone site)
        for pos in range(blk.start, blk.stop):
            inst = instrs[pos]
            repl: dict = {}
            for r in source_registers(inst):
                key = r.key
                if key in repl:
                    continue
                dpos = def_pos.get(key)
                if (dpos is None or pos - dpos <= REMAT_DISTANCE
                        or key in refined):
                    continue
                hit = cache.get(key)
                if hit is not None and pos - hit[1] <= REMAT_DISTANCE:
                    repl[key] = hit[0]
                    continue
                d = instrs[dpos]
                if not is_speculative(d) or d.guard is not None:
                    continue
                acc: list[int] = []
                planned: set = set()
                ok = all(plan(s.key, pos, acc, planned)
                         for s in source_registers(d))
                if not ok or len(acc) >= REMAT_MAX_CHAIN:
                    continue
                mapping: dict = {}
                for cpos in acc + [dpos]:
                    ci = instrs[cpos]
                    nd = fresh(ci.dst.type)
                    out.append(_rewrite(
                        Instruction(ci.opcode, ci.type, nd, ci.srcs,
                                    cmp=ci.cmp, src_type=ci.src_type),
                        mapping))
                    mapping[ci.dst.key] = nd
                    stats["cloned"] += 1
                clone = mapping[d.dst.key]
                cache[key] = (clone, pos)
                repl[key] = clone
                stats["rematerialized"] += 1
            out.append(_rewrite(inst, repl))
    return out, stats


# --- dead-code elimination -------------------------------------------------

def dce(fn: SSAFunction) -> tuple[list[Instruction], dict]:
    """Remove instructions whose results are never observed.

    Transitive: removing an instruction drops the use counts of its
    sources, which may expose them as dead in turn.  Stores, control
    flow and labels are never removed (dead-*store* elimination here
    means stores of dead *values* disappear with their computation
    only when the store itself was already eliminated upstream — a
    store to a kernel output is always observable).
    """
    insts = list(fn.instructions)
    counts: dict = {}
    for inst in insts:
        for r in source_registers(inst):
            counts[r.key] = counts.get(r.key, 0) + 1

    removed: set[int] = set()
    changed = True
    while changed:
        changed = False
        for pos in range(len(insts) - 1, -1, -1):
            if pos in removed:
                continue
            inst = insts[pos]
            if not is_removable(inst):
                continue
            if counts.get(inst.dst.key, 0):
                continue
            removed.add(pos)
            changed = True
            for r in source_registers(inst):
                counts[r.key] -= 1
    out = [inst for pos, inst in enumerate(insts) if pos not in removed]
    return out, {"removed": len(removed)}


# --- register-pressure sink ------------------------------------------------

def sink(fn: SSAFunction) -> tuple[list[Instruction], dict]:
    """Move pure single-use instructions down to just before their use.

    The builder leaves some values live far from their sole consumer;
    shrinking those live ranges is what actually lowers the
    liveness-based register footprint the occupancy model charges.
    Only speculative instructions (pure arithmetic / ``ld.param``)
    move, only within their basic block, so memory order and control
    flow are untouched.

    A move must not *extend* any live range either: the instruction
    sinks only if every register it reads stays live up to the
    landing point anyway (a later use exists).  Otherwise sinking a
    value would drag all its sources down with it — sinking the
    products of a reduction tree toward the final sum, for example,
    keeps every loaded operand live to the end of the kernel and
    multiplies the pressure it was meant to reduce.
    """
    use_count = fn.use_counts()
    use_pos: dict = {}
    for key, positions in fn.uses.items():
        use_pos[key] = positions[0] if len(positions) == 1 else None
    last_use = {key: max(positions) for key, positions in fn.uses.items()}

    moved = 0
    out: list[Instruction] = []
    for blk in fn.cfg.blocks:
        deferred: dict = {}          # register key -> Instruction
        block_out: list[Instruction] = []

        def emit(inst: Instruction) -> None:
            for r in source_registers(inst):
                pending = deferred.pop(r.key, None)
                if pending is not None:
                    emit(pending)
            block_out.append(inst)

        for pos in range(blk.start, blk.stop):
            inst = fn.instructions[pos]
            key = inst.dst.key if inst.dst is not None else None
            up = use_pos.get(key) if key is not None else None
            movable = (key is not None
                       and is_speculative(inst)
                       and use_count.get(key, 0) == 1
                       and up is not None
                       and blk.start <= up < blk.stop
                       and up > pos
                       and all(last_use.get(r.key, -1) >= up
                               for r in source_registers(inst)))
            if movable:
                deferred[key] = inst
            else:
                emit(inst)
        # Anything still deferred has its use inside this block (the
        # movable test guarantees it), so the chain above must have
        # drained; flush defensively in original order regardless.
        for pos in range(blk.start, blk.stop):
            inst = fn.instructions[pos]
            key = inst.dst.key if inst.dst is not None else None
            if key is not None and deferred.get(key) is inst:
                block_out.append(deferred.pop(key))
        original = fn.instructions[blk.start:blk.stop]
        moved += sum(1 for a, b in zip(original, block_out) if a is not b)
        out.extend(block_out)
    return out, {"moved": moved}


#: Ordered registry: pipeline order is the dict order.
PASSES = {
    "gvn": gvn,
    "hoist": hoist,
    "strength": strength,
    "remat": remat,
    "dce": dce,
    "sink": sink,
}
