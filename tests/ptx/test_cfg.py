"""Tests for CFG construction, dominators, and the liveness solver."""

import pytest

from repro.ptx import KernelBuilder, PTXType
from repro.ptx.cfg import BackwardBranchError, build_cfg
from repro.ptx.liveness import solve


def _diamond():
    """if (p) {A} else {B}; join — four blocks."""
    kb = KernelBuilder("diamond")
    pn = kb.add_param("p_n", PTXType.S32)
    n = kb.ld_param(pn)
    gid = kb.global_thread_id()
    p = kb.setp("ge", gid, n)
    kb.bra("$ELSE", guard=p)
    kb.mov(kb.imm(1.0, PTXType.F64))        # then-arm
    kb.bra("$JOIN")
    kb.label("$ELSE")
    kb.mov(kb.imm(2.0, PTXType.F64))        # else-arm
    kb.label("$JOIN")
    kb.ret()
    return kb


def _loop():
    """One-block loop body with a conditional back edge."""
    kb = KernelBuilder("loop")
    x = kb.mov(kb.imm(0.0, PTXType.F32))
    kb.label("$LOOP")
    x = kb.add(x, kb.imm(1.0, PTXType.F32))
    p = kb.setp("lt", x, kb.imm(100.0, PTXType.F32))
    kb.bra("$LOOP", guard=p)
    kb.ret()
    return kb


class TestBlocks:
    def test_straight_line_is_one_block(self):
        kb = KernelBuilder("straight")
        v = kb.mov(kb.imm(1.0, PTXType.F64))
        kb.add(v, v)
        kb.ret()
        cfg = build_cfg(kb.instructions)
        assert len(cfg.blocks) == 1
        assert cfg.blocks[0].successors == []

    def test_diamond_shape(self):
        cfg = build_cfg(_diamond().instructions)
        assert len(cfg.blocks) == 4
        entry, then, els, join = cfg.blocks
        # entry branches to else and falls through to then
        assert set(entry.successors) == {then.index, els.index}
        assert then.successors == [join.index]
        assert els.successors == [join.index]
        assert set(join.predecessors) == {then.index, els.index}
        assert els.label == "$ELSE"
        assert join.label == "$JOIN"

    def test_unconditional_branch_does_not_fall_through(self):
        cfg = build_cfg(_diamond().instructions)
        then = cfg.blocks[1]          # ends in unguarded `bra $JOIN`
        assert then.successors == [3]  # only the branch target

    def test_block_of(self):
        """The blocks' ``start``/``stop`` tile the instruction list in
        order: every instruction is in exactly one block."""
        kb = _diamond()
        cfg = build_cfg(kb.instructions)
        assert [b.index for b in cfg.blocks] == list(range(len(cfg.blocks)))
        bounds = [(b.start, b.stop) for b in cfg.blocks]
        assert bounds[0][0] == 0 and bounds[-1][1] == len(kb.instructions)
        assert all(start < stop for start, stop in bounds)
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))

    def test_loop_back_edge(self):
        """No graph has a back edge: a loop is rejected, and so is a
        jump back to a block that only returns (no cycle)."""
        with pytest.raises(BackwardBranchError, match=r"'\$LOOP'") as exc:
            build_cfg(_loop().instructions)
        assert exc.value.label == "$LOOP"
        kb = KernelBuilder("back")
        kb.bra("$FWD")
        kb.label("$DONE")
        kb.ret()
        kb.label("$FWD")
        kb.mov(kb.imm(1.0, PTXType.F64))
        kb.bra("$DONE")
        with pytest.raises(BackwardBranchError, match=r"'\$DONE'"):
            build_cfg(kb.instructions)


class TestReachability:
    def test_code_after_unconditional_branch_is_unreachable(self):
        kb = KernelBuilder("dead")
        kb.bra("$END")
        kb.mov(kb.imm(1.0, PTXType.F64))   # dead
        kb.label("$END")
        kb.ret()
        cfg = build_cfg(kb.instructions)
        (dead,) = [b.index for b in cfg.blocks if b.start <= 1 < b.stop]
        assert dead not in cfg.reachable()

    def test_rpo_starts_at_entry_ends_at_exit(self):
        cfg = build_cfg(_diamond().instructions)
        order = cfg.rpo()
        assert order[0] == cfg.entry
        assert order[-1] == 3              # the join block
        assert len(order) == 4


class TestDominators:
    def test_diamond(self):
        cfg = build_cfg(_diamond().instructions)
        dom = cfg.dominators()
        entry, then, els, join = range(4)
        assert dom[entry] == {entry}
        assert dom[then] == {entry, then}
        assert dom[els] == {entry, els}
        # neither arm dominates the join; only the entry does
        assert dom[join] == {entry, join}


class _BlocksAhead:
    """Toy transfer in the liveness solver's shape: indices of the
    blocks still to execute (a may-analysis, meet = union)."""

    def transfer(self, block, instructions, fact):
        return fact | {block.index}


class TestSolver:
    def test_backward_union(self):
        cfg = build_cfg(_diamond().instructions)
        ends, tops = solve(cfg, _BlocksAhead())
        # at the branch, both arms' facts merge
        assert ends[0] == {1, 2, 3}
        assert tops[0] == {0, 1, 2, 3}
