"""Tests for module rendering, static verification, and liveness."""

import pytest

from repro.ptx import (
    KernelBuilder,
    PTXModule,
    PTXType,
    PTXVerificationError,
    verify,
)
from repro.ptx.liveness import max_live_registers


def _simple_kernel():
    kb = KernelBuilder("axpy")
    pn = kb.add_param("p_n", PTXType.S32)
    px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
    py = kb.add_param("p_y", PTXType.U64, is_pointer=True)
    pa = kb.add_param("p_a", PTXType.F64)
    n = kb.ld_param(pn)
    x = kb.ld_param(px)
    y = kb.ld_param(py)
    a = kb.ld_param(pa)
    gid = kb.global_thread_id()
    oob = kb.setp("ge", gid, n)
    exit_l = kb.new_label("EXIT")
    kb.bra(exit_l, guard=oob)
    off = kb.mul(kb.cvt(gid, PTXType.S64), kb.imm(8, PTXType.S64))
    off = kb.cvt(off, PTXType.U64)
    xa = kb.add(x, off)
    ya = kb.add(y, off)
    vx = kb.ld_global(xa, PTXType.F64)
    vy = kb.ld_global(ya, PTXType.F64)
    kb.st_global(ya, kb.fma(a, vx, vy), PTXType.F64)
    kb.label(exit_l)
    kb.ret()
    return kb


class TestModuleRender:
    def test_header(self):
        mod = PTXModule.from_builder(_simple_kernel())
        text = mod.render()
        assert text.startswith(".version 3.1")
        assert ".target sm_35" in text
        assert ".address_size 64" in text

    def test_entry_and_params(self):
        text = PTXModule.from_builder(_simple_kernel()).render()
        assert ".visible .entry axpy(" in text
        assert ".param .u64 .ptr .global p_x" in text
        assert ".param .f64 p_a" in text

    def test_register_declarations(self):
        text = PTXModule.from_builder(_simple_kernel()).render()
        assert ".reg .f64 %fd<" in text
        assert ".reg .pred %p<" in text

    def test_body_contains_instructions(self):
        text = PTXModule.from_builder(_simple_kernel()).render()
        assert "ld.param.u64 %ru0, [p_x];" in text
        assert "fma.rn.f64" in text
        assert text.rstrip().endswith("}")


class TestVerifier:
    def test_valid_kernel_passes(self):
        verify(PTXModule.from_builder(_simple_kernel()))

    def test_undefined_register_caught(self):
        from repro.ptx.isa import Instruction, Register

        kb = KernelBuilder("bad")
        ghost = Register(PTXType.F64, 99)
        dst = kb.new_reg(PTXType.F64)
        kb.emit(Instruction("add", PTXType.F64, dst, (ghost, ghost)))
        with pytest.raises(PTXVerificationError, match="no definition"):
            verify(PTXModule.from_builder(kb))

    def test_branch_to_unknown_label_caught(self):
        kb = KernelBuilder("bad")
        kb.bra("$NOWHERE")
        with pytest.raises(PTXVerificationError, match="undefined label"):
            verify(PTXModule.from_builder(kb))

    def test_type_mismatch_caught(self):
        from repro.ptx.isa import Instruction

        kb = KernelBuilder("bad")
        a = kb.mov(kb.imm(1.0, PTXType.F32))
        dst = kb.new_reg(PTXType.F64)
        kb.emit(Instruction("add", PTXType.F64, dst, (a, a)))
        with pytest.raises(PTXVerificationError, match="type"):
            verify(PTXModule.from_builder(kb))

    def test_ld_param_of_undeclared_param(self):
        from repro.ptx.isa import Instruction, ParamRef

        kb = KernelBuilder("bad")
        dst = kb.new_reg(PTXType.S32)
        kb.emit(Instruction("ld.param", PTXType.S32, dst,
                            (ParamRef("p_ghost"),)))
        with pytest.raises(PTXVerificationError, match="undeclared"):
            verify(PTXModule.from_builder(kb))

    def test_store_address_must_be_u64(self):
        from repro.ptx.isa import Instruction

        kb = KernelBuilder("bad")
        addr = kb.mov(kb.imm(8, PTXType.S64))
        val = kb.mov(kb.imm(1.0, PTXType.F64))
        kb.emit(Instruction("st.global", PTXType.F64, None, (addr, val)))
        with pytest.raises(PTXVerificationError, match="u64"):
            verify(PTXModule.from_builder(kb))


class TestLiveness:
    def test_floor_is_eight(self):
        kb = KernelBuilder("tiny")
        kb.mov(kb.imm(0, PTXType.S32))
        kb.ret()
        assert max_live_registers(kb.instructions) == 8

    def test_chain_has_low_pressure(self):
        # a long dependency chain keeps only ~2 values live
        kb = KernelBuilder("chain")
        v = kb.mov(kb.imm(1.0, PTXType.F32))
        for _ in range(100):
            v = kb.add(v, kb.imm(1.0, PTXType.F32))
        kb.ret()
        assert max_live_registers(kb.instructions) <= 10

    def test_fanout_has_high_pressure(self):
        # many values all consumed at the end stay live together
        kb = KernelBuilder("fan")
        vals = [kb.mov(kb.imm(float(i), PTXType.F32)) for i in range(32)]
        acc = vals[0]
        for v in vals[1:]:
            acc = kb.add(acc, v)
        kb.ret()
        assert max_live_registers(kb.instructions) >= 32

    def test_loop_carried_registers_counted_through_back_edge(self):
        """Regression guard for the CFG fixpoint: registers carried
        around a loop's back edge must be counted live through the
        *whole* loop body.

        The kernel below uses ten f64 registers at the loop top, then
        redefines them mid-loop; textually they are dead at the loop
        bottom, but along the back edge the new values flow to the
        next iteration's top uses, so they are live across the burst
        of ten f64 temporaries that follows.  A single linear backward
        sweep (no fixpoint) sees the carried group and the burst group
        live in disjoint textual windows and peaks around 28 slots;
        only the iterated CFG dataflow sees both groups live at once
        (20 + 20 slots, plus sinks/counters/pointer).
        """
        from repro.ptx.isa import Instruction

        kb = KernelBuilder("carried")
        pn = kb.add_param("p_n", PTXType.S32)
        po = kb.add_param("p_out", PTXType.U64, is_pointer=True)
        n = kb.ld_param(pn)
        out = kb.ld_param(po)
        i = kb.mov(kb.imm(0, PTXType.S32))
        sink = kb.mov(kb.imm(0.0, PTXType.F64))
        sink2 = kb.mov(kb.imm(0.0, PTXType.F64))
        vs = [kb.mov(kb.imm(float(k), PTXType.F64)) for k in range(10)]
        loop = kb.new_label("LOOP")
        kb.label(loop)
        # top-of-loop uses of the carried registers
        for v in vs:
            kb.emit(Instruction("add", PTXType.F64, sink, (sink, v)))
        # redefinitions: textually dead below this point, but live
        # around the back edge up to the next iteration's uses
        for k, v in enumerate(vs):
            kb.emit(Instruction("mov", PTXType.F64, v,
                                (kb.imm(float(k + 1), PTXType.F64),)))
        # a burst of temporaries all live at the fold — on top of the
        # carried group, in the fixpoint view
        ts = [kb.mov(kb.imm(float(k), PTXType.F64)) for k in range(10)]
        s = kb.mov(kb.imm(0.0, PTXType.F64))
        for t in ts:
            kb.emit(Instruction("add", PTXType.F64, s, (s, t)))
        kb.emit(Instruction("add", PTXType.F64, sink2, (sink2, s)))
        kb.emit(Instruction("add", PTXType.S32, i,
                            (i, kb.imm(1, PTXType.S32))))
        p = kb.setp("lt", i, n)
        kb.bra(loop, guard=p)
        kb.emit(Instruction("add", PTXType.F64, sink, (sink, sink2)))
        kb.st_global(out, sink, PTXType.F64)
        kb.ret()

        pressure = max_live_registers(kb.instructions)
        # carried 20 + burst 20 + sink/sink2 4 + i/n 2 + out 2 = 48
        assert pressure >= 44, pressure

    def test_64bit_registers_cost_two_slots(self):
        kb32 = KernelBuilder("a")
        v32 = [kb32.mov(kb32.imm(float(i), PTXType.F32)) for i in range(16)]
        acc = v32[0]
        for v in v32[1:]:
            acc = kb32.add(acc, v)
        kb64 = KernelBuilder("b")
        v64 = [kb64.mov(kb64.imm(float(i), PTXType.F64)) for i in range(16)]
        acc = v64[0]
        for v in v64[1:]:
            acc = kb64.add(acc, v)
        assert (max_live_registers(kb64.instructions)
                >= 2 * max_live_registers(kb32.instructions) - 8)
