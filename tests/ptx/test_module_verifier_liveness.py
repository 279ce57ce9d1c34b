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

    def test_a_guarded_definition_kills_like_any_other(self):
        """A register is defined once, so a guard leaves no older value
        for its off lanes to keep: the late guarded ``mov`` is live from
        its definition on, not from the kernel's entry (which would put
        its two slots on top of the eight-f64 peak)."""
        from repro.ptx.isa import Instruction
        from repro.ptx.verifier import run_passes

        def pressure(guarded: bool) -> int:
            kb = KernelBuilder("late_guard")
            x = kb.ld_param(kb.add_param("p_x", PTXType.U64, is_pointer=True))
            vals = [kb.mov(kb.imm(float(k), PTXType.F64)) for k in range(8)]
            acc = vals[0]
            for v in vals[1:]:
                acc = kb.add(acc, v)
            kb.st_global(x, acc, PTXType.F64)
            p = kb.setp("gt", acc, kb.imm(0.0, PTXType.F64))
            late = kb.new_reg(PTXType.F64)
            kb.emit(Instruction("mov", PTXType.F64, late,
                                (kb.imm(1.0, PTXType.F64),),
                                guard=p if guarded else None))
            kb.st_global(x, late, PTXType.F64)
            kb.ret()
            module = PTXModule.from_builder(kb)
            assert not run_passes(module, passes=["ssa-structure"])
            return max_live_registers(module.instructions)

        # eight f64 values (16 slots) and the u64 pointer (2)
        assert pressure(guarded=True) == pressure(guarded=False) == 18

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
