"""SSA construction and structural-verifier tests."""

import pytest

from repro.ir.ssa import SSAFunction
from repro.ir.verify import IRVerificationError, assert_ssa, check_ssa
from repro.ptx.builder import KernelBuilder
from repro.ptx.isa import Immediate, Instruction, PTXType, Register
from repro.ptx.module import PTXModule


def _simple_kernel():
    kb = KernelBuilder("simple")
    pn = kb.add_param("p_n", PTXType.S32)
    px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
    n = kb.ld_param(pn)
    x = kb.ld_param(px)
    gid = kb.global_thread_id()
    oob = kb.setp("ge", gid, n)
    kb.bra("$EXIT", guard=oob)
    v = kb.ld_global(x, PTXType.F64)
    kb.st_global(x, kb.add(v, v), PTXType.F64)
    kb.label("$EXIT")
    kb.ret()
    return PTXModule.from_builder(kb)


def _inst(op, t, dst, srcs, **kw):
    return Instruction(op, t, dst, tuple(srcs), **kw)


class TestConstruction:
    def test_single_defs_and_uses_recorded(self):
        fn = SSAFunction.from_module(_simple_kernel())
        assert not fn.extra_defs
        for key, d in fn.defs.items():
            for p in fn.uses.get(key, ()):
                assert p > d

    def test_builder_streams_are_ssa(self):
        assert not check_ssa(SSAFunction.from_module(_simple_kernel()))

    def test_pos_block_covers_stream(self):
        fn = SSAFunction.from_module(_simple_kernel())
        assert len(fn.pos_block) == len(fn.instructions)


class TestVerifier:
    def _base(self):
        """a = 1; b = a + a  (well-formed straight-line fragment)."""
        a = Register(PTXType.F64, 0)
        b = Register(PTXType.F64, 1)
        one = Immediate(PTXType.F64, 1.0)
        return a, b, [
            _inst("mov", PTXType.F64, a, (one,)),
            _inst("add", PTXType.F64, b, (a, a)),
            _inst("ret", None, None, ()),
        ]

    def test_clean_fragment_passes(self):
        _, _, insts = self._base()
        assert_ssa(SSAFunction.from_instructions("ok", insts))

    def test_redefinition_caught(self):
        a, _, insts = self._base()
        insts.insert(2, _inst("mov", PTXType.F64, a,
                              (Immediate(PTXType.F64, 2.0),)))
        fn = SSAFunction.from_instructions("redef", insts)
        findings = check_ssa(fn)
        assert any("redefined" in d.message for d in findings)
        with pytest.raises(IRVerificationError, match="redefined"):
            assert_ssa(fn)

    def test_dangling_operand_caught_once(self):
        a, b, _ = self._base()
        ghost = Register(PTXType.F64, 9)
        insts = [
            _inst("add", PTXType.F64, a, (ghost, ghost)),
            _inst("add", PTXType.F64, b, (ghost, a)),
            _inst("ret", None, None, ()),
        ]
        findings = check_ssa(SSAFunction.from_instructions("dangle", insts))
        assert len([d for d in findings
                    if "no definition" in d.message]) == 1

    def test_non_dominating_def_caught(self):
        """The definition sits on the skippable arm of a forward
        branch; the use after the join is not dominated."""
        kb = KernelBuilder("onearm")
        pn = kb.add_param("p_n", PTXType.S32)
        n = kb.ld_param(pn)
        gid = kb.global_thread_id()
        p = kb.setp("ge", gid, n)
        kb.bra("$SKIP", guard=p)
        x = kb.new_reg(PTXType.F64)
        kb.emit(_inst("mov", PTXType.F64, x, (Immediate(PTXType.F64, 1.0),)))
        kb.label("$SKIP")
        y = kb.new_reg(PTXType.F64)
        kb.emit(_inst("add", PTXType.F64, y, (x, x)))
        kb.ret()
        findings = check_ssa(SSAFunction.from_module(
            PTXModule.from_builder(kb)))
        assert any("does not dominate" in d.message for d in findings)

    def test_use_before_def_in_same_block_caught(self):
        a, b, _ = self._base()
        insts = [
            _inst("add", PTXType.F64, b, (a, a)),     # use before def
            _inst("mov", PTXType.F64, a, (Immediate(PTXType.F64, 1.0),)),
            _inst("ret", None, None, ()),
        ]
        findings = check_ssa(SSAFunction.from_instructions("ubd", insts))
        assert any("does not dominate" in d.message for d in findings)


class TestVerifierPipelinePass:
    def test_malformed_module_fails_named_diagnostic(self):
        """The ptx.verifier pipeline reports SSA breaks under the
        ``ssa-structure`` pass name (the diagnostic layer satellite)."""
        from repro.ptx.verifier import run_passes

        a = Register(PTXType.F64, 0)
        kb = KernelBuilder("notssa")
        kb.emit(_inst("mov", PTXType.F64, a, (Immediate(PTXType.F64, 1.0),)))
        kb.emit(_inst("mov", PTXType.F64, a, (Immediate(PTXType.F64, 2.0),)))
        kb.ret()
        diagnostics = run_passes(PTXModule.from_builder(kb))
        named = [d for d in diagnostics if d.pass_name == "ssa-structure"]
        assert named and "redefined" in named[0].message
