"""The SSA structural check: the verifier's ``ssa-structure`` pass.

Single definition per register, defs dominate uses, no dangling
operands — run alone, as the build path (``prepare_module``) and the
``cpu`` backend's subset check run it.
"""

import pytest

from repro.ptx.builder import KernelBuilder
from repro.ptx.cfg import build_cfg
from repro.ptx.isa import Immediate, Instruction, KernelInfo, PTXType, Register
from repro.ptx.module import PTXModule
from repro.ptx.verifier import PTXVerificationError, run_passes, verify


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


def _module(name, insts):
    return PTXModule(info=KernelInfo(name=name, params=[]),
                     instructions=list(insts))


def _ssa(module):
    return run_passes(module, passes=["ssa-structure"])


class TestConstruction:
    def test_single_defs_and_uses_recorded(self):
        """Every register of a builder stream is written once, and
        every read comes after that write."""
        insts = _simple_kernel().instructions
        defs = {}
        for pos, inst in enumerate(insts):
            if inst.dst is not None:
                assert inst.dst.key not in defs
                defs[inst.dst.key] = pos
        for pos, inst in enumerate(insts):
            for op in (*inst.srcs, inst.guard):
                if isinstance(op, Register):
                    assert defs[op.key] < pos

    def test_builder_streams_are_ssa(self):
        assert not _ssa(_simple_kernel())

    def test_pos_block_covers_stream(self):
        """The blocks the pass maps positions through partition the
        stream."""
        insts = _simple_kernel().instructions
        cfg = build_cfg(list(insts))
        covered = [p for b in cfg.blocks for p in range(b.start, b.stop)]
        assert covered == list(range(len(insts)))


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
        assert not _ssa(_module("ok", insts))
        verify(_module("ok", insts))

    def test_redefinition_caught(self):
        a, _, insts = self._base()
        insts.insert(2, _inst("mov", PTXType.F64, a,
                              (Immediate(PTXType.F64, 2.0),)))
        findings = _ssa(_module("redef", insts))
        assert any("redefined" in d.message for d in findings)
        with pytest.raises(PTXVerificationError, match="redefined"):
            verify(_module("redef", insts))

    def test_dangling_operand_caught_once(self):
        a, b, _ = self._base()
        ghost = Register(PTXType.F64, 9)
        insts = [
            _inst("add", PTXType.F64, a, (ghost, ghost)),
            _inst("add", PTXType.F64, b, (ghost, a)),
            _inst("ret", None, None, ()),
        ]
        findings = _ssa(_module("dangle", insts))
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
        findings = _ssa(PTXModule.from_builder(kb))
        assert any("does not dominate" in d.message for d in findings)

    def test_use_before_def_in_same_block_caught(self):
        a, b, _ = self._base()
        insts = [
            _inst("add", PTXType.F64, b, (a, a)),     # use before def
            _inst("mov", PTXType.F64, a, (Immediate(PTXType.F64, 1.0),)),
            _inst("ret", None, None, ()),
        ]
        findings = _ssa(_module("ubd", insts))
        assert any("does not dominate" in d.message for d in findings)

    def test_unreachable_use_before_def_caught(self):
        """No block dominates an unreachable read, so textual order
        decides: the JIT translates the skipped block too.  A read
        naming the register in two operand slots is one finding."""
        a, b, _ = self._base()
        insts = [
            _inst("bra", None, None, (), label="$L"),
            _inst("add", PTXType.F64, b, (a, a)),     # unreachable
            _inst("label", None, None, (), label="$L"),
            _inst("mov", PTXType.F64, a, (Immediate(PTXType.F64, 1.0),)),
            _inst("ret", None, None, ()),
        ]
        findings = _ssa(_module("ubd_dead", insts))
        assert [d.location for d in findings
                if "does not dominate" in d.message] == [
                    "add.f64 %fd1, %fd0, %fd0;"]


class TestVerifierPipelinePass:
    def test_malformed_module_fails_named_diagnostic(self):
        """The full pipeline reports SSA breaks under the
        ``ssa-structure`` pass name, at the offending instruction."""
        a = Register(PTXType.F64, 0)
        kb = KernelBuilder("notssa")
        kb.emit(_inst("mov", PTXType.F64, a, (Immediate(PTXType.F64, 1.0),)))
        kb.emit(_inst("mov", PTXType.F64, a, (Immediate(PTXType.F64, 2.0),)))
        kb.ret()
        diagnostics = run_passes(PTXModule.from_builder(kb))
        named = [d for d in diagnostics if d.pass_name == "ssa-structure"]
        assert named and "redefined" in named[0].message
        assert named[0].location == "mov.f64 %fd0, 2.0;"
