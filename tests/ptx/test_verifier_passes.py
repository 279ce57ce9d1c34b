"""Tests for the verifier pass pipeline (multi-diagnostic, CFG-aware)."""

import pytest

from repro.diagnostics import Severity
from repro.ptx import (
    KernelBuilder,
    PTXModule,
    PTXType,
    PTXVerificationError,
    run_passes,
    verify,
)
from repro.ptx.absint import KernelEnv, MemRegion
from repro.ptx.cfg import BackwardBranchError
from repro.ptx.isa import Immediate, Instruction, ParamRef, Register


def _by_pass(diagnostics, name):
    return [d for d in diagnostics if d.pass_name == name]


def _one_armed_def():
    """``x`` is written on the fall-through arm only, then read after
    the join — textually def-before-use, but not on every path."""
    kb = KernelBuilder("onearm")
    pn = kb.add_param("p_n", PTXType.S32)
    n = kb.ld_param(pn)
    gid = kb.global_thread_id()
    p = kb.setp("ge", gid, n)
    kb.bra("$SKIP", guard=p)
    x = kb.new_reg(PTXType.F64)
    kb.emit(Instruction("mov", PTXType.F64, x,
                        (Immediate(PTXType.F64, 1.0),)))
    kb.label("$SKIP")
    y = kb.new_reg(PTXType.F64)
    kb.emit(Instruction("add", PTXType.F64, y, (x, x)))
    kb.ret()
    return PTXModule.from_builder(kb)


def _dangling_read():
    """``x`` is read but written nowhere."""
    kb = KernelBuilder("dangling")
    ghost = Register(PTXType.F64, 99)
    kb.emit(Instruction("add", PTXType.F64, kb.new_reg(PTXType.F64),
                        (ghost, ghost)))
    kb.ret()
    return PTXModule.from_builder(kb)


def _self_read():
    """``add %r1, %r1, 1`` with no earlier write of ``%r1``."""
    kb = KernelBuilder("selfread")
    r = kb.new_reg(PTXType.S32)
    kb.emit(Instruction("add", PTXType.S32, r,
                        (r, Immediate(PTXType.S32, 1))))
    kb.ret()
    return PTXModule.from_builder(kb)


def _use_in_non_dominated_block():
    """``x`` is written on the then-arm and read on the else-arm."""
    kb = KernelBuilder("sibling")
    pn = kb.add_param("p_n", PTXType.S32)
    n = kb.ld_param(pn)
    p = kb.setp("ge", kb.global_thread_id(), n)
    kb.bra("$ELSE", guard=p)
    x = kb.new_reg(PTXType.F64)
    kb.emit(Instruction("mov", PTXType.F64, x,
                        (Immediate(PTXType.F64, 1.0),)))
    kb.bra("$END")
    kb.label("$ELSE")
    kb.emit(Instruction("add", PTXType.F64, kb.new_reg(PTXType.F64),
                        (x, x)))
    kb.label("$END")
    kb.ret()
    return PTXModule.from_builder(kb)


def _guarded_only_def():
    """``x`` is written only where the guarded branch is taken, then
    read after the join."""
    kb = KernelBuilder("takenonly")
    pn = kb.add_param("p_n", PTXType.S32)
    n = kb.ld_param(pn)
    p = kb.setp("ge", kb.global_thread_id(), n)
    kb.bra("$TAKEN", guard=p)
    kb.bra("$JOIN")
    kb.label("$TAKEN")
    x = kb.new_reg(PTXType.F64)
    kb.emit(Instruction("mov", PTXType.F64, x,
                        (Immediate(PTXType.F64, 1.0),)))
    kb.label("$JOIN")
    kb.emit(Instruction("add", PTXType.F64, kb.new_reg(PTXType.F64),
                        (x, x)))
    kb.ret()
    return PTXModule.from_builder(kb)


#: programs that read a register not written on every path to the read
UNDEFINED_READS = [_one_armed_def, _dangling_read, _self_read,
                   _use_in_non_dominated_block, _guarded_only_def]


class TestDefiniteAssignment:
    """"Defined before use" is the ``ssa-structure`` pass's: a read
    with no write is dangling, and a read its single write does not
    dominate is not definitely assigned."""

    def test_one_armed_definition_caught(self):
        diagnostics = run_passes(_one_armed_def())
        found = _by_pass(diagnostics, "ssa-structure")
        assert len(found) == 1         # one read, named by two operands
        assert all(d.severity == Severity.ERROR for d in found)
        assert all("does not dominate" in d.message for d in found)

    def test_one_armed_definition_raises(self):
        with pytest.raises(PTXVerificationError, match="does not dominate"):
            verify(_one_armed_def())

    def test_both_arms_defined_is_a_redefinition(self):
        """Defining a register on both arms is a second definition,
        not a phi: the generators never emit it."""
        kb = KernelBuilder("botharms")
        pn = kb.add_param("p_n", PTXType.S32)
        n = kb.ld_param(pn)
        gid = kb.global_thread_id()
        p = kb.setp("ge", gid, n)
        x = kb.new_reg(PTXType.F64)
        kb.bra("$ELSE", guard=p)
        kb.emit(Instruction("mov", PTXType.F64, x,
                            (Immediate(PTXType.F64, 1.0),)))
        kb.bra("$JOIN")
        kb.label("$ELSE")
        kb.emit(Instruction("mov", PTXType.F64, x,
                            (Immediate(PTXType.F64, 2.0),)))
        kb.label("$JOIN")
        y = kb.new_reg(PTXType.F64)
        kb.emit(Instruction("add", PTXType.F64, y, (x, x)))
        kb.ret()
        found = _by_pass(run_passes(PTXModule.from_builder(kb)),
                         "ssa-structure")
        assert any("redefined" in d.message for d in found)

    @pytest.mark.parametrize("build", UNDEFINED_READS,
                             ids=lambda b: b.__name__.strip("_"))
    def test_undefined_read_fails_verify(self, build):
        with pytest.raises(PTXVerificationError) as exc:
            verify(build())
        assert _by_pass(exc.value.diagnostics, "ssa-structure")

    @pytest.mark.parametrize("mode", ["off", "warn", "error"])
    @pytest.mark.parametrize("build", UNDEFINED_READS,
                             ids=lambda b: b.__name__.strip("_"))
    def test_undefined_read_fails_the_build_path(self, monkeypatch,
                                                 build, mode):
        from repro.ir import prepare_module

        monkeypatch.setenv("REPRO_VERIFY", mode)
        with pytest.raises(PTXVerificationError):
            prepare_module(build())


class TestMultiDiagnostic:
    def test_all_violations_collected(self):
        """The pipeline reports every problem, not just the first."""
        kb = KernelBuilder("manybad")
        ghost = Register(PTXType.F64, 99)
        a = kb.new_reg(PTXType.F64)
        kb.emit(Instruction("add", PTXType.F64, a, (ghost, ghost)))
        f32 = kb.mov(kb.imm(1.0, PTXType.F32))
        b = kb.new_reg(PTXType.F64)
        kb.emit(Instruction("add", PTXType.F64, b, (f32, f32)))  # type err
        kb.ret()
        diagnostics = run_passes(PTXModule.from_builder(kb))
        assert _by_pass(diagnostics, "ssa-structure")
        assert _by_pass(diagnostics, "operands")
        with pytest.raises(PTXVerificationError) as exc:
            verify(PTXModule.from_builder(kb))
        assert len(exc.value.diagnostics) >= 2


class TestUnreachableCode:
    def test_dead_code_flagged_as_warning(self):
        kb = KernelBuilder("dead")
        kb.bra("$END")
        kb.mov(kb.imm(1.0, PTXType.F64))   # unreachable
        kb.label("$END")
        kb.ret()
        diagnostics = run_passes(PTXModule.from_builder(kb))
        found = _by_pass(diagnostics, "unreachable-code")
        assert len(found) == 1
        assert found[0].severity == Severity.WARNING
        verify(PTXModule.from_builder(kb))  # warning: must not raise


class TestReturnPaths:
    def test_guarded_ret_only_is_an_error(self):
        kb = KernelBuilder("maybe_ret")
        gid = kb.global_thread_id()
        p = kb.setp("ge", gid, kb.imm(0, PTXType.S32))
        kb.emit(Instruction("ret", None, None, (), guard=p))
        diagnostics = run_passes(PTXModule.from_builder(kb))
        found = _by_pass(diagnostics, "return-paths")
        assert found and found[0].severity == Severity.ERROR

    def test_infinite_loop_is_an_error(self):
        """A loop never reaches a pass: building its graph is the
        typed error."""
        kb = KernelBuilder("spin")
        kb.label("$LOOP")
        kb.bra("$LOOP")
        with pytest.raises(BackwardBranchError, match=r"'\$LOOP'"):
            run_passes(PTXModule.from_builder(kb))

    def test_normal_kernel_is_clean(self):
        kb = KernelBuilder("fine")
        kb.mov(kb.imm(1.0, PTXType.F64))
        kb.ret()
        assert not _by_pass(run_passes(PTXModule.from_builder(kb)),
                            "return-paths")


class TestBoundsGuard:
    """Bounds are absint's alone: a guard without region sizes is not a
    proof, so an access it cannot settle is an ``unproven`` warning."""

    def _guarded(self):
        """``x[gid]`` behind the generators' ``gid < n`` exit."""
        kb = KernelBuilder("guarded")
        pn = kb.add_param("p_n", PTXType.S32)
        px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
        n = kb.ld_param(pn)
        x = kb.ld_param(px)
        gid = kb.global_thread_id()
        oob = kb.setp("ge", gid, n)
        kb.bra("$EXIT", guard=oob)
        off = kb.mul(kb.cvt(gid, PTXType.S64), kb.imm(8, PTXType.S64))
        kb.ld_global(kb.add(x, kb.cvt(off, PTXType.U64)), PTXType.F64)
        kb.label("$EXIT")
        kb.ret()
        return PTXModule.from_builder(kb)

    _ENV = KernelEnv(scalars={"p_n": 64},
                     regions={"p_x": MemRegion("p_x", 64 * 8)})

    def _unguarded(self):
        kb = KernelBuilder("unguarded")
        px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
        x = kb.ld_param(px)
        kb.ld_global(x, PTXType.F64)
        kb.ret()
        return PTXModule.from_builder(kb)

    def test_guard_dominated_access_is_clean(self):
        """Under its launch env the guard bounds ``gid`` and the
        region size bounds the access: proven."""
        assert not _by_pass(run_passes(self._guarded(), env=self._ENV),
                            "proven-bounds")

    def test_guard_without_region_sizes_is_unproven(self):
        found = _by_pass(run_passes(self._guarded()), "proven-bounds")
        assert len(found) == 1
        assert found[0].severity == Severity.WARNING
        assert "not proven in bounds" in found[0].message
        verify(self._guarded())     # warnings never raise

    def test_unguarded_access_warns_but_does_not_raise(self):
        diagnostics = run_passes(self._unguarded())
        found = _by_pass(diagnostics, "proven-bounds")
        assert len(found) == 1
        assert found[0].severity == Severity.WARNING
        verify(self._unguarded())   # warnings never raise

    def test_predicated_access_is_unproven(self):
        """A predicate on the access itself refines nothing absint
        tracks, even under the launch env: a warning, not a proof."""
        kb = KernelBuilder("pred")
        pn = kb.add_param("p_n", PTXType.S32)
        px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
        n = kb.ld_param(pn)
        x = kb.ld_param(px)
        gid = kb.global_thread_id()
        ok = kb.setp("lt", gid, n)
        off = kb.mul(kb.cvt(gid, PTXType.S64), kb.imm(8, PTXType.S64))
        addr = kb.add(x, kb.cvt(off, PTXType.U64))
        dst = kb.new_reg(PTXType.F64)
        kb.emit(Instruction("ld.global", PTXType.F64, dst, (addr,),
                            guard=ok))
        kb.ret()
        module = PTXModule.from_builder(kb)
        found = _by_pass(run_passes(module, env=self._ENV), "proven-bounds")
        assert [d.severity for d in found] == [Severity.WARNING]
        verify(module, env=self._ENV)


class TestLdParamTypes:
    def test_type_mismatch_caught(self):
        kb = KernelBuilder("badld")
        kb.add_param("p_n", PTXType.S32)
        dst = kb.new_reg(PTXType.F64)
        kb.emit(Instruction("ld.param", PTXType.F64, dst,
                            (ParamRef("p_n"),)))
        kb.ret()
        diagnostics = run_passes(PTXModule.from_builder(kb))
        found = [d for d in _by_pass(diagnostics, "operands")
                 if "ld.param type mismatch" in d.message]
        assert found and found[0].severity == Severity.ERROR

    def test_matching_type_is_clean(self):
        kb = KernelBuilder("okld")
        pn = kb.add_param("p_n", PTXType.S32)
        kb.ld_param(pn)
        kb.ret()
        diagnostics = run_passes(PTXModule.from_builder(kb))
        assert not [d for d in diagnostics if "ld.param" in d.message]


class TestPipeline:
    def test_pass_registry_names(self):
        from repro.ptx.verifier import PASSES

        assert list(PASSES) == ["operands", "ssa-structure",
                                "unreachable-code", "return-paths",
                                "proven-bounds", "coalescing",
                                "divergence"]

    def test_pass_subset_selection(self):
        module = _one_armed_def()
        assert _by_pass(run_passes(module, passes=["ssa-structure"]),
                        "ssa-structure")
        only = run_passes(module, passes=["unreachable-code"])
        assert not _by_pass(only, "ssa-structure")


def _operand_faults():
    """``(module, offending instruction)`` for each operand check whose
    finding once carried no location."""
    f64 = Register(PTXType.F64, 0)
    f32 = Register(PTXType.F32, 0)
    u64 = Register(PTXType.U64, 0)
    one = Immediate(PTXType.F64, 1.0)
    cases = {
        "undefined-label": Instruction("bra", None, None, (),
                                       label="$NOWHERE"),
        "undeclared-param": Instruction("ld.param", PTXType.S32,
                                        Register(PTXType.S32, 0),
                                        (ParamRef("p_missing"),)),
        "store-value-type": Instruction("st.global", PTXType.F64, None,
                                        (u64, f32)),
        "cvt-no-source-type": Instruction("cvt", PTXType.F64,
                                          Register(PTXType.F64, 1), (f32,)),
        "setp-destination": Instruction("setp", PTXType.F64,
                                        Register(PTXType.F64, 2),
                                        (f64, one), cmp="lt"),
        "selp-selector": Instruction("selp", PTXType.F64,
                                     Register(PTXType.F64, 3),
                                     (f64, one, f64)),
    }
    out = []
    for name, bad in cases.items():
        kb = KernelBuilder(name)
        kb.emit(bad)
        kb.ret()
        out.append(pytest.param(PTXModule.from_builder(kb), bad, id=name))
    return out


@pytest.mark.parametrize("module,bad", _operand_faults())
def test_operands_findings_name_their_instruction(module, bad):
    found = _by_pass(run_passes(module, passes=["operands"]), "operands")
    assert found
    assert {d.location for d in found} == {bad.render()}
