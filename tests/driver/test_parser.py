"""Tests for the driver's PTX text parser."""

import pytest

from repro.driver.parser import PTXParseError, parse_ptx
from repro.ptx import KernelBuilder, PTXModule, PTXType


HANDWRITTEN = """
.version 3.1
.target sm_35
.address_size 64

.visible .entry scale(
    .param .s32 p_n,
    .param .u64 .ptr .global p_x,
    .param .f64 p_a
)
{
    .reg .s32 %r<2>;
    .reg .f64 %fd<3>;
    .reg .u32 %u<4>;
    .reg .u64 %ru<3>;
    .reg .s64 %rd<2>;
    .reg .pred %p<1>;

    ld.param.s32 %r0, [p_n];
    ld.param.u64 %ru0, [p_x];
    ld.param.f64 %fd0, [p_a];
    mov.u32 %u0, %ctaid.x;
    mov.u32 %u1, %ntid.x;
    mov.u32 %u2, %tid.x;
    mad.lo.u32 %u3, %u0, %u1, %u2;
    cvt.s32.u32 %r1, %u3;
    setp.ge.s32 %p0, %r1, %r0;
    @%p0 bra $DONE;
    cvt.s64.s32 %rd0, %r1;
    mul.lo.s64 %rd1, %rd0, 8;
    cvt.u64.s64 %ru1, %rd1;
    add.u64 %ru2, %ru0, %ru1;
    ld.global.f64 %fd1, [%ru2];
    mul.f64 %fd2, %fd1, %fd0;
    st.global.f64 [%ru2], %fd2;
$DONE:
    ret;
}
"""


class TestParser:
    def test_parses_handwritten_ptx(self):
        k = parse_ptx(HANDWRITTEN)
        assert k.name == "scale"
        assert [p.name for p in k.params] == ["p_n", "p_x", "p_a"]
        assert k.params[1].is_pointer
        assert k.version == "3.1"
        assert k.target == "sm_35"

    def test_instruction_count(self):
        k = parse_ptx(HANDWRITTEN)
        # 17 instructions + 1 label + ret
        assert len(k.instructions) == 19

    def test_register_types_resolved(self):
        k = parse_ptx(HANDWRITTEN)
        loads = [i for i in k.instructions if i.opcode == "ld.global"]
        assert loads[0].type == PTXType.F64
        (addr,) = loads[0].srcs
        assert addr.type == PTXType.U64

    def test_guard_parsed(self):
        k = parse_ptx(HANDWRITTEN)
        bra = next(i for i in k.instructions if i.opcode == "bra")
        assert bra.guard is not None
        assert bra.guard.type == PTXType.PRED
        assert not bra.guard_negated
        assert bra.label == "$DONE"

    def test_roundtrip_builder_to_parser(self):
        kb = KernelBuilder("rt")
        p = kb.add_param("p_x", PTXType.U64, is_pointer=True)
        x = kb.ld_param(p)
        v = kb.ld_global(x, PTXType.F32)
        kb.st_global(x, kb.mul(v, kb.imm(2.0, PTXType.F32)), PTXType.F32)
        kb.ret()
        text = PTXModule.from_builder(kb).render()
        k = parse_ptx(text)
        assert k.name == "rt"
        rendered_again = "\n".join(i.render() for i in k.instructions)
        original = "\n".join(i.render() for i in kb.instructions)
        assert rendered_again == original

    def test_missing_entry_rejected(self):
        with pytest.raises(PTXParseError, match="entry"):
            parse_ptx(".version 3.1\n.target sm_35\n")

    def test_missing_semicolon_rejected(self):
        bad = HANDWRITTEN.replace("ret;", "ret")
        with pytest.raises(PTXParseError):
            parse_ptx(bad)

    def test_unknown_register_rejected(self):
        bad = HANDWRITTEN.replace("%fd1, %fd0;", "%zz1, %fd0;")
        with pytest.raises(PTXParseError):
            parse_ptx(bad)

    def test_bad_mnemonic_rejected(self):
        bad = HANDWRITTEN.replace("mul.f64 %fd2", "mul.q64 %fd2")
        with pytest.raises(PTXParseError):
            parse_ptx(bad)

    def test_comments_ignored(self):
        commented = HANDWRITTEN.replace(
            "ret;", "// final return\n    ret;")
        assert parse_ptx(commented).name == "scale"


@pytest.mark.parametrize("good,bad", [
    ("setp.ge.s32 %p0, %r1, %r0;", "setp.lt.bogus %p0, %r1, %r0;"),
    ("cvt.s32.u32 %r1, %u3;", "cvt.f32.xyz %r1, %u3;"),
    ("ld.global.f64 %fd1, [%ru2];", "ld.global %fd1, [%ru2];"),
    ("setp.ge.s32 %p0, %r1, %r0;", "setp.lt %p0, %r1, %r0;"),
    ("@%p0 bra $DONE;", "bra;"),
    ("st.global.f64 [%ru2], %fd2;", "st.global.f64 [%ru2];"),
    ("ld.global.f64 %fd1, [%ru2];", "ld.global.f64 %fd1;"),
], ids=["setp-bad-type", "cvt-bad-type", "ld-no-type", "setp-no-type",
        "bra-no-label", "st-no-value", "ld-no-address"])
def test_malformed_lines_raise_typed_errors(good, bad):
    """No malformed shape escapes as ValueError/IndexError: the parser
    raises PTXParseError, the JIT surface JITCompileError."""
    from repro.driver.jitcompiler import JITCompileError, compile_ptx

    assert good in HANDWRITTEN
    text = HANDWRITTEN.replace(good, bad)
    with pytest.raises(PTXParseError):
        parse_ptx(text)
    with pytest.raises(JITCompileError, match="parse error: "):
        compile_ptx(text)
