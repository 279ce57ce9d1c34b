"""Kernel builder: the imperative interface for emitting PTX.

The expression-template unparser (:mod:`repro.core.codegen`) drives a
``KernelBuilder`` to construct a kernel instruction-by-instruction —
the ``jit_add`` / ``jit_assign`` calls of paper Sec. III-C are methods
on this class.  The builder performs the *implicit type promotion*
described in Sec. III-D: PTX is strict about operand types, so mixed
precision expressions get ``cvt`` instructions inserted silently.
"""

from __future__ import annotations

from .isa import (
    BINARY_OPS,
    CMP_OPS,
    UNARY_OPS,
    Immediate,
    Instruction,
    KernelInfo,
    Operand,
    Param,
    PTXType,
    Register,
    Special,
)


class PTXBuildError(Exception):
    """Raised on a malformed build request (type mismatch etc.)."""


def promote(a: PTXType, b: PTXType) -> PTXType:
    """Implicit type promotion rule for mixed-type arithmetic.

    Widest-wins among floats; float wins over int; among ints the
    wider (and signed, on ties) wins.  Mirrors C arithmetic
    conversions, which is what the host-language expressions assume.
    """
    if a == b:
        return a
    if a.is_float and b.is_float:
        return a if a.nbytes >= b.nbytes else b
    if a.is_float:
        return a
    if b.is_float:
        return b
    if a.nbytes != b.nbytes:
        return a if a.nbytes > b.nbytes else b
    return a if a.is_signed else b


class KernelBuilder:
    """Builds a single ``.entry`` kernel.

    Usage: declare params, emit instructions through the typed helper
    methods, then :meth:`finish` to obtain the instruction list and
    resource metadata.  The builder tracks per-type register counts
    and accumulates flop/byte counters fed in by the code generator.
    """

    def __init__(self, name: str):
        self.name = name
        self.params: list[Param] = []
        self.instructions: list[Instruction] = []
        self._reg_counters: dict[str, int] = {}   # type suffix -> count
        self._label_counter = 0
        self.info = KernelInfo(name=name)

    # -- declarations ------------------------------------------------

    def add_param(self, name: str, type: PTXType, is_pointer: bool = False) -> Param:
        if any(p.name == name for p in self.params):
            raise PTXBuildError(f"duplicate parameter {name!r}")
        p = Param(name=name, type=type, is_pointer=is_pointer)
        self.params.append(p)
        return p

    def new_reg(self, type: PTXType) -> Register:
        idx = self._reg_counters.get(type.suffix, 0)
        self._reg_counters[type.suffix] = idx + 1
        return Register(type=type, index=idx)

    def new_label(self, stem: str = "L") -> str:
        self._label_counter += 1
        return f"${stem}_{self._label_counter}"

    # -- low-level emission -------------------------------------------

    def emit(self, inst: Instruction) -> None:
        self.instructions.append(inst)

    # -- typed helpers -------------------------------------------------

    def _coerce(self, op: Operand, want: PTXType) -> Operand:
        """Insert a ``cvt`` if ``op`` is a register of another type.

        Immediates are retyped in place (PTX immediates adopt the
        instruction type).  This is the implicit-promotion machinery.
        """
        if isinstance(op, Immediate):
            return Immediate(type=want, value=op.value)
        if isinstance(op, Special):
            # specials are u32; convert through a register
            if want == PTXType.U32:
                return op
            r32 = self.new_reg(PTXType.U32)
            self.emit(Instruction("mov", PTXType.U32, r32, (op,)))
            return self._coerce(r32, want)
        assert isinstance(op, Register)
        if op.type == want:
            return op
        dst = self.new_reg(want)
        self.emit(Instruction("cvt", want, dst, (op,), src_type=op.type))
        return dst

    def mov(self, src: Operand, type: PTXType | None = None) -> Register:
        if type is None:
            if isinstance(src, Special):
                type = PTXType.U32
            else:
                type = src.type
        dst = self.new_reg(type)
        src = src if isinstance(src, Special) else self._coerce(src, type)
        self.emit(Instruction("mov", type, dst, (src,)))
        return dst

    def imm(self, value: float | int, type: PTXType) -> Immediate:
        return Immediate(type=type, value=value)

    def binary(self, opcode: str, a: Operand, b: Operand,
               type: PTXType | None = None) -> Register:
        if opcode not in BINARY_OPS and opcode not in ("mul.lo", "mul.wide"):
            raise PTXBuildError(f"unknown binary opcode {opcode!r}")
        if type is None:
            ta = a.type if isinstance(a, Register) else (
                b.type if isinstance(b, Register) else PTXType.F64)
            tb = b.type if isinstance(b, Register) else ta
            type = promote(ta, tb)
        a = self._coerce(a, type)
        b = self._coerce(b, type)
        dst = self.new_reg(type)
        self.emit(Instruction(opcode, type, dst, (a, b)))
        if type.is_float and opcode in ("add", "sub", "mul", "div", "min", "max"):
            self.info.flops_per_site += 1
        return dst

    def add(self, a: Operand, b: Operand, type: PTXType | None = None) -> Register:
        return self.binary("add", a, b, type)

    def sub(self, a: Operand, b: Operand, type: PTXType | None = None) -> Register:
        return self.binary("sub", a, b, type)

    def mul(self, a: Operand, b: Operand, type: PTXType | None = None) -> Register:
        """Multiply.  Integer multiplies use ``mul.lo`` per PTX."""
        if type is None:
            ta = a.type if isinstance(a, Register) else (
                b.type if isinstance(b, Register) else PTXType.F64)
            tb = b.type if isinstance(b, Register) else ta
            type = promote(ta, tb)
        if type.is_int:
            a = self._coerce(a, type)
            b = self._coerce(b, type)
            dst = self.new_reg(type)
            self.emit(Instruction("mul.lo", type, dst, (a, b)))
            return dst
        return self.binary("mul", a, b, type)

    def div(self, a: Operand, b: Operand, type: PTXType | None = None) -> Register:
        return self.binary("div", a, b, type)

    def fma(self, a: Operand, b: Operand, c: Operand,
            type: PTXType | None = None) -> Register:
        """Fused multiply-add dst = a*b + c (floats) / mad.lo (ints)."""
        if type is None:
            parts = [x.type for x in (a, b, c) if isinstance(x, Register)]
            type = parts[0] if parts else PTXType.F64
            for t in parts[1:]:
                type = promote(type, t)
        a = self._coerce(a, type)
        b = self._coerce(b, type)
        c = self._coerce(c, type)
        dst = self.new_reg(type)
        if type.is_int:
            self.emit(Instruction("mad.lo", type, dst, (a, b, c)))
        else:
            self.emit(Instruction("fma", type, dst, (a, b, c)))
            self.info.flops_per_site += 2
        return dst

    def unary(self, opcode: str, a: Operand, type: PTXType | None = None) -> Register:
        if opcode not in UNARY_OPS:
            raise PTXBuildError(f"unknown unary opcode {opcode!r}")
        if type is None:
            type = a.type if isinstance(a, Register) else PTXType.F64
        a = self._coerce(a, type)
        dst = self.new_reg(type)
        self.emit(Instruction(opcode, type, dst, (a,)))
        if type.is_float:
            self.info.flops_per_site += 1
        return dst

    def neg(self, a: Operand, type: PTXType | None = None) -> Register:
        return self.unary("neg", a, type)

    def cvt(self, a: Register, to: PTXType) -> Register:
        if a.type == to:
            return a
        dst = self.new_reg(to)
        self.emit(Instruction("cvt", to, dst, (a,), src_type=a.type))
        return dst

    def setp(self, cmp: str, a: Operand, b: Operand,
             type: PTXType | None = None) -> Register:
        if cmp not in CMP_OPS:
            raise PTXBuildError(f"unknown comparison {cmp!r}")
        if type is None:
            type = a.type if isinstance(a, Register) else b.type
        a = self._coerce(a, type)
        b = self._coerce(b, type)
        dst = self.new_reg(PTXType.PRED)
        self.emit(Instruction("setp", type, dst, (a, b), cmp=cmp))
        return dst

    def selp(self, a: Operand, b: Operand, pred: Register,
             type: PTXType | None = None) -> Register:
        """dst = pred ? a : b."""
        if type is None:
            type = a.type if isinstance(a, Register) else b.type
        a = self._coerce(a, type)
        b = self._coerce(b, type)
        dst = self.new_reg(type)
        self.emit(Instruction("selp", type, dst, (a, b, pred)))
        return dst

    # -- memory --------------------------------------------------------

    def ld_param(self, param: Param) -> Register:
        dst = self.new_reg(param.type)
        self.emit(Instruction("ld.param", param.type, dst,
                              (_ParamRef(param.name),)))
        return dst

    def ld_global(self, addr: Register, type: PTXType,
                  guard: Register | None = None,
                  count_bytes: bool = True) -> Register:
        if addr.type != PTXType.U64:
            addr = self.cvt(addr, PTXType.U64)
        dst = self.new_reg(type)
        self.emit(Instruction("ld.global", type, dst, (addr,), guard=guard))
        if count_bytes:
            self.info.bytes_loaded_per_site += type.nbytes
        return dst

    def st_global(self, addr: Register, value: Operand, type: PTXType,
                  guard: Register | None = None,
                  count_bytes: bool = True) -> None:
        if addr.type != PTXType.U64:
            addr = self.cvt(addr, PTXType.U64)
        value = self._coerce(value, type)
        self.emit(Instruction("st.global", type, None, (addr, value), guard=guard))
        if count_bytes:
            self.info.bytes_stored_per_site += type.nbytes

    def words_to_bytes(self, count: Register, word_bytes: int) -> Register:
        """``count * word_bytes`` as the ``u64`` byte count
        :meth:`soa_address` takes (``count``: a signed site or word
        count; the product is formed in ``s64``)."""
        c64 = self.cvt(count, PTXType.S64)
        return self.cvt(self.mul(c64, self.imm(word_bytes, PTXType.S64)),
                        PTXType.U64)

    def soa_address(self, base: Register, plane_bytes: Register, word: int,
                    site_bytes: Register) -> Register:
        """The byte address of word ``word`` of one site in the
        coalesced SoA layout (paper Sec. III-B): ``base + word *
        plane_bytes + site_bytes``, all ``u64``.

        The launch-uniform part is formed first — ``mad.lo.u64`` over
        the field base, the plane size ``nsites * word_bytes`` and the
        word index — so the only per-thread instruction of an address
        is its last ``add``; ``site_bytes`` is ``site * word_bytes``
        (both byte counts from :meth:`words_to_bytes`).
        Ring operations only: the sum is the address modulo 2**64
        however it is associated.
        """
        plane = self.fma(plane_bytes, self.imm(word, PTXType.U64), base,
                         PTXType.U64)
        return self.add(plane, site_bytes, PTXType.U64)

    # -- control flow ----------------------------------------------------

    def bra(self, label: str, guard: Register | None = None,
            negated: bool = False) -> None:
        self.emit(Instruction("bra", None, None, (), label=label,
                              guard=guard, guard_negated=negated))

    def label(self, name: str) -> None:
        self.emit(Instruction("label", None, None, (), label=name))

    def ret(self) -> None:
        self.emit(Instruction("ret", None, None, ()))

    # -- special registers ------------------------------------------------

    def global_thread_id(self) -> Register:
        """Compute the canonical global thread index:
        ``ctaid.x * ntid.x + tid.x`` as an s32 register."""
        ctaid = self.mov(Special("ctaid"), PTXType.U32)
        ntid = self.mov(Special("ntid"), PTXType.U32)
        tid = self.mov(Special("tid"), PTXType.U32)
        gid = self.fma(ctaid, ntid, tid, PTXType.U32)
        return self.cvt(gid, PTXType.S32)

    # -- finalization -------------------------------------------------------

    def finish(self) -> KernelInfo:
        if not self.instructions or self.instructions[-1].opcode != "ret":
            self.ret()
        self.info.params = list(self.params)
        self.info.n_instructions = len(self.instructions)
        self.info.regs_per_thread = dict(sorted(self._reg_counters.items()))
        return self.info


class _ParamRef:
    """Pseudo-operand naming a kernel parameter in ``ld.param``."""

    def __init__(self, pname: str):
        self.pname = pname

    @property
    def name(self) -> str:
        # The ld.param render path wraps this in brackets.
        return self.pname

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.pname
