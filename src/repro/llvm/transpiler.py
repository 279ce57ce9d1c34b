"""PTX -> LLVM IR text (paper Sec. XI, Future Work).

"We are exploring the possibility to interface to a compiler
framework such as LLVM.  This would allow us to target other
architectures as well."  — that exploration became the production
QDP-JIT/LLVM backend; this module implements its front half for the
reproduction: a kernel in our PTX dialect is *unparsed* into a textual
``.ll`` module (SSA form, typed, two-basic-block control flow for the
bounds-check pattern) describing a *CPU work-item function* — the
per-site function an LLVM-based backend JITs and wraps in a site loop.

It is a second unparser of the one kernel IR (the parsed
:class:`~repro.ptx.isa.Instruction` stream), not a second IR: nothing
is re-lowered, and the text is produced only when somebody asks for
it.  The executable CPU target (:mod:`repro.llvm.cputarget`) walks the
same instruction stream.

Subset restrictions (checked by :func:`check_subset`, with clear
errors): single static assignment per register (our code generators
emit SSA already) and the guarded-forward-branch control flow the
generators use.
"""

from __future__ import annotations

from ..diagnostics import errors
from ..driver.backends import BackendBuildError
from ..driver.parser import ParsedKernel
from ..ir.ssa import SSAFunction
from ..ir.verify import check_ssa
from ..ptx.isa import Immediate, Instruction, PTXType, Register, Special


class TranspileError(BackendBuildError):
    """The PTX program falls outside the transpilable subset."""


def check_subset(parsed: ParsedKernel) -> None:
    """Raise :class:`TranspileError` unless ``parsed`` is in the subset
    both LLVM-path unparsers accept: structurally valid SSA (every
    register assigned once, defined before use) and no guarded
    instruction other than a forward branch."""
    for inst in parsed.instructions:
        if inst.guard is not None and inst.opcode != "bra":
            # the generators guard only forward branches; a guarded
            # arithmetic/memory instruction would need per-instruction
            # predication neither unparser models
            raise TranspileError(
                f"{parsed.name}: guarded {inst.opcode!r} — only guarded "
                f"forward branches are in the transpilable subset")
    fn = SSAFunction.from_instructions(parsed.name, parsed.instructions)
    errs = errors(check_ssa(fn))
    if errs:
        raise TranspileError(
            f"{parsed.name}: outside the SSA subset the LLVM backend "
            f"supports (a register assigned twice or used before its "
            f"definition): " + "; ".join(d.message for d in errs))


_LLVM_TYPE = {
    PTXType.F32: "float",
    PTXType.F64: "double",
    PTXType.S32: "i32",
    PTXType.S64: "i64",
    PTXType.U32: "i32",
    PTXType.U64: "i64",
    PTXType.PRED: "i1",
}

_FLOAT_BIN = {"add": "fadd", "sub": "fsub", "mul": "fmul", "div": "fdiv"}
_INT_BIN = {"add": "add", "sub": "sub", "mul.lo": "mul", "and": "and",
            "or": "or", "xor": "xor", "shl": "shl"}
#: integer ops whose LLVM opcode depends on signedness: (signed, unsigned)
_SIGNED_BIN = {"shr": ("ashr", "lshr"), "div": ("sdiv", "udiv"),
               "rem": ("srem", "urem")}
_CMP_F = {"eq": "oeq", "ne": "one", "lt": "olt", "le": "ole",
          "gt": "ogt", "ge": "oge"}
_CMP_S = {"eq": "eq", "ne": "ne", "lt": "slt", "le": "sle",
          "gt": "sgt", "ge": "sge"}
_CMP_U = {"eq": "eq", "ne": "ne", "lt": "ult", "le": "ule",
          "gt": "ugt", "ge": "uge"}

_INTRINSIC = {"sqrt": "llvm.sqrt", "sin": "llvm.sin", "cos": "llvm.cos",
              "ex2": "llvm.exp2", "lg2": "llvm.log2",
              "abs": "llvm.fabs", "floor": "llvm.floor",
              "ceil": "llvm.ceil", "trunc": "llvm.trunc",
              "round": "llvm.rint"}


def _reg_name(r: Register) -> str:
    return f"%{r.type.reg_prefix[1:]}{r.index}"


def _sfx(t: PTXType) -> str:
    return "f64" if t == PTXType.F64 else "f32"


class Transpiler:
    """Unparses one parsed PTX kernel into ``.ll`` text."""

    def __init__(self, parsed: ParsedKernel):
        check_subset(parsed)
        self.p = parsed
        self.n = 0
        self.lines: list[str] = []
        self.intrinsics: set[str] = set()

    def _fresh(self, stem: str) -> str:
        self.n += 1
        return f"%{stem}{self.n}"

    def _emit(self, text: str) -> None:
        self.lines.append("  " + text)

    def _operand(self, op) -> str:
        if isinstance(op, Register):
            return _reg_name(op)
        if isinstance(op, Immediate):
            if op.type.is_float:
                # LLVM accepts decimal FP literals; repr round-trips
                return repr(float(op.value))
            return str(int(op.value))
        if isinstance(op, Special):
            return f"%{op.which}"
        raise TranspileError(f"bad operand {op!r}")

    def _ptr(self, addr, lt: str) -> str:
        ptr = self._fresh("p")
        self._emit(f"{ptr} = inttoptr i64 {self._operand(addr)} to {lt}*")
        return ptr

    @staticmethod
    def _cvt_text(dst: str, src: str, frm: PTXType, to: PTXType) -> str:
        lf, lt = _LLVM_TYPE[frm], _LLVM_TYPE[to]
        if frm.is_float and to.is_float:
            op = "fpext" if to.nbytes > frm.nbytes else "fptrunc"
        elif frm.is_float and to.is_int:
            op = "fptosi" if to.is_signed else "fptoui"
        elif frm.is_int and to.is_float:
            op = "sitofp" if frm.is_signed else "uitofp"
        elif to.nbytes > frm.nbytes:
            op = "sext" if frm.is_signed else "zext"
        elif to.nbytes < frm.nbytes:
            op = "trunc"
        else:
            op = "bitcast"
        return f"{dst} = {op} {lf} {src} to {lt}"

    def run(self) -> str:
        plist = []
        for p in self.p.params:
            lt = "i8*" if p.is_pointer else _LLVM_TYPE[p.type]
            plist.append(f"{lt} %{p.name}")
        # work-item identifiers come in as parameters on a CPU target
        plist += ["i32 %tid", "i32 %ntid", "i32 %ctaid"]
        headers = [
            f"; transpiled from PTX kernel {self.p.name}",
            f"define void @{self.p.name}({', '.join(plist)}) {{",
            "entry:",
        ]
        for inst in self.p.instructions:
            self._lower(inst)
        self.lines.append("}")
        decls = sorted(
            f"declare {t} @{i}.{s}({t})"
            for i in self.intrinsics
            for t, s in (("double", "f64"), ("float", "f32")))
        return "\n".join(headers + self.lines + [""] + decls) + "\n"

    def _lower(self, inst: Instruction) -> None:
        op = inst.opcode
        if op == "label":
            name = inst.label.lstrip("$")
            self._emit(f"br label %{name}")
            self.lines.append(f"{name}:")
            return
        if op == "bra":
            name = inst.label.lstrip("$")
            if inst.guard is None:
                self._emit(f"br label %{name}")
                return
            cond = self._operand(inst.guard)
            if inst.guard_negated:
                g, cond = cond, self._fresh("not")
                self._emit(f"{cond} = xor i1 {g}, true")
            cont = self._fresh("cont").lstrip("%")
            self._emit(f"br i1 {cond}, label %{name}, label %{cont}")
            self.lines.append(f"{cont}:")
            return
        if op == "ret":
            self._emit("ret void")
            return
        if op == "st.global":
            addr, val = inst.srcs
            lt = _LLVM_TYPE[inst.type]
            ptr = self._ptr(addr, lt)
            self._emit(f"store {lt} {self._operand(val)}, {lt}* {ptr}")
            return
        dst = _reg_name(inst.dst)
        lt = _LLVM_TYPE[inst.type]
        if op == "ld.param":
            (pref,) = inst.srcs
            param = next(q for q in self.p.params if q.name == pref.pname)
            if param.is_pointer:
                self._emit(f"{dst} = ptrtoint i8* %{param.name} to i64")
            elif param.type.is_float:
                self._emit(f"{dst} = fadd {lt} %{param.name}, 0.0")
            else:
                self._emit(f"{dst} = bitcast {lt} %{param.name} to {lt}")
            return
        if op == "ld.global":
            (addr,) = inst.srcs
            ptr = self._ptr(addr, lt)
            self._emit(f"{dst} = load {lt}, {lt}* {ptr}")
            return
        srcs = [self._operand(s) for s in inst.srcs]
        if op == "mov":
            if inst.type.is_float:
                self._emit(f"{dst} = fadd {lt} {srcs[0]}, 0.0")
            else:
                self._emit(f"{dst} = add {lt} {srcs[0]}, 0")
            return
        if op == "cvt":
            self._emit(self._cvt_text(dst, srcs[0], inst.src_type, inst.type))
            return
        if op == "setp":
            if inst.type.is_float:
                cmp = f"fcmp {_CMP_F[inst.cmp]}"
            elif inst.type.is_signed:
                cmp = f"icmp {_CMP_S[inst.cmp]}"
            else:
                cmp = f"icmp {_CMP_U[inst.cmp]}"
            self._emit(f"{dst} = {cmp} {lt} {srcs[0]}, {srcs[1]}")
            return
        if op == "selp":
            a, b, p = srcs
            self._emit(f"{dst} = select i1 {p}, {lt} {a}, {lt} {b}")
            return
        if op in ("fma", "mad.lo"):
            a, b, c = srcs
            if inst.type.is_float:
                self.intrinsics.add("llvm.fma")
                self._emit(f"{dst} = call {lt} @llvm.fma.{_sfx(inst.type)}"
                           f"({lt} {a}, {lt} {b}, {lt} {c})")
            else:
                tmp = self._fresh("mad")
                self._emit(f"{tmp} = mul {lt} {a}, {b}")
                self._emit(f"{dst} = add {lt} {tmp}, {c}")
            return
        # remaining unary / binary arithmetic
        if len(srcs) == 2:
            if inst.type.is_float and op in _FLOAT_BIN:
                text = f"{_FLOAT_BIN[op]} {lt} {srcs[0]}, {srcs[1]}"
            elif inst.type.is_float and op in ("min", "max"):
                intr = "llvm.minnum" if op == "min" else "llvm.maxnum"
                self.intrinsics.add(intr)
                text = (f"call {lt} @{intr}.{_sfx(inst.type)}"
                        f"({lt} {srcs[0]}, {lt} {srcs[1]})")
            elif op in _INT_BIN:
                text = f"{_INT_BIN[op]} {lt} {srcs[0]}, {srcs[1]}"
            elif op in _SIGNED_BIN:
                o = _SIGNED_BIN[op][not inst.type.is_signed]
                text = f"{o} {lt} {srcs[0]}, {srcs[1]}"
            else:
                raise TranspileError(f"no LLVM lowering for {op!r}")
            self._emit(f"{dst} = {text}")
            return
        # unary
        if op == "neg":
            if inst.type.is_float:
                text = f"fneg {lt} {srcs[0]}"
            else:
                text = f"sub {lt} 0, {srcs[0]}"
        elif op == "not":
            text = f"xor {lt} {srcs[0]}, -1"
        elif op == "rcp":
            text = f"fdiv {lt} 1.0, {srcs[0]}"
        elif op == "rsqrt":
            self.intrinsics.add("llvm.sqrt")
            tmp = self._fresh("sq")
            self._emit(f"{tmp} = call {lt} @llvm.sqrt.{_sfx(inst.type)}"
                       f"({lt} {srcs[0]})")
            text = f"fdiv {lt} 1.0, {tmp}"
        elif op in _INTRINSIC:
            intr = _INTRINSIC[op]
            self.intrinsics.add(intr)
            text = f"call {lt} @{intr}.{_sfx(inst.type)}({lt} {srcs[0]})"
        else:
            raise TranspileError(f"no LLVM lowering for unary {op!r}")
        self._emit(f"{dst} = {text}")


def transpile(parsed: ParsedKernel) -> str:
    """Parsed PTX kernel -> LLVM IR module text."""
    return Transpiler(parsed).run()
