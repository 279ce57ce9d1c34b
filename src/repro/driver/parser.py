"""Parser for the PTX dialect emitted by :mod:`repro.ptx`.

The simulated driver JIT consumes PTX *text*, not the in-memory
builder objects — the same boundary the NVIDIA compute-compile driver
sits behind (paper Fig. 2).  This keeps the code-generation and
execution stages honestly decoupled and lets hand-written PTX run too
(used in tests).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from ..ptx.isa import Immediate, Instruction, Param, PTXType, Register, Special


class PTXParseError(Exception):
    """Raised on malformed PTX text."""


#: type suffix -> PTX type, register-name prefix (``%fd``) -> PTX type
_TYPES = {t.suffix: t for t in PTXType}
_PREFIX_TYPES = {t.reg_prefix: t for t in PTXType}

_SPECIALS = {"%tid.x": "tid", "%ntid.x": "ntid", "%ctaid.x": "ctaid"}

#: mnemonic modifiers that carry no meaning in the dialect
_CVT_MODIFIERS = frozenset({"rn", "rni", "rzi", "sat"})
_MODIFIERS = frozenset({"rn", "approx", "ftz", "sat"})

_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*([eE][+-]?\d+)?|\d+[eE][+-]?\d+|inf|nan)$")
_INT_RE = re.compile(r"^[+-]?\d+$")
_DIRECTIVE_RE = re.compile(r"\.(version|target)\s+(\S+)")
_ENTRY_RE = re.compile(r"\.visible \.entry (\w+)\(")
_PARAM_RE = re.compile(r"\.param \.(\w+)(?: \.ptr \.global)? (\w+)$")
_REGDECL_RE = re.compile(r"\.reg \.(\w+) (%\w+)<(\d+)>;")
_LABEL_RE = re.compile(r"^(\$\w+):$")
#: ``[@[!]%pN] mnemonic [operands];``
_INST_RE = re.compile(r"^(?:@(!?)(%p\d+)\s+)?([^\s;]+)(?:\s+(.*?))?\s*;$")
_ADDR_RE = re.compile(r"^\[(.+)\]$")


@dataclass
class ParsedKernel:
    """The result of parsing one PTX module."""

    name: str
    params: list[Param]
    instructions: list[Instruction]
    reg_decls: dict[str, int] = field(default_factory=dict)
    version: str = ""
    target: str = ""


class _ParamOperand:
    """Operand standing for a kernel parameter in ``ld.param``."""

    def __init__(self, pname: str):
        self.pname = pname

    @property
    def name(self) -> str:
        return self.pname


def _ptx_type(tname: str, where: str) -> PTXType:
    try:
        return _TYPES[tname]
    except KeyError:
        raise PTXParseError(f"bad type .{tname} in {where!r}") from None


def _parse_operand(tok: str, itype: PTXType | None, interned: dict):
    """One operand token.  Registers and specials are interned per
    parse (``interned``: token -> operand), so each distinct ``%fd12``
    of a kernel is one :class:`Register` object."""
    op = interned.get(tok)
    if op is not None:
        return op
    if tok.startswith("%"):
        prefix = tok.rstrip("0123456789")
        if prefix in _PREFIX_TYPES and len(prefix) < len(tok):
            op = Register(_PREFIX_TYPES[prefix], int(tok[len(prefix):]))
        elif tok in _SPECIALS:
            op = Special(_SPECIALS[tok])
        else:
            raise PTXParseError(f"unrecognized register {tok!r}")
        interned[tok] = op
        return op
    if _INT_RE.match(tok):
        return Immediate(type=itype or PTXType.S64, value=int(tok))
    if _FLOAT_RE.match(tok):
        return Immediate(type=itype or PTXType.F64, value=float(tok))
    raise PTXParseError(f"unrecognized operand {tok!r}")


@lru_cache(maxsize=512)
def _split_mnemonic(mnem: str):
    """Split an instruction mnemonic into (opcode, type, cmp, src_type).

    Handles the dialect's shapes, e.g.::

        add.f32 / mul.lo.s32 / mad.lo.s32 / fma.rn.f64 / setp.lt.s32
        cvt.rn.f32.f64 / cvt.s32.u32 / ld.global.f64 / st.global.f64
        ld.param.u64 / rsqrt.approx.f32 / sqrt.rn.f64 / selp.f32

    Memoised: a kernel spells a few dozen distinct mnemonics.
    """
    op, *rest = mnem.split(".")
    if op in ("ld", "st"):
        # ld.global.f64 / ld.param.u64 / st.global.f64
        if len(rest) != 2:
            raise PTXParseError(f"bad mnemonic {mnem!r}")
        return f"{op}.{rest[0]}", _ptx_type(rest[1], mnem), None, None
    if op == "setp":
        # setp.lt.s32
        if len(rest) != 2:
            raise PTXParseError(f"bad setp mnemonic {mnem!r}")
        return "setp", _ptx_type(rest[1], mnem), rest[0], None
    if op in ("mul", "mad") and len(rest) >= 2 and rest[0] in ("lo", "wide"):
        return f"{op}.{rest[0]}", _ptx_type(rest[1], mnem), None, None
    if op == "cvt":
        # cvt[.rn|.rzi].dsttype.srctype
        rest = [p for p in rest if p not in _CVT_MODIFIERS]
        if len(rest) != 2:
            raise PTXParseError(f"bad cvt mnemonic {mnem!r}")
        return ("cvt", _ptx_type(rest[0], mnem), None,
                _ptx_type(rest[1], mnem))
    # generic: opcode[.rn|.approx].type
    rest = [p for p in rest if p not in _MODIFIERS]
    if len(rest) != 1:
        raise PTXParseError(f"bad mnemonic {mnem!r}")
    return op, _ptx_type(rest[0], mnem), None, None


def parse_ptx(text: str) -> ParsedKernel:
    """Parse a PTX module (our dialect) into a :class:`ParsedKernel`.

    Malformed text of any shape raises :class:`PTXParseError`.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("//")]
    header = {"version": "", "target": ""}
    params: list[Param] = []
    instructions: list[Instruction] = []
    reg_decls: dict[str, int] = {}
    i = 0
    # header
    while i < len(lines) and lines[i].startswith("."):
        if lines[i].startswith(".visible"):
            break
        dm = _DIRECTIVE_RE.match(lines[i])
        if dm:
            header[dm.group(1)] = dm.group(2)
        i += 1
    if i >= len(lines) or not lines[i].startswith(".visible .entry"):
        raise PTXParseError("missing .visible .entry")
    m = _ENTRY_RE.match(lines[i])
    if not m:
        raise PTXParseError(f"bad entry line: {lines[i]!r}")
    name = m.group(1)
    i += 1
    # parameters until ')'
    while i < len(lines) and not lines[i].startswith(")"):
        ln = lines[i].rstrip(",")
        pm = _PARAM_RE.match(ln)
        if not pm:
            raise PTXParseError(f"bad param line: {ln!r}")
        params.append(Param(name=pm.group(2), type=_ptx_type(pm.group(1), ln),
                            is_pointer=".ptr" in ln))
        i += 1
    if i >= len(lines):
        raise PTXParseError("unterminated parameter list")
    i += 1  # skip ')'
    if i < len(lines) and lines[i] == "{":
        i += 1
    # body
    interned: dict = {}
    emit = instructions.append
    for ln in lines[i:]:
        if ln == "}":
            break
        first = ln[0]
        if first == "." and ln.startswith(".reg"):
            rm = _REGDECL_RE.match(ln)
            if not rm:
                raise PTXParseError(f"bad .reg line: {ln!r}")
            reg_decls[rm.group(1)] = int(rm.group(3))
            continue
        if first == "$":
            lm = _LABEL_RE.match(ln)
            if lm:
                emit(Instruction("label", None, None, (), label=lm.group(1)))
                continue
        m = _INST_RE.match(ln)
        if not m:
            raise PTXParseError(f"missing semicolon: {ln!r}"
                                if not ln.endswith(";")
                                else f"bad instruction: {ln!r}")
        bang, gtok, mnem, opstr = m.groups()
        guard = _parse_operand(gtok, None, interned) if gtok else None
        negated = bang == "!"
        if mnem == "ret" and not opstr:
            emit(Instruction("ret", None, None, (),
                             guard=guard, guard_negated=negated))
            continue
        if not opstr:
            raise PTXParseError(f"bad instruction: {ln!r}")
        if mnem == "bra":
            emit(Instruction("bra", None, None, (), label=opstr.split()[0],
                             guard=guard, guard_negated=negated))
            continue
        # general instruction: MNEM op1, op2, ...
        opcode, itype, cmp, src_type = _split_mnemonic(mnem)
        toks = [t.strip() for t in opstr.split(",")]
        if opcode in ("st.global", "ld.global", "ld.param"):
            # st.global.T [addr], val  /  ld.global|param.T dst, [addr]
            if len(toks) != 2:
                raise PTXParseError(f"bad operands: {ln!r}")
            store = opcode == "st.global"
            atok, rtok = toks if store else reversed(toks)
            am = _ADDR_RE.match(atok)
            if not am:
                raise PTXParseError(
                    f"bad {'store' if store else 'load'} address: {ln!r}")
            if opcode == "ld.param":
                addr: object = _ParamOperand(am.group(1))
            else:
                addr = _parse_operand(am.group(1), PTXType.U64, interned)
            reg = _parse_operand(rtok, itype, interned)
            if store:
                emit(Instruction(opcode, itype, None, (addr, reg),
                                 guard=guard, guard_negated=negated))
                continue
            dst, srcs = reg, (addr,)
        else:
            dst, *srcs = [_parse_operand(t, itype, interned) for t in toks]
            srcs = tuple(srcs)
        if not isinstance(dst, Register):
            raise PTXParseError(f"bad destination in {ln!r}")
        emit(Instruction(opcode, itype, dst, srcs, cmp=cmp, src_type=src_type,
                         guard=guard, guard_negated=negated))
    return ParsedKernel(name=name, params=params, instructions=instructions,
                        reg_decls=reg_decls, **header)
