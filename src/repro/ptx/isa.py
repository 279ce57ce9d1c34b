"""The PTX-like virtual instruction set.

This module defines the *secondary language* of the framework (paper
Sec. III): a typed, register-based, assembly-like ISA closely modeled
on NVIDIA PTX.  Kernels generated by the expression-template code
generators are expressed in this ISA, emitted as text (see
:mod:`repro.ptx.module`) and handed to the simulated driver JIT
(:mod:`repro.driver.jitcompiler`) which translates them to executable
form — mirroring the CUDA ``PTX -> Linux driver -> GPU code`` chain of
the paper's Figure 2.

Only the subset of PTX required for streaming lattice kernels is
implemented: typed arithmetic, loads/stores to global memory,
conversions, comparisons/predication, and a guarded forward branch for
the thread bounds check.  This is a deliberate, documented deviation
from full PTX 3.1 (see DESIGN.md, "Known deviations").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


#: mnemonic suffix -> (bytes, register-name prefix, is_float, is_signed).
#: The prefixes follow the PTX convention (``%f`` f32, ``%fd`` f64,
#: ``%r`` 32-bit, ``%rd`` 64-bit, ``%p`` pred) except that unsigned
#: registers get their own (``%u``/``%ru``): real PTX uses untyped
#: ``.b32``/``.b64`` registers for both signednesses, while our dialect
#: keeps registers fully typed so names must be unambiguous (documented
#: deviation, DESIGN.md).
_TYPE_TABLE = {
    "f32": (4, "%f", True, False),
    "f64": (8, "%fd", True, False),
    "s32": (4, "%r", False, True),
    "s64": (8, "%rd", False, True),
    "u32": (4, "%u", False, False),
    "u64": (8, "%ru", False, False),
    "pred": (1, "%p", False, False),
}


class PTXType(enum.Enum):
    """PTX fundamental types (the subset we use).

    Values are the textual suffixes used in instruction mnemonics,
    e.g. ``add.f32``.  ``suffix`` (the value, without ``Enum.value``'s
    descriptor), ``nbytes``, ``reg_prefix``, ``is_float``, ``is_int``,
    ``is_signed``, ``slots`` (32-bit register slots: 64-bit values
    take two) and ``int_range`` (the representable ``(lo, hi)`` of an
    integer type, else ``None``) are plain member attributes filled
    once, at class creation: the parser, liveness and the abstract
    interpreter read them per instruction.
    """

    F32 = "f32"
    F64 = "f64"
    S32 = "s32"
    S64 = "s64"
    U32 = "u32"
    U64 = "u64"
    PRED = "pred"

    def __init__(self, suffix: str):
        self.suffix = suffix
        (self.nbytes, self.reg_prefix, self.is_float,
         self.is_signed) = _TYPE_TABLE[suffix]
        self.is_int = not self.is_float and suffix != "pred"
        self.slots = 2 if self.nbytes == 8 else 1
        self.int_range = None
        if self.is_int:
            lo = -(2 ** (8 * self.nbytes - 1)) if self.is_signed else 0
            self.int_range = (lo, lo + 2 ** (8 * self.nbytes) - 1)


#: Map from PTXType to the NumPy dtype string used by the driver.
NUMPY_DTYPES = {
    PTXType.F32: "float32",
    PTXType.F64: "float64",
    PTXType.S32: "int32",
    PTXType.S64: "int64",
    PTXType.U32: "uint32",
    PTXType.U64: "uint64",
    PTXType.PRED: "bool",
}


@dataclass(frozen=True)
class Register:
    """A virtual register: a typed, symbolic storage location.

    These are the "JIT variables" of paper Sec. III-A: they exist in
    the secondary language's execution context and are reified in the
    host language as these handle objects ("JIT values").

    ``key`` — the operand's identity ``(type suffix, index)`` every
    analysis keys its tables on — and ``slots`` are filled once here.
    """

    type: PTXType
    index: int
    key: tuple = field(init=False, repr=False, compare=False)
    slots: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "key", (self.type.suffix, self.index))
        object.__setattr__(self, "slots", self.type.slots)

    @property
    def name(self) -> str:
        return f"{self.type.reg_prefix}{self.index}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Immediate:
    """An immediate (literal) operand."""

    type: PTXType
    value: float | int

    @property
    def name(self) -> str:
        if self.type.is_float:
            # PTX uses hex float literals for exactness; we use repr,
            # which round-trips in Python and keeps the text readable.
            return repr(float(self.value))
        return str(int(self.value))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Special:
    """A special (read-only) register: %tid.x, %ntid.x, %ctaid.x."""

    which: str  # "tid" | "ntid" | "ctaid"

    @property
    def name(self) -> str:
        return f"%{self.which}.x"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class ParamRef:
    """The operand of ``ld.param``: a kernel parameter, by name (the
    builder's and the parser's, so the two streams compare equal)."""

    pname: str

    @property
    def name(self) -> str:
        # the ld.param render path wraps this in brackets
        return self.pname

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.pname


Operand = Register | Immediate | Special


@dataclass(frozen=True)
class Param:
    """A kernel parameter (``.param`` state space entry).

    Pointers are ``u64`` addresses into the device's flat virtual
    address space; scalars are passed by value.
    """

    name: str
    type: PTXType
    is_pointer: bool = False


# --- Instruction set ------------------------------------------------------

#: Binary arithmetic opcodes (dst, a, b), same-typed.
BINARY_OPS = frozenset(
    {"add", "sub", "mul", "div", "min", "max", "and", "or", "xor", "shl", "shr", "rem"}
)

#: Unary arithmetic opcodes (dst, a).
UNARY_OPS = frozenset({"neg", "abs", "not", "sqrt", "rsqrt", "rcp", "sin", "cos",
                       "ex2", "lg2", "floor", "ceil", "trunc", "round"})

#: Comparison operators for setp.
CMP_OPS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})


@dataclass(frozen=True)
class Instruction:
    """A single PTX instruction.

    ``opcode`` is the base mnemonic (``add``, ``ld.global``, ...);
    ``type`` the operating type; ``dst`` the destination register (or
    ``None`` for stores/branches); ``srcs`` the source operands.

    ``guard`` is an optional predicate register: the instruction
    executes only in lanes where the predicate holds (``@%p``), or
    where it does not hold if ``guard_negated``.
    """

    opcode: str
    type: PTXType | None
    dst: Register | None
    srcs: tuple[Operand, ...] = ()
    # For setp: the comparison op.  For cvt: the source type.
    cmp: str | None = None
    src_type: PTXType | None = None
    # For bra: the target label.
    label: str | None = None
    guard: Register | None = None
    guard_negated: bool = False

    def render(self) -> str:
        """Render the instruction as a line of PTX text."""
        parts = []
        if self.guard is not None:
            parts.append(("@!" if self.guard_negated else "@") + self.guard.name)
        if self.opcode == "bra":
            parts.append(f"bra {self.label};")
            return " ".join(parts)
        if self.opcode == "ret":
            parts.append("ret;")
            return " ".join(parts)
        if self.opcode == "label":
            return f"{self.label}:"
        mnem = self.opcode
        if self.opcode == "setp":
            mnem = f"setp.{self.cmp}.{self.type.suffix}"
        elif self.opcode == "cvt" and self.src_type is not None:
            rn = ".rn" if (self.type.is_float and self.src_type.is_float
                           and self.src_type.nbytes > self.type.nbytes) else ""
            rzi = ".rzi" if (self.type.is_int and self.src_type.is_float) else ""
            mnem = f"cvt{rn}{rzi}.{self.type.suffix}.{self.src_type.suffix}"
        elif self.opcode in ("ld.global", "st.global", "ld.param"):
            mnem = f"{self.opcode}.{self.type.suffix}"
        elif self.opcode in ("mul.lo", "mad.lo", "mul.wide"):
            mnem = f"{self.opcode}.{self.type.suffix}"
        elif self.opcode in ("fma", "div") and self.type.is_float:
            mnem = f"{self.opcode}.rn.{self.type.suffix}"
        elif self.opcode in ("sqrt", "rcp"):
            # .rn for f64, .approx allowed for f32 per PTX; we use .rn
            mnem = f"{self.opcode}.rn.{self.type.suffix}"
        elif self.opcode in ("rsqrt", "sin", "cos", "ex2", "lg2"):
            mnem = f"{self.opcode}.approx.{self.type.suffix}"
        elif self.type is not None:
            mnem = f"{self.opcode}.{self.type.suffix}"
        ops = []
        if self.dst is not None:
            ops.append(self.dst.name)
        if self.opcode == "st.global":
            # st.global [addr], value
            addr, val = self.srcs
            parts.append(f"{mnem} [{addr.name}], {val.name};")
            return " ".join(parts)
        if self.opcode in ("ld.global", "ld.param"):
            (addr,) = self.srcs
            bracket = f"[{addr.name}]"
            parts.append(f"{mnem} {', '.join(ops)}, {bracket};")
            return " ".join(parts)
        ops.extend(s.name for s in self.srcs)
        parts.append(f"{mnem} {', '.join(ops)};")
        return " ".join(parts)


@dataclass
class KernelInfo:
    """Static resource/work metadata carried alongside a kernel.

    The register count feeds the device occupancy model (launch
    failures when ``block_size * regs_per_thread`` exceeds the SM
    register file, paper Sec. VII); flop/byte counts feed the
    performance model and the Table II arithmetic-intensity check.
    """

    name: str
    params: list[Param] = field(default_factory=list)
    n_instructions: int = 0
    regs_per_thread: dict[str, int] = field(default_factory=dict)
    flops_per_site: int = 0
    bytes_loaded_per_site: int = 0
    bytes_stored_per_site: int = 0

    @property
    def bytes_per_site(self) -> int:
        return self.bytes_loaded_per_site + self.bytes_stored_per_site

    @property
    def flop_per_byte(self) -> float:
        b = self.bytes_per_site
        return self.flops_per_site / b if b else 0.0

    @property
    def total_regs_per_thread(self) -> int:
        """Total 32-bit register equivalents per thread.

        64-bit registers occupy two 32-bit slots, predicates one —
        matching how the PTX->SASS allocation is accounted on Kepler.
        """
        return sum(count * PTXType(tname).slots
                   for tname, count in self.regs_per_thread.items())
