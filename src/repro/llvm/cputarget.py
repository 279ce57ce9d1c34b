"""The CPU target for the LLVM backend (paper Sec. XI).

:func:`compile_cpu_kernel` is the ``cpu`` row of the backend build
table (:mod:`repro.driver.backends`): the parsed PTX instruction
stream — the same :class:`~repro.driver.parser.ParsedKernel` the driver
JIT translated for ``sim`` — is code-generated into vectorized-NumPy
Python source (vectorized over work-items: the site loop an
LLVM-backed QDP-JIT wraps around the per-site function) and
``compile()``d; the dispatch keeps the resulting function on the
kernel's artifact in the process-wide store
(:mod:`repro.driver.cache`), so it is built once per process.

The generator is a subclass of the driver's reference translator
(:class:`repro.driver.jitcompiler._Translator`): one instruction walk,
one set of op tables, one mask/branch emission.  It overrides only
what its contract licenses.  The compiled path is *bitwise identical
to the sim backend on every observable memory effect* — the contract
is on loaded/stored values, not on intermediate registers, which is
what makes it fast.  Integer address arithmetic is folded symbolically
at compile time into per-kernel linear forms ``gid*a + b`` over
Z/2**64, whose scalar part is evaluated once per launch in Python-int
arithmetic; a form is reduced to its register's width wherever that
width can be observed, so the fold is exact, wraps included.
Floating-point operations are never reassociated or folded (only
deduplicated when operands are identical, which cannot change bits).
See DESIGN.md "The build table and the compiled CPU backend".

Subset restrictions (checked by :func:`check_subset`, with clear
errors): single static assignment per register (our code generators
emit SSA already) and the guarded-forward-branch control flow the
generators use.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..driver.backends import BackendBuildError, BuildStats, build_stats
from ..driver.jitcompiler import _GID_MAX, _NP_DTYPE, _RUNTIME, _Translator
from ..driver.parser import ParsedKernel, parse_ptx
from ..memory.pool import ALIGNMENT
from ..ptx.isa import (NUMPY_DTYPES, Immediate, Instruction, KernelInfo,
                       PTXType, Register, Special)
from ..ptx.module import PTXModule
from ..ptx.verifier import run_passes


class TranspileError(BackendBuildError):
    """The PTX program falls outside the transpilable subset."""


def check_subset(parsed: ParsedKernel) -> None:
    """Raise :class:`TranspileError` unless ``parsed`` is in the subset
    the ``cpu`` generator accepts: structurally valid SSA (every
    register assigned once, defined before use) and no guarded
    instruction other than a forward branch."""
    for inst in parsed.instructions:
        if inst.guard is not None and inst.opcode != "bra":
            # the generators guard only forward branches; a guarded
            # arithmetic/memory instruction would need per-instruction
            # predication the generator does not model
            raise TranspileError(
                f"{parsed.name}: guarded {inst.opcode!r} — only guarded "
                f"forward branches are in the transpilable subset")
    module = PTXModule(
        info=KernelInfo(name=parsed.name, params=list(parsed.params)),
        instructions=parsed.instructions)
    errs = run_passes(module, passes=["ssa-structure"])
    if errs:
        raise TranspileError(
            f"{parsed.name}: outside the SSA subset the LLVM backend "
            f"supports (a register assigned twice or used before its "
            f"definition): " + "; ".join(d.message for d in errs))


# --- runtime helpers (beside the driver's _ld/_st) -------------------------

def _gv(view, gb, s, m, ci):
    """Gather through a folded linear index ``gb + s`` (exact clamp:
    inactive lanes read the same safe word the sim backend reads)."""
    idx = gb + s
    if m is not None:
        idx = np.where(m, idx, ci)
    return view[idx]


def _gs(view, s, m, ci):
    """Gather through a per-launch scalar index."""
    if m is None:
        return view[s]
    return view[np.where(m, s, ci)]


def _pv(view, gb, s, val, m):
    """Scatter through a folded linear index (mirrors ``_st``)."""
    idx = gb + s
    if m is None:
        view[idx] = val
    elif np.ndim(val) == 0:
        view[idx[m]] = val
    else:
        view[idx[m]] = val[m]


def _ps(view, s, val, m, ci):
    """Scatter through a per-launch scalar index."""
    if m is None:
        view[s] = val
        return
    idx = np.where(m, s, ci)
    if np.ndim(val) == 0:
        view[idx[m]] = val
    else:
        view[idx[m]] = val[m]


# --- symbolic values ------------------------------------------------------


class _Lin(NamedTuple):
    """Integer value linear in the global thread id: ``gid*a + b``.

    ``a`` is a compile-time Python int; ``b`` is a Python-int
    expression over hoisted launch parameters (``_i<k>`` locals) and
    literals, evaluated once per launch, whose value lies in
    ``[lo, hi]``.  The form stands for its register modulo
    ``2**width``: ring operations fold exactly, ``a`` and ``b`` are
    kept int64 representatives (:func:`_lin`), and the register's own
    value is taken wherever the width shows — at a widening ``cvt``
    (:meth:`_CpuTranslator._fold_cvt`) and at materialization.
    """

    a: int
    b: str
    lo: int
    hi: int


class _VLin(NamedTuple):
    """Integer vector linear in a loaded index vector: ``base*a + b``.

    ``base`` names an int64 vector local (a gather/shift-map table
    read widened once), so the form is always 64 bits wide; ``a``,
    ``b``, ``lo`` and ``hi`` are as in :class:`_Lin`.  This is what
    folds the table-driven address chains of shift and subset kernels
    — the dominant pattern in dslash — down to one add per memory
    access.
    """

    base: str
    a: int
    b: str
    lo: int
    hi: int


#: the global thread id ``gid*1 + 0`` (at most the driver's ``_GID_MAX``)
_GID = _Lin(1, "0", 0, 0)
#: what a ``.ptr`` parameter holds: an address in the device pool, one
#: host buffer (x86-64 user space is 47 bits)
_PTR_RANGE = (0, 2**48 - 1)


def _wrap(x: int, t: PTXType) -> int:
    """``x`` modulo ``2**width``, in integer type ``t``'s range: what a
    register of that type holds."""
    lo, hi = t.int_range
    return (x - lo) % (hi - lo + 1) + lo


def _wrap_scalar(b: str, t: PTXType) -> tuple[str, int, int]:
    """:func:`_wrap` of a scalar part, as ``(b, lo, hi)``: a literal is
    reduced now, an expression once per launch."""
    if _is_lit(b):
        v = _wrap(int(b), t)
        return str(v), v, v
    lo, hi = t.int_range
    return f"(({b} - {lo}) % {hi - lo + 1} + {lo})", lo, hi


def _fits(lo: int, hi: int, t: PTXType) -> bool:
    return t.int_range[0] <= lo and hi <= t.int_range[1]


def _lin(a: int, b: str, lo: int, hi: int, base: str | None = None):
    """The form with ``a`` and ``b`` as int64 representatives; ``b`` is
    left alone when its bounds prove it one already."""
    if not _fits(lo, hi, PTXType.S64):
        b, lo, hi = _wrap_scalar(b, PTXType.S64)
    a = _wrap(a, PTXType.S64)
    return _Lin(a, b, lo, hi) if base is None else _VLin(base, a, b, lo, hi)


class _FImm(NamedTuple):
    """A floating-point immediate (hoisted into the kernel's constants)."""

    type: PTXType
    tok: str


class _Spec(NamedTuple):
    which: str


def _is_lit(b: str) -> bool:
    try:
        int(b)
        return True
    except ValueError:
        return False


def _badd(b1: str, b2: str) -> str:
    if _is_lit(b1) and _is_lit(b2):
        return str(int(b1) + int(b2))
    if b1 == "0":
        return b2
    if b2 == "0":
        return b1
    return f"({b1} + {b2})"


def _bsub(b1: str, b2: str) -> str:
    if _is_lit(b1) and _is_lit(b2):
        return str(int(b1) - int(b2))
    if b2 == "0":
        return b1
    return f"({b1} - {b2})"


def _bmul(b1: str, b2: str) -> str:
    if _is_lit(b1) and _is_lit(b2):
        return str(int(b1) * int(b2))
    if b1 == "0" or b2 == "0":
        return "0"
    if b1 == "1":
        return b2
    if b2 == "1":
        return b1
    return f"({b1} * {b2})"


#: integer opcodes whose result may stay a symbolic linear form
_FOLDABLE = frozenset({"fma", "mad.lo", "add", "sub", "mul", "mul.lo",
                       "shl", "neg"})


class _CpuTranslator(_Translator):
    """The ``cpu`` visitor: the reference translator plus address folding.

    Contract: the generated function leaves device memory bitwise
    identical to the ``sim`` backend's translation of the same PTX.
    Observable effects are loads (which addresses, in which order) and
    stores (which addresses, which values, which active lanes); those
    are reproduced exactly.  Intermediate integer registers are *not*
    materialized — address chains fold into :class:`_Lin` forms and
    the ``>> shift`` word conversion folds through them — and pure
    vector operations with identical operands are emitted once (CSE),
    neither of which can change any loaded or stored bit.  Float
    arithmetic is never folded, reordered or reassociated: every
    non-integer instruction goes through the base class's emission.
    """

    def __init__(self, parsed: ParsedKernel):
        check_subset(parsed)
        super().__init__(parsed)
        self.consts: dict[str, object] = {}
        self._const_names: dict[tuple, str] = {}
        #: integer parameter -> the range of what a launch binds to it
        self.int_params = {
            p.name: _PTR_RANGE if p.is_pointer else p.type.int_range
            for p in parsed.params if p.type.is_int}
        #: register -> symbolic value (a vector local's name, or a
        #: _Lin/_VLin/_FImm/_Spec still to be materialized)
        self.sym: dict[Register, object] = {}
        self._n = 0
        #: emitted pure expression -> the local holding it; locals are
        #: assigned once, so identical text is the identical value (the
        #: inherited ``translate()`` maps them onto reusable slots only
        #: after the walk: a local released earlier would have to leave
        #: this table, changing which operations are emitted)
        self._cse: dict[str, str] = {}
        self._iparams: dict[str, str] = {}
        self._scalars: dict[str, str] = {}
        self._views: dict[str, str] = {}
        self.need_G = False
        self.need_gl = False
        self.need_ntid = False

    # -- small emission helpers ----------------------------------------

    def fresh(self) -> str:
        self._n += 1
        return f"_v{self._n}"

    def _bind(self, inst: Instruction, expr: str) -> None:
        """Evaluate ``expr`` into a fresh local bound to the destination."""
        name = self.fresh()
        self.emit(f"{name} = {expr}")
        self.sym[inst.dst] = name

    def _shared(self, expr: str) -> str:
        """The local holding pure expression ``expr`` (emitted once)."""
        if expr.isidentifier():
            return expr
        name = self._cse.get(expr)
        if name is None:
            name = self.fresh()
            self.emit(f"{name} = {expr}")
            self._cse[expr] = name
        return name

    def _const(self, t: PTXType, tok: str) -> str:
        dt = np.dtype(NUMPY_DTYPES[t]).type
        value = dt(float(tok)) if t.is_float else dt(int(tok))
        key = (t, tok)
        name = self._const_names.get(key)
        if name is None:
            name = f"_K{len(self.consts)}"
            self._const_names[key] = name
            self.consts[name] = value
        return name

    def _iparam(self, pname: str) -> str:
        name = self._iparams.get(pname)
        if name is None:
            name = f"_i{len(self._iparams)}"
            self._iparams[pname] = name
        return name

    def _scalar(self, expr: str) -> str:
        """Hoist a per-launch Python-int scalar expression."""
        if _is_lit(expr):
            return expr
        name = self._scalars.get(expr)
        if name is None:
            name = f"_s{len(self._scalars)}"
            self._scalars[expr] = name
        return name

    def _word(self, b: str, sh: int) -> str:
        """The word index of byte offset ``b``: literal offsets fold
        now, the rest is deferred to one per-launch scalar."""
        if _is_lit(b):
            return str(int(b) >> sh)
        return self._scalar(f"({b}) >> {sh}")

    # -- the base translator's hooks -----------------------------------

    def _view(self, t: PTXType) -> str:
        dname = NUMPY_DTYPES[t]
        name = self._views.get(dname)
        if name is None:
            name = f"_Vw{len(self._views)}"
            self._views[dname] = name
        return name

    def _operand(self, op, itype: PTXType) -> str:
        return self._mat(self._sym_of(op, itype), itype)

    def _assign(self, inst: Instruction, expr: str, em: str | None = None) -> None:
        # never guarded (check_subset) and never a load (_load binds
        # those itself), so ``expr`` is pure and may be shared
        self.sym[inst.dst] = self._shared(expr)

    def _prologue(self) -> list[str]:
        pro = ["    _nt = _gd * _bd"]
        if self.need_gl:
            pro += ["    _gl = np.arange(_nt, dtype=np.uint32)",
                    "    _tid = _gl % np.uint32(_bd)",
                    "    _ctaid = _gl // np.uint32(_bd)"]
        if self.need_ntid:
            pro.append("    _ntid = np.uint32(_bd)")
        if self.need_G:
            pro.append("    _G = np.arange(_nt, dtype=np.int64)")
        for dname, var in self._views.items():
            pro.append(f"    {var} = _V[{dname!r}]")
        for pname, var in self._iparams.items():
            pro.append(f"    {var} = int(_P[{pname!r}])")
        for expr, var in self._scalars.items():
            pro.append(f"    {var} = {expr}")
        pro += ["    _m = None", "    _pre = True"]
        return pro

    def _lane_vectors(self) -> list[str]:
        return ["_tid", "_ctaid"] * self.need_gl + ["_G"] * self.need_G

    def _vector_locals(self) -> list[str]:
        return [f"_v{k}" for k in range(1, self._n + 1)]

    # -- symbolic values ------------------------------------------------

    def _sym_of(self, op, t: PTXType):
        if isinstance(op, Register):
            s = self.sym.get(op)
            if s is None:
                raise TranspileError(
                    f"{self.parsed.name}: use of undefined value {op.name!r}")
            return s
        if isinstance(op, Special):
            return _Spec(op.which)
        if isinstance(op, Immediate):
            if op.type != PTXType.PRED:
                t = op.type
            if t.is_float:
                return _FImm(t, repr(float(op.value)))
            v = int(op.value)
            return _lin(0, str(v), v, v)
        raise TranspileError(f"{self.parsed.name}: bad operand {op!r}")

    def _gmul(self, a: int, gbase: str = "_G") -> str:
        """The shared ``gid-vector * a`` product (CSE'd per kernel)."""
        return gbase if a == 1 else self._shared(f"{gbase} * {a}")

    def _mat(self, sym, t: PTXType) -> str:
        """Materialize a symbolic value as an expression of type ``t``."""
        if isinstance(sym, str):
            return sym
        if isinstance(sym, _FImm):
            return self._const(sym.type, sym.tok)
        if isinstance(sym, _Spec):
            if sym.which == "ntid":
                self.need_ntid = True
                return "_ntid"
            self.need_gl = True
            return "_" + sym.which
        if isinstance(sym, _Lin) and sym.a == 0:
            b = sym.b
            if t.is_int and not _fits(sym.lo, sym.hi, t):
                b = _wrap_scalar(b, t)[0]     # what the register holds
            if _is_lit(b):
                return self._const(t, b)
            return self._shared(f"{_NP_DTYPE[t]}({self._scalar(b)})")
        if isinstance(sym, _Lin):
            self.need_G = True
            core = self._gmul(sym.a)
        else:
            core = sym.base if sym.a == 1 else f"({sym.base} * {sym.a})"
        expr = core if sym.b == "0" else f"({core} + {self._scalar(sym.b)})"
        if t != PTXType.S64:
            expr = f"{expr}.astype({_NP_DTYPE[t]})"
        return self._shared(expr)

    # -- integer folding -------------------------------------------------

    def _fold_int(self, inst: Instruction) -> bool:
        """Try to fold an integer arithmetic op symbolically; returns
        True when the destination got a :class:`_Lin` binding."""
        if not inst.type.is_int:
            return False
        op = "fma" if inst.opcode == "mad.lo" else inst.opcode
        syms = [self._sym_of(s, inst.type) for s in inst.srcs]
        if op == "fma" and all(isinstance(s, _Spec) for s in syms) and \
                tuple(s.which for s in syms) == ("ctaid", "ntid", "tid"):
            # the canonical global-thread-id computation
            self.sym[inst.dst] = _GID
            return True
        if not all(isinstance(s, (_Lin, _VLin)) for s in syms):
            return False
        out = None
        if op == "add":
            out = self._lin_add(*syms)
        elif op == "sub":
            x, y = syms
            out = self._lin_add(x, self._lin_neg(y))
        elif op in ("mul", "mul.lo"):
            out = self._lin_mul(*syms)
        elif op == "fma":
            x, y, z = syms
            prod = self._lin_mul(x, y)
            out = self._lin_add(prod, z) if prod is not None else None
        elif op == "shl":
            x, y = syms
            if isinstance(y, _Lin) and y.a == 0 and _is_lit(y.b) \
                    and 0 <= int(y.b) <= 62:
                k = 1 << int(y.b)
                out = self._lin_mul(x, _Lin(0, str(k), k, k))
        elif op == "neg":
            out = self._lin_neg(syms[0])
        if out is None:
            return False
        self.sym[inst.dst] = out
        return True

    @staticmethod
    def _lin_add(x, y):
        lo, hi = x.lo + y.lo, x.hi + y.hi
        if isinstance(x, _Lin) and isinstance(y, _Lin):
            return _lin(x.a + y.a, _badd(x.b, y.b), lo, hi)
        if isinstance(x, _Lin):
            x, y = y, x
        if isinstance(y, _VLin):                  # VLin + VLin
            if x.base != y.base:
                return None
            return _lin(x.a + y.a, _badd(x.b, y.b), lo, hi, x.base)
        if y.a != 0:
            return None                           # table vec + gid vec
        return _lin(x.a, _badd(x.b, y.b), lo, hi, x.base)

    @staticmethod
    def _lin_neg(x):
        return _lin(-x.a, _bsub("0", x.b), -x.hi, -x.lo,
                    x.base if isinstance(x, _VLin) else None)

    @staticmethod
    def _lin_mul(x, y):
        corners = [p * q for p in (x.lo, x.hi) for q in (y.lo, y.hi)]
        lo, hi = min(corners), max(corners)
        if isinstance(x, _VLin) or isinstance(y, _VLin):
            if isinstance(x, _VLin) and isinstance(y, _VLin):
                return None
            if isinstance(x, _VLin):
                x, y = y, x                  # x: the _Lin side, y: _VLin
            if x.a != 0 or not _is_lit(x.b):
                return None                  # coeff must stay const
            k = int(x.b)
            if k == 0:
                return _Lin(0, "0", 0, 0)
            return _lin(y.a * k, _bmul(y.b, str(k)), lo, hi, y.base)
        if x.a != 0 and y.a != 0:
            return None                      # gid^2: not linear
        if x.a != 0:
            x, y = y, x                      # x is now the scalar side
        if y.a != 0 and not _is_lit(x.b):
            return None                      # gid coeff must stay const
        scale = int(x.b) if y.a != 0 else 0
        return _lin(y.a * scale, _bmul(x.b, y.b), lo, hi)

    def _fold_cvt(self, inst: Instruction) -> bool:
        """Integer -> integer ``cvt`` of an address-chain value passes
        through symbolically.  Same-width and narrowing conversions
        are the identity on a form (it stands for its register modulo
        the width); a *widening* one shows the source width, so a form
        not proven to lie in the source type's range first takes the
        value the source register holds, as ``sim`` computes it."""
        if not (inst.type.is_int and inst.src_type.is_int):
            return False
        src = inst.src_type
        sym = self._sym_of(inst.srcs[0], src)
        if isinstance(sym, _Lin) and inst.type.nbytes > src.nbytes:
            span = sym.a * _GID_MAX
            if not _fits(sym.lo + min(span, 0), sym.hi + max(span, 0), src):
                sym = (_Lin(0, *_wrap_scalar(sym.b, src)) if sym.a == 0
                       else self._mat(sym, src))
        if isinstance(sym, _Lin) or \
                (isinstance(sym, _VLin) and inst.type.nbytes == 8):
            self.sym[inst.dst] = sym
            return True
        if isinstance(sym, str) and inst.type.nbytes == 8:
            # widen a loaded index vector once; later address
            # arithmetic folds onto it (shift/subset tables)
            base = self._shared(f"np.asarray({sym}).astype(np.int64)")
            self.sym[inst.dst] = _VLin(base, 1, "0", 0, 0)
            return True
        return False

    # -- folded memory access ---------------------------------------------

    def _fold_addr(self, addr, sh: int):
        """Fold the byte->word shift through a gid-linear or
        table-driven (vector linear) address; returns
        ``(vector_word_base, scalar_word_index)`` or None."""
        if not isinstance(addr, (_Lin, _VLin)) or addr.a <= 0 \
                or addr.a % (1 << sh) != 0:
            return None
        s = self._word(addr.b, sh)
        if isinstance(addr, _VLin):
            return self._gmul(addr.a >> sh, addr.base), s
        self.need_G = True
        return self._gmul(addr.a >> sh), s

    def _access(self, kind: str, inst: Instruction, addr, sh: int,
                tail: str) -> str:
        """The call performing a global access.  A form ``gid*width +
        b`` is the coalesced shape: it goes through the driver's
        ``_ldc`` / ``_stc`` with ``b`` as the uniform half; the other
        forms index by word (``tail``: the mask, behind a stored
        value)."""
        if isinstance(addr, Register) and addr.key in self._deferred:
            return super()._access(kind, inst, addr, sh, tail)
        view = self._view(inst.type)
        sym = self._sym_of(addr, PTXType.U64)
        ci = ALIGNMENT >> sh        # the word inactive lanes read
        if isinstance(sym, _Lin) and sym.a == 0:
            return (f"{'_gs' if kind == 'ld' else '_ps'}({view}, "
                    f"{self._word(sym.b, sh)}, {tail}, {ci})")
        if isinstance(sym, _Lin) and sym.a == inst.type.nbytes:
            self.need_G = True
            self.coalesced.append(self.pos)
            return (f"_{kind}c({view}, {self._scalar(sym.b)}, "
                    f"{self._gmul(sym.a)}, {sh}, {tail}, _pre)")
        folded = self._fold_addr(sym, sh)
        if folded is None:
            return (f"_{kind}({view}, {self._mat(sym, PTXType.U64)}, {sh}, "
                    f"{tail})")
        if kind == "ld":
            return f"_gv({view}, {folded[0]}, {folded[1]}, {tail}, {ci})"
        return f"_pv({view}, {folded[0]}, {folded[1]}, {tail})"

    def _load(self, inst: Instruction) -> None:
        (addr,) = inst.srcs
        self._bind(inst, self._access("ld", inst, addr, self._shift(inst),
                                      "_m"))

    def _store(self, inst: Instruction) -> None:
        addr, val = inst.srcs
        v = self._operand(val, inst.type)
        self.emit(self._access("st", inst, addr, self._shift(inst),
                               f"{v}, _m"))

    # -- the instruction walk ---------------------------------------------

    def _translate_inst(self, inst: Instruction) -> None:
        op = inst.opcode
        if op == "ld.param" and inst.srcs[0].pname in self.int_params:
            # pointers and integer scalars are launch-uniform Python ints
            pname = inst.srcs[0].pname
            self.sym[inst.dst] = _lin(0, self._iparam(pname),
                                      *self.int_params[pname])
        elif op == "mov":
            self.sym[inst.dst] = self._sym_of(inst.srcs[0], inst.type)
        elif op == "ld.global":
            self._load(inst)
        elif op == "st.global":
            self._store(inst)
        elif op == "cvt" and self._fold_cvt(inst):
            pass
        elif op in _FOLDABLE and self._fold_int(inst):
            pass
        else:
            super()._translate_inst(inst)


def code_cache_stats() -> BuildStats:
    """The live counters of the store's ``cpu`` builds: ``misses``
    compiled a kernel, ``hits`` reused one another context compiled."""
    return build_stats("cpu")


def compile_cpu_kernel(ptx_text: str, parsed: ParsedKernel | None = None):
    """PTX text -> the ``cpu`` launch function (uncached: the store
    caches), with the launch signature ``(views, params, grid_dim,
    block_dim)`` of every backend callable.

    ``parsed`` is the already-parsed form of ``ptx_text`` when the
    caller has it (the build table does); the text is parsed here
    only without one.  Raises :class:`TranspileError` when the program
    falls outside the transpilable subset; the dispatch catches it
    and falls back to the ``sim`` backend per kernel.
    """
    if parsed is None:
        parsed = parse_ptx(ptx_text)
    gen = _CpuTranslator(parsed)
    source = gen.translate()
    namespace = {**_RUNTIME, "_gv": _gv, "_gs": _gs, "_pv": _pv, "_ps": _ps,
                 **gen.consts}
    exec(compile(source, f"<cpujit:{parsed.name}>", "exec"), namespace)
    return namespace[f"_kernel_{parsed.name}"]
