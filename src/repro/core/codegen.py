"""The AST unparser / PTX code generator (paper Sec. III-C/D).

Walking the expression AST in depth-first order, the unparser emits —
through :class:`~repro.ptx.builder.KernelBuilder` — the PTX program
that evaluates the expression at one site per thread.  The inner
(spin/color/complex) index spaces are unrolled at generation time,
exactly as the C++ template recursion unrolls them in QDP-JIT; the
loop over the site index becomes CUDA thread parallelism.

JIT data views (paper Sec. III-B) appear here as the address
computation ``base + (word_index * I_V + i_V) * word_bytes`` derived
from the coalesced SoA layout function; ``i_V`` is the thread's site,
possibly indirected through a shift gather table or a subset site
table.

Complex arithmetic is expanded into real mul/sub/fma instructions with
the operation counts the paper's Table II assumes (a complex multiply
is 6 flops, an add 2); constant spin matrices fold zeros and +/-1,
+/-i structurally so spin projectors cost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..ptx.builder import KernelBuilder
from ..ptx.isa import Immediate, Operand, PTXType, Register
from ..ptx.module import PTXModule
from .expr import (
    BinaryNode,
    ConstSpinMatrix,
    CustomOpNode,
    Expr,
    ExprTypeError,
    FieldRef,
    ScalarLit,
    ScalarParam,
    ShiftNode,
    SlotAssigner,
    TraceNode,
    UnaryNode,
    _level_mul_pairs,
)

if TYPE_CHECKING:  # avoid importing the qdp package at module load
    from ..qdp.typesys import TypeSpec

_FT = {"f32": PTXType.F32, "f64": PTXType.F64}


class CodegenError(Exception):
    """The unparser met an expression it cannot lower."""


@dataclass
class CVal:
    """A complex (or real) value during code generation.

    Either ``const`` holds an exact compile-time complex value, or
    ``re``/``im`` hold operands (``im is None`` for real values).
    """

    re: Operand | None = None
    im: Operand | None = None
    const: complex | None = None

    @property
    def is_const(self) -> bool:
        return self.const is not None

    @property
    def is_real(self) -> bool:
        if self.is_const:
            return self.const.imag == 0.0
        return self.im is None


def _op_type(op: Operand) -> PTXType | None:
    if isinstance(op, (Register, Immediate)):
        return op.type
    return None


def _val_type(v: CVal) -> PTXType | None:
    if v.is_const:
        return None
    t = _op_type(v.re)
    if t is None and v.im is not None:
        t = _op_type(v.im)
    return t


def _common_type(a: CVal, b: CVal, default: PTXType) -> PTXType:
    from ..ptx.builder import promote

    ta, tb = _val_type(a), _val_type(b)
    if ta is None and tb is None:
        return default
    if ta is None:
        return tb
    if tb is None:
        return ta
    return promote(ta, tb)


class ComplexOps:
    """Complex arithmetic on CVals, emitting PTX via a builder."""

    def __init__(self, kb: KernelBuilder, default_type: PTXType):
        self.kb = kb
        self.default_type = default_type

    def _materialize(self, v: CVal, t: PTXType) -> CVal:
        """Turn a constant CVal into immediates of type ``t``."""
        if not v.is_const:
            return v
        re = Immediate(t, v.const.real)
        im = None if v.const.imag == 0.0 else Immediate(t, v.const.imag)
        return CVal(re=re, im=im)

    def neg(self, v: CVal) -> CVal:
        if v.is_const:
            return CVal(const=-v.const)
        kb = self.kb
        re = kb.neg(v.re)
        im = None if v.im is None else kb.neg(v.im)
        return CVal(re=re, im=im)

    def conj(self, v: CVal) -> CVal:
        if v.is_const:
            return CVal(const=v.const.conjugate())
        if v.im is None:
            return v
        return CVal(re=v.re, im=self.kb.neg(v.im))

    def timesI(self, v: CVal) -> CVal:
        """(a+bi) * i = -b + ai — a pure component rotation."""
        if v.is_const:
            return CVal(const=v.const * 1j)
        if v.im is None:
            zero = Immediate(_op_type(v.re) or self.default_type, 0.0)
            return CVal(re=zero, im=v.re)
        return CVal(re=self.kb.neg(v.im), im=v.re)

    def timesMinusI(self, v: CVal) -> CVal:
        if v.is_const:
            return CVal(const=v.const * -1j)
        if v.im is None:
            zero = Immediate(_op_type(v.re) or self.default_type, 0.0)
            return CVal(re=zero, im=self.kb.neg(v.re))
        return CVal(re=v.im, im=self.kb.neg(v.re))

    def add(self, a: CVal, b: CVal) -> CVal:
        return self._addsub(a, b, sub=False)

    def sub(self, a: CVal, b: CVal) -> CVal:
        return self._addsub(a, b, sub=True)

    def _addsub(self, a: CVal, b: CVal, sub: bool) -> CVal:
        if a.is_const and b.is_const:
            return CVal(const=a.const - b.const if sub else a.const + b.const)
        if a.is_const and a.const == 0 and not sub:
            return b
        if b.is_const and b.const == 0:
            return a
        t = _common_type(a, b, self.default_type)
        a = self._materialize(a, t)
        b = self._materialize(b, t)
        kb = self.kb
        op = kb.sub if sub else kb.add
        re = op(a.re, b.re, t)
        if a.im is None and b.im is None:
            return CVal(re=re)
        ai = a.im if a.im is not None else Immediate(t, 0.0)
        bi = b.im if b.im is not None else Immediate(t, 0.0)
        return CVal(re=re, im=op(ai, bi, t))

    def mul(self, a: CVal, b: CVal) -> CVal:
        # constant folding (spin projectors etc.)
        if a.is_const and b.is_const:
            return CVal(const=a.const * b.const)
        for c, x in ((a, b), (b, a)):
            if c.is_const:
                v = c.const
                if v == 0:
                    return CVal(const=0j)
                if v == 1:
                    return x
                if v == -1:
                    return self.neg(x)
                if v == 1j:
                    return self.timesI(x)
                if v == -1j:
                    return self.timesMinusI(x)
        t = _common_type(a, b, self.default_type)
        a = self._materialize(a, t)
        b = self._materialize(b, t)
        kb = self.kb
        if a.im is None and b.im is None:
            return CVal(re=kb.mul(a.re, b.re, t))
        if a.im is None:
            return CVal(re=kb.mul(a.re, b.re, t), im=kb.mul(a.re, b.im, t))
        if b.im is None:
            return CVal(re=kb.mul(a.re, b.re, t), im=kb.mul(a.im, b.re, t))
        # full complex multiply: 6 flops (paper Table II counting)
        t1 = kb.mul(a.re, b.re, t)
        t2 = kb.mul(a.im, b.im, t)
        re = kb.sub(t1, t2, t)
        t3 = kb.mul(a.re, b.im, t)
        im = kb.fma(a.im, b.re, t3, t)
        return CVal(re=re, im=im)

    def mul_conj(self, a: CVal, b: CVal) -> CVal:
        """conj(a) * b with the conjugation folded into the sign
        pattern — same 6 flops as a plain complex multiply, no ``neg``
        instructions (this is how hand-written kernels do it, and what
        the paper's Table II flop counts assume)."""
        if a.is_const:
            return self.mul(CVal(const=a.const.conjugate()), b)
        if a.im is None:
            return self.mul(a, b)
        if b.is_const or b.im is None:
            return self.mul(self.conj(a), b)
        t = _common_type(a, b, self.default_type)
        a = self._materialize(a, t)
        b = self._materialize(b, t)
        kb = self.kb
        # re = ar*br + ai*bi ; im = ar*bi - ai*br
        t1 = kb.mul(a.re, b.re, t)
        re = kb.fma(a.im, b.im, t1, t)
        t2 = kb.mul(a.im, b.re, t)
        t3 = kb.mul(a.re, b.im, t)
        im = kb.sub(t3, t2, t)
        return CVal(re=re, im=im)


class Unparser:
    """Walks one expression AST and emits its evaluation kernel.

    One instance per generated kernel; carries the per-kernel state:
    base-pointer registers per leaf slot, site registers per shift
    view, cached component loads per (leaf node, view, word).

    In *fused* mode (a group of more than one member, counting a
    reduction tail as one) three extra mechanisms activate, none of
    which change the arithmetic producing any stored value:

    * loads dedup per **field** (uid) instead of per AST node — two
      statements reading the same field share one set of loads;
    * a common-subexpression memo keyed by structural signature,
      component and a per-field *write epoch* reuses whole subtree
      values across statements (registers are SSA, so reuse is safe;
      the epoch key invalidates values that read a field a later
      statement overwrote);
    * destination *forwarding*: once a statement's stores are emitted,
      plain (unshifted) reads of that destination by later statements
      in the same kernel resolve to the stored register values —
      bitwise what a memory round-trip would load, without the loads.
    """

    def __init__(self, kb: KernelBuilder, slots: SlotAssigner,
                 dest_spec: TypeSpec, subset_mode: bool,
                 fused: bool = False):
        self.kb = kb
        self.slots = slots
        self.dest_spec = dest_spec
        self.subset_mode = subset_mode
        self.fused = fused
        self.ops = ComplexOps(kb, _FT[dest_spec.precision])
        # filled by build():
        self.nsites_reg = None
        self.site_reg = None           # s32 site index (identity view)
        self._view_sites: dict[int | None, Register] = {}
        self._site_bytes: dict[tuple[int | None, int], Register] = {}
        self._nsites_bytes: dict[int, Register] = {}
        self._leaf_bases: list[Register] = []
        self._shift_bases: list[Register] = []
        self._scalar_vals: list[CVal] = []
        self._load_cache: dict[tuple, CVal] = {}
        # fused-mode state (see class docstring)
        self._forward: dict[tuple, CVal] = {}
        self._pending_forward: dict[tuple, CVal] = {}
        self._cse: dict[tuple, CVal] = {}
        self._epoch: dict[int, int] = {}
        self._sig_cache: dict[int, str] = {}
        self._uids_cache: dict[int, tuple] = {}

    # -- fused-mode bookkeeping ------------------------------------------

    def _sig(self, node: Expr) -> str:
        """Structural signature of a subtree (slot-stable: every slot
        was assigned during the pre-walk, so this is a pure lookup)."""
        s = self._sig_cache.get(id(node))
        if s is None:
            s = node.signature(self.slots)
            self._sig_cache[id(node)] = s
        return s

    def _uids(self, node: Expr) -> tuple:
        u = self._uids_cache.get(id(node))
        if u is None:
            acc: set[int] = set()
            _collect_uids(node, acc)
            u = tuple(sorted(acc))
            self._uids_cache[id(node)] = u
        return u

    def _epoch_key(self, node: Expr) -> tuple:
        return tuple(self._epoch.get(u, 0) for u in self._uids(node))

    def stage_forward(self, uid: int, sidx: tuple, cidx: tuple,
                      val: CVal) -> None:
        """Record a stored destination component for later statements.

        Staged, not live: reads *within* the storing statement must
        still see the old values (exactly as the eager kernel's cached
        loads do); :meth:`end_statement` activates the staged set.
        """
        self._pending_forward[(uid, sidx, cidx)] = val

    def end_statement(self, uid: int) -> None:
        self._forward.update(self._pending_forward)
        self._pending_forward.clear()
        self._epoch[uid] = self._epoch.get(uid, 0) + 1

    # -- address helpers (JIT data views) --------------------------------

    def _nsites_bytes_reg(self, word_bytes: int) -> Register:
        r = self._nsites_bytes.get(word_bytes)
        if r is None:
            r = self.kb.words_to_bytes(self.nsites_reg, word_bytes)
            self._nsites_bytes[word_bytes] = r
        return r

    def _view_site_reg(self, view: int | None) -> Register:
        """The (possibly shift-indirected) site index for a view."""
        r = self._view_sites.get(view)
        if r is None:
            assert view is not None
            kb = self.kb
            base = self._shift_bases[view]
            s64 = kb.cvt(self.site_reg, PTXType.S64)
            off = kb.mul(s64, kb.imm(4, PTXType.S64))
            addr = kb.add(base, kb.cvt(off, PTXType.U64))
            r = kb.ld_global(addr, PTXType.S32)
            self._view_sites[view] = r
        return r

    def _site_bytes_reg(self, view: int | None, word_bytes: int) -> Register:
        key = (view, word_bytes)
        r = self._site_bytes.get(key)
        if r is None:
            r = self.kb.words_to_bytes(self._view_site_reg(view), word_bytes)
            self._site_bytes[key] = r
        return r

    def load_component(self, node: FieldRef, view: int | None,
                       sidx: tuple, cidx: tuple) -> CVal:
        """Emit the loads for one (spin, color) component of a leaf.

        Loads are cached per (leaf node, view, word): within one AST
        node each memory word is loaded once, but distinct references
        to the same field load again — matching the paper's byte
        accounting for Table II (``matvec`` counts U1 twice).
        """
        spec = node.spec
        slot = self.slots.field_slot(node.field)
        ft = _FT[spec.precision]
        wb = spec.word_bytes
        parts = []
        # fused kernels dedup loads per *field*: two statements reading
        # the same word share it.  Eager kernels keep per-node caching
        # so distinct references load again (Table II byte accounting).
        leaf_key = node.field.uid if self.fused else id(node)
        for ir in range(spec.reality_size):
            w = spec.word_index(sidx, cidx, ir)
            key = (leaf_key, view, w)
            cached = self._load_cache.get(key)
            if cached is None:
                kb = self.kb
                nsb = self._nsites_bytes_reg(wb)
                sb = self._site_bytes_reg(view, wb)
                addr = kb.soa_address(self._leaf_bases[slot], nsb, w, sb)
                cached = kb.ld_global(addr, ft)
                self._load_cache[key] = cached
            parts.append(cached)
        if spec.is_complex:
            return CVal(re=parts[0], im=parts[1])
        return CVal(re=parts[0])

    # -- AST walk ------------------------------------------------------------

    def gen(self, node: Expr, sidx: tuple, cidx: tuple,
            view: int | None = None, conjugate: bool = False) -> CVal:
        """Generate the value of component (sidx, cidx) of ``node``.

        ``view`` is the shift view the enclosing ShiftNode established;
        ``conjugate``/index reversal for ``adj`` are pushed down to the
        leaves structurally (zero-cost where possible).

        In fused mode this is the CSE entry point: structurally equal
        subtrees at the same component/view/conjugation — with no
        intervening write to any field they read — return the value
        already computed (registers are SSA, so reuse is sound).
        """
        if self.fused and not isinstance(node, (ScalarLit, ScalarParam,
                                                ConstSpinMatrix)):
            key = (self._sig(node), view, sidx, cidx, conjugate,
                   self._epoch_key(node))
            hit = self._cse.get(key)
            if hit is not None:
                return hit
            val = self._gen(node, sidx, cidx, view, conjugate)
            self._cse[key] = val
            return val
        return self._gen(node, sidx, cidx, view, conjugate)

    def _gen(self, node: Expr, sidx: tuple, cidx: tuple,
             view: int | None = None, conjugate: bool = False) -> CVal:
        ops = self.ops
        if isinstance(node, FieldRef):
            if self.fused and view is None:
                fwd = self._forward.get((node.field.uid, sidx, cidx))
                if fwd is not None:
                    return ops.conj(fwd) if conjugate else fwd
            v = self.load_component(node, view, sidx, cidx)
            return ops.conj(v) if conjugate else v
        if isinstance(node, ScalarLit):
            c = node.value.conjugate() if conjugate else node.value
            return CVal(const=c)
        if isinstance(node, ScalarParam):
            v = self._scalar_vals[self.slots.scalar_slot(node)]
            return ops.conj(v) if conjugate else v
        if isinstance(node, ConstSpinMatrix):
            entry = complex(node.matrix[sidx])
            if conjugate:
                entry = entry.conjugate()
            return CVal(const=entry)
        if isinstance(node, ShiftNode):
            if view is not None:
                raise CodegenError(
                    "nested shifts must be materialized before codegen")
            child = node.child
            if not isinstance(child, FieldRef):
                raise CodegenError(
                    "shift of a non-leaf must be materialized before codegen")
            sl = self.slots.shift_slot(node.mu, node.sign)
            return self.gen(child, sidx, cidx, view=sl, conjugate=conjugate)
        if isinstance(node, UnaryNode):
            op = node.op
            if op == "neg":
                return ops.neg(self.gen(node.child, sidx, cidx, view,
                                        conjugate))
            if op == "conj":
                return self.gen(node.child, sidx, cidx, view, not conjugate)
            if op in ("adj", "transpose"):
                csidx = sidx[::-1] if len(sidx) == 2 else sidx
                ccidx = cidx[::-1] if len(cidx) == 2 else cidx
                flip = (op == "adj")
                return self.gen(node.child, csidx, ccidx, view,
                                conjugate ^ flip)
            if op == "timesI":
                v = self.gen(node.child, sidx, cidx, view, conjugate)
                return ops.timesMinusI(v) if conjugate else ops.timesI(v)
            if op == "timesMinusI":
                v = self.gen(node.child, sidx, cidx, view, conjugate)
                return ops.timesI(v) if conjugate else ops.timesMinusI(v)
            if op == "real":
                v = self.gen(node.child, sidx, cidx, view, False)
                if v.is_const:
                    return CVal(const=complex(v.const.real))
                return CVal(re=v.re)
            if op == "imag":
                v = self.gen(node.child, sidx, cidx, view, False)
                if v.is_const:
                    return CVal(const=complex(v.const.imag))
                if v.im is None:
                    return CVal(const=0j)
                return CVal(re=v.im)
            from .fastmath import MATH_EMITTERS

            emitter = MATH_EMITTERS.get(op)
            if emitter is not None:
                v = self.gen(node.child, sidx, cidx, view, False)
                ft = _FT[node.spec.precision]
                v = self.ops._materialize(v, ft)
                if v.im is not None:
                    raise CodegenError(f"{op} applied to a complex value")
                x = self.kb._coerce(v.re, ft)
                return CVal(re=emitter(self.kb, x, ft))
            raise CodegenError(f"unknown unary op {op!r}")
        if isinstance(node, TraceNode):
            child = node.child
            trace_spin = (node.which in ("spin", "both")
                          and len(child.spec.spin) == 2)
            trace_color = (node.which in ("color", "both")
                           and len(child.spec.color) == 2)
            spins = ([(k, k) for k in range(child.spec.spin[0])]
                     if trace_spin else [sidx])
            colors = ([(k, k) for k in range(child.spec.color[0])]
                      if trace_color else [cidx])
            acc = None
            for sp in spins:
                for co in colors:
                    t = self.gen(child, sp, co, view, conjugate)
                    acc = t if acc is None else ops.add(acc, t)
            return acc
        if isinstance(node, BinaryNode):
            if node.op in ("add", "sub"):
                a = self.gen(node.left, sidx, cidx, view, conjugate)
                b = self.gen(node.right, sidx, cidx, view, conjugate)
                return ops.add(a, b) if node.op == "add" else ops.sub(a, b)
            # multiplication with level-wise contraction
            l, r = node.left, node.right
            if conjugate:
                # conj(a*b) = conj(a)*conj(b) (elementwise conj; note adj
                # is handled by index reversal above, so plain conj here)
                pass
            spin_pairs = _level_mul_pairs(l.spec.spin, r.spec.spin, sidx)
            color_pairs = _level_mul_pairs(l.spec.color, r.spec.color, cidx)
            acc = None
            for ls, rs in spin_pairs:
                for lc, rc in color_pairs:
                    a = self.gen(l, ls, lc, view, conjugate)
                    b = self.gen(r, rs, rc, view, conjugate)
                    t = ops.mul(a, b)
                    acc = t if acc is None else ops.add(acc, t)
            return acc
        if isinstance(node, CustomOpNode):
            return node.gen(self, node, sidx, cidx, view, conjugate)
        from .expr import PowNode

        if isinstance(node, PowNode):
            from .fastmath import emit_pow

            v = self.gen(node.child, sidx, cidx, view, False)
            ft = _FT[node.spec.precision]
            v = self.ops._materialize(v, ft)
            if v.im is not None:
                raise CodegenError("pow applied to a complex value")
            x = self.kb._coerce(v.re, ft)
            return CVal(re=emit_pow(self.kb, x, node.exponent, ft))
        raise CodegenError(f"cannot unparse node {type(node).__name__}")


def _collect_uids(node: Expr, acc: set) -> None:
    if isinstance(node, FieldRef):
        acc.add(node.field.uid)
    for c in node.children():
        _collect_uids(c, acc)


def partials_names(kind: str) -> tuple[str, ...]:
    """Output-pointer parameters of a reduction's partials: ``sum``
    and ``inner`` are complex-valued, ``norm2`` is real."""
    return ("p_out_re", "p_out_im") if kind in ("sum", "inner") \
        else ("p_out_re",)


def emit_reduction_partials(up: Unparser, kind: str, exprs,
                            out_bases, gid) -> None:
    """Emit the per-thread partial of a reduction and its store(s).

    The tail of a group's kernel, behind its stores (if any).
    ``out_bases`` are the loaded :func:`partials_names` pointers.  The
    accumulation always happens in f64 and the partial lands at
    ``out + gid*8``, so absorbed and standalone partials are bitwise
    identical.
    """
    kb = up.kb
    ops = up.ops
    spec = exprs[0].spec
    acc = None
    if kind == "norm2":
        (expr,) = exprs
        for sidx in spec.spin_indices():
            for cidx in spec.color_indices():
                v = up.gen(expr, sidx, cidx)
                v = ops._materialize(v, PTXType.F64)
                # |z|^2 = re^2 + im^2, accumulated with fma
                t = (kb.fma(v.re, v.re, acc, PTXType.F64) if acc is not None
                     else kb.mul(v.re, v.re, PTXType.F64))
                acc = t
                if v.im is not None:
                    acc = kb.fma(v.im, v.im, acc, PTXType.F64)
        acc = CVal(re=acc)
    elif kind == "sum":
        (expr,) = exprs
        acc = up.gen(expr, (), ())
    elif kind == "inner":
        a, b = exprs
        for sidx in spec.spin_indices():
            for cidx in spec.color_indices():
                va = up.gen(a, sidx, cidx)
                vb = up.gen(b, sidx, cidx)
                t = ops.mul_conj(va, vb)
                acc = t if acc is None else ops.add(acc, t)
    else:
        raise CodegenError(f"unknown reduction kind {kind!r}")

    acc = ops._materialize(acc, PTXType.F64)
    # store partial at out + gid*8
    g64 = kb.cvt(gid, PTXType.S64)
    off = kb.cvt(kb.mul(g64, kb.imm(8, PTXType.S64)), PTXType.U64)
    kb.st_global(kb.add(out_bases[0], off), acc.re, PTXType.F64)
    if len(out_bases) == 2:
        im_operand = acc.im if acc.im is not None else Immediate(
            PTXType.F64, 0.0)
        kb.st_global(kb.add(out_bases[1], off), im_operand, PTXType.F64)


def _open_kernel(name: str, slots: SlotAssigner, spec: TypeSpec,
                 subset_mode: bool, out_names: tuple[str, ...],
                 fused: bool):
    """Open a site-parallel kernel over pre-walked ``slots``.

    Declares and loads the parameter block every statement kernel
    shares — ``p_lo p_n [p_stab] p_sh* <out_names> p_f* p_s*``, bound
    by name at launch — exits threads past ``p_n`` and resolves the
    thread's site (through the subset table in ``subset_mode``).
    ``out_names`` are the partials pointers of a reduction tail
    (``p_out_re[, p_out_im]``); destinations are ordinary ``p_f*``.

    Returns ``(unparser, out_bases, gid, exit_label)``.  The kernel is
    volume-parametric (the layout stride I_V is a parameter), so one
    compiled kernel serves every lattice size.
    """
    kb = KernelBuilder(name)
    p_lo = kb.add_param("p_lo", PTXType.S32)
    p_n = kb.add_param("p_n", PTXType.S32)
    p_stab = (kb.add_param("p_stab", PTXType.U64, is_pointer=True)
              if subset_mode else None)
    p_shifts = [kb.add_param(f"p_sh{i}", PTXType.U64, is_pointer=True)
                for i in range(len(slots.shifts))]
    p_outs = [kb.add_param(p, PTXType.U64, is_pointer=True)
              for p in out_names]
    p_fields = [kb.add_param(f"p_f{i}", PTXType.U64, is_pointer=True)
                for i in range(len(slots.fields))]
    scalar_params = []
    for i, sn in enumerate(slots.scalar_slots):
        ft = _FT[sn.spec.precision]
        pre = kb.add_param(f"p_s{i}_re", ft)
        pim = kb.add_param(f"p_s{i}_im", ft) if sn.spec.is_complex else None
        scalar_params.append((pre, pim))

    up = Unparser(kb, slots, spec, subset_mode, fused)
    up.nsites_reg = kb.ld_param(p_lo)
    n_active = kb.ld_param(p_n)
    stab_base = kb.ld_param(p_stab) if subset_mode else None
    up._shift_bases = [kb.ld_param(p) for p in p_shifts]
    out_bases = [kb.ld_param(p) for p in p_outs]
    up._leaf_bases = [kb.ld_param(p) for p in p_fields]
    for (pre, pim) in scalar_params:
        re = kb.ld_param(pre)
        im = kb.ld_param(pim) if pim is not None else None
        up._scalar_vals.append(CVal(re=re, im=im))

    gid = kb.global_thread_id()
    oob = kb.setp("ge", gid, n_active)
    exit_lbl = kb.new_label("EXIT")
    kb.bra(exit_lbl, guard=oob)

    if subset_mode:
        g64 = kb.cvt(gid, PTXType.S64)
        off = kb.mul(g64, kb.imm(4, PTXType.S64))
        addr = kb.add(stab_base, kb.cvt(off, PTXType.U64))
        up.site_reg = kb.ld_global(addr, PTXType.S32)
    else:
        up.site_reg = gid
    up._view_sites[None] = up.site_reg
    return up, out_bases, gid, exit_lbl


def _check_assign_types(dest_spec: TypeSpec, expr: Expr) -> None:
    if dest_spec.is_complex is False and expr.spec.is_complex:
        raise ExprTypeError(
            "cannot assign complex expression to real destination; "
            "use real()/imag()")
    if expr.spec.spin != dest_spec.spin or expr.spec.color != dest_spec.color:
        raise ExprTypeError(
            f"shape mismatch in assignment: expression "
            f"spin={expr.spec.spin} color={expr.spec.color}, destination "
            f"spin={dest_spec.spin} color={dest_spec.color}")


def build_expression_kernel(name: str, expr: Expr, dest,
                            subset_mode: bool) -> PTXModule:
    """Generate the PTX kernel evaluating ``dest = expr`` into the
    field ``dest``: a group of one statement."""
    return build_fused_kernel(name, [(dest, expr)], None, subset_mode)


def build_fused_kernel(name: str, assigns, reduction,
                       subset_mode: bool) -> PTXModule:
    """Generate the kernel of one statement group — the only
    statement-kernel builder.

    ``assigns`` is an ordered list of ``(dest_field, expr)`` pairs
    (normalized ASTs); ``reduction`` is an optional trailing
    ``(kind, exprs)`` whose per-thread partials the kernel also
    writes: ``norm2`` (sum of |component|^2), ``sum`` (component sum
    of a scalar-shaped expression, complex out) or ``inner`` (sum over
    components of conj(a)*b, complex out).  One statement and no tail
    is an eager statement's kernel; no statement and a tail is a
    standalone partials kernel.  Statement order is preserved per
    thread and destinations are addressed through their own field slot
    (so the structural cache key fully determines the code).  The
    fused :class:`Unparser` mode — load dedup, CSE, destination
    forwarding — is on exactly when the group has more than one member
    (the tail counts as one): a lone statement keeps the per-node
    loads Table II's byte accounting needs.
    """
    slots = SlotAssigner()
    # pre-walk in the exact order the launcher re-walks for binding:
    # each statement's expression, then its destination's slot, then
    # the reduction operands
    for dest, expr in assigns:
        _check_assign_types(dest.spec, expr)
        expr.signature(slots)
        slots.field_slot(dest)
    if reduction is not None:
        for e in reduction[1]:
            e.signature(slots)

    # the scheduler only groups statements (and absorbs reductions) of
    # one precision, so the ComplexOps default type matches what each
    # member's own kernel would use
    spec = assigns[0][0].spec if assigns else reduction[1][0].spec
    up, outs, gid, exit_lbl = _open_kernel(
        name, slots, spec, subset_mode,
        () if reduction is None else partials_names(reduction[0]),
        fused=len(assigns) + (reduction is not None) > 1)
    kb = up.kb

    # --- body: statements in order, one store per destination word ---
    ops = up.ops
    for dest, expr in assigns:
        dspec = dest.spec
        ft = _FT[dspec.precision]
        wb = dspec.word_bytes
        nsb = up._nsites_bytes_reg(wb)
        sb = up._site_bytes_reg(None, wb)
        dst_base = up._leaf_bases[slots.field_slot(dest)]
        for sidx in dspec.spin_indices():
            for cidx in dspec.color_indices():
                val = up.gen(expr, sidx, cidx)
                val = ops._materialize(val, ft)
                re_op = kb._coerce(val.re, ft)
                comps = [(0, re_op)]
                im_op = None
                if dspec.is_complex:
                    im_op = kb._coerce(val.im if val.im is not None
                                       else Immediate(ft, 0.0), ft)
                    comps.append((1, im_op))
                elif val.im is not None:
                    raise ExprTypeError(
                        "complex value assigned to real destination")
                for ir, operand in comps:
                    w = dspec.word_index(sidx, cidx, ir)
                    kb.st_global(kb.soa_address(dst_base, nsb, w, sb),
                                 operand, ft)
                # later statements read these registers instead of
                # re-loading the destination from memory
                up.stage_forward(dest.uid, sidx, cidx,
                                 CVal(re=re_op, im=im_op))
        up.end_statement(dest.uid)

    if reduction is not None:
        emit_reduction_partials(up, reduction[0], reduction[1], outs, gid)
    kb.label(exit_lbl)
    kb.ret()
    return PTXModule.from_builder(kb)
