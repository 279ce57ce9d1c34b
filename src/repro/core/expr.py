"""Expression templates: the AST behind the data-parallel operators.

QDP++ implements its operator infix form with the PETE expression-
template library: overloaded operators return proxy objects whose
nesting gives the expression a tree structure (paper Fig. 3).  The
Python incarnation is direct — operators on fields and expression
nodes build an explicit AST of :class:`Expr` nodes.  As in QDP-JIT,
the AST is *never evaluated per site at runtime*: the unparser
(:mod:`repro.core.codegen`) walks it once and generates a PTX kernel.

Every node computes its result :class:`~repro.qdp.typesys.TypeSpec`
at construction (QDP++ does this with template metaprogramming), so
malformed expressions fail immediately with a typed error, and mixed
precision promotes implicitly (paper Sec. III-D).
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..typesys import TypeSpec


class ExprTypeError(TypeError):
    """An expression combines incompatible QDP types."""


def _promote_precision(a: str, b: str) -> str:
    return "f64" if "f64" in (a, b) else "f32"


def _level_mul_shape(ls: tuple, rs: tuple, what: str) -> tuple:
    """Result shape of multiplication at one (spin/color) level."""
    if not ls:
        return rs
    if not rs:
        return ls
    if len(ls) == 2 and len(rs) == 1:
        if ls[1] != rs[0]:
            raise ExprTypeError(f"{what} matrix*vector dim mismatch {ls}x{rs}")
        return (ls[0],)
    if len(ls) == 2 and len(rs) == 2:
        if ls[1] != rs[0]:
            raise ExprTypeError(f"{what} matrix*matrix dim mismatch {ls}x{rs}")
        return (ls[0], rs[1])
    raise ExprTypeError(
        f"unsupported {what}-level multiplication {ls} x {rs} "
        f"(use localInnerProduct/outerProduct for vector*vector)")


def _level_mul_pairs(ls: tuple, rs: tuple, out_idx: tuple):
    """Contraction plan at one level: list of (lidx, ridx) to sum."""
    if not ls:
        return [((), out_idx)]
    if not rs:
        return [(out_idx, ())]
    if len(ls) == 2 and len(rs) == 1:
        (i,) = out_idx
        return [((i, k), (k,)) for k in range(ls[1])]
    if len(ls) == 2 and len(rs) == 2:
        i, j = out_idx
        return [((i, k), (k, j)) for k in range(ls[1])]
    raise ExprTypeError(f"no contraction plan for {ls} x {rs}")


def mul_spec(l: TypeSpec, r: TypeSpec) -> TypeSpec:
    """Result type of ``l * r`` under QDP++ level-wise semantics."""
    return TypeSpec(
        spin=_level_mul_shape(l.spin, r.spin, "spin"),
        color=_level_mul_shape(l.color, r.color, "color"),
        is_complex=l.is_complex or r.is_complex,
        precision=_promote_precision(l.precision, r.precision),
        is_lattice=l.is_lattice or r.is_lattice,
    )


def addsub_spec(l: TypeSpec, r: TypeSpec) -> TypeSpec:
    if l.spin != r.spin or l.color != r.color:
        raise ExprTypeError(
            f"add/sub shape mismatch: spin {l.spin} vs {r.spin}, "
            f"color {l.color} vs {r.color}")
    return TypeSpec(
        spin=l.spin, color=l.color,
        is_complex=l.is_complex or r.is_complex,
        precision=_promote_precision(l.precision, r.precision),
        is_lattice=l.is_lattice or r.is_lattice,
    )


SLOT = "\x00"               # a slot number's place in ``Expr.frag``
_NONE: frozenset = frozenset()


def _union(a: frozenset, b: frozenset) -> frozenset:
    return a | b if a and b else a or b


class Expr:
    """Base class for AST nodes.

    Nodes are immutable, so each computes its facts in ``__init__``
    from its children and no consumer walks a tree: ``spec``;
    ``reads`` / ``shift_reads``, the uids read plainly / under a shift;
    ``flip_reads``, those read under ``adj``/``transpose`` and not
    under a shift; ``signs``, ``(uid, mu, sign)`` of every enclosing
    shift of every read; ``deep``, one flag per shift of a non-leaf in
    preorder (``True``: it shifts a shift); ``frag``, the structural
    signature with a :data:`SLOT` mark per slot number, and
    ``leaves``, what each mark numbers — a field, a shift's
    ``(mu, sign)`` or a :class:`ScalarParam` (which builds its
    ``leaves`` on access: a node holding itself would be a reference
    cycle, freed only by the garbage collector).
    """

    __slots__ = ("spec", "reads", "shift_reads", "flip_reads", "signs",
                 "deep", "frag")

    leaves: tuple = ()

    def __init__(self, spec: TypeSpec, frag: str):
        """A node that reads no field."""
        self.spec = spec
        self.reads = self.shift_reads = self.flip_reads = self.signs = _NONE
        self.deep = ()
        self.frag = frag

    def _inherit(self, spec: TypeSpec, child: "Expr", head: str) -> None:
        """The facts of a node that only wraps ``child``."""
        self.spec = spec
        self.reads = child.reads
        self.shift_reads = child.shift_reads
        self.flip_reads = child.flip_reads
        self.signs = child.signs
        self.deep = child.deep
        self.frag = f"{head}({child.frag})"
        self.leaves = child.leaves

    def _gather(self, spec: TypeSpec, kids, head: str) -> None:
        """The facts of a node over several children, in order."""
        self.spec = spec
        reads = shift_reads = flip_reads = signs = _NONE
        deep = leaves = ()
        for k in kids:
            reads = _union(reads, k.reads)
            shift_reads = _union(shift_reads, k.shift_reads)
            flip_reads = _union(flip_reads, k.flip_reads)
            signs = _union(signs, k.signs)
            deep += k.deep
            leaves += k.leaves
        self.reads, self.shift_reads = reads, shift_reads
        self.flip_reads, self.signs = flip_reads, signs
        self.deep, self.leaves = deep, leaves
        self.frag = f"{head}({','.join(k.frag for k in kids)})"

    # -- operator infix form (the QDP++ user interface) -----------------

    def __add__(self, other):
        return BinaryNode("add", self, as_expr(other, like=self))

    def __radd__(self, other):
        return BinaryNode("add", as_expr(other, like=self), self)

    def __sub__(self, other):
        return BinaryNode("sub", self, as_expr(other, like=self))

    def __rsub__(self, other):
        return BinaryNode("sub", as_expr(other, like=self), self)

    def __mul__(self, other):
        return BinaryNode("mul", self, as_expr(other, like=self))

    def __rmul__(self, other):
        return BinaryNode("mul", as_expr(other, like=self), self)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return BinaryNode("mul", self,
                              ScalarParam(1.0 / other, self.spec.precision))
        raise ExprTypeError("division only by Python scalars")

    def __neg__(self):
        return UnaryNode("neg", self)

    def signature(self, slots: "SlotAssigner") -> str:
        """The structural signature: ``frag`` numbered by ``slots``."""
        return slots.fill(self.frag, self.leaves)

    def children(self) -> tuple["Expr", ...]:
        return ()


#: every derived result spec per ``(op, operand spec idents)`` (and a
#: scalar's spec and fragment): each is a pure function of its key, so
#: a tree shape derives its specs once per process
_SPECS: dict[tuple, object] = {}


def leaf_fields(leaves) -> list:
    """The fields among ``leaves``, in order."""
    return [x for x in leaves
            if type(x) is not tuple and type(x) is not ScalarParam]


class SlotAssigner:
    """Assigns stable slots to leaves, in the order a signature reads
    them, counting each kind from 0.

    Fields and scalars are slotted by identity: two references to the
    *same* field share a slot, references to different fields get
    different slots — so ``u*u`` and ``u1*u2`` generate different
    kernels, as they must (different parameter lists).
    """

    def __init__(self):
        self.fields: list[object] = []
        self.scalar_slots: list["ScalarParam"] = []
        self.shifts: list[tuple[int, int]] = []
        #: leaf (field, scalar node or ``(mu, sign)``) -> its slot
        self._slots: dict[object, int] = {}

    def slot(self, leaf) -> int:
        """The slot of one ``leaves`` entry, numbering it if new."""
        slot = self._slots.get(leaf)
        if slot is None:
            t = type(leaf)
            order = (self.shifts if t is tuple else self.scalar_slots
                     if t is ScalarParam else self.fields)
            slot = self._slots[leaf] = len(order)
            order.append(leaf)
        return slot

    field_slot = slot

    def fill(self, frag: str, leaves: tuple) -> str:
        """``frag`` with each :data:`SLOT` mark replaced by the slot of
        its leaf: one pass over the leaves, numbering new ones."""
        slot = self.slot
        joined = [None] * (2 * len(leaves) + 1)
        joined[0::2] = frag.split(SLOT)
        joined[1::2] = [str(slot(leaf)) for leaf in leaves]
        return "".join(joined)


def group_key(assigns, reduction, subset_mode: bool
              ) -> tuple[str, SlotAssigner]:
    """The structural signature of a statement group and the slots it
    binds: each ``(dest, expr)`` root's fragment numbered in one pass
    over its leaves and then its destination, and a ``(kind, exprs)``
    reduction tail's — the order the kernel's parameters follow."""
    slots = SlotAssigner()
    parts = [slots.fill(f"{e.frag}->D{SLOT}:{d.spec.sig}", e.leaves + (d,))
             for d, e in assigns]
    if reduction is not None:
        kind, exprs = reduction
        rsig = ",".join(slots.fill(e.frag, e.leaves) for e in exprs)
        parts.append(f"red:{kind}({rsig})")
    key = (("fus:" if len(parts) > 1 else "") + ";".join(parts)
           + ("|sub" if subset_mode else "|full"))
    return key, slots


class FieldRef(Expr):
    """Leaf node: a reference to a lattice field.

    At kernel-build time this becomes a JIT data view (paper
    Sec. III-B); at launch time the memory cache pages the referenced
    field into device memory (paper Sec. IV).
    """

    __slots__ = ("field", "leaves")

    def __init__(self, field):
        self.spec = field.spec
        try:
            self.reads, self.frag = field._ref_facts
        except AttributeError:
            # once per field: every reference to it shares these (not
            # ``leaves``: a field holding itself would be a cycle)
            self.reads = frozenset((field.uid,))
            self.frag = f"F{SLOT}[{field.spec.sig}]"
            field._ref_facts = (self.reads, self.frag)
        self.leaves = (field,)
        self.shift_reads = self.flip_reads = self.signs = _NONE
        self.deep = ()
        self.field = field


class ScalarParam(Expr):
    """A runtime scalar passed as a kernel parameter.

    Used for CG coefficients etc.: the kernel is compiled once and the
    value varies per launch (embedding it as an immediate would
    recompile on every solver iteration).
    """

    __slots__ = ("value",)

    @property
    def leaves(self) -> tuple:
        return (self,)

    def __init__(self, value, precision: str = "f64"):
        value = complex(value)
        key = ("scalar", value.imag != 0.0, precision)
        facts = _SPECS.get(key)
        if facts is None:
            facts = _SPECS[key] = (
                TypeSpec(spin=(), color=(), is_complex=key[1],
                         precision=precision, is_lattice=False),
                f"S{SLOT}{'c' if key[1] else 'r'}:{precision}")
        super().__init__(*facts)
        self.value = value


class ScalarLit(Expr):
    """A compile-time scalar literal embedded in the kernel text."""

    __slots__ = ("value",)

    def __init__(self, value, precision: str = "f64"):
        value = complex(value)
        super().__init__(TypeSpec(spin=(), color=(),
                                  is_complex=value.imag != 0.0,
                                  precision=precision, is_lattice=False),
                         f"L({value.real!r},{value.imag!r})")
        self.value = value


class ConstSpinMatrix(Expr):
    """A constant spin matrix (e.g. a gamma-matrix combination).

    The entries are embedded in the generated kernel as immediates;
    multiplications by exact zeros and +/-1 and +/-i are folded away
    by the code generator, so spin-projector arithmetic costs what it
    should.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, precision: str = "f64"):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ExprTypeError("ConstSpinMatrix requires a square matrix")
        # a digest, not hash(): the kernel name must not change with
        # PYTHONHASHSEED, and a collision would share a wrong kernel
        super().__init__(TypeSpec(spin=m.shape, color=(), is_complex=True,
                                  precision=precision, is_lattice=False),
                         "G" + hashlib.sha256(m.tobytes()).hexdigest()[:16])
        self.matrix = m


_BINARY_SPECS = {"add": addsub_spec, "sub": addsub_spec, "mul": mul_spec}


class BinaryNode(Expr):
    """Inner node: add / sub / mul (paper Fig. 3's BinaryNode)."""

    __slots__ = ("op", "left", "right", "leaves")

    def __init__(self, op: str, left: Expr, right: Expr):
        key = (op, left.spec.ident, right.spec.ident)
        spec = _SPECS.get(key)
        if spec is None:
            rule = _BINARY_SPECS.get(op)
            if rule is None:
                raise ExprTypeError(f"unknown binary op {op!r}")
            spec = _SPECS[key] = rule(left.spec, right.spec)
        # _gather over two children, spelled out: the hot constructor
        self.spec = spec
        self.reads = _union(left.reads, right.reads)
        self.shift_reads = _union(left.shift_reads, right.shift_reads)
        self.flip_reads = _union(left.flip_reads, right.flip_reads)
        self.signs = _union(left.signs, right.signs)
        self.deep = left.deep + right.deep
        self.frag = f"{op}({left.frag},{right.frag})"
        self.leaves = left.leaves + right.leaves
        self.op = op
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)


#: Real-valued mathematical functions (paper Sec. III-D: PTX has no
#: libm; these lower to the pre-generated subroutine expansions of
#: :mod:`repro.core.fastmath`).
MATH_FNS = ("exp", "log", "sin", "cos", "tan", "sqrt", "rsqrt", "fabs")

_UNARY_SPECS = {
    "neg": lambda s: s,
    "conj": lambda s: s,
    "adj": lambda s: s.adjoint(),
    "transpose": lambda s: s.adjoint(),
    "timesI": lambda s: _require_complex(s, "timesI"),
    "timesMinusI": lambda s: _require_complex(s, "timesMinusI"),
    "real": lambda s: TypeSpec(s.spin, s.color, False, s.precision,
                               s.is_lattice),
    "imag": lambda s: TypeSpec(s.spin, s.color, False, s.precision,
                               s.is_lattice),
}
for _fn in MATH_FNS:
    _UNARY_SPECS[_fn] = (lambda s, _name=_fn: _require_real(s, _name))


def _require_complex(s: TypeSpec, what: str) -> TypeSpec:
    if not s.is_complex:
        raise ExprTypeError(f"{what} requires a complex operand")
    return s


def _require_real(s: TypeSpec, what: str) -> TypeSpec:
    if s.is_complex:
        raise ExprTypeError(
            f"{what} requires a real operand (take real()/imag() first)")
    return s


class UnaryNode(Expr):
    """Inner node: neg / conj / adj / transpose / timesI / real / imag."""

    __slots__ = ("op", "child", "leaves")

    def __init__(self, op: str, child: Expr):
        key = (op, child.spec.ident)
        spec = _SPECS.get(key)
        if spec is None:
            fn = _UNARY_SPECS.get(op)
            if fn is None:
                raise ExprTypeError(f"unknown unary op {op!r}")
            spec = _SPECS[key] = fn(child.spec)
        self._inherit(spec, child, op)
        if op in ("adj", "transpose"):
            self.flip_reads = child.reads
        self.op = op
        self.child = child

    def children(self):
        return (self.child,)


class TraceNode(Expr):
    """traceSpin / traceColor / trace (both)."""

    __slots__ = ("which", "child", "leaves")

    def __init__(self, which: str, child: Expr):
        s = child.spec
        spin, color = s.spin, s.color
        if which == "spin" and len(spin) != 2:
            raise ExprTypeError("traceSpin requires a spin matrix")
        if which == "color" and len(color) != 2:
            raise ExprTypeError("traceColor requires a color matrix")
        # trace over whatever matrix levels exist; scalar/vector levels
        # pass through untouched (QDP++ trace semantics)
        if which in ("spin", "both") and len(spin) == 2:
            spin = ()
        if which in ("color", "both") and len(color) == 2:
            color = ()
        key = (f"trace_{which}", s.ident)
        spec = _SPECS.get(key)
        if spec is None:
            spec = _SPECS[key] = TypeSpec(spin, color, s.is_complex,
                                          s.precision, s.is_lattice)
        self._inherit(spec, child, key[0])
        self.which = which
        self.child = child

    def children(self):
        return (self.child,)


class ShiftNode(Expr):
    """The nearest-neighbor shift (paper Sec. II-C).

    The child must be a :class:`FieldRef`; ``shift`` of a general
    expression is materialized into a temporary first (QDP++ does the
    same).  The unparser turns this node into an indirected load
    through the (mu, sign) gather table; in multi-rank runs the face
    entries point into the receive buffer (paper Sec. V).
    """

    __slots__ = ("child", "mu", "sign", "leaves")

    def __init__(self, child: Expr, mu: int, sign: int):
        if sign not in (+1, -1):
            raise ExprTypeError("shift sign must be +1 (FORWARD)/-1 (BACKWARD)")
        self.spec = child.spec
        self.reads = self.flip_reads = _NONE
        if type(child) is FieldRef:
            self.shift_reads = child.reads
            self.signs = frozenset(((child.field.uid, mu, sign),))
            self.deep = ()
        else:
            uids = _union(child.reads, child.shift_reads)
            self.shift_reads = uids
            self.signs = _union(child.signs,
                                frozenset((u, mu, sign) for u in uids))
            self.deep = (type(child) is ShiftNode,) + child.deep
        self.frag = f"shift{SLOT}({child.frag})"
        self.leaves = ((mu, sign),) + child.leaves
        self.child = child
        self.mu = mu
        self.sign = sign

    def children(self):
        return (self.child,)


#: custom-op name -> the code object of the generator it first named
_CUSTOM_OP_CODE: dict[str, object] = {}


class CustomOpNode(Expr):
    """A user-defined operation with its own code generator.

    This is the extension mechanism of paper Sec. VI-A: operations
    that mix the spin and color index spaces (like the clover term)
    cannot be expressed through the level-wise operators, but can
    plug a custom component-generator into the same kernel-generation
    machinery.  ``gen`` is called by the unparser as
    ``gen(ctx, operand_values, sidx, cidx)`` and must return a CVal.
    Kernels are shared process-wide by signature, which holds only
    ``name``: one name means one generator (checked), and a closure
    puts the constants it captures in the name (not checked).
    """

    __slots__ = ("name", "operands", "gen", "leaves")

    def __init__(self, name: str, operands: tuple[Expr, ...],
                 result_spec: TypeSpec, gen):
        code = _CUSTOM_OP_CODE.setdefault(name, gen.__code__)
        if code is not gen.__code__:
            raise ExprTypeError(f"custom op {name!r} already names "
                                f"{code.co_name!r}; use your own name")
        self.operands = tuple(operands)
        self._gather(result_spec, self.operands, name)
        self.name = name
        self.gen = gen

    def children(self):
        return self.operands


def as_expr(x, like=None) -> Expr:
    """Coerce a Python value into an expression node; a number takes
    the precision of ``like`` (a node or a field), else ``f64``."""
    if isinstance(x, Expr):
        return x
    if hasattr(x, "spec") and hasattr(x, "uid"):  # a field
        return FieldRef(x)
    if isinstance(x, (int, float, complex, np.integer, np.floating,
                      np.complexfloating)):
        prec = like.spec.precision if like is not None else "f64"
        return ScalarParam(complex(x), prec)
    raise ExprTypeError(f"cannot use {type(x).__name__} in a QDP expression")


# -- free functions of the QDP++ interface ---------------------------------

def adj(x) -> Expr:
    """Hermitian adjoint (transpose both matrix levels + conjugate)."""
    return UnaryNode("adj", as_expr(x))


def conj(x) -> Expr:
    """Complex conjugate (no transposition)."""
    return UnaryNode("conj", as_expr(x))


def transpose(x) -> Expr:
    """Transpose both matrix levels (no conjugation)."""
    return UnaryNode("transpose", as_expr(x))


def timesI(x) -> Expr:
    """Multiply by the imaginary unit (zero-flop structural rotation)."""
    return UnaryNode("timesI", as_expr(x))


def timesMinusI(x) -> Expr:
    return UnaryNode("timesMinusI", as_expr(x))


def real(x) -> Expr:
    return UnaryNode("real", as_expr(x))


def imag(x) -> Expr:
    return UnaryNode("imag", as_expr(x))


def trace(x) -> Expr:
    """Trace over spin and color."""
    return TraceNode("both", as_expr(x))


def traceSpin(x) -> Expr:
    return TraceNode("spin", as_expr(x))


def traceColor(x) -> Expr:
    return TraceNode("color", as_expr(x))


def shift(x, sign: int, mu: int) -> Expr:
    """QDP++ ``shift(x, sign, mu)``: grid displacement by one site.

    ``shift(phi, FORWARD, mu)(x) = phi(x + mu_hat)``.
    """
    return ShiftNode(as_expr(x), mu, sign)


# -- mathematical functions (real-valued; paper Sec. III-D) ----------------

def exp(x) -> Expr:
    """Elementwise exp (lowered to the ex2 subroutine)."""
    return UnaryNode("exp", as_expr(x))


def log(x) -> Expr:
    """Elementwise natural log (lowered to lg2 * ln 2)."""
    return UnaryNode("log", as_expr(x))


def sin(x) -> Expr:
    return UnaryNode("sin", as_expr(x))


def cos(x) -> Expr:
    return UnaryNode("cos", as_expr(x))


def tan(x) -> Expr:
    """sin/cos subroutine composition."""
    return UnaryNode("tan", as_expr(x))


def sqrt(x) -> Expr:
    return UnaryNode("sqrt", as_expr(x))


def rsqrt(x) -> Expr:
    """1/sqrt(x) — the hardware approximation instruction."""
    return UnaryNode("rsqrt", as_expr(x))


def fabs(x) -> Expr:
    return UnaryNode("fabs", as_expr(x))


class PowNode(Expr):
    """x^p for a compile-time exponent (structural constant)."""

    __slots__ = ("child", "exponent", "leaves")

    def __init__(self, child: Expr, exponent: float):
        self.exponent = float(exponent)
        self._inherit(_require_real(child.spec, "pow"), child,
                      f"pow[{self.exponent!r}]")
        self.child = child

    def children(self):
        return (self.child,)


def pow_const(x, exponent: float) -> Expr:
    """Elementwise x**p; small integer p unrolls into multiplies."""
    return PowNode(as_expr(x), exponent)
