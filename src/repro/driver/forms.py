"""The NumPy forms of PTX instructions and the statement record.

The driver JIT's translator (:mod:`repro.driver.jitcompiler`) writes
every instruction it does not fold as one of these forms, held as a
:class:`_Stmt` until the pack pass (:mod:`repro.driver.packing`) and
slot allocation have run.
"""

from __future__ import annotations

from ..ptx.isa import NUMPY_DTYPES, PTXType


#: PTX type -> NumPy scalar-constructor expression; the one dtype table
#: every generated kernel uses (view keys are ``NUMPY_DTYPES`` itself)
_NP_DTYPE = {t: f"np.{name}" for t, name in NUMPY_DTYPES.items()
             if t != PTXType.PRED}

_CMP_PY = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

_BIN_PY = {
    "add": "({} + {})",
    "sub": "({} - {})",
    "mul": "({} * {})",
    "mul.lo": "({} * {})",
    "min": "np.minimum({}, {})",
    "max": "np.maximum({}, {})",
    "and": "({} & {})",
    "or": "({} | {})",
    "xor": "({} ^ {})",
    "shl": "({} << {})",
    "shr": "({} >> {})",
    "rem": "np.fmod({}, {})",
}

_UN_PY = {
    "neg": "(-{})",
    "abs": "np.abs({})",
    "not": "(~{})",
    "sqrt": "np.sqrt({})",
    "rsqrt": "(1.0 / np.sqrt({}))",
    "rcp": "(1.0 / {})",
    "sin": "np.sin({})",
    "cos": "np.cos({})",
    "ex2": "np.exp2({})",
    "lg2": "np.log2({})",
    "floor": "np.floor({})",
    "ceil": "np.ceil({})",
    "trunc": "np.trunc({})",
    "round": "np.rint({})",
}

#: the forms of a product and an fma, the two a split product packs,
#: and of a sum
_MUL = _BIN_PY["mul"]
_ADD = _BIN_PY["add"]
_FMA = "({} * {} + {})"

#: opcodes whose NumPy functions are not correctly rounded: the pack
#: pass leaves them per word (a 2-D call might take another SIMD path)
#: and a register file never writes them in place (nor might ``out=``)
_UNPACKED = frozenset({"sin", "cos", "ex2", "lg2"})

#: element-wise form -> the ufunc its operator calls (same operands,
#: same order) and the augmented assignment writing its first operand
_UFUNC = {
    _BIN_PY["add"]: ("np.add", "+="), _BIN_PY["sub"]: ("np.subtract", "-="),
    _MUL: ("np.multiply", "*="), "({} / {})": ("np.divide", "/="),
    _BIN_PY["min"]: ("np.minimum", None), _BIN_PY["max"]: ("np.maximum", None),
    _UN_PY["neg"]: ("np.negative", None), _UN_PY["abs"]: ("np.absolute", None),
    _UN_PY["sqrt"]: ("np.sqrt", None)}


class _Stmt:
    """One statement of a translated body, held as a record until the
    pack pass and :func:`allocate_slots` have run.

    It reads ``text`` — ``form.format(*args)``, or ``form`` itself when
    there are no ``args`` — after ``dst = `` when it binds the local
    ``dst``.  ``args`` are the operands that may name a value:
    rendering puts a packed value's row in its place.  ``mem`` is what
    a global access recorded (``(kind, view, shift, address form,
    lanes)``), ``facts`` what the pack pass reads off it
    (:meth:`~repro.driver.jitcompiler._Translator._facts`); ``op`` the byte width of a pure
    element-wise statement the pack pass may merge (0: it may not),
    ``tmpl`` the ``(template id, ordinal, member)`` the code generator
    declared for its instruction (:attr:`ParsedKernel.templates`).
    """

    __slots__ = ("dst", "form", "args", "mem", "op", "text", "facts", "tmpl")

    def __init__(self, dst, form, args=(), mem=None, op=0, text=None,
                 facts=None, tmpl=None):
        self.dst, self.form, self.args, self.mem, self.op = (
            dst, form, args, mem, op)
        self.text = text or (form.format(*args) if args else form)
        self.facts = facts
        self.tmpl = tmpl

    def render(self, sub) -> str:
        body = self.text
        if sub and any(a in sub for a in self.args):
            body = self.form.format(*[sub.get(a, a) for a in self.args])
        return "    " + (body if self.dst is None else f"{self.dst} = {body}")
