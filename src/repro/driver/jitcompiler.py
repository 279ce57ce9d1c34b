"""The simulated driver JIT: PTX -> executable kernel.

This plays the role of the NVIDIA compute-compile driver (part of the
Linux kernel driver) in paper Fig. 2: it accepts PTX assembly text —
or, for a kernel generated in the process, the module that rendered
it, whose stream needs no parse — and produces executable code.  Here
"executable" means a generated Python function vectorized over the
*thread* axis — the SPMD semantics of the GPU are preserved exactly
(each array lane is one CUDA thread), so results agree with a real
device up to floating-point reassociation in ``fma`` (NumPy does not
fuse; see DESIGN.md "Known deviations").

It accepts one language, checked in :func:`compile_ptx` under every
``REPRO_VERIFY`` mode: every ``bra`` targets a label after it, and
every register is defined once and read where its definition
dominates — what the unparser emits.  Anything else is a
:class:`JITCompileError` naming the kernel and the label or register.

One generator (:class:`_Translator`) serves every dispatch name.
Control flow is compiled with an active-lane mask supporting guarded
instructions and forward branches: the body is straight-line Python
that runs every statement once, in textual order.  Integer address
arithmetic is folded when the kernel is built into forms ``gid*a + b``
or ``table[i]*a + b`` (exact modulo 2**64), so an access is one block
copy (``uniform + width*gid``, what the coalesced SoA layout makes of
every plain field access) or one gather through its table, and the
address is never formed.  In the generators' canonical bounds check
the threads that take the exit branch are *retired*: dropped from
every value, not masked (DESIGN.md §12).

That property is also what lets the JIT do the driver's register
allocation (:func:`allocate_slots`): the generator emits one local
per value, and a linear scan renames them onto as many reusable slots
as are ever live at once, so a launch holds *max-live* arrays rather
than one per instruction; where a float type does not pack, the slots
hold storage and loads no store can change borrow device memory (§12).
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from ..diagnostics import Severity, emit_warnings, errors, verify_mode
from ..memory.pool import ALIGNMENT
from ..ptx.absint import analyze_module
from ..ir.pipeline import prepare_module
from ..ptx.cfg import BackwardBranchError, build_cfg
from ..ptx.isa import (NUMPY_DTYPES, Immediate, Instruction, KernelInfo, PTXType,
                       Register, Special)
from ..ptx.liveness import max_live_registers
from ..ptx.module import PTX_TARGET, PTX_VERSION, PTXModule
from ..ptx.verifier import PASSES, PTXVerificationError, run_passes
from .forms import (_BIN_PY, _CMP_PY, _FMA, _NP_DTYPE, _UFUNC, _UN_PY,
                    _UNPACKED, _Stmt)
from .packing import PACK_MIN, PackPass
from .parser import ParsedKernel, PTXParseError, parse_ptx


class JITCompileError(Exception):
    """The driver rejected a PTX program."""


_SHIFT = {4: 2, 8: 3}

#: the largest global thread id a launch binds (DESIGN.md §15): lanes
#: are elements of one NumPy array
_GID_MAX = 2**31 - 1


# --- runtime helpers (shared by all compiled kernels) ---------------------

def _ld(view, addr, shift, m):
    """Masked global load: inactive lanes read a safe address.  Word
    indices are below 2**62, so the ``int64`` view has the same values
    (and indexes several times faster than ``uint64``)."""
    idx = (addr >> shift).view(np.int64)
    if m is not None:
        idx = np.where(m, idx, ALIGNMENT >> shift)
    return view[idx]


def _st(view, addr, shift, val, m):
    """Masked global store."""
    idx = (addr >> shift).view(np.int64)
    if m is None:
        view[idx] = val
    elif np.ndim(val) == 0:
        view[idx[m]] = val
    else:
        view[idx[m]] = val[m]


def _block(view, u, s, shift, m, prefix):
    """The slice of ``view`` a coalesced access ``u + s`` covers, or
    None when it has to run lane by lane.  ``s`` is exactly ``width *
    gid`` per lane, so with every lane active and the lanes exactly
    gids ``0 .. c-1`` the words are ``(u >> shift) + [0, c)`` — one
    block, provided it lies inside the view (outside, the literal
    access raises what it always raised)."""
    if m is None and prefix:
        i = int(u) >> shift
        j = i + s.shape[0]
        if 0 <= i and j <= view.shape[0]:
            return slice(i, j)
    return None


def _ldc(view, u, s, shift, m, prefix):
    """Coalesced load.  A copy, not a view: a later store to the same
    words must not change a register already loaded."""
    block = _block(view, u, s, shift, m, prefix)
    if block is None:
        return _ld(view, u + s, shift, m)
    return view[block].copy()


def _ldv(view, u, s, shift, m, prefix):
    """Coalesced load *borrowed* from device memory: no copy."""
    block = _block(view, u, s, shift, m, prefix)
    return _ld(view, u + s, shift, m) if block is None else view[block]


def _stc(view, u, s, shift, val, m, prefix):
    """Coalesced store."""
    block = _block(view, u, s, shift, m, prefix)
    if block is None:
        _st(view, u + s, shift, val, m)
    else:
        view[block] = val


def _retire(exits, *values):
    """Drop the lanes that take the exit branch of the canonical
    bounds check from every value defined so far (launch-uniform
    scalars pass through).  Returns ``(survivors, prefix, *values)``:
    ``prefix`` says the survivors are exactly lanes ``0 .. survivors-1``
    — then dropping is slicing."""
    if np.ndim(exits) == 0:             # a uniform predicate that held
        return (0, True, *values)
    n = exits.shape[0] - np.count_nonzero(exits)
    prefix = not exits[:n].any()
    keep = slice(n) if prefix else ~exits
    return (n, prefix, *[v if np.ndim(v) == 0 else v[keep] for v in values])


def _mand(m, p):
    """Combine the active mask with a guard predicate."""
    if m is None:
        return p
    return m & p


def _least_index(gb) -> int:
    """The least index of an index vector, or 0 when it has none
    below (a take from a plane needs no negative index; one past the
    plane makes the take raise)."""
    return int(gb.min(initial=0))


class _LeastIndex:
    """:func:`_least_index` of the vector a kernel's gathers read last,
    kept: one widened table read feeds a gather per word plane.  One
    per built kernel; holding the vector, it cannot be freed and its
    id reused, and index vectors are never written in place."""

    __slots__ = ("gb", "least")

    def __init__(self):
        self.gb = None

    def __call__(self, gb) -> int:
        if self.gb is not gb:
            self.gb, self.least = gb, _least_index(gb)
        return self.least


def _gv(view, gb, s, m, ci, least=_least_index):
    """Gather through a folded linear index ``gb + s`` (inactive lanes
    read word ``ci``, the safe word ``_ld`` reads).  With every lane
    active and no index negative, a ``take`` from the plane at ``s``:
    the same words, without forming ``gb + s`` (an index past the
    view raises either way)."""
    if m is None:
        if 0 <= s and least(gb) == 0:
            return view[s:].take(gb)
        return view[gb + s]
    return view[np.where(m, gb + s, ci)]


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


def _ldp(view, w, lo, k, nt, pre, G):
    """Packed coalesced load: row ``r`` holds words ``w + r*lo + g``
    of the lanes ``g`` — ``k`` ``_ldc`` calls as one copy (one block
    when the lanes are a prefix that fits a plane)."""
    if pre and nt <= lo and 0 <= w and w + k * lo <= view.shape[0]:
        return view[w:w + k * lo].reshape(k, lo)[:, :nt].copy()
    return view[np.arange(w, w + k * lo, lo)[:, None] + G]


def _gvp(view, w, lo, k, gb, least=_least_index):
    """Packed gather: row ``r`` is ``_gv`` of word plane ``w + r*lo``
    (one take along the planes when every index lies in a plane: none
    negative, and the take raises at one past it)."""
    if 0 <= w and w + k * lo <= view.shape[0] and least(gb) == 0:
        try:
            return view[w:w + k * lo].reshape(k, lo).take(gb, axis=1)
        except IndexError:
            pass
    return view[np.arange(w, w + k * lo, lo)[:, None] + gb]


def _stp(view, w, lo, k, step, nt, pre, G, val, order):
    """Packed coalesced store: row ``r`` of ``val`` to words ``w +
    r*step*lo + g``.  ``val`` is an array, or a tuple of ``(start,
    stop, step, rows)`` parts, each placing ``rows`` at those rows of
    the block.  When the block does not apply, row by row in ``order``
    (the program order of the stores it replaces)."""
    n = (k - 1) * step + 1
    if pre and nt <= lo and 0 <= w and w + n * lo <= view.shape[0]:
        block = view[w:w + n * lo].reshape(n, lo)[::step, :nt]
        if type(val) is tuple:
            for a, b, c, rows in val:
                block[a:b:c] = rows
        else:
            block[...] = val
        return
    if type(val) is tuple:
        parts, val = val, np.empty((k, G.shape[0]), view.dtype)
        for a, b, c, rows in parts:
            val[a:b:c] = rows
    val = np.broadcast_to(val, (k, G.shape[0]))
    for r in order:
        view[w + r * step * lo + G] = val[r]


def _distinct(kernel, *fields):
    """A packed or borrowing kernel's precondition: its ``p_f*``
    parameters bind distinct fields (a pack moves loads and stores of
    one field past accesses of the others)."""
    if len(set(fields)) != len(fields):
        raise ValueError(f"kernel {kernel!r}: two p_f parameters bind "
                         f"the same field")


#: the globals every generated kernel function is exec'd against
_RUNTIME = {"np": np, "_ld": _ld, "_st": _st, "_ldc": _ldc, "_ldv": _ldv,
            "_stc": _stc, "_gv": _gv, "_gs": _gs, "_pv": _pv, "_ps": _ps,
            "_ldp": _ldp, "_gvp": _gvp, "_stp": _stp, "_distinct": _distinct,
            "_retire": _retire, "_mand": _mand}


@dataclass(eq=False)
class CompiledKernel:
    """Everything the process knows about one PTX program.

    Built once per distinct PTX text by :func:`compile_ptx` and kept in
    the process-wide kernel store (:mod:`repro.driver.cache`), which
    hands this one object to every view: the instruction stream that
    executes (the builder's, or the parse of text), the liveness-based
    register footprint, the modeled driver-JIT cost, the
    static-analysis diagnostics per launch env it was checked under,
    and the launch callable, built on first dispatch
    (:func:`repro.driver.backends.select_backend`) or, for a kernel no
    cache has dispatched (a bare :func:`compile_ptx` result), on its
    first launch.
    """

    name: str
    ptx_text: str
    parsed: ParsedKernel
    regs_per_thread: int = 0
    #: measured: parse (text input only) + analysis
    compile_seconds: float = 0.0
    modeled_compile_seconds: float = 0.0   # the modeled NVIDIA-driver JIT
    #: env key -> diagnostics of the passes run under that launch env
    #: (empty for a kernel built under ``REPRO_VERIFY=off``)
    checked: dict = field(default_factory=dict)
    #: ``(views, params, grid_dim, block_dim)`` -> None
    func: object = None

    def __call__(self, views, params, grid_dim, block_dim):
        if self.func is None:
            self.func = build_sim_kernel(self.parsed, grid_dim * block_dim)
        self.func(views, params, grid_dim, block_dim)


#: a vector local of a translated body (``_v12``) — never part of a
#: longer name or of a quoted parameter name (the look-behind sits
#: after the leading literal so the search for it stays a plain
#: character scan)
_VECTOR_LOCAL = re.compile(r"(_v(?<![\w']_v)\d+)")
#: a per-launch scalar of a translated body
_SCALAR = re.compile(r"\b_s\d+\b")


def allocate_slots(lines: list[str], classes: dict | None = None,
                   slots: dict | None = None) -> tuple[list[str], int]:
    """Rename the vector locals of a translated body onto reusable slots.

    The body is straight-line: every statement runs once, in textual
    order.  One linear scan gives each name a slot ``_r<k>`` from its
    first to its last textual occurrence and hands a released slot to
    the next name that needs one, so rebinding it drops the dead
    array.  A statement releases the names that occur in it for the
    last time *before* it binds the name it defines — Python evaluates
    the right-hand side first, so a destination may take the slot an
    operand gives up (given ``classes``, local -> slot class, only a
    slot of its class, the first dying operand's).  Pure renaming:
    statements, their order and their operands are untouched; ``slots``
    receives each local's slot.  Returns the renamed lines and the
    number of slots: with one class, the most names held at once.
    """
    pieces = _VECTOR_LOCAL.split("\n".join(lines))   # text, name, text, ...
    end = len(pieces)
    last = dict(zip(pieces[1::2], range(1, end, 2)))
    cls = classes or {}
    slot_of: dict[str, str] = {}
    free = {c: [] for c in {None, *cls.values()}}   # class -> released slots
    n_slots = 0
    born: list[int] = []      # this statement's occurrences of new names
    dying: list[str] = []     # names whose last occurrence is on it
    for k in range(1, end + 1, 2):        # k == end: past the last name
        if (born or dying) and (k == end or "\n" in pieces[k - 1]):
            # the previous statement is complete: release, then bind
            if classes:
                dying.reverse()
            for name in dying:
                if name in slot_of:
                    free[cls.get(name)].append(slot_of.pop(name))
            for b in born:
                name = pieces[b]
                if name not in slot_of:
                    pool = free[cls.get(name)]
                    if not pool:
                        pool.append(f"_r{n_slots}")
                        n_slots += 1
                    slot_of[name] = pool.pop()
                    if slots is not None:
                        slots[name] = slot_of[name]
                pieces[b] = slot_of[name]
            for name in dying:          # defined here and never read
                if name in slot_of:
                    free[cls.get(name)].append(slot_of.pop(name))
            born, dying = [], []
        if k == end:
            break
        name = pieces[k]
        if name in slot_of:
            pieces[k] = slot_of[name]
        else:
            born.append(k)
        if last[name] == k:
            dying.append(name)
    return "".join(pieces).split("\n"), n_slots


def modeled_jit_time(n_instructions: int) -> float:
    """Modeled NVIDIA driver JIT translation time for one kernel.

    The paper (Sec. III-D) reports 0.05-0.22 s per compute kernel on
    the JLab 12k nodes — and that band covers everything from tiny
    axpy kernels to multi-thousand-instruction fused operators, so the
    driver's cost must saturate with kernel size (fixed pass overhead
    dominates).  We model a 0.05 s floor approaching a 0.22 s ceiling:
    """
    return 0.05 + 0.17 * (1.0 - math.exp(-n_instructions / 800.0))


# --- symbolic integer values ------------------------------------------------


class _Lin(NamedTuple):
    """Integer value linear in the global thread id: ``gid*a + b``.

    ``a`` is a compile-time Python int; ``b`` is a Python-int
    expression over hoisted launch parameters (``_i<k>`` locals) and
    literals, evaluated once per launch, whose value lies in
    ``[lo, hi]``.  The form stands for its register modulo
    ``2**width``: ring operations fold exactly, ``a`` and ``b`` are
    kept int64 representatives (:func:`_lin`), and the register's own
    value is taken wherever the width shows — at a widening ``cvt``
    (:meth:`_Translator._fold_cvt`) and at materialization.  ``p`` is
    ``b`` as an integer-linear form over the ``_i<k>`` locals — sorted
    ``(local, coefficient)`` terms, ``""`` the constant — or None when
    ``b`` is not one (a product of parameters, a wrapped value).
    """

    a: int
    b: str
    lo: int
    hi: int
    p: tuple | None = None


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
    p: tuple | None = None


class _FImm(NamedTuple):
    """A floating-point immediate (hoisted into the kernel's constants)."""

    type: PTXType
    tok: str


class _Spec(NamedTuple):
    which: str


#: the global thread id ``gid*1 + 0`` (at most ``_GID_MAX``)
_GID = _Lin(1, "0", 0, 0, ())
#: what a ``.ptr`` parameter holds: an address in the device pool, one
#: host buffer (x86-64 user space is 47 bits)
_PTR_RANGE = (0, 2**48 - 1)

#: integer opcodes whose result may stay a symbolic linear form
_FOLDABLE = frozenset({"fma", "mad.lo", "add", "sub", "mul", "mul.lo",
                       "shl", "neg"})


def _wrap(x: int, t: PTXType) -> int:
    """``x`` modulo ``2**width``, in integer type ``t``'s range: what a
    register of that type holds."""
    lo, hi = t.int_range
    return (x - lo) % (hi - lo + 1) + lo


def _is_lit(b: str) -> bool:
    """``b`` is a decimal literal (what ``str(int)`` gives)."""
    return b.lstrip("-").isdigit()


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


def _plit(v: int) -> tuple:
    """The linear form of literal ``v``."""
    return (("", v),) if v else ()


def _padd(p, q):
    """The sum of two linear forms."""
    if not p or not q:
        return p or q
    out = dict(p)
    for n, k in q:
        out[n] = out.get(n, 0) + k
    return tuple(sorted(t for t in out.items() if t[1]))


def _pscale(p, k: int):
    return None if p is None else tuple((n, c * k) for n, c in p if c * k)


def _pmul(x, y):
    """The linear form of ``x.b * y.b``: one side must be a literal."""
    if _is_lit(x.b):
        return _pscale(y.p, int(x.b))
    if _is_lit(y.b):
        return _pscale(x.p, int(y.b))
    return None


def _lin(a: int, b: str, lo: int, hi: int, base: str | None = None,
         p: tuple | None = None):
    """The form with ``a`` and ``b`` as int64 representatives; ``b`` is
    left alone when its bounds prove it one already."""
    if not _fits(lo, hi, PTXType.S64):
        b, lo, hi = _wrap_scalar(b, PTXType.S64)
        p = _plit(int(b)) if _is_lit(b) else None
    a = _wrap(a, PTXType.S64)
    return (_Lin(a, b, lo, hi, p) if base is None
            else _VLin(base, a, b, lo, hi, p))


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


def _lin_add(x, y):
    lo, hi = x.lo + y.lo, x.hi + y.hi
    p = None if x.p is None or y.p is None else _padd(x.p, y.p)
    if isinstance(x, _Lin) and isinstance(y, _Lin):
        return _lin(x.a + y.a, _badd(x.b, y.b), lo, hi, p=p)
    if isinstance(x, _Lin):
        x, y = y, x
    if isinstance(y, _VLin):                  # VLin + VLin
        if x.base != y.base:
            return None
        return _lin(x.a + y.a, _badd(x.b, y.b), lo, hi, x.base, p)
    if y.a != 0:
        return None                           # table vec + gid vec
    return _lin(x.a, _badd(x.b, y.b), lo, hi, x.base, p)


def _lin_neg(x):
    return _lin(-x.a, _bsub("0", x.b), -x.hi, -x.lo,
                x.base if isinstance(x, _VLin) else None, _pscale(x.p, -1))


def _lin_mul(x, y):
    corners = [p * q for p in (x.lo, x.hi) for q in (y.lo, y.hi)]
    lo, hi = min(corners), max(corners)
    if isinstance(x, _VLin) or isinstance(y, _VLin):
        if isinstance(x, _VLin) and isinstance(y, _VLin):
            return None
        if isinstance(x, _VLin):
            x, y = y, x                      # x: the _Lin side, y: _VLin
        if x.a != 0 or not _is_lit(x.b):
            return None                      # coeff must stay const
        k = int(x.b)
        if k == 0:
            return _Lin(0, "0", 0, 0, ())
        return _lin(y.a * k, _bmul(y.b, str(k)), lo, hi, y.base,
                    _pscale(y.p, k))
    if x.a != 0 and y.a != 0:
        return None                          # gid^2: not linear
    if x.a != 0:
        x, y = y, x                          # x is now the scalar side
    if y.a != 0 and not _is_lit(x.b):
        return None                          # gid coeff must stay const
    scale = int(x.b) if y.a != 0 else 0
    p = None if x.p is None or y.p is None else _pmul(x, y)
    return _lin(y.a * scale, _bmul(x.b, y.b), lo, hi, p=p)


class _Translator(PackPass):
    """Translates one parsed kernel into Python source.

    The one visitor over the :class:`~repro.ptx.isa.Instruction`
    stream: it owns the op tables, the mask/branch emission and the
    runtime helpers, and it folds integer address arithmetic.

    Contract: the generated function has the PTX semantics on every
    observable memory effect — which addresses are loaded, in which
    order; which addresses, values and active lanes are stored.  The
    stream is the one :func:`compile_ptx` accepts: forward branches
    only, every register defined once and read where its definition
    dominates.  So every register is bound to a *symbolic* value
    instead of a local: integer address chains fold into
    :class:`_Lin` / :class:`_VLin` forms over Z/2**64, whose scalar
    part is one Python-int expression per launch and whose ``>>
    shift`` word conversion folds through them, and pure expressions
    with identical text are emitted once.  A guarded definition binds
    like any other (PTX leaves the lanes its guard turns off
    undefined); guarded loads and stores stay masked.  Float
    arithmetic is never folded, reordered or reassociated.

    Given ``lanes`` — the launch width the kernel is built for — the
    pack pass (:class:`~repro.driver.packing.PackPass`) then merges
    the per-word statements of a canonical kernel into 2-D NumPy
    calls, its arithmetic by the templates the code generator declared
    (:attr:`ParsedKernel.templates`); without them (parsed text), or
    on any other kernel, every statement stays per word.
    """

    def __init__(self, parsed: ParsedKernel, lanes: int | None = None):
        self.parsed = parsed
        self.lanes = lanes
        #: the statements as emitted, one local per value
        self._stmts: list[_Stmt] = []
        #: the body after the pack pass, one local per value (what
        #: :func:`allocate_slots` renames; set by :meth:`translate`)
        self.lines: list[str] = []
        #: ``(kind, width)`` of each pack formed: ``ld`` / ``gv`` a
        #: field's block loads / gathers, ``op`` arithmetic, ``st``
        #: block stores
        self.packs: list[tuple[str, int]] = []
        #: packed member local -> (its pack, its row)
        self._row: dict[str, tuple[str, int]] = {}
        #: statements before this index precede the bounds check's
        #: retire and are never packed
        self._pack_from = 0
        #: slots the allocated body uses (set by :meth:`translate`)
        self.n_slots = 0
        #: the register file: owned local -> its float width in bytes
        #: (its slot class); the borrowing loads' locals
        self.owned: dict[str, int] = {}
        self.borrowed: set[str] = set()
        #: load that may borrow -> (its statement, stores before it)
        self._borrow: dict[str, tuple] = {}
        self._stores = 0
        insts = parsed.instructions
        ops = [i.opcode for i in insts]
        #: the generators' bounds check: one guarded ``bra`` to a final
        #: ``label; ret`` and no other guarded instruction.  The lanes
        #: that take it do nothing more, so they are *retired* — dropped
        #: from every value — instead of masked; ``_m`` stays None
        self.canonical = (
            ops.count("bra") == 1 and ops.count("label") == 1
            and ops.count("ret") == 1 and ops[-2:] == ["label", "ret"]
            and [i.opcode for i in insts if i.guard is not None] == ["bra"]
            and insts[ops.index("bra")].label == insts[-2].label)
        #: width -> the locals known to hold that float type, for the
        #: types that cannot pack at this width (owned ones)
        self._known: dict[int, set[str]] = {
            t.nbytes: set() for t in (PTXType.F32, PTXType.F64)
            if lanes and self._cap(t.nbytes) < PACK_MIN}
        self.labels = [] if self.canonical else [
            i.label for i in insts if i.opcode == "label"]
        #: where the retire statement goes and the locals it names
        #: (the lane vectors are only known once the walk is over)
        self._retire_at: tuple[int, list[str]] | None = None
        self.pos = 0                        # index of the instruction walked
        #: position of each global access -> the helper it calls
        #: (``_ldc``/``_stc``: a block copy; ``_gv``/``_pv``: through a
        #: folded index vector; ``_gs``/``_ps``: a launch-uniform word;
        #: ``_ld``/``_st``: a formed address)
        self.accesses: dict[int, str] = {}
        #: the float constants the body names (``_K<k>``)
        self.consts: dict[str, object] = {}
        self._const_names: dict[tuple, str] = {}
        #: integer parameter -> the range of what a launch binds to it
        self.int_params = {
            p.name: _PTR_RANGE if p.is_pointer else p.type.int_range
            for p in parsed.params if p.type.is_int}
        self._pointers = {p.name for p in parsed.params if p.is_pointer}
        #: ``Register.key`` -> symbolic value of the register (a vector
        #: local's name, or a _Lin/_VLin/_FImm/_Spec still to be
        #: materialized)
        self.sym: dict[tuple, object] = {}
        self._n = 0
        #: emitted pure expression -> the local holding it; locals are
        #: assigned once, so identical text is the identical value (the
        #: slots are allocated only after the walk: a local released
        #: earlier would have to leave this table, changing which
        #: operations are emitted)
        self._cse: dict[str, str] = {}
        self._iparams: dict[str, str] = {}
        self._param_of: dict[str, str] = {}    # _i<k> -> parameter
        self._scalars: dict[str, str] = {}
        self._views: dict[str, str] = {}
        self.need_G = False
        self.need_gl = False
        self.need_ntid = False
        #: the pack pass runs (and linear forms are tracked): a launch
        #: width at which some float access could pack, the canonical
        #: shape and the generator's template table
        self._templates = parsed.templates
        self._packing = bool(lanes) and self.canonical \
            and self._templates is not None \
            and any(i.opcode in ("ld.global", "st.global") and i.type.is_float
                    and self._cap(i.type.nbytes) >= PACK_MIN for i in insts)

    @property
    def coalesced(self) -> list[int]:
        """Positions of the accesses emitted as ``_ldc`` / ``_stc``."""
        return [p for p, h in self.accesses.items() if h in ("_ldc", "_stc")]

    def emit(self, line: str) -> None:
        self._stmts.append(_Stmt(None, line))

    # -- small emission helpers ----------------------------------------

    def fresh(self) -> str:
        self._n += 1
        return f"_v{self._n}"

    def _bind(self, inst: Instruction, form: str, *args, mem=None) -> None:
        """Evaluate ``form`` over ``args`` into a fresh local bound to
        the destination."""
        name = self.fresh()
        self._stmts.append(_Stmt(name, form, args, mem))
        self.sym[inst.dst.key] = name
        known = self._know(inst.type, name)
        if mem[4] is not None and (self._retire_at or not self.canonical):
            if known:
                self.owned[name] = inst.type.nbytes
            if form.startswith("_ldc(") and (known or self.lanes
                                             and not inst.type.is_float):
                self._borrow[name] = (self._stmts[-1], self._stores)

    def _shared(self, form: str, *args, op: int = 0) -> str:
        """The local holding pure expression ``form`` over ``args``
        (emitted once)."""
        expr = form.format(*args) if args else form
        if expr.isidentifier():
            return expr
        name = self._cse.get(expr)
        if name is None:
            name = self.fresh()
            self._stmts.append(_Stmt(
                name, form, args, op=op, text=expr,
                tmpl=self._templates[self.pos] if op and self._packing
                else None))
            self._cse[expr] = name
        return name

    def _const(self, t: PTXType, tok: str) -> str:
        key = (t, tok)
        name = self._const_names.get(key)
        if name is None:
            dt = np.dtype(NUMPY_DTYPES[t]).type
            name = f"_K{len(self.consts)}"
            self._const_names[key] = name
            self.consts[name] = dt(float(tok)) if t.is_float else dt(int(tok))
            self._know(t, name)
        return name

    def _iparam(self, pname: str) -> str:
        name = self._iparams.get(pname)
        if name is None:
            name = f"_i{len(self._iparams)}"
            self._iparams[pname] = name
            self._param_of[name] = pname
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

    def _view(self, t: PTXType) -> str:
        """The local naming the device-memory view of type ``t``."""
        dname = NUMPY_DTYPES[t]
        name = self._views.get(dname)
        if name is None:
            name = f"_Vw{len(self._views)}"
            self._views[dname] = name
        return name

    def _prologue(self) -> list[str]:
        """The lines between the ``def`` and the translated body."""
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
        fields = [v for p, v in self._iparams.items() if p.startswith("p_f")]
        if (self.packs or self.borrowed) and len(fields) > 1:
            pro.append(f"    _distinct({self.parsed.name!r}, "
                       f"{', '.join(fields)})")
        pro += ["    _m = None", "    _pre = True"]
        return pro

    # -- operands --------------------------------------------------------

    def _sym_of(self, op, t: PTXType):
        """The symbolic value of operand ``op`` read as type ``t``."""
        if isinstance(op, Register):
            return self.sym[op.key]
        if isinstance(op, Special):
            return _Spec(op.which)
        if isinstance(op, Immediate):
            if op.type != PTXType.PRED:
                t = op.type
            if t.is_float:
                return _FImm(t, repr(float(op.value)))
            v = int(op.value)
            return _lin(0, str(v), v, v, p=_plit(v) if self._packing else None)
        raise JITCompileError(f"bad operand {op!r}")

    def _operand(self, op, itype: PTXType) -> str:
        """The Python expression reading operand ``op``."""
        return self._mat(self._sym_of(op, itype), itype)

    def _gmul(self, a: int, gbase: str = "_G") -> str:
        """The shared ``gid-vector * a`` product (CSE'd per kernel)."""
        return gbase if a == 1 else self._shared(f"{gbase} * {a}")

    def _mat(self, sym, t: PTXType) -> str:
        """Materialize a symbolic value as an expression of type ``t``."""
        if isinstance(sym, str):
            if sym in self._borrow and self._borrow[sym][1] < self._stores:
                del self._borrow[sym]       # read after a store
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

    def _assign(self, inst: Instruction, form: str, *args,
                op: bool = False) -> None:
        """Bind the destination to pure expression ``form`` over
        ``args`` (shared).  ``op``: the expression is element-wise
        arithmetic the pack pass may merge."""
        width = inst.type.nbytes if op and inst.opcode not in _UNPACKED else 0
        self.sym[inst.dst.key] = self._shared(form, *args, op=width)

    # -- integer folding -------------------------------------------------

    def _fold_int(self, inst: Instruction) -> bool:
        """Try to fold an integer arithmetic op symbolically; returns
        True when the destination got a :class:`_Lin` binding."""
        op = "fma" if inst.opcode == "mad.lo" else inst.opcode
        syms = [self._sym_of(s, inst.type) for s in inst.srcs]
        if op == "fma" and all(isinstance(s, _Spec) for s in syms) and \
                tuple(s.which for s in syms) == ("ctaid", "ntid", "tid"):
            # the canonical global-thread-id computation
            self.sym[inst.dst.key] = _GID
            return True
        if not all(isinstance(s, (_Lin, _VLin)) for s in syms):
            return False
        out = None
        if op == "add":
            out = _lin_add(*syms)
        elif op == "sub":
            x, y = syms
            out = _lin_add(x, _lin_neg(y))
        elif op in ("mul", "mul.lo"):
            out = _lin_mul(*syms)
        elif op == "fma":
            x, y, z = syms
            prod = _lin_mul(x, y)
            out = _lin_add(prod, z) if prod is not None else None
        elif op == "shl":
            x, y = syms
            if isinstance(y, _Lin) and y.a == 0 and _is_lit(y.b) \
                    and 0 <= int(y.b) <= 62:
                k = 1 << int(y.b)
                out = _lin_mul(x, _Lin(0, str(k), k, k, _plit(k)))
        elif op == "neg":
            out = _lin_neg(syms[0])
        if out is None:
            return False
        self.sym[inst.dst.key] = out
        return True

    def _fold_cvt(self, inst: Instruction) -> bool:
        """Integer -> integer ``cvt`` of an address-chain value passes
        through symbolically.  Same-width and narrowing conversions
        are the identity on a form (it stands for its register modulo
        the width); a *widening* one shows the source width, so a form
        not proven to lie in the source type's range first takes the
        value the source register holds."""
        if not inst.src_type.is_int:
            return False
        src = inst.src_type
        sym = self._sym_of(inst.srcs[0], src)
        if isinstance(sym, _Lin) and inst.type.nbytes > src.nbytes:
            span = sym.a * _GID_MAX
            if not _fits(sym.lo + min(span, 0), sym.hi + max(span, 0), src):
                if sym.a == 0:
                    b, lo, hi = _wrap_scalar(sym.b, src)
                    sym = _Lin(0, b, lo, hi,
                               _plit(int(b)) if _is_lit(b) else None)
                else:
                    sym = self._mat(sym, src)
        if isinstance(sym, _Lin) or \
                (isinstance(sym, _VLin) and inst.type.nbytes == 8):
            self.sym[inst.dst.key] = sym
            return True
        if isinstance(sym, str) and inst.type.nbytes == 8:
            # widen a loaded index vector once; later address
            # arithmetic folds onto it (shift/subset tables); a
            # borrowing read is an array, not wrapped again
            base = self._shared(("{}" if sym in self._borrow else
                                 "np.asarray({})") + ".astype(np.int64)",
                                self._mat(sym, src))
            self.sym[inst.dst.key] = _VLin(base, 1, "0", 0, 0, ())
            return True
        return False

    # -- global memory ---------------------------------------------------

    def _access(self, kind: str, inst: Instruction, addr, sh: int,
                em: str, val: str | None = None):
        """The call performing a global access, as ``(form, args,
        mem)`` (``em``: the mask; ``val``: a stored value, an
        argument like a formed address).  An unguarded ``gid*width +
        b`` is the coalesced shape: a block copy through ``_ldc`` /
        ``_stc`` with ``b`` as the uniform half.  Otherwise the
        byte->word shift folds through a form whose coefficient the
        width divides (one fancy index, ``_gv``/``_pv``; a
        launch-uniform word, ``_gs``/``_ps``), and any other address is
        formed."""
        view = self._view(inst.type)
        sym = self._sym_of(addr, PTXType.U64)
        ci = ALIGNMENT >> sh        # the word inactive lanes read
        tail = em if val is None else "{}, " + em
        args = () if val is None else (val,)
        cols = None                 # the lanes a packable access reads
        if isinstance(sym, _Lin) and sym.a == 0:
            helper = "_gs" if kind == "ld" else "_ps"
            call = f"({view}, {self._word(sym.b, sh)}, {tail}, {ci})"
        elif isinstance(sym, _Lin) and sym.a == inst.type.nbytes \
                and inst.guard is None:
            self.need_G = True
            helper = f"_{kind}c"
            call = (f"({view}, {self._scalar(sym.b)}, {self._gmul(sym.a)}, "
                    f"{sh}, {tail}, _pre)")
            cols = "_G"
        elif isinstance(sym, (_Lin, _VLin)) and sym.a > 0 \
                and sym.a % (1 << sh) == 0:
            if isinstance(sym, _Lin):
                self.need_G = True
                gb = self._gmul(sym.a >> sh)
            else:
                gb = self._gmul(sym.a >> sh, sym.base)
            s = self._word(sym.b, sh)
            helper = "_gv" if kind == "ld" else "_pv"
            call = (f"({view}, {gb}, {s}, {tail}, {ci})" if kind == "ld"
                    else f"({view}, {gb}, {s}, {tail})")
            cols = gb if kind == "ld" else None
        else:
            helper = f"_{kind}"
            call = f"({view}, {{}}, {sh}, {tail})"
            args = (self._mat(sym, PTXType.U64),) + args
        self.accesses[self.pos] = helper
        return helper + call, args, (kind, view, sh, sym, cols)

    def _facts(self, st: _Stmt):
        """What the pack pass reads off a global access: ``(kind,
        region, key, word, stride)``, from the address's linear form
        (computed once, when the pass first asks).

        ``region`` is the pointer parameter (its ``_i`` local) the
        address is based on — its one pointer term, coefficient 1 — or
        None: any memory.  ``key`` (None: not packable) names one
        ``p_f*`` field read as ``base + const + word*width*stride +
        cols``: ``(view, shift, region, const, cols)``, with ``cols``
        ``_G`` (the lanes) or a gather's word vector; ``stride`` is the
        integer parameter scaling the word (None for word 0)."""
        if st.facts is None:
            st.facts = self._read_facts(*st.mem)
        return st.facts

    def _read_facts(self, kind: str, view: str, sh: int, sym, cols):
        region, const, rest = None, 0, []
        for n, k in getattr(sym, "p", None) or ():
            if not n:
                const = k
            elif self._param_of.get(n) not in self._pointers:
                rest.append((n, k))
            elif region is not None or k != 1:
                return (kind, None, None, 0, None)
            else:
                region = n
        if region is None:
            return (kind, None, None, 0, None)
        if (cols is None or not self._param_of[region].startswith("p_f")
                or len(rest) > 1 or rest and rest[0][1] % (1 << sh)):
            return (kind, region, None, 0, None)
        stride, word = (rest[0][0], rest[0][1] >> sh) if rest else (None, 0)
        return (kind, region, (view, sh, region, const, cols), word, stride)

    def _shift(self, inst: Instruction) -> int:
        """log2 of the word size of a global access."""
        sh = _SHIFT.get(inst.type.nbytes)
        if sh is None:
            raise JITCompileError(
                f"kernel {self.parsed.name!r}: '{inst.render()}' — there "
                f"is no device view of type .{inst.type.value}")
        return sh

    # -- mask handling -------------------------------------------------

    def _guard(self, inst: Instruction) -> str:
        g = self._operand(inst.guard, PTXType.PRED)
        return f"(~{g})" if inst.guard_negated else g

    def _effective_mask(self, inst: Instruction) -> str:
        """Emit mask combination for a guarded instruction; returns the
        variable name holding the effective mask."""
        if inst.guard is None:
            return "_m"
        self.emit(f"_em = _mand(_m, {self._guard(inst)})")
        return "_em"

    # -- the instruction walk ---------------------------------------------

    def translate(self) -> str:
        for lbl in self.labels:
            self.emit(f"_pend_{lbl[1:]} = None")
        for self.pos, inst in enumerate(self.parsed.instructions):
            self._translate_inst(inst)
        for name, (st, _) in self._borrow.items():
            st.form = st.text = "_ldv" + st.form[4:]
            self.owned.pop(name, None)
        if self._known:
            self._own()
        sub = self._pack() if self._packing else {}
        self.borrowed = self._borrow.keys() - self._row.keys()
        self.lines = [st.render(sub) for st in self._stmts]
        if self._retire_at is not None:
            at, names = self._retire_at
            self.lines[at] = self._retire_line(names)
        if self._packing:
            self._sweep()
        slot = {} if self.owned else None
        body, self.n_slots = allocate_slots(self.lines, self.owned, slot)
        if self.owned:
            self._in_place(body, slot)
        head = [f"def _kernel_{self.parsed.name}(_V, _P, _gd, _bd):"]
        return "\n".join(head + self._prologue() + body
                         + ["    return None"]) + "\n"

    def _retire_line(self, names: list[str]) -> str:
        """The retire statement over ``names`` and the prologue's lane
        vectors (known only once the walk is over)."""
        names = (names + ["_tid", "_ctaid"] * self.need_gl
                 + ["_G"] * self.need_G)
        return (f"        {', '.join(['_nt', '_pre'] + names)} = "
                f"_retire({', '.join(['_x'] + names)})")

    def _sweep(self) -> None:
        """Drop what packing leaves dead, in one backward pass: a pure
        local nothing reads (a packed member's address product), the
        retire's copy of a local only read before it, and a launch
        scalar the body does not name."""
        at, names = self._retire_at
        live: set[str] = set()
        keep = []
        for i in range(len(self.lines) - 1, -1, -1):
            st, line = self._stmts[i], self.lines[i]
            if i == at:
                line = self._retire_line([n for n in names if n in live])
            elif st.dst is not None and st.dst not in live \
                    and st.mem is None and st.facts is None:
                continue
            live.update(_VECTOR_LOCAL.findall(line))
            keep.append((st, line))
        self._stmts, self.lines = (list(x) for x in zip(*keep[::-1]))
        read = set(_SCALAR.findall("\n".join(self.lines)))
        self._scalars = {e: v for e, v in self._scalars.items() if v in read}

    # -- the register file (DESIGN.md §12) -------------------------------------
    #
    # Where a float type cannot pack, its lane vectors from the retire on
    # are *owned*: private arrays in a slot class of their own.  A block
    # load of such a type, or of a table, borrows device memory unless
    # the walk reads it after a store (:meth:`_mat`).

    def _know(self, t: PTXType, name: str) -> bool:
        """Note that ``name`` holds type ``t``; True when ``t`` is owned."""
        known = self._known.get(t.nbytes) if t.is_float else None
        if known is not None:
            known.add(name)
        return known is not None

    def _own(self) -> None:
        """Own each element-wise op in ``_UFUNC`` and fma over a lane
        vector whose operands are all known to be of its type."""
        vec, known = self.owned.keys() | self._borrow.keys(), self._known
        for st in self._stmts[self._pack_from:]:
            if st.op and not vec.isdisjoint(st.args):
                vec.add(st.dst)
                of = known.get(st.op)
                if of is not None and (st.form in _UFUNC or st.form == _FMA) \
                        and of.issuperset(st.args):
                    of.add(st.dst)
                    self.owned[st.dst] = st.op

    @staticmethod
    def _out_form(form: str, view: str) -> str:
        """``form`` (in ``_UFUNC``, or an fma) writing into ``view`` of
        an array the launch allocated — a merged pack
        (:meth:`~repro.driver.packing.PackPass._merge`): its ufunc with
        ``out=``; an fma multiplies into it, then adds."""
        if form == _FMA:
            return (f"np.multiply({{}}, {{}}, out={view}); "
                    f"np.add({view}, {{}}, out={view})")
        return (f"{_UFUNC[form][0]}("
                + ", ".join(["{}"] * form.count("{}")) + f", out={view})")

    def _in_place(self, body: list[str], slot: dict[str, str]) -> None:
        """The first definition in an owned slot allocates; a later one
        writes into the array the slot holds.  An fma multiplies into
        the slot and adds its addend — or, when the addend gave the slot
        up, multiplies into the scratch row ``_q<width>``."""
        bound = set()
        for i, st in enumerate(self._stmts):
            w = self.owned.get(st.dst)
            if w is None:
                continue
            out = slot[st.dst]
            if out not in bound:
                bound.add(out)
                continue
            args = [slot.get(a, a) for a in st.args]
            if st.form == _FMA:
                x, y, z = args
                q = out if z != out else f"_q{w}"
                mul = (f"np.multiply({x}, {y}, out={q})" if q in bound
                       else f"{q} = ({x} * {y})")
                body[i] = f"    {mul}; " + (f"{out} += {z}" if q == out else
                                            f"np.add({q}, {out}, out={out})")
                bound.add(q)
            elif st.form in _UFUNC:
                ufunc, aug = _UFUNC[st.form]
                body[i] = (f"    {out} {aug} {args[1]}"
                           if aug and args[0] == out else
                           f"    {ufunc}({', '.join(args)}, out={out})")

    def _translate_inst(self, inst: Instruction) -> None:
        op = inst.opcode
        if self.canonical and op in ("bra", "label", "ret"):
            if op == "bra":
                # retire the exiting lanes; nothing runs for them again,
                # so the label and the ret have nothing left to do
                self.emit(f"_x = {self._guard(inst)}")
                self.emit("if _x.any():")
                # every local so far that may hold one value per lane
                self._retire_at = (len(self._stmts),
                                   [f"_v{k}" for k in range(1, self._n + 1)])
                self.emit("    <retire>")
                self.emit("    if _nt == 0: return None")
                self._pack_from = len(self._stmts)
            return
        if op == "label":
            lbl = inst.label[1:]
            self.emit(f"if _pend_{lbl} is not None:")
            self.emit(f"    _m = _pend_{lbl} if _m is None else (_m | _pend_{lbl})")
            self.emit(f"    _pend_{lbl} = None")
            self.emit("    if _m is not None and _m.all(): _m = None")
            return
        if op == "bra":
            lbl = inst.label[1:]
            if inst.guard is None:
                self.emit("_t = np.ones(_nt, bool) if _m is None else _m")
            else:
                g = self._guard(inst)
                self.emit(f"_t = {g} if _m is None else (_m & {g})")
            self.emit(f"_pend_{lbl} = _t if _pend_{lbl} is None "
                      f"else (_pend_{lbl} | _t)")
            self.emit("_m = (~_t) if _m is None else (_m & ~_t)")
            self.emit("if _m.all(): _m = None")
            return
        if op == "ret":
            if inst.guard is None:
                self.emit("_m = np.zeros(_nt, bool)")
            else:
                g = self._guard(inst)
                self.emit(f"_m = (~{g}) if _m is None else (_m & ~{g})")
            return
        if op == "ld.param":
            (pref,) = inst.srcs
            pname = pref.pname
            if not any(q.name == pname for q in self.parsed.params):
                raise JITCompileError(f"ld.param of unknown param {pname!r}")
            if pname in self.int_params:
                # pointers and integer scalars are launch-uniform ints
                local = self._iparam(pname)
                self.sym[inst.dst.key] = _lin(
                    0, local, *self.int_params[pname],
                    p=((local, 1),) if self._packing else None)
            else:
                self._assign(inst, f"{_NP_DTYPE[inst.type]}(_P[{pname!r}])")
                self._know(inst.type, self.sym[inst.dst.key])
            return
        if op == "ld.global":
            (addr,) = inst.srcs
            sh = self._shift(inst)
            em = self._effective_mask(inst)
            form, args, mem = self._access("ld", inst, addr, sh, em)
            self._bind(inst, form, *args, mem=mem)
            return
        if op == "st.global":
            addr, val = inst.srcs
            sh = self._shift(inst)
            v = self._operand(val, inst.type)
            em = self._effective_mask(inst)
            form, args, mem = self._access("st", inst, addr, sh, em, v)
            self._stmts.append(_Stmt(None, form, args, mem))
            self._stores += 1
            return
        if op == "mov":
            self.sym[inst.dst.key] = self._sym_of(inst.srcs[0], inst.type)
            return
        if inst.type.is_int and (
                (op == "cvt" and self._fold_cvt(inst))
                or (op in _FOLDABLE and self._fold_int(inst))):
            return
        dtype = _NP_DTYPE.get(inst.type)
        if op == "cvt":
            (src,) = inst.srcs
            s = self._operand(src, inst.src_type)
            if inst.type.is_int and inst.src_type.is_float:
                form = "np.trunc({}).astype(" + dtype + ")"
            else:
                form = "np.asarray({}).astype(" + dtype + ")"
            self._assign(inst, form, s, op=True)
            self._know(inst.type, self.sym[inst.dst.key])
            return
        if op == "setp":
            a, b = inst.srcs
            ea = self._operand(a, inst.type)
            eb = self._operand(b, inst.type)
            self._assign(inst, "({} " + _CMP_PY[inst.cmp] + " {})", ea, eb,
                         op=True)
            return
        if op == "selp":
            a, b, pred = inst.srcs
            ep = self._operand(pred, PTXType.PRED)
            ea = self._operand(a, inst.type)
            eb = self._operand(b, inst.type)
            self._assign(inst, "np.where({}, {}, {})", ep, ea, eb, op=True)
            return
        if op in ("fma", "mad.lo"):
            srcs = [self._operand(s, inst.type) for s in inst.srcs]
            self._assign(inst, _FMA, *srcs, op=True)
            return
        if op == "div":
            srcs = [self._operand(s, inst.type) for s in inst.srcs]
            if inst.type.is_float:
                self._assign(inst, "({} / {})", *srcs, op=True)
            else:
                # PTX integer division truncates toward zero.
                self._assign(
                    inst, "np.trunc(np.asarray({}, np.float64) / "
                    "np.asarray({}, np.float64)).astype(" + dtype + ")",
                    *srcs, op=True)
            return
        if op in _BIN_PY:
            srcs = [self._operand(s, inst.type) for s in inst.srcs]
            self._assign(inst, _BIN_PY[op], *srcs, op=True)
            return
        if op in _UN_PY:
            srcs = [self._operand(s, inst.type) for s in inst.srcs]
            self._assign(inst, _UN_PY[op], *srcs, op=True)
            return
        raise JITCompileError(f"unsupported opcode {op!r}")


def build_sim_kernel(parsed: ParsedKernel, lanes: int | None = None):
    """The callable for a parsed kernel (every dispatch name's), packed
    for launches of ``lanes`` threads (None: per word)."""
    gen = _Translator(parsed, lanes)
    source = gen.translate()
    least = _LeastIndex()
    namespace = {**_RUNTIME, **gen.consts,
                 "_gv": partial(_gv, least=least),
                 "_gvp": partial(_gvp, least=least)}
    exec(compile(source, f"<ptxjit:{parsed.name}>", "exec"), namespace)
    return namespace[f"_kernel_{parsed.name}"]


def _env_key(env):
    """Hashable identity of a launch env (frozen, but holds dicts)."""
    if env is None:
        return None
    return (env.block_size, env.grid_size,
            tuple(sorted(env.scalars.items())),
            tuple(sorted(env.regions.items())))


#: the JIT's pipeline: every pass but ``ssa-structure``, which
#: :func:`repro.ir.prepare_module` ran on the stream before it entered
_AFTER_PREPARE = tuple(n for n in PASSES if n != "ssa-structure")


def verify_kernel(kernel: CompiledKernel, env=None, replay: bool = True,
                  cfg=None):
    """The JIT's one verification point, memoised per launch env.

    Every PTX program entering the JIT — generated or hand-written —
    passes through the verifier pipeline on the stream that executes,
    so malformed kernels fail at compile time with diagnostics instead
    of as downstream evaluator failures.  The pipeline skips
    ``ssa-structure``: the stream met the JIT's entry contract before
    it was compiled (:func:`compile_ptx`).  ``cfg`` is the stream's
    graph when the caller already built it.  A digest already checked
    under ``env`` is not analysed again: its stored diagnostics are
    reported again (``replay``: the first time a cache sees the
    kernel) or only enforced (error-severity findings still raise
    under ``error``).
    Strictness follows ``REPRO_VERIFY`` (off / warn / error; see
    :mod:`repro.diagnostics`).  Returns the
    :class:`~repro.ptx.absint.KernelAnalysis` when one was computed.
    """
    mode = verify_mode()
    if mode == "off":
        return None
    key = _env_key(env)
    diagnostics = kernel.checked.get(key)
    analysis = None
    if diagnostics is None:
        module = _module(kernel.parsed)
        # the one CFG absint, liveness and every verifier pass read
        if cfg is None:
            cfg = build_cfg(module.instructions)
        analysis = analyze_module(module, env=env, cfg=cfg)
        diagnostics = run_passes(module, passes=_AFTER_PREPARE, env=env,
                                 analysis=analysis, cfg=cfg)
        kernel.checked[key] = diagnostics
    errs = errors(diagnostics)
    fatal = mode == "error" and errs
    if replay or analysis is not None:
        # a launch env turns table strides into known strides; the
        # coalescing verdicts that follow describe one binding (a
        # checkerboard subset is stride 2), not the kernel:
        # ``repro.lint`` reports them, the JIT does not warn on them
        quiet = () if env is None else ("coalescing",)
        emit_warnings([d for d in diagnostics if d.pass_name not in quiet
                       and (not fatal or d.severity < Severity.ERROR)],
                      stacklevel=4)
    if fatal:
        raise JITCompileError(
            f"static verification of kernel {kernel.name!r} failed:\n"
            + "\n".join(d.render() for d in errs))
    return analysis


def _module(parsed: ParsedKernel) -> PTXModule:
    return PTXModule(
        info=KernelInfo(name=parsed.name, params=list(parsed.params)),
        instructions=list(parsed.instructions))


def compile_ptx(ptx_text: str, env=None, module=None) -> CompiledKernel:
    """JIT-compile a PTX module into an executable kernel.

    The stream is ``module``'s — the prepared
    :class:`~repro.ptx.module.PTXModule` that rendered ``ptx_text``,
    when the caller holds it — or else the parse of ``ptx_text``.
    Either way it must be in the one language the JIT accepts, checked
    here in every ``REPRO_VERIFY`` mode: every ``bra`` targets a label
    after it, and every register is defined once and read where its
    definition dominates (``ssa-structure``, which
    :func:`repro.ir.prepare_module` runs on a parsed stream here and
    on a generated one when it is built).  Then verifies it once under
    the caller's launch ``env`` (a
    :class:`~repro.ptx.absint.KernelEnv`; gated by ``REPRO_VERIFY``)
    and sizes the register footprint from that one analysis, all over
    one control-flow graph.  The launch callable is not built here —
    the kernel cache's dispatch builds it.  Raises
    :class:`JITCompileError` on malformed or rejected input.
    """
    t0 = time.perf_counter()
    if module is not None:
        info = module.info
        parsed = ParsedKernel(info.name, list(info.params),
                              list(module.instructions),
                              dict(info.regs_per_thread),
                              PTX_VERSION, PTX_TARGET, module.templates)
    else:
        try:
            parsed = parse_ptx(ptx_text)
        except PTXParseError as exc:
            raise JITCompileError(f"parse error: {exc}") from exc
    try:
        cfg = build_cfg(parsed.instructions)
    except BackwardBranchError as exc:
        raise JITCompileError(
            f"kernel {parsed.name!r}: backward branch to {exc.label!r} — "
            f"the JIT translates forward branches only") from exc
    if module is None:
        try:
            prepare_module(_module(parsed), cfg=cfg)
        except PTXVerificationError as exc:
            raise JITCompileError("\n".join(
                f"kernel {parsed.name!r}: {d.message} at '{d.location}'"
                for d in exc.diagnostics)) from exc
    kernel = CompiledKernel(
        name=parsed.name, ptx_text=ptx_text, parsed=parsed,
        modeled_compile_seconds=modeled_jit_time(len(parsed.instructions)))
    analysis = verify_kernel(kernel, env, cfg=cfg)
    # The real driver JIT performs register allocation; the SSA-style
    # .reg declarations wildly overstate pressure.  Use liveness,
    # capped at the Kepler per-thread hardware maximum of 255 — beyond
    # that a real compiler spills to local memory rather than failing.
    live = (analysis.max_live_regs if analysis is not None
            else max_live_registers(parsed.instructions, cfg=cfg))
    kernel.regs_per_thread = max(min(live, 255), 8)
    kernel.compile_seconds = time.perf_counter() - t0
    return kernel
