"""The simulated driver JIT: PTX text -> executable kernel.

This plays the role of the NVIDIA compute-compile driver (part of the
Linux kernel driver) in paper Fig. 2: it accepts PTX assembly text and
produces executable code.  Here "executable" means a generated Python
function in which every PTX instruction becomes one NumPy operation
vectorized over the *thread* axis — the SPMD semantics of the GPU are
preserved exactly (each array lane is one CUDA thread), so results
agree with a real device up to floating-point reassociation in ``fma``
(NumPy does not fuse; see DESIGN.md "Known deviations").

Control flow is compiled with an active-lane mask supporting guarded
instructions and forward branches — sufficient for the bounds-check /
face-select patterns the code generators emit, and verified against
hand-written PTX in the test suite.  A backward branch is rejected
with :class:`JITCompileError`: the generated body is straight-line
Python that runs every statement once, in textual order.  Two things
a real device does are done here too: in the generators' canonical
bounds check the threads that take the exit branch are *retired*
(dropped from every value, not masked), and an access ``uniform +
width * gid`` — what the coalesced SoA layout makes of every plain
field access — is one block copy whose address is never formed, with
the literal gather as the fallback the same helper takes when its
exactness conditions do not hold (DESIGN.md §12).

That property is also what lets the JIT do the driver's register
allocation (:func:`allocate_slots`): the translators emit one local
per value, and a linear scan renames them onto as many reusable slots
as are ever live at once, so a launch holds *max-live* arrays rather
than one per instruction.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field

import numpy as np

from ..diagnostics import Severity, emit_warnings, errors, verify_mode
from ..memory.pool import ALIGNMENT
from ..ptx.absint import analyze_module
from ..ptx.cfg import build_cfg
from ..ptx.isa import (NUMPY_DTYPES, Immediate, Instruction, KernelInfo, PTXType,
                       Register, Special)
from ..ptx.liveness import max_live_registers
from ..ptx.module import PTXModule
from ..ptx.verifier import run_passes
from .parser import ParsedKernel, PTXParseError, parse_ptx


class JITCompileError(Exception):
    """The driver rejected a PTX program."""


#: PTX type -> NumPy scalar-constructor expression; the one dtype table
#: every generated kernel uses (view keys are ``NUMPY_DTYPES`` itself)
_NP_DTYPE = {t: f"np.{name}" for t, name in NUMPY_DTYPES.items()
             if t != PTXType.PRED}

_SHIFT = {4: 2, 8: 3}

_CMP_PY = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

_BIN_PY = {
    "add": "({a} + {b})",
    "sub": "({a} - {b})",
    "mul": "({a} * {b})",
    "mul.lo": "({a} * {b})",
    "min": "np.minimum({a}, {b})",
    "max": "np.maximum({a}, {b})",
    "and": "({a} & {b})",
    "or": "({a} | {b})",
    "xor": "({a} ^ {b})",
    "shl": "({a} << {b})",
    "shr": "({a} >> {b})",
    "rem": "np.fmod({a}, {b})",
}

_UN_PY = {
    "neg": "(-{a})",
    "abs": "np.abs({a})",
    "not": "(~{a})",
    "sqrt": "np.sqrt({a})",
    "rsqrt": "(1.0 / np.sqrt({a}))",
    "rcp": "(1.0 / {a})",
    "sin": "np.sin({a})",
    "cos": "np.cos({a})",
    "ex2": "np.exp2({a})",
    "lg2": "np.log2({a})",
    "floor": "np.floor({a})",
    "ceil": "np.ceil({a})",
    "trunc": "np.trunc({a})",
    "round": "np.rint({a})",
}

#: opcodes whose result is a function of their sources alone
_PURE = frozenset({"mov", "cvt", "setp", "selp", "fma", "mad.lo", "div",
                   *_BIN_PY, *_UN_PY})

#: the largest global thread id a launch binds (DESIGN.md §15): lanes
#: are elements of one NumPy array
_GID_MAX = 2**31 - 1


def _regname(r: Register) -> str:
    return f"R{r.type.reg_prefix[1:]}{r.index}"


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


#: the globals every generated kernel function is exec'd against
_RUNTIME = {"np": np, "_ld": _ld, "_st": _st, "_ldc": _ldc, "_stc": _stc,
            "_retire": _retire, "_mand": _mand}


@dataclass
class KernelArtifact:
    """Everything the process knows about one PTX program.

    Built once per distinct PTX text by :func:`compile_ptx` and kept in
    the process-wide kernel store (:mod:`repro.driver.cache`): the
    re-parsed instruction stream (the one that executes), the
    liveness-based register footprint, the modeled driver-JIT cost,
    the static-analysis diagnostics per launch env it was checked
    under, and one lazily built callable per execution backend.
    """

    name: str
    ptx_text: str
    parsed: ParsedKernel
    regs_per_thread: int = 0
    compile_seconds: float = 0.0     # measured: parse + analysis
    modeled_compile_seconds: float = 0.0   # the modeled NVIDIA-driver JIT
    #: env key -> diagnostics of the passes run under that launch env
    #: (empty for an artifact built under ``REPRO_VERIFY=off``)
    checked: dict = field(default_factory=dict)
    #: backend name -> launchable callable, built on first dispatch
    callables: dict = field(default_factory=dict)
    #: failed backend builds: backend name -> unsupported construct
    build_errors: dict = field(default_factory=dict)


class CompiledKernel:
    """One kernel cache's launch handle on a :class:`KernelArtifact`.

    Holds what is per view: the backend the view dispatched the kernel
    to (:func:`repro.driver.backends.select_backend`), its callable,
    and the view's launch accounting.  ``name`` and ``regs_per_thread``
    are copied so the launch path reads them off the handle.  A handle
    no cache has dispatched (a bare :func:`compile_ptx` result) runs
    the reference ``sim`` translation, built on its first launch.
    """

    def __init__(self, artifact: KernelArtifact):
        self.artifact = artifact
        self.name = artifact.name
        self.regs_per_thread = artifact.regs_per_thread
        #: the backend a launch dispatches to (set by the dispatch)
        self.backend: str | None = None
        self.func = self._launch_sim
        #: per-backend launch accounting, shared with the owning cache
        self.backend_stats = None

    parsed = property(lambda self: self.artifact.parsed)
    ptx_text = property(lambda self: self.artifact.ptx_text)
    compile_seconds = property(lambda self: self.artifact.compile_seconds)
    modeled_compile_seconds = property(
        lambda self: self.artifact.modeled_compile_seconds)

    def _launch_sim(self, views, params, grid_dim, block_dim):
        art = self.artifact
        if "sim" not in art.callables:
            art.callables["sim"] = build_sim_kernel(art.parsed)
        self.backend, self.func = "sim", art.callables["sim"]
        self.func(views, params, grid_dim, block_dim)

    def __call__(self, views, params, grid_dim, block_dim):
        if self.backend_stats is not None:
            self.backend_stats.note_launch(self.backend)
        self.func(views, params, grid_dim, block_dim)


#: a vector local of a translated body: a ``sim`` register (``Rfd12``)
#: or a ``cpu`` temporary (``_v12``) — never part of a longer name or
#: of a quoted parameter name (the look-behind sits after the leading
#: literal so the search for it stays a plain character scan)
_VECTOR_LOCAL = re.compile(r"((?:R(?<![\w']R)[a-z]+|_v(?<![\w']_v))\d+)")


def allocate_slots(lines: list[str]) -> tuple[list[str], int]:
    """Rename the vector locals of a translated body onto reusable slots.

    The body is straight-line: every statement runs once, in textual
    order.  One linear scan gives each name a slot ``_r<k>`` from its
    first to its last textual occurrence and hands a released slot to
    the next name that needs one, so rebinding it drops the dead
    array.  A statement releases the names that occur in it for the
    last time *before* it binds the name it defines — Python evaluates
    the right-hand side first, so a destination may take the slot an
    operand gives up.  Pure renaming: statements, their order and
    their operands are untouched.  Returns the renamed lines and the
    number of slots, which is the peak number of names held at once.
    """
    pieces = _VECTOR_LOCAL.split("\n".join(lines))   # text, name, text, ...
    end = len(pieces)
    last = dict(zip(pieces[1::2], range(1, end, 2)))
    slot_of: dict[str, str] = {}
    free: list[str] = []
    n_slots = 0
    born: list[int] = []      # this statement's occurrences of new names
    dying: list[str] = []     # names whose last occurrence is on it
    for k in range(1, end + 1, 2):        # k == end: past the last name
        if (born or dying) and (k == end or "\n" in pieces[k - 1]):
            # the previous statement is complete: release, then bind
            for name in dying:
                if name in slot_of:
                    free.append(slot_of.pop(name))
            for b in born:
                name = pieces[b]
                if name not in slot_of:
                    if not free:
                        free.append(f"_r{n_slots}")
                        n_slots += 1
                    slot_of[name] = free.pop()
                pieces[b] = slot_of[name]
            for name in dying:          # defined here and never read
                if name in slot_of:
                    free.append(slot_of.pop(name))
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


class _Translator:
    """Translates one parsed kernel into Python source.

    This is the reference (``sim``) visitor over the
    :class:`~repro.ptx.isa.Instruction` stream and the owner of the op
    tables, the mask/branch emission and the runtime helpers.  Other
    targets subclass it (:mod:`repro.llvm.cputarget`) and override the
    four hooks — :meth:`_operand`, :meth:`_view`, :meth:`_assign`,
    :meth:`_prologue` — plus the instructions they lower differently.
    """

    def __init__(self, parsed: ParsedKernel):
        self.parsed = parsed
        #: the body as emitted, one local per value (what
        #: :func:`allocate_slots` renames)
        self.lines: list[str] = []
        #: slots the allocated body uses (set by :meth:`translate`)
        self.n_slots = 0
        #: ``sim`` local -> the register it holds, in definition order
        self.defined: dict[str, Register] = {}
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
        self.labels = [] if self.canonical else [
            i.label for i in insts if i.opcode == "label"]
        self._placed: set[str] = set()      # labels already walked past
        #: where the retire statement goes and the locals it names
        #: (the lane vectors are only known once the walk is over)
        self._retire_at: tuple[int, list[str]] | None = None
        self.pos = 0                        # index of the instruction walked
        #: positions of the accesses emitted as ``_ldc`` / ``_stc``
        self.coalesced: list[int] = []
        #: unformed address register -> its (uniform, stride) operands
        self._deferred: dict[tuple, tuple[str, str]] = {}
        self._scan()

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    # -- what the stream says before it is walked ------------------------

    def _scan(self) -> None:
        """Classify registers in one pass (keys are ``Register.key``).

        ``_uniform``: the same value in every lane — ``ld.param``,
        immediates, ``%ntid`` and pure operations on those.
        ``_stride``: ``k`` where the value is exactly ``k * gid`` — the
        canonical ``mad.lo ctaid, ntid, tid`` through ``mov``, integer
        ``cvt`` and ``mul.lo`` / ``shl`` by an immediate, each step
        within its type's range for ``gid <= _GID_MAX``, so no step
        wraps.  Both describe the one value of a register defined
        once, without a guard: a second or guarded definition takes the
        register out of both.  ``_address_of``: the widths of the
        unguarded accesses a ``u64`` register is the address of;
        ``_formed``: the registers that have to exist — ``u64``
        registers used any other way, and every register defined twice
        or under a guard.
        """
        self._uniform: set[tuple] = set()
        self._stride: dict[tuple, int] = {}
        self._address_of: dict[tuple, set[int]] = {}
        self._formed: set[tuple] = set()
        special: dict[tuple, str] = {}      # mov of %tid / %ntid / %ctaid
        seen: set[tuple] = set()

        def which(op):
            return op.which if isinstance(op, Special) else (
                special.get(op.key) if isinstance(op, Register) else None)

        def uniform(op):
            return isinstance(op, Immediate) or which(op) == "ntid" or (
                isinstance(op, Register) and op.key in self._uniform)

        for inst in self.parsed.instructions:
            op, srcs = inst.opcode, inst.srcs
            access = inst.guard is None and op in ("ld.global", "st.global")
            for j, src in enumerate(srcs):
                if isinstance(src, Register) and src.type is PTXType.U64:
                    if access and j == 0:
                        self._address_of.setdefault(src.key, set()).add(
                            inst.type.nbytes)
                    else:
                        self._formed.add(src.key)
            dst = inst.dst
            if dst is None:
                continue
            key = dst.key
            rebound = key in seen or inst.guard is not None
            seen.add(key)
            if rebound:
                self._formed.add(key)
                self._uniform.discard(key)
                self._stride.pop(key, None)
                special.pop(key, None)
                continue
            if op == "mov" and isinstance(srcs[0], Special):
                special[key] = srcs[0].which
            if op == "ld.param" or (op in _PURE and all(map(uniform, srcs))):
                self._uniform.add(key)
                continue
            if not dst.type.is_int:
                continue
            k = None
            if op in ("mov", "cvt"):
                k = self._stride_of(srcs[0])
            elif op == "mad.lo":
                if tuple(map(which, srcs)) == ("ctaid", "ntid", "tid"):
                    k = 1
            elif op in ("mul", "mul.lo", "shl"):
                a, b = srcs
                if op != "shl" and isinstance(a, Immediate):
                    a, b = b, a
                if isinstance(b, Immediate) and self._stride_of(a) is not None:
                    c = int(b.value)
                    if op == "shl":
                        c = 1 << c if 0 <= c < 64 else None
                    if c is not None:
                        k = self._stride_of(a) * c
            if k is not None:
                lo, hi = dst.type.int_range
                if lo <= min(0, k * _GID_MAX) and max(0, k * _GID_MAX) <= hi:
                    self._stride[key] = k

    def _stride_of(self, op) -> int | None:
        return self._stride.get(op.key) if isinstance(op, Register) else None

    def _coalescable(self, inst: Instruction) -> tuple | None:
        """``(uniform, stride)`` sources of an ``add.u64`` that need not
        be formed: every use of its result is the address of an
        unguarded access exactly as wide as the stride."""
        if inst.type is not PTXType.U64 or inst.guard is not None:
            return None
        key = inst.dst.key
        widths = self._address_of.get(key, ())
        if len(widths) != 1 or key in self._formed:
            return None
        (width,) = widths
        for u, s in (inst.srcs, inst.srcs[::-1]):
            if width in _SHIFT and self._stride_of(s) == width and (
                    isinstance(u, Immediate) or (
                        isinstance(u, Register) and u.key in self._uniform)):
                return u, s
        return None

    # -- hooks ---------------------------------------------------------

    def _operand(self, op, itype: PTXType) -> str:
        """The Python expression reading operand ``op``."""
        if isinstance(op, Register):
            name = _regname(op)
            if name not in self.defined:
                # once slots are reused this would read a stale value
                # where the unallocated body raised a NameError
                raise JITCompileError(
                    f"kernel {self.parsed.name!r}: {op.name} is read "
                    f"before any instruction defines it")
            return name
        if isinstance(op, Immediate):
            t = op.type if op.type != PTXType.PRED else itype
            return f"{_NP_DTYPE[t]}({op.value!r})"
        if isinstance(op, Special):
            return {"tid": "_tid", "ntid": "_ntid", "ctaid": "_ctaid"}[op.which]
        raise JITCompileError(f"bad operand {op!r}")

    def _view(self, t: PTXType) -> str:
        """The expression naming the device-memory view of type ``t``."""
        return f"_V[{NUMPY_DTYPES[t]!r}]"

    def _assign(self, inst: Instruction, expr: str, em: str | None = None) -> None:
        """Assign ``expr`` to the destination, honoring the guard
        (``em``: the effective mask, when the caller already emitted it)."""
        dst = _regname(inst.dst)
        if inst.guard is not None:
            em = em or self._effective_mask(inst)
            if dst in self.defined:
                expr = f"np.where({em}, {expr}, {dst})"
        self.emit(f"{dst} = {expr}")
        self.defined[dst] = inst.dst

    def _prologue(self) -> list[str]:
        """The lines between the ``def`` and the translated body."""
        return [
            "    _nt = _gd * _bd",
            "    _gl = np.arange(_nt, dtype=np.uint32)",
            "    _tid = _gl % np.uint32(_bd)",
            "    _ctaid = _gl // np.uint32(_bd)",
            "    _ntid = np.uint32(_bd)",
            "    _m = None",
            "    _pre = True",
        ]

    def _lane_vectors(self) -> list[str]:
        """The prologue's per-lane locals a retirement must shorten."""
        return ["_tid", "_ctaid"]

    def _vector_locals(self) -> list[str]:
        """Every local defined so far that may hold one value per lane."""
        return [name for name, reg in self.defined.items()
                if reg.key not in self._uniform
                and reg.key not in self._deferred]

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

    def translate(self) -> str:
        for lbl in self.labels:
            self.emit(f"_pend_{lbl[1:]} = None")
        for self.pos, inst in enumerate(self.parsed.instructions):
            self._translate_inst(inst)
        if self._retire_at is not None:
            at, names = self._retire_at
            names = names + self._lane_vectors()
            self.lines[at] = (
                f"        {', '.join(['_nt', '_pre'] + names)} = "
                f"_retire({', '.join(['_x'] + names)})")
        body, self.n_slots = allocate_slots(self.lines)
        head = [f"def _kernel_{self.parsed.name}(_V, _P, _gd, _bd):"]
        return "\n".join(head + self._prologue() + body
                         + ["    return None"]) + "\n"

    def _access(self, kind: str, inst: Instruction, addr, sh: int,
                tail: str) -> str:
        """The call performing a global access: through the two halves
        of an unformed coalesced address, else through the address."""
        view = self._view(inst.type)
        parts = self._deferred.get(addr.key) \
            if isinstance(addr, Register) else None
        if parts is None:
            return (f"_{kind}({view}, {self._operand(addr, PTXType.U64)}, "
                    f"{sh}, {tail})")
        self.coalesced.append(self.pos)
        return f"_{kind}c({view}, {parts[0]}, {parts[1]}, {sh}, {tail}, _pre)"

    def _shift(self, inst: Instruction) -> int:
        """log2 of the word size of a global access."""
        sh = _SHIFT.get(inst.type.nbytes)
        if sh is None:
            raise JITCompileError(
                f"kernel {self.parsed.name!r}: '{inst.render()}' — there "
                f"is no device view of type .{inst.type.value}")
        return sh

    def _translate_inst(self, inst: Instruction) -> None:
        op = inst.opcode
        if self.canonical and op in ("bra", "label", "ret"):
            if op == "bra":
                # retire the exiting lanes; nothing runs for them again,
                # so the label and the ret have nothing left to do
                self.emit(f"_x = {self._guard(inst)}")
                self.emit("if _x.any():")
                self._retire_at = (len(self.lines), self._vector_locals())
                self.emit("    <retire>")
                self.emit("    if _nt == 0: return None")
            return
        if op == "label":
            lbl = inst.label[1:]
            self._placed.add(inst.label)
            self.emit(f"if _pend_{lbl} is not None:")
            self.emit(f"    _m = _pend_{lbl} if _m is None else (_m | _pend_{lbl})")
            self.emit(f"    _pend_{lbl} = None")
            self.emit("    if _m is not None and _m.all(): _m = None")
            return
        if op == "bra":
            if inst.label in self._placed:
                # the body runs top to bottom once: lanes parked on a
                # label already passed would never resume
                raise JITCompileError(
                    f"kernel {self.parsed.name!r}: backward branch to "
                    f"{inst.label!r} — the JIT translates forward "
                    f"branches only")
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
            self._assign(inst, f"{_NP_DTYPE[inst.type]}(_P[{pname!r}])")
            return
        if op == "ld.global":
            (addr,) = inst.srcs
            sh = self._shift(inst)
            em = self._effective_mask(inst)
            # guarded-off lanes keep the old value (via _assign), not
            # the word _ld read from the safe address
            self._assign(inst, self._access("ld", inst, addr, sh, em), em)
            return
        if op == "st.global":
            addr, val = inst.srcs
            sh = self._shift(inst)
            v = self._operand(val, inst.type)
            self.emit(self._access("st", inst, addr, sh,
                                   f"{v}, {self._effective_mask(inst)}"))
            return
        if op == "add":
            parts = self._coalescable(inst)
            if parts is not None:
                # never formed: its accesses take the two halves
                u, s = (self._operand(x, PTXType.U64) for x in parts)
                self._deferred[inst.dst.key] = (u, s)
                self.defined[_regname(inst.dst)] = inst.dst
                return
        if op == "mov":
            (src,) = inst.srcs
            self._assign(inst, self._operand(src, inst.type))
            return
        if op == "cvt":
            (src,) = inst.srcs
            s = self._operand(src, inst.src_type)
            if inst.type.is_int and inst.src_type.is_float:
                expr = f"np.trunc({s}).astype({_NP_DTYPE[inst.type]})"
            else:
                expr = f"np.asarray({s}).astype({_NP_DTYPE[inst.type]})"
            self._assign(inst, expr)
            return
        if op == "setp":
            a, b = inst.srcs
            ea = self._operand(a, inst.type)
            eb = self._operand(b, inst.type)
            self._assign(inst, f"({ea} {_CMP_PY[inst.cmp]} {eb})")
            return
        if op == "selp":
            a, b, pred = inst.srcs
            ep = self._operand(pred, PTXType.PRED)
            ea = self._operand(a, inst.type)
            eb = self._operand(b, inst.type)
            self._assign(inst, f"np.where({ep}, {ea}, {eb})")
            return
        if op in ("fma", "mad.lo"):
            a, b, c = (self._operand(s, inst.type) for s in inst.srcs)
            self._assign(inst, f"({a} * {b} + {c})")
            return
        if op == "div":
            a, b = (self._operand(s, inst.type) for s in inst.srcs)
            if inst.type.is_float:
                self._assign(inst, f"({a} / {b})")
            else:
                # PTX integer division truncates toward zero.
                self._assign(
                    inst,
                    f"np.trunc(np.asarray({a}, np.float64) / "
                    f"np.asarray({b}, np.float64)).astype({_NP_DTYPE[inst.type]})")
            return
        if op in _BIN_PY:
            a, b = (self._operand(s, inst.type) for s in inst.srcs)
            self._assign(inst, _BIN_PY[op].format(a=a, b=b))
            return
        if op in _UN_PY:
            (a,) = (self._operand(s, inst.type) for s in inst.srcs)
            self._assign(inst, _UN_PY[op].format(a=a))
            return
        raise JITCompileError(f"unsupported opcode {op!r}")


def build_sim_kernel(parsed: ParsedKernel):
    """The reference (``sim``) callable for a parsed kernel."""
    source = _Translator(parsed).translate()
    namespace = dict(_RUNTIME)
    exec(compile(source, f"<ptxjit:{parsed.name}>", "exec"), namespace)
    return namespace[f"_kernel_{parsed.name}"]


def _env_key(env):
    """Hashable identity of a launch env (frozen, but holds dicts)."""
    if env is None:
        return None
    return (env.block_size, env.grid_size,
            tuple(sorted(env.scalars.items())),
            tuple(sorted(env.regions.items())))


def verify_artifact(artifact: KernelArtifact, env=None, replay: bool = True):
    """The JIT's one verification point, memoised per launch env.

    Every PTX program entering the JIT — generated or hand-written —
    passes through the verifier pipeline on its *re-parsed* stream, so
    malformed kernels fail at compile time with diagnostics instead of
    as downstream evaluator failures.  A digest already checked under
    ``env`` is not analysed again: its stored diagnostics are reported
    again (``replay``: the first time a cache sees the kernel) or only
    enforced (error-severity findings still raise under ``error``).
    Strictness follows ``REPRO_VERIFY`` (off / warn / error; see
    :mod:`repro.diagnostics`).  Returns the
    :class:`~repro.ptx.absint.KernelAnalysis` when one was computed.
    """
    mode = verify_mode()
    if mode == "off":
        return None
    key = _env_key(env)
    diagnostics = artifact.checked.get(key)
    analysis = None
    if diagnostics is None:
        parsed = artifact.parsed
        module = PTXModule(
            info=KernelInfo(name=parsed.name, params=list(parsed.params)),
            instructions=list(parsed.instructions))
        # the one CFG absint, liveness and every verifier pass read
        cfg = build_cfg(module.instructions)
        analysis = analyze_module(module, env=env, cfg=cfg)
        diagnostics = run_passes(module, env=env, analysis=analysis,
                                 cfg=cfg)
        artifact.checked[key] = diagnostics
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
            f"static verification of kernel {artifact.name!r} failed:\n"
            + "\n".join(d.render() for d in errs))
    return analysis


def compile_ptx(ptx_text: str, env=None) -> CompiledKernel:
    """JIT-compile a PTX module's text into an executable kernel.

    Parses the text, verifies the parsed stream once under the
    caller's launch ``env`` (a :class:`~repro.ptx.absint.KernelEnv`;
    gated by ``REPRO_VERIFY``) and sizes the register footprint from
    that one analysis.  No backend callable is built here — the
    kernel cache's dispatch builds the selected one.  Raises
    :class:`JITCompileError` on malformed or rejected input.
    """
    t0 = time.perf_counter()
    try:
        parsed = parse_ptx(ptx_text)
    except PTXParseError as exc:
        raise JITCompileError(f"parse error: {exc}") from exc
    artifact = KernelArtifact(
        name=parsed.name, ptx_text=ptx_text, parsed=parsed,
        modeled_compile_seconds=modeled_jit_time(len(parsed.instructions)))
    analysis = verify_artifact(artifact, env)
    # The real driver JIT performs register allocation; the SSA-style
    # .reg declarations wildly overstate pressure.  Use liveness,
    # capped at the Kepler per-thread hardware maximum of 255 — beyond
    # that a real compiler spills to local memory rather than failing.
    live = (analysis.max_live_regs if analysis is not None
            else max_live_registers(parsed.instructions))
    artifact.regs_per_thread = max(min(live, 255), 8)
    artifact.compile_seconds = time.perf_counter() - t0
    return CompiledKernel(artifact)
