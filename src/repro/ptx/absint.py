"""Abstract interpretation of PTX kernels.

The verifier's original bounds check was a *heuristic* (is the access
dominated by a ``tid < nsites`` guard?), and nothing checked that the
addresses the code generators emit actually realize the coalesced SoA
layout ``I(iV,iS,iC,iR) = ((iR*I_C + iC)*I_S + iS)*I_V + iV`` the
paper's performance rests on.  This module *proves* such properties at
compile time by abstractly interpreting the kernel over its CFG with
two cooperating domains:

**Interval/affine domain.**  Every register is tracked as an interval
``[lo, hi]`` plus, where possible, an exact affine form
``const + sum(c_i * sym_i)`` over a small set of symbols: the special
registers (``%tid.x``, ``%ctaid.x``), scalar kernel parameters, and
the results of global loads.  Pointer parameters carry a *region*
provenance, so a global access decomposes into ``region + offset``
with a proven offset interval.  Branch edges refine intervals with the
branch predicate (the generators' ``setp.ge gid, n; @p bra EXIT``
pattern caps ``gid`` at ``n-1`` on the fall-through edge), which is
what turns the guard from a structural pattern into an arithmetic
fact.

**Uniformity (divergence) domain.**  Every value is classified
warp-uniform (all threads of a warp agree) or thread-varying.
``%tid.x`` is varying, ``%ctaid.x`` and parameters are uniform, loads
are uniform iff their address is, and arithmetic preserves uniformity.
Branches on varying predicates diverge; the generators' early-exit
bounds branch is recognized as benign (one side does no work).

Seeding comes from a :class:`KernelEnv` describing what the driver
binds at launch (:mod:`repro.driver.jitcompiler` binds typed data
views; the evaluator records the env per generated kernel): exact
scalar parameter values (``p_lo`` = nsites), pointer region sizes
(``nsites * bytes_per_site`` for field views), and the content range /
bulk stride of site tables (shift gather maps are unit-stride away
from the lattice wrap).  Without an env a generic one is used —
regions of unknown size — under which bounds verdicts degrade to the
guard heuristic and coalescing facts to "unknown", never to unsound
claims.

The results feed three verifier passes (:mod:`repro.ptx.verifier`),
the lint report (``python -m repro.lint``), the kernel performance
model (:mod:`repro.perfmodel.kernelperf` consumes transactions per
warp) and the auto-tuner's static occupancy seed
(:mod:`repro.device.autotune`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .cfg import CFG, build_cfg
from .isa import Immediate, PTXType, Register, Special
from .module import PTXModule

INF = math.inf

#: Warp width and memory-transaction granularity of the modeled device
#: (Kepler: 32 threads per warp, 128-byte L1 cache lines).
WARP = 32
SEGMENT = 128

_NEGATE = {"lt": "ge", "ge": "lt", "le": "gt", "gt": "le",
           "eq": "ne", "ne": "eq"}

#: source operands an opcode needs before it can be interpreted
_ARITY = {"add": 2, "sub": 2, "mul": 2, "mul.lo": 2, "mul.wide": 2,
          "fma": 3, "mad.lo": 3, "shl": 2, "shr": 2, "div": 2,
          "min": 2, "max": 2, "selp": 3}

#: fixpoint rounds after which intervals still moving are widened
_WIDEN_AFTER = 64


# --- launch environment -----------------------------------------------------

@dataclass(frozen=True)
class MemRegion:
    """What the driver will bind to one pointer parameter.

    ``size_bytes`` bounds the view (``None`` = unknown).  For int32
    site tables, ``elem_range`` is the interval of the stored values
    and ``elem_stride`` the *bulk* stride ``table[i+1] - table[i]``
    (shift gather maps are unit-stride except at the lattice wrap,
    where the deviation is amortized over the volume).
    """

    param: str
    size_bytes: int | None = None
    elem_range: tuple[int, int] | None = None
    elem_stride: int | None = None


@dataclass(frozen=True)
class KernelEnv:
    """Known launch-time facts seeding the abstract interpreter.

    ``block_size``/``grid_size`` fix a reference launch geometry
    (coalescing strides and bounds proofs are geometry-independent
    whenever the generated ``gid < n`` guard is present, since the
    edge refinement caps the site index regardless of the block
    shape).  ``scalars`` maps scalar parameter names to exact values
    or ``(lo, hi)`` ranges; ``regions`` maps pointer parameter names
    to :class:`MemRegion`.
    """

    block_size: int = 128
    grid_size: int = 1 << 22
    scalars: dict = field(default_factory=dict)
    regions: dict = field(default_factory=dict)

    @classmethod
    def generic(cls, params) -> "KernelEnv":
        """The no-information env: pointer regions of unknown size."""
        return cls(regions={p.name: MemRegion(p.name)
                            for p in params if p.is_pointer})

    def scalar_range(self, name: str) -> tuple[float, float] | None:
        v = self.scalars.get(name)
        if v is None:
            return None
        if isinstance(v, tuple):
            return (float(v[0]), float(v[1]))
        return (float(v), float(v))


def merge_envs(a: KernelEnv, b: KernelEnv) -> KernelEnv:
    """Widen two launch environments of the *same* kernel into one
    covering both launches (one compiled kernel serves many bindings:
    every shift direction, every subset).  Scalars widen to ranges,
    region sizes take the minimum guaranteed bound, strides survive
    only when they agree."""
    if a == b:
        return a
    scalars = {}
    for k in set(a.scalars) & set(b.scalars):
        ra, rb = a.scalar_range(k), b.scalar_range(k)
        scalars[k] = (min(ra[0], rb[0]), max(ra[1], rb[1]))
    regions = {}
    for k in set(a.regions) & set(b.regions):
        ra, rb = a.regions[k], b.regions[k]
        if ra.size_bytes is None or rb.size_bytes is None:
            size = None
        else:
            size = min(ra.size_bytes, rb.size_bytes)
        if ra.elem_range is None or rb.elem_range is None:
            erange = None
        else:
            erange = (min(ra.elem_range[0], rb.elem_range[0]),
                      max(ra.elem_range[1], rb.elem_range[1]))
        stride = ra.elem_stride if ra.elem_stride == rb.elem_stride else None
        regions[k] = MemRegion(k, size, erange, stride)
    return KernelEnv(block_size=a.block_size,
                     grid_size=max(a.grid_size, b.grid_size),
                     scalars=scalars, regions=regions)


def table_region(param: str, values) -> MemRegion:
    """Describe an int32 site table (shift map / subset list) as a
    region: measured content range and bulk stride."""
    import numpy as np

    arr = np.asarray(values)
    stride = None
    if arr.size > 1:
        diffs = np.diff(arr)
        s = int(np.median(diffs))
        # "bulk" stride: the stride of the majority of entries (wrap
        # boundaries deviate; they are O(surface/volume) of the table)
        if (diffs == s).mean() >= 0.5:
            stride = s
    elif arr.size == 1:
        stride = 0
    lo = int(arr.min()) if arr.size else 0
    hi = int(arr.max()) if arr.size else 0
    return MemRegion(param, size_bytes=4 * int(arr.size),
                     elem_range=(lo, hi), elem_stride=stride)


# --- abstract values --------------------------------------------------------

@dataclass(frozen=True)
class SymInfo:
    """Range, %tid.x-derivative and uniformity of one symbol."""

    lo: float
    hi: float
    dtid: float | None
    uniform: bool


class AbsVal(NamedTuple):
    """One register's abstraction: interval x affine form x provenance.

    ``affine`` is a sorted tuple of ``(symbol, coefficient)`` terms
    with constant ``const`` (``affine=()`` means an exact constant);
    ``affine=None`` means the value is not affine (interval only).
    ``base`` names the pointer-parameter region the value points into,
    in which case the interval is the *offset from the region base*.
    """

    lo: float
    hi: float
    affine: tuple | None = None
    const: float = 0.0
    base: str | None = None
    uniform: bool = False

    @property
    def is_const(self) -> bool:
        return self.affine == () or (self.lo == self.hi
                                     and not math.isinf(self.lo))


def _const_val(v: float, uniform: bool = True) -> AbsVal:
    v = float(v)
    return AbsVal(v, v, (), v, None, uniform)


def _range(t: PTXType | None) -> tuple[float, float]:
    return (t.int_range if t is not None else None) or (-INF, INF)


#: the immutable "nothing known" values, one per (type, uniformity)
_TOP = {(t, u): AbsVal(*_range(t), None, 0.0, None, u)
        for t in (None, *PTXType) for u in (False, True)}


def _top(t: PTXType | None, uniform: bool = False) -> AbsVal:
    return _TOP[t, uniform]


def _iadd(x: float, y: float) -> float:
    # inf-safe addition (never produces NaN from -inf + inf)
    if math.isinf(x):
        return x
    if math.isinf(y):
        return y
    return x + y


def _add(a: AbsVal, b: AbsVal) -> AbsVal:
    if a.base is not None and b.base is not None:
        return AbsVal(-INF, INF, None, 0.0, None, a.uniform and b.uniform)
    base = a.base if a.base is not None else b.base
    if a.affine is None or b.affine is None:
        affine, const = None, 0.0
    else:
        terms = dict(a.affine)
        for s, c in b.affine:
            nc = terms.get(s, 0.0) + c
            if nc == 0.0:
                terms.pop(s, None)
            else:
                terms[s] = nc
        affine, const = tuple(sorted(terms.items())), a.const + b.const
    return AbsVal(_iadd(a.lo, b.lo), _iadd(a.hi, b.hi), affine, const,
                  base, a.uniform and b.uniform)


def _scale(a: AbsVal, c: float) -> AbsVal:
    if c == 0.0:
        return _const_val(0.0, True)
    lo, hi = sorted((a.lo * c, a.hi * c))
    if a.affine is None:
        affine, const = None, 0.0
    else:
        affine = tuple(sorted((s, k * c) for s, k in a.affine))
        const = a.const * c
    return AbsVal(lo, hi, affine, const,
                  a.base if c == 1.0 else None, a.uniform)


def _mul(a: AbsVal, b: AbsVal) -> AbsVal:
    if a.is_const:
        return _scale(b, a.lo)
    if b.is_const:
        return _scale(a, b.lo)
    cands = []
    for x in (a.lo, a.hi):
        for y in (b.lo, b.hi):
            if math.isinf(x) or math.isinf(y):
                cands.append(-INF if (x < 0) != (y < 0) else INF)
            else:
                cands.append(x * y)
    return AbsVal(min(cands), max(cands), None, 0.0, None,
                  a.uniform and b.uniform)


def _join(a: AbsVal, b: AbsVal) -> AbsVal:
    base = a.base if a.base == b.base else None
    if a.affine is not None and a.affine == b.affine and a.const == b.const:
        affine, const = a.affine, a.const
        uniform = a.uniform and b.uniform
    else:
        affine, const = None, 0.0
        uniform = (a.uniform and b.uniform
                   and a.lo == a.hi == b.lo == b.hi)
    return AbsVal(min(a.lo, b.lo), max(a.hi, b.hi), affine, const,
                  base, uniform)


def _clamp(v: AbsVal, t: PTXType | None) -> AbsVal:
    """Fall to the type's full range when the interval escapes it
    (models two's-complement wraparound soundly)."""
    rng = t.int_range if t is not None else None
    if rng is None:
        return v
    lo, hi = rng
    if v.lo < lo or v.hi > hi:
        return AbsVal(lo, hi, None, 0.0, None, v.uniform)
    return v


# --- predicates and interpreter state --------------------------------------

@dataclass(frozen=True)
class _Pred:
    """The comparison a predicate register was produced by."""

    cmp: str
    typ: PTXType
    lkey: tuple | None
    rkey: tuple | None
    lval: AbsVal
    rval: AbsVal
    uniform: bool


@dataclass
class _State:
    regs: dict = field(default_factory=dict)
    preds: dict = field(default_factory=dict)

    def copy(self) -> "_State":
        return _State(dict(self.regs), dict(self.preds))

    def __eq__(self, other):
        return (isinstance(other, _State) and self.regs == other.regs
                and self.preds == other.preds)


def _state_join(a: _State, b: _State) -> _State:
    regs = {k: _join(v, b.regs[k]) for k, v in a.regs.items()
            if k in b.regs}
    preds = {k: v for k, v in a.preds.items() if b.preds.get(k) == v}
    return _State(regs, preds)


def _state_widen(old: _State, new: _State) -> _State:
    """``new`` with every bound that moved since ``old`` dropped to
    infinity and every predicate that changed forgotten, so a loop the
    plain iteration cannot settle (a pointer bumped once per trip)
    reaches a sound fixpoint instead of being cut off mid-climb."""
    regs = {}
    for k, v in new.regs.items():
        o = old.regs.get(k)
        if o is not None and o != v:
            v = AbsVal(o.lo if o.lo <= v.lo else -INF,
                       o.hi if o.hi >= v.hi else INF, None, 0.0,
                       v.base if v.base == o.base else None,
                       v.uniform and o.uniform)
        regs[k] = v
    preds = {k: p for k, p in new.preds.items() if old.preds.get(k) == p}
    return _State(regs, preds)


# --- analysis results -------------------------------------------------------

@dataclass
class AccessFact:
    """Everything proven about one global memory access."""

    pos: int                       # instruction index
    opcode: str                    # ld.global / st.global
    width: int                     # bytes per element
    region: str | None             # pointer parameter accessed through
    offset: tuple | None           # proven (lo, hi) byte offset range
    stride_bytes: float | None     # d(address)/d(%tid.x); None unknown
    uniform: bool                  # address warp-uniform (broadcast)
    verdict: str                   # proven | oob | guarded | unguarded
    transactions: float | None     # est. memory transactions per warp
    ideal_transactions: int        # transactions at perfect coalescing

    @property
    def coalesced(self) -> bool | None:
        """True/False when the stride is known, else None."""
        if self.transactions is None:
            return None
        return self.transactions <= self.ideal_transactions


@dataclass
class BranchFact:
    """Divergence classification of one branch."""

    pos: int
    uniform: bool        # predicate warp-uniform (or unconditional)
    benign_exit: bool    # taken side does no work (bounds early-exit)


@dataclass
class KernelAnalysis:
    """The per-kernel fact sheet the analysis passes and reports use."""

    name: str
    env: KernelEnv
    accesses: list = field(default_factory=list)
    branches: list = field(default_factory=list)
    max_live_regs: int = 0

    # -- bounds -----------------------------------------------------
    @property
    def n_proven(self) -> int:
        return sum(1 for a in self.accesses if a.verdict == "proven")

    @property
    def n_heuristic(self) -> int:
        return sum(1 for a in self.accesses if a.verdict == "guarded")

    @property
    def n_unguarded(self) -> int:
        return sum(1 for a in self.accesses
                   if a.verdict in ("unguarded", "oob"))

    @property
    def bounds_proven(self) -> bool:
        return all(a.verdict == "proven" for a in self.accesses)

    # -- coalescing -------------------------------------------------
    @property
    def transactions_per_warp(self) -> float:
        """Estimated transactions one warp issues across all accesses
        (unknown strides counted at the 32-transaction worst case)."""
        return float(sum(a.transactions if a.transactions is not None
                         else WARP for a in self.accesses))

    @property
    def ideal_transactions_per_warp(self) -> float:
        return float(sum(a.ideal_transactions for a in self.accesses))

    @property
    def memory_efficiency(self) -> float:
        """Ideal / estimated transactions — the fraction of the
        streaming bandwidth the access pattern can use (1.0 = fully
        coalesced)."""
        actual = self.transactions_per_warp
        if actual <= 0.0:
            return 1.0
        return self.ideal_transactions_per_warp / actual

    @property
    def fully_coalesced(self) -> bool:
        return all(a.coalesced is True or a.uniform for a in self.accesses)

    # -- divergence -------------------------------------------------
    @property
    def divergent_branches(self) -> list:
        return [b for b in self.branches
                if not b.uniform and not b.benign_exit]


# --- the interpreter --------------------------------------------------------

class _Interp:
    def __init__(self, module: PTXModule, cfg: CFG, env: KernelEnv):
        self.module = module
        self.cfg = cfg
        self.env = env
        self.params = {p.name: p for p in module.info.params}
        self.syms: dict[str, SymInfo] = {
            "tid": SymInfo(0, env.block_size - 1, 1.0, False),
            "ctaid": SymInfo(0, env.grid_size - 1, 0.0, True),
        }
        #: noted while sweeping, per instruction position; a block
        #: swept again (cyclic CFGs only) overwrites its earlier notes
        self.addresses: dict[int, AbsVal] = {}
        self.branches: dict[int, BranchFact] = {}

    # -- symbols -----------------------------------------------------

    def _sym_val(self, name: str, base: str | None = None) -> AbsVal:
        info = self.syms[name]
        return AbsVal(info.lo, info.hi, ((name, 1.0),), 0.0, base,
                      info.uniform)

    def _ensure_sym(self, name: str, info: SymInfo) -> None:
        old = self.syms.get(name)
        if old is None:
            self.syms[name] = info
        elif old != info:
            # widen (keeps the fixpoint monotone)
            self.syms[name] = SymInfo(
                min(old.lo, info.lo), max(old.hi, info.hi),
                old.dtid if old.dtid == info.dtid else None,
                old.uniform and info.uniform)

    def dtid(self, v: AbsVal) -> float | None:
        """d(value)/d(%tid.x) — the per-thread stride of the value."""
        if v.uniform:
            return 0.0
        if v.affine is None:
            return None
        total = 0.0
        for s, c in v.affine:
            info = self.syms.get(s)
            d = info.dtid if info is not None else 0.0
            if d is None:
                return None
            total += c * d
        return total

    # -- operand / instruction evaluation ----------------------------

    def operand(self, op, state: _State) -> AbsVal:
        if isinstance(op, Register):
            v = state.regs.get(op.key)
            return v if v is not None else _top(op.type)
        if isinstance(op, Immediate):
            if isinstance(op.value, (int, float)):
                return _const_val(op.value)
            return AbsVal(-INF, INF, None, 0.0, None, True)
        if isinstance(op, Special):
            if op.which == "ntid":
                return _const_val(self.env.block_size)
            return self._sym_val(op.which)
        return _top(None)

    def _ld_param(self, inst) -> AbsVal:
        (pref,) = inst.srcs
        pname = getattr(pref, "pname", None)
        param = self.params.get(pname)
        if param is not None and param.is_pointer:
            return AbsVal(0.0, 0.0, (), 0.0, pname, True)
        rng = self.env.scalar_range(pname) if pname else None
        if rng is not None and rng[0] == rng[1]:
            return _const_val(rng[0])
        sym = f"param:{pname}"
        lo, hi = rng if rng is not None else _range(inst.type)
        self._ensure_sym(sym, SymInfo(lo, hi, 0.0, True))
        return self._sym_val(sym)

    def _ld_global(self, inst, addr: AbsVal, pos: int) -> AbsVal:
        region = self.env.regions.get(addr.base) if addr.base else None
        uniform = addr.uniform
        if region is not None and region.elem_range is not None:
            lo, hi = region.elem_range
        else:
            lo, hi = _range(inst.type)
        if uniform:
            d = 0.0
        elif region is not None and region.elem_stride is not None:
            ad = self.dtid(addr)
            d = (region.elem_stride * ad / inst.type.nbytes
                 if ad is not None else None)
        else:
            d = None
        sym = f"load:{pos}"
        self._ensure_sym(sym, SymInfo(lo, hi, d, uniform))
        return self._sym_val(sym)

    def _cvt(self, inst, v: AbsVal) -> AbsVal:
        src_t, dst_t = inst.src_type, inst.type
        if dst_t.is_int and src_t is not None and src_t.is_float:
            # trunc toward zero is monotone on intervals
            lo = math.trunc(v.lo) if not math.isinf(v.lo) else v.lo
            hi = math.trunc(v.hi) if not math.isinf(v.hi) else v.hi
            return _clamp(AbsVal(lo, hi, None, 0.0, None, v.uniform), dst_t)
        if dst_t.is_int:
            if (src_t is not None and src_t.is_int
                    and dst_t.nbytes >= src_t.nbytes):
                # widening keeps the value; equal-width reinterpretation
                # keeps it mod 2^64, which is what addressing computes in
                return v
            return _clamp(v, dst_t)
        return v._replace(base=None)  # float target: keep interval/affine

    def eval_inst(self, inst, state: _State, pos: int) -> AbsVal:
        op = inst.opcode
        t = inst.type
        if op == "mov":
            return self.operand(inst.srcs[0], state)
        if op == "ld.param":
            return self._ld_param(inst)
        if op == "cvt":
            return self._cvt(inst, self.operand(inst.srcs[0], state))
        if op == "ld.global":
            return self._ld_global(inst, self.operand(inst.srcs[0], state),
                                   pos)
        srcs = [self.operand(s, state) for s in inst.srcs]
        if len(srcs) < _ARITY.get(op, 1):
            return _top(t)          # malformed; the operands pass reports it
        if op == "add":
            return _clamp(_add(srcs[0], srcs[1]), t)
        if op == "sub":
            return _clamp(_add(srcs[0], _scale(srcs[1], -1.0)), t)
        if op in ("mul", "mul.lo", "mul.wide"):
            return _clamp(_mul(srcs[0], srcs[1]), t)
        if op in ("fma", "mad.lo"):
            return _clamp(_add(_mul(srcs[0], srcs[1]), srcs[2]), t)
        if op == "shl":
            b = srcs[1]
            if b.is_const and b.lo >= 0:
                return _clamp(_scale(srcs[0], float(2 ** int(b.lo))), t)
            return _top(t, all(s.uniform for s in srcs))
        if op in ("shr", "div") and t is not None and t.is_int:
            b = srcs[1]
            a = srcs[0]
            if op == "shr" and b.is_const and b.lo >= 0:
                c = float(2 ** int(b.lo))
            elif op == "div" and b.is_const and b.lo > 0:
                c = float(b.lo)
            else:
                return _top(t, all(s.uniform for s in srcs))
            lo = a.lo / c if not math.isinf(a.lo) else a.lo
            hi = a.hi / c if not math.isinf(a.hi) else a.hi
            lo = math.trunc(lo) if not math.isinf(lo) else lo
            hi = math.trunc(hi) if not math.isinf(hi) else hi
            return AbsVal(min(lo, hi), max(lo, hi), None, 0.0, None,
                          a.uniform and b.uniform)
        if op == "neg":
            return _clamp(_scale(srcs[0], -1.0), t)
        if op == "abs":
            a = srcs[0]
            lo = 0.0 if a.lo < 0 <= a.hi else min(abs(a.lo), abs(a.hi))
            hi = max(abs(a.lo), abs(a.hi))
            return AbsVal(lo, hi, None, 0.0, None, a.uniform)
        if op in ("min", "max"):
            pick = min if op == "min" else max
            return AbsVal(pick(srcs[0].lo, srcs[1].lo),
                          pick(srcs[0].hi, srcs[1].hi), None, 0.0, None,
                          srcs[0].uniform and srcs[1].uniform)
        if op == "setp":
            return AbsVal(0.0, 1.0, None, 0.0, None,
                          all(s.uniform for s in srcs))
        if op == "selp":
            a, b, p = srcs
            v = _join(a, b)
            return v._replace(uniform=v.uniform and p.uniform)
        # anything else (float transcendentals, bitwise on unknowns):
        return _top(t, all(s.uniform for s in srcs))

    # -- transfer ----------------------------------------------------

    def transfer(self, blk, state: _State) -> _State:
        """The state leaving ``blk``; notes the address value of every
        global access and the divergence of every branch on the way."""
        state = state.copy()
        for pos in range(blk.start, blk.stop):
            inst = self.cfg.instructions[pos]
            op = inst.opcode
            if op == "label":
                continue
            guard_uniform = True
            est = state
            if inst.guard is not None:
                gval = state.regs.get(inst.guard.key)
                guard_uniform = gval.uniform if gval is not None else False
                refined = self.refine(state, inst.guard.key,
                                      want_true=not inst.guard_negated)
                # an infeasible guard means the instruction is dead in
                # every lane; keep the unrefined state conservatively
                est = refined if refined is not None else state
            if op in ("bra", "ret"):
                if op == "bra":
                    self.branches[pos] = self._branch_fact(
                        blk, pos, inst, guard_uniform)
                continue
            if op in ("ld.global", "st.global"):
                self.addresses[pos] = self.operand(inst.srcs[0], est)
            val = self.eval_inst(inst, est, pos)
            if inst.dst is None:
                continue
            key = inst.dst.key
            if inst.guard is not None:
                old = state.regs.get(key)
                val = val if old is None else _join(old, val)
                if not guard_uniform:
                    val = val._replace(uniform=False)
            # writing a register invalidates predicates derived from it
            if state.preds:
                state.preds = {k: p for k, p in state.preds.items()
                               if k != key and p.lkey != key
                               and p.rkey != key}
            if op == "setp" and len(inst.srcs) == 2:
                a, b = inst.srcs
                state.preds[key] = _Pred(
                    inst.cmp, inst.type,
                    a.key if isinstance(a, Register) else None,
                    b.key if isinstance(b, Register) else None,
                    self.operand(a, est), self.operand(b, est),
                    val.uniform)
            state.regs[key] = val
        return state

    # -- branch refinement --------------------------------------------

    def refine(self, state: _State, pred_key, want_true: bool
               ) -> _State | None:
        """``state`` constrained by the predicate being true/false;
        ``None`` when the constraint is infeasible (dead edge)."""
        pred = state.preds.get(pred_key)
        if pred is None or pred.cmp not in _NEGATE:
            return state
        cmp = pred.cmp if want_true else _NEGATE[pred.cmp]
        out = state.copy()
        l = out.regs.get(pred.lkey, pred.lval) if pred.lkey else pred.lval
        r = out.regs.get(pred.rkey, pred.rval) if pred.rkey else pred.rval
        step = 1.0 if pred.typ.is_int else 0.0
        llo, lhi, rlo, rhi = l.lo, l.hi, r.lo, r.hi
        if cmp == "lt":
            lhi = min(lhi, r.hi - step)
            rlo = max(rlo, l.lo + step)
        elif cmp == "le":
            lhi = min(lhi, r.hi)
            rlo = max(rlo, l.lo)
        elif cmp == "gt":
            llo = max(llo, r.lo + step)
            rhi = min(rhi, l.hi - step)
        elif cmp == "ge":
            llo = max(llo, r.lo)
            rhi = min(rhi, l.hi)
        elif cmp == "eq":
            llo, lhi = max(llo, rlo), min(lhi, rhi)
            rlo, rhi = llo, lhi
        if llo > lhi or rlo > rhi:
            return None
        if pred.lkey and pred.lkey in out.regs:
            out.regs[pred.lkey] = out.regs[pred.lkey]._replace(
                lo=llo, hi=lhi)
        if pred.rkey and pred.rkey in out.regs:
            out.regs[pred.rkey] = out.regs[pred.rkey]._replace(
                lo=rlo, hi=rhi)
        return out

    def edge_states(self, blk, out: _State) -> dict[int, _State]:
        """Per-successor states, refined by the terminator's guard."""
        succs = list(blk.successors)
        states: dict[int, _State] = {s: out for s in succs}
        if blk.stop <= blk.start:
            return states
        last = self.cfg.instructions[blk.stop - 1]
        if last.guard is None:
            return states
        gkey = last.guard.key
        taken_true = not last.guard_negated
        if last.opcode == "bra":
            target = next((b.index for b in self.cfg.blocks
                           if b.label == last.label), None)
            fall = blk.index + 1
            if target is not None and target != fall:
                for s in succs:
                    want = taken_true if s == target else not taken_true
                    refined = self.refine(out, gkey, want)
                    if refined is None:
                        states.pop(s, None)
                    else:
                        states[s] = refined
        elif last.opcode == "ret":
            # lanes that did not return fall through
            for s in succs:
                refined = self.refine(out, gkey, not taken_true)
                if refined is None:
                    states.pop(s, None)
                else:
                    states[s] = refined
        return states

    # -- facts --------------------------------------------------------

    def _branch_fact(self, blk, pos, inst, guard_uniform: bool
                     ) -> BranchFact:
        benign = False
        if not guard_uniform:
            target = next((b.index for b in self.cfg.blocks
                           if b.label == inst.label), None)
            benign = (_exit_like(self.cfg, target)
                      or _exit_like(self.cfg, blk.index + 1))
        return BranchFact(pos=pos, uniform=guard_uniform,
                          benign_exit=benign)

    def access_fact(self, pos: int) -> AccessFact:
        """What the address noted at ``pos`` proves about the access
        (read after the sweep, against the final symbol table)."""
        inst, addr = self.cfg.instructions[pos], self.addresses[pos]
        width = inst.type.nbytes
        region = self.env.regions.get(addr.base) if addr.base else None
        offset = None
        verdict = "unknown"
        if region is not None:
            offset = (addr.lo, addr.hi)
            if region.size_bytes is not None:
                if addr.lo >= 0 and addr.hi <= region.size_bytes - width:
                    verdict = "proven"
                elif addr.hi < 0 or addr.lo > region.size_bytes - width:
                    verdict = "oob"
        stride = self.dtid(addr)
        return AccessFact(
            pos=pos, opcode=inst.opcode, width=width,
            region=addr.base, offset=offset, stride_bytes=stride,
            uniform=addr.uniform, verdict=verdict,
            transactions=transactions_per_warp(stride, width),
            ideal_transactions=ideal_transactions(width))


def _exit_like(cfg: CFG, bidx: int | None, depth: int = 4) -> bool:
    """The block (transitively) does nothing but return — the shape of
    the generators' bounds early-exit, which diverges only in the last
    warp and does no redundant work."""
    if bidx is None or bidx >= len(cfg.blocks) or depth == 0:
        return False
    blk = cfg.blocks[bidx]
    body = [i for i in blk.instructions(cfg.instructions)
            if i.opcode != "label"]
    if not body:
        succs = blk.successors
        return len(succs) <= 1 and all(
            _exit_like(cfg, s, depth - 1) for s in succs) \
            if succs else True
    return (len(body) == 1 and body[0].opcode == "ret"
            and body[0].guard is None)


# --- coalescing model -------------------------------------------------------

def transactions_per_warp(stride_bytes: float | None,
                          width: int) -> float | None:
    """Memory transactions one 32-thread warp issues for one access.

    Aligned-base span model: consecutive threads are ``stride`` bytes
    apart, so the warp touches ``31*|stride| + width`` bytes of
    ``SEGMENT``-byte lines (clamped to one transaction per thread).
    ``None`` stride means the pattern is unknown (indirect gather
    through a table of unknown stride).
    """
    if stride_bytes is None:
        return None
    s = abs(stride_bytes)
    if s == 0.0:
        return 1.0
    span = (WARP - 1) * s + width
    return float(min(WARP, max(1, math.ceil(span / SEGMENT))))


def ideal_transactions(width: int) -> int:
    """Transactions at perfect coalescing (element stride 1)."""
    return max(1, math.ceil(WARP * width / SEGMENT))


# --- heuristic fallback (guard domination) ----------------------------------

def _guard_dominated(cfg: CFG) -> set[int]:
    """Instruction positions dominated by a relational bounds guard, or
    themselves predicated on one — the pre-absint heuristic, kept as
    the fallback when the affine form is inconclusive."""
    instructions = cfg.instructions
    relational = {i.dst.key for i in instructions
                  if i.opcode == "setp" and i.dst is not None}
    guard_blocks: set[int] = set()
    for blk in cfg.blocks:
        insts = blk.instructions(instructions)
        if not insts:
            continue
        last = insts[-1]
        if (last.opcode == "bra" and last.guard is not None
                and last.guard.key in relational
                and blk.index + 1 < len(cfg.blocks)):
            guard_blocks.add(blk.index + 1)
    dom = cfg.dominators()
    safe: set[int] = set()
    for pos, inst in enumerate(instructions):
        if inst.opcode not in ("ld.global", "st.global"):
            continue
        if inst.guard is not None and inst.guard.key in relational:
            safe.add(pos)
            continue
        if guard_blocks & dom.get(cfg.block_of(pos), set()):
            safe.add(pos)
    return safe


# --- entry point ------------------------------------------------------------

def analyze_module(module: PTXModule, env: KernelEnv | None = None,
                   cfg: CFG | None = None) -> KernelAnalysis:
    """Abstractly interpret ``module``; return its fact sheet.

    Sweeps the CFG in reverse postorder with the interval/affine +
    uniformity domains and per-edge predicate refinement, noting the
    address of every global access and the divergence of every branch
    as it goes.  An acyclic CFG (every generated kernel) is done after
    one sweep; one with a back edge is swept to fixpoint, and bounds
    still climbing after ``_WIDEN_AFTER`` rounds are widened to
    infinity rather than read off mid-climb.  Accesses the affine
    engine cannot settle fall back to the guard-domination heuristic
    (verdict ``guarded``/``unguarded`` instead of ``proven``).
    """
    if cfg is None:
        cfg = build_cfg(list(module.instructions))
    if env is None:
        env = KernelEnv.generic(module.info.params)
    interp = _Interp(module, cfg, env)

    in_facts: dict[int, _State] = {}
    edge_facts: dict[tuple[int, int], _State] = {}
    one_sweep = cfg.is_acyclic
    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        for b in cfg.rpo():
            blk = cfg.blocks[b]
            feeds = [edge_facts[(p, b)] for p in blk.predecessors
                     if (p, b) in edge_facts]
            if b == cfg.entry:
                feeds.append(_State())
            if not feeds:
                continue
            fact_in = feeds[0]
            for f in feeds[1:]:
                fact_in = _state_join(fact_in, f)
            old = in_facts.get(b)
            if old is not None and rounds > _WIDEN_AFTER:
                fact_in = _state_widen(old, fact_in)
            # transfer is deterministic in fact_in (the symbol table
            # only ever widens when fact_in does), so an unchanged
            # input means unchanged edge outputs
            if old == fact_in:
                continue
            in_facts[b] = fact_in
            out = interp.transfer(blk, fact_in)
            for s, st in interp.edge_states(blk, out).items():
                if edge_facts.get((b, s)) != st:
                    edge_facts[(b, s)] = st
                    changed = True
        if one_sweep:
            break

    # heuristic fallback for inconclusive bounds verdicts
    guarded = _guard_dominated(cfg)
    accesses = []
    for pos in sorted(interp.addresses):
        fact = interp.access_fact(pos)
        if fact.verdict == "unknown":
            fact.verdict = "guarded" if pos in guarded else "unguarded"
        accesses.append(fact)

    from .liveness import max_live_registers

    return KernelAnalysis(
        name=module.name, env=env, accesses=accesses,
        branches=[interp.branches[p] for p in sorted(interp.branches)],
        max_live_regs=max_live_registers(cfg.instructions, cfg=cfg))
