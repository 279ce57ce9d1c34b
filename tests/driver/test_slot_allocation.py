"""The driver JIT's register allocation (``allocate_slots``).

The translators emit one Python local per value; a linear scan over
the emitted body renames them onto as many reusable slots as are ever
live at once.  These tests pin the three things that make it safe and
worth having: it is a *pure renaming* (same statements, same order,
same operands — so no result bit can move), its notion of "live"
agrees with :mod:`repro.ptx.liveness` (the analysis ``regs_per_thread``
and every modeled figure rest on), and a launch's working set really
is max-live arrays rather than one array per instruction.
"""

import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.context import Context
from repro.driver.jitcompiler import (_RUNTIME, _VECTOR_LOCAL, _Translator,
                                      allocate_slots)
from repro.driver.parser import parse_ptx
from repro.llvm import TranspileError
from repro.llvm.cputarget import _CpuTranslator, _gs, _gv, _ps, _pv
from repro.memory.pool import DevicePool
from repro.ptx import KernelBuilder, PTXModule, PTXType
from repro.ptx.isa import Instruction
from repro.ptx.liveness import max_live_registers
from repro.qcd.gauge import weak_gauge
from repro.qcd.wilson import WilsonOperator, WilsonParams

from ..core.test_codegen import TestByteIdentity as _Golden
from ..ptx import test_single_sweep as _sweep

VISITORS = {"sim": _Translator, "cpu": _CpuTranslator}
_SLOT = re.compile(r"\b_r\d+\b")
#: 32-bit register slots of a ``sim`` local, by its name stem
_WEIGHT = {"R" + t.reg_prefix[1:]: t.slots for t in PTXType}


def _body(*statements):
    return ["    " + s for s in statements]


def _alloc(*statements):
    lines, n_slots = allocate_slots(_body(*statements))
    return [ln.strip() for ln in lines], n_slots


def _translated(visitor, parsed):
    """The visitor after its walk: ``.lines`` raw, ``.n_slots`` set."""
    t = VISITORS[visitor](parsed)
    t.translate()
    return t


def _callable(t, body):
    """Compile ``body`` (raw or allocated) inside ``t``'s own prologue."""
    source = "\n".join(["def _k(_V, _P, _gd, _bd):", *t._prologue(), *body,
                        "    return None"])
    namespace = {**_RUNTIME, "_gv": _gv, "_gs": _gs, "_pv": _pv, "_ps": _ps,
                 **getattr(t, "consts", {})}
    exec(compile(source, "<slot-test>", "exec"), namespace)
    return namespace["_k"]


_BINDS = re.compile(r"\s+(\w+) = ")


def _replay(raw, allocated, weight=lambda name: 1):
    """Replay an allocation statement by statement.

    Pairs every vector local of ``raw`` with the slot that replaced
    it and checks the renaming is sound: an operand reads the slot
    its name was bound to, and a destination takes a slot only when
    the name that held it is behind its last textual occurrence — or
    on it, on this very statement (the right-hand side is evaluated
    first).  Returns ``(peak slots held, peak weighted slots held)``
    after a statement: bound to a name still to be read, or bound by
    that statement.
    """
    names = [_VECTOR_LOCAL.findall(ln) for ln in raw]
    slots = [_SLOT.findall(ln) for ln in allocated]
    last = {n: i for i, ns in enumerate(names) for n in ns}
    holder: dict[str, str] = {}          # slot -> the raw name bound to it
    peak = wpeak = 0
    for i, (ns, ss) in enumerate(zip(names, slots)):
        assert len(ns) == len(ss), (i, raw[i])
        reads = list(zip(ns, ss))
        binds = _BINDS.match(raw[i])
        dst = reads.pop(0)[0] if binds and binds.group(1) in ns[:1] else None
        for n, s in reads:
            assert holder.get(s) == n, (i, raw[i])
        if dst is not None and holder.get(ss[0]) != dst:
            old = holder.get(ss[0])
            assert old is None or last[old] <= i, (i, raw[i])
            assert dst not in holder.values(), (i, raw[i])
            holder[ss[0]] = dst
        holder = {s: n for s, n in holder.items() if last[n] > i or n == dst}
        peak = max(peak, len(holder))
        wpeak = max(wpeak, sum(weight(n) for n in holder.values()))
        if dst is not None and last[dst] == i:
            del holder[ss[0]]
    return peak, wpeak


def _reg_weight(name):
    return _WEIGHT[name.rstrip("0123456789")]


# --- the allocator on hand-written statements --------------------------------

class TestAllocatorUnits:
    def test_name_repeated_on_one_statement_releases_once(self):
        """``(_v2 * _v2)`` gives one slot back, not two: freed twice,
        the next two definitions would share it."""
        lines, n = _alloc("_v1 = _ld(a)", "_v2 = _ld(b)",
                          "_v3 = (_v2 * _v2)",
                          "_v4 = _ld(c)", "_v5 = _ld(d)",
                          "_st(_v1, _v3, _v4, _v5)")
        assert n == 4
        assert lines[2] == "_r1 = (_r1 * _r1)"
        assert lines[5] == "_st(_r0, _r1, _r2, _r3)"

    def test_destination_takes_the_slot_an_operand_gives_up(self):
        lines, n = _alloc("Rf0 = _ld(a)", "Rf1 = _ld(b)",
                          "Rf2 = (Rf0 * Rf1)", "_st(Rf2, Rf1)")
        assert n == 2
        assert lines == ["_r0 = _ld(a)", "_r1 = _ld(b)",
                         "_r0 = (_r0 * _r1)", "_st(_r0, _r1)"]

    def test_a_live_operand_keeps_its_slot(self):
        lines, n = _alloc("Rf0 = _ld(a)", "Rf1 = (Rf0 * Rf0)",
                          "Rf2 = (Rf1 + Rf0)", "_st(Rf2)")
        assert n == 2
        assert lines[1] == "_r1 = (_r0 * _r0)"

    def test_guarded_redefinition_keeps_its_slot(self):
        lines, n = _alloc("Rf0 = _ld(a)", "Rf1 = _ld(b)", "Rp0 = (Rf0 > Rf1)",
                          "_em = _mand(_m, Rp0)",
                          "Rf0 = np.where(_em, (Rf0 + Rf1), Rf0)",
                          "_st(Rf0, _m)")
        assert n == 3
        assert lines[4] == "_r0 = np.where(_em, (_r0 + _r1), _r0)"
        assert lines[5] == "_st(_r0, _m)"

    def test_value_defined_and_never_read(self):
        """It still needs a slot for its own statement — and gives it
        straight back."""
        lines, n = _alloc("Rf0 = _ld(a)", "Rf1 = (Rf0 * Rf0)",
                          "Rf2 = _ld(b)", "_st(Rf2)")
        assert n == 1
        assert lines == ["_r0 = _ld(a)", "_r0 = (_r0 * _r0)",
                         "_r0 = _ld(b)", "_st(_r0)"]
        lines, n = _alloc("Rf0 = _ld(a)", "Rf1 = np.float32(1.0)",
                          "_st(Rf0)")
        assert n == 2 and lines[1] == "_r1 = np.float32(1.0)"

    def test_only_vector_locals_are_renamed(self):
        kept = _body(
            "_pend_EXIT_1 = None",
            "_pend_Rf1 = None",
            "_t = _m if _pend_L_v1 is None else _K0",
            "_nt, _pre, _tid, _ctaid, _G = _retire(_x, _tid, _ctaid, _G)",
            "_stc(_Vw0, _s12, _G, 3, _K3, _m, _pre)",
            "_ps(_Vw1, (_i0 + _s1), _ntid, _em, 32)",
            "_x = np.uint64(_P['Rf1']) + np.int32(_P['_v1']) + x_v1 + xRf1",
            "if _pend_EXIT_1 is not None:",
            "    _m = _pend_EXIT_1 if _m is None else (_m | _pend_EXIT_1)")
        lines, n = allocate_slots(kept)
        assert lines == kept and n == 0

    def test_every_register_class_and_cpu_temporary_is_a_vector_local(self):
        names = [stem + "7" for stem in _WEIGHT] + ["_v7"]
        lines, n = _alloc(*(f"{nm} = _ld(a)" for nm in names),
                          "_st(" + ", ".join(names) + ")")
        assert n == len(names)
        assert not _VECTOR_LOCAL.search("\n".join(lines))

    def test_names_next_to_every_delimiter(self):
        lines, _ = _alloc("Rp0 = _ld(a)", "Rrd1 = _ld(b)",
                          "_t = (~Rp0) if _m is None else (_m & ~Rp0)",
                          "_v2 = _Vw0[Rrd1 + _s3]", "_v3 = (-_v2)",
                          "_st(_v3,Rrd1)")
        assert lines[2:] == ["_t = (~_r0) if _m is None else (_m & ~_r0)",
                             "_r0 = _Vw0[_r1 + _s3]", "_r0 = (-_r0)",
                             "_st(_r0,_r1)"]

    def test_a_body_without_vector_locals_is_untouched(self):
        assert allocate_slots(_body("_m = None")) == (_body("_m = None"), 0)


# --- rename-only: the golden kernels under both visitors ---------------------

@pytest.fixture(scope="module")
def golden(lat4):
    """``TestByteIdentity``'s kernels (digests checked), the lint
    suite and the acyclic generator of ``test_single_sweep``, parsed."""
    modules = _Golden.golden_modules(lat4)
    texts = {k: m.render() for k, m in modules.items()}
    assert {k: hashlib.sha256(t.encode()).hexdigest()
            for k, t in texts.items()} == _Golden.GOLDEN
    texts["acyclic"] = _sweep._acyclic().render()
    from repro.lint import _build_kernel_suite, _suite_modules

    with _sweep._knobs(REPRO_FUSION="on"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ctx, lat, _ = _build_kernel_suite(_sweep.DIMS)
        for module, _, _ in _suite_modules(ctx, lat):
            texts["suite." + module.name] = module.render()
    return {k: parse_ptx(t) for k, t in texts.items()}


def _normal_form(lines, name_re):
    return [name_re.sub("<v>", ln) for ln in lines]


@pytest.mark.parametrize("visitor", VISITORS)
def test_allocation_is_a_pure_renaming(golden, visitor):
    """Raw and allocated bodies are the same text once every vector
    local is a placeholder — and the renaming is consistent: a slot
    changes hands only when its holder has been read for the last
    time (:func:`_replay` asserts it)."""
    for name, parsed in golden.items():
        t = _translated(visitor, parsed)
        allocated, n_slots = allocate_slots(t.lines)
        assert n_slots == t.n_slots
        assert len(allocated) == len(t.lines), name
        assert _normal_form(allocated, _SLOT) == \
            _normal_form(t.lines, _VECTOR_LOCAL), name
        assert not _VECTOR_LOCAL.search("\n".join(allocated)), name
        assert _replay(t.lines, allocated)[0] == n_slots, name


def test_translate_returns_the_allocated_body(golden):
    for visitor in VISITORS:
        t = VISITORS[visitor](golden["fused_3"])
        source = t.translate().split("\n")
        allocated = allocate_slots(t.lines)[0]
        assert source[-len(allocated) - 2:-2] == allocated


#: sha256 of the source each visitor generates for ``TestByteIdentity``'s
#: kernels, ``(sim, cpu)``.  Re-recorded on purpose with their PTX
#: digests in PR 23: addresses come uniform part first from
#: ``KernelBuilder.soa_address``, the canonical bounds check retires
#: its lanes (``_retire``) instead of masking them, and an access
#: ``uniform + width * gid`` is a ``_ldc`` / ``_stc`` block copy whose
#: address is never formed.  Every float statement is the one the
#: previous digests held, in the same order (``test_op_table.py`` and
#: ``test_backend_parity.py`` hold the results bitwise).
GOLDEN_SOURCE = {
    "eager_full": ("e9499d83474fd331de73486b82c60dc201bf1cb5365e9f738f839edbed51d91d",
                   "9661abc357bd82b791d84aac92b428e47dc0b414b22c8339c5e4633f48f286a4"),
    "eager_subset": ("e03263a9e63ee2fbc9d11c20bc1790b384dcd2fdd8c493c614f418e2f8b1a5af",
                     "f51f25a3e8352bb00041c3369c3fea916449350b44cfe6685a87414d13a3ef6a"),
    "eager_shift": ("d1c19e7a6e09183773dc7a145b819d2bfc0cbb362a2110b0195e2bf75266e80c",
                    "34deb31f26d6f00fc72525f46af7f60a02e1664930525392c20d5a0d2a5c647f"),
    "fused_3": ("768e67b07db64ed3b63d8d0deb8bcec638496a239f4d4ac6a36540dccf840fdd",
                "88af38834a280c4b407b45589ff2f3112146d42e6aa285844ae3846178d7f27a"),
    "fused_norm2": ("b2389ae2a4701100b22b5212d277caf0a8f707b7b84e4a9fef5938916d54477c",
                    "0420d5febd0949fb98a6481c3b8d8a25a11eb47858846976e19516372c373410"),
    "norm2": ("a8ffb289a3b521bd7f4fc1915fa94ff552c7fcd799ba592b91b9239199fb2722",
              "5ed9923431cde4db043a54d142c6564ce3a728b6dd868a22dc932e19cf2fa4e3"),
    "inner_subset": ("626187d1a4aec3aafac07dae31b248988e4c5f9181cde3c43a90c12c2958597a",
                     "375ee938b9537a96cf976a03919462fa20f94e69beb18fd444891c2b9b6f95d2"),
}


def test_golden_generated_source_digests(golden):
    """Both visitors emit, for the golden-PTX kernels, the pinned
    text; and on no generated kernel
    (lint suite and face copies included) does ``cpu`` reduce a scalar
    at run time — their address chains are proven in range when the
    kernel is built."""
    got = {name: tuple(hashlib.sha256(
               VISITORS[v](golden[name]).translate().encode()).hexdigest()
               for v in ("sim", "cpu")) for name in GOLDEN_SOURCE}
    assert got == GOLDEN_SOURCE
    for name, parsed in golden.items():
        source = _CpuTranslator(parsed).translate()
        assert f"% {2**32}" not in source and f"% {2**64}" not in source, name


# --- the allocator and ptx.liveness agree -------------------------------------

class TestLivenessCrossCheck:
    """``regs_per_thread`` drives occupancy and through it every
    modeled figure; the allocator is its second, independent witness.

    Exact relation: both count 32-bit slots of values that are bound
    and still to be read, so on a kernel whose every value is read
    and whose every register is formed the peaks are *equal*.  They
    differ at a value that is defined and never read — the JIT must
    hold a slot for it while its statement runs, liveness never counts
    it — and at the address of a coalesced access, which liveness
    counts and the JIT never forms (its two halves stay bound
    instead): ``held <= max_live + slots(dead definition)``, with
    ``held == max_live`` on a kernel that has neither.
    ``regs_per_thread``, what the occupancy model charges, stays the
    liveness of the PTX.  ``max_live_registers`` has a floor of 8.
    """

    def test_generated_kernels_peak_equals_max_live(self, golden):
        """Equal where every register is formed, never above."""
        for name, parsed in golden.items():
            t = _translated("sim", parsed)
            _, held = _replay(t.lines, allocate_slots(t.lines)[0],
                              _reg_weight)
            live = max_live_registers(parsed.instructions)
            assert max(8, held) <= live, name
            if not t.coalesced:
                assert max(8, held) == live, name

    def test_an_unformed_address_needs_no_slot(self):
        """A store address formed first and used late: liveness holds
        it beside its base and the site offset (both read again by
        every later access), the JIT holds only those two."""
        kb = KernelBuilder("unformed")
        px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
        x = kb.ld_param(px)
        g64 = kb.cvt(kb.global_thread_id(), PTXType.S64)
        site = kb.cvt(kb.mul(g64, kb.imm(8, PTXType.S64)), PTXType.U64)
        out = kb.add(x, site)
        vals = [kb.ld_global(kb.add(x, site), PTXType.F64) for _ in range(3)]
        kb.st_global(out, kb.add(kb.add(vals[0], vals[1]), vals[2]),
                     PTXType.F64)
        kb.st_global(kb.add(x, site), vals[0], PTXType.F64)
        kb.ret()
        parsed = parse_ptx(PTXModule.from_builder(kb).render())
        t = _translated("sim", parsed)
        assert len(t.coalesced) == 5
        _, held = _replay(t.lines, allocate_slots(t.lines)[0], _reg_weight)
        live = max_live_registers(parsed.instructions)
        # x, site, two loaded values and: both addresses / the third value
        assert (live, held) == (12, 10)

    def test_wilson_kernel_peak_equals_max_live(self, wilson):
        t = _translated("sim", wilson.parsed)
        peak, held = _replay(t.lines, allocate_slots(t.lines)[0], _reg_weight)
        live = max_live_registers(wilson.parsed.instructions)
        assert held == live == 558 and peak == t.n_slots == 279
        assert abs(t.n_slots - -(-live // 2)) <= 1

    def test_a_dead_definition_is_the_only_difference(self):
        kb = KernelBuilder("deaddef")
        px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
        x = kb.ld_param(px)
        vals = [kb.ld_global(kb.add(x, kb.imm(8 * i, PTXType.U64)),
                             PTXType.F64) for i in range(4)]
        kb.mul(vals[0], vals[1])                   # never read
        total = kb.add(kb.add(vals[0], vals[1]), kb.add(vals[2], vals[3]))
        kb.st_global(x, total, PTXType.F64)
        kb.ret()
        parsed = parse_ptx(PTXModule.from_builder(kb).render())
        t = _translated("sim", parsed)
        _, held = _replay(t.lines, allocate_slots(t.lines)[0], _reg_weight)
        live = max_live_registers(parsed.instructions)
        assert (live, held) == (10, 12)     # x + 4 loads; + the dead f64


# --- random kernels: raw and allocated bodies run bitwise equal ---------------

_FLOAT_T = (PTXType.F32, PTXType.F64)
_INT_T = (PTXType.S32, PTXType.S64)
_NT = 16            # threads launched
_N = 11             # active sites: the bounds check bites
_SLOTS = 4          # 8-byte output slots per thread

_op = st.tuples(
    st.sampled_from(["add", "sub", "mul", "fma", "neg", "min", "cvt", "selp",
                     "redefine", "dead", "square"]),
    st.sampled_from(_FLOAT_T + _INT_T),
    st.tuples(*[st.integers(0, 1 << 16)] * 3))


def _random_kernel(ops, branch_at, guards):
    """A bounds-checked kernel over mixed-type values with one more
    forward branch (over a store) in the middle; ``guards`` adds
    guarded redefinitions, which only ``sim`` translates."""
    kb = KernelBuilder("rnd")
    pn = kb.add_param("p_n", PTXType.S32)
    px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
    po = kb.add_param("p_out", PTXType.U64, is_pointer=True)
    n, x, out = kb.ld_param(pn), kb.ld_param(px), kb.ld_param(po)
    gid = kb.global_thread_id()
    kb.bra("$EXIT", guard=kb.setp("ge", gid, n))
    g64 = kb.cvt(gid, PTXType.S64)
    xa = kb.add(x, kb.cvt(kb.mul(g64, kb.imm(8, PTXType.S64)), PTXType.U64))
    oa = kb.add(out, kb.cvt(kb.mul(g64, kb.imm(8 * _SLOTS, PTXType.S64)),
                            PTXType.U64))
    vals = [kb.ld_global(xa, PTXType.F64), kb.ld_global(xa, PTXType.F32),
            kb.ld_global(xa, PTXType.S32), gid, g64]
    pred = kb.setp("gt", vals[0], kb.imm(0.0, PTXType.F64))

    def pick(k):
        return vals[k % len(vals)]

    for i, (op, t, (i0, i1, i2)) in enumerate(ops):
        a, b, c = pick(i0), pick(i1), pick(i2)
        if i == branch_at:
            kb.bra("$SKIP", guard=pred)
            kb.st_global(oa, a, a.type)
            kb.label("$SKIP")
        if op in ("add", "sub", "mul", "min"):
            v = getattr(kb, op)(a, b, t) if op != "min" \
                else kb.binary("min", a, b, t)
        elif op == "fma":
            v = kb.fma(a, b, c, t)
        elif op == "neg":
            v = kb.neg(a)
        elif op == "cvt":
            v = kb.cvt(a, t)
        elif op == "selp":
            pred = kb.setp("lt", a, b)
            v = kb.selp(a, c, pred, t)
        elif op == "square":
            v = kb.mul(a, a)
        elif op == "dead":
            kb.add(a, b, t)
            continue
        elif guards:                         # "redefine" under a guard
            v = a
            kb.emit(Instruction("add", a.type, a, (a, kb._coerce(b, a.type)),
                                guard=pred))
        else:
            continue
        vals.append(v)
    for j in range(1, _SLOTS):
        v = vals[-j]
        kb.st_global(kb.add(oa, kb.imm(8 * j, PTXType.U64)), v, v.type)
    kb.label("$EXIT")
    kb.ret()
    return parse_ptx(PTXModule.from_builder(kb).render())


def _run(func, seed):
    pool = DevicePool(1 << 16)
    x = pool.allocate(_NT * 8)
    out = pool.allocate(_NT * 8 * _SLOTS)
    rng = np.random.default_rng(seed)
    pool.write(x, rng.normal(size=_NT) * 3.0)
    pool.write(out, np.full(_NT * _SLOTS, -1.0))
    views = {n: pool.view(n) for n in ("float32", "float64", "int32",
                                       "int64", "uint32", "uint64")}
    with np.errstate(all="ignore"):
        func(views, {"p_n": _N, "p_x": x, "p_out": out}, 1, _NT)
    return pool.view(np.uint8).copy()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_op, min_size=4, max_size=30), branch=st.integers(0, 40),
       guards=st.booleans(), seed=st.integers(0, 1000))
def test_random_kernels_run_bitwise_equal(ops, branch, guards, seed):
    parsed = _random_kernel(ops, branch, guards)
    images = {}
    for visitor in VISITORS:
        try:
            t = _translated(visitor, parsed)
        except TranspileError:
            assert visitor == "cpu" and guards
            continue
        allocated, n_slots = allocate_slots(t.lines)
        assert _normal_form(allocated, _SLOT) == \
            _normal_form(t.lines, _VECTOR_LOCAL)
        assert _replay(t.lines, allocated)[0] == n_slots
        raw = _run(_callable(t, t.lines), seed)
        images[visitor] = _run(_callable(t, allocated), seed)
        assert np.array_equal(raw, images[visitor]), visitor
    if "cpu" in images:
        assert np.array_equal(images["sim"], images["cpu"])
    elif not guards:
        pytest.fail("an unguarded kernel fell outside the cpu subset")


# --- the working set of a launch ----------------------------------------------

class _Wilson:
    """The 4^4 Wilson ``M`` kernel (the operator CG applies twice per
    ``M^+ M``; 5 188 instructions), built and launchable."""

    def __init__(self, lat):
        self.ctx = Context(autotune=False)
        rng = np.random.default_rng(5)
        u = weak_gauge(lat, rng, eps=0.3, context=self.ctx)
        self.op = WilsonOperator(u, WilsonParams(kappa=0.12))
        self.psi, self.out = self.op.new_fermion(), self.op.new_fermion()
        self.psi.gaussian(rng)
        self.launch()
        self.entry = max(self.ctx.module_cache.values(),
                         key=lambda e: len(e.compiled.parsed.instructions))
        self.parsed = self.entry.compiled.parsed
        self.lanes = lat.nsites

    def launch(self):
        self.op.apply(self.out, self.psi)
        self.ctx.flush()


@pytest.fixture(scope="module")
def wilson(lat4):
    return _Wilson(lat4)


@pytest.mark.parametrize("backend", VISITORS)
def test_a_launch_holds_max_live_arrays(lat4, monkeypatch, backend):
    """Deterministic (no clock): NumPy reports its buffers to
    ``tracemalloc``, so the traced peak of one launch is the kernel's
    working set.  Before allocation it was one array per instruction
    (11.2 MiB under ``sim``, 3.5 MiB under ``cpu``)."""
    monkeypatch.setenv("REPRO_BACKEND", backend)
    w = _Wilson(lat4)
    assert w.entry.compiled.backend == backend
    n_inst = len(w.parsed.instructions)
    assert n_inst == 5188      # 5 490 before addresses came uniform-first
    t = _translated(backend, w.parsed)
    array = w.lanes * 8
    kernel, peaks = w.entry.compiled.func, []

    def traced(*args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        kernel(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(w.entry.compiled, "func", traced)
    tracemalloc.start()
    try:
        w.launch()
    finally:
        tracemalloc.stop()
    (peak,) = peaks
    # the slots, plus 32 arrays' worth for the prologue's lane vectors,
    # the masks and the right-hand side in flight
    assert peak <= (t.n_slots + 32) * array
    assert peak < n_inst * array / 4
    code = getattr(kernel, "func", kernel).__code__
    # the non-vector names: four arguments, one per prologue line (cpu
    # hoists a view per dtype, an _i per integer parameter and an _s
    # per distinct scalar offset there), _em, _t, _x, a _pend per label
    others = 4 + len(t._prologue()) + 3 + len(t.labels)
    assert code.co_nlocals <= t.n_slots + others
    assert code.co_nlocals < n_inst / 4
    if backend == "sim":
        assert t.n_slots == 279 and code.co_nlocals <= 400
