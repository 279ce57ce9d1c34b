"""The driver JIT's register allocation (``allocate_slots``).

The generator emits one Python local per value; a linear scan over
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
                                      allocate_slots, build_sim_kernel)
from repro.driver.parser import parse_ptx
from repro.memory.pool import DevicePool
from repro.ptx import KernelBuilder, PTXModule, PTXType
from repro.ptx.isa import Instruction
from repro.ptx.liveness import max_live_registers
from repro.qcd.gauge import weak_gauge
from repro.qcd.wilson import WilsonOperator, WilsonParams
from repro.qdp.lattice import Lattice

from ..core.test_codegen import TestByteIdentity as _Golden
from ..ptx import test_single_sweep as _sweep

_SLOT = re.compile(r"\b_r\d+\b")
#: 32-bit register slots of a named register's local, by its name stem
def _body(*statements):
    return ["    " + s for s in statements]


def _alloc(*statements):
    lines, n_slots = allocate_slots(_body(*statements))
    return [ln.strip() for ln in lines], n_slots


def _translated(parsed):
    """The generator after its walk: ``.lines`` raw, ``.n_slots`` set."""
    t = _Translator(parsed)
    t.translate()
    return t


def _callable(t, body):
    """Compile ``body`` (raw or allocated) inside ``t``'s own prologue."""
    source = "\n".join(["def _k(_V, _P, _gd, _bd):", *t._prologue(), *body,
                        "    return None"])
    namespace = {**_RUNTIME, **t.consts}
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


def _weights(t):
    """32-bit slots per local of ``t``'s body: a local bound to a
    register by that register's type, and any other — an integer
    temporary: a materialized form, a ``gid`` product, a widened table
    — two, at least what it holds."""
    bound = {v: PTXType(key[0]).slots for key, v in t.sym.items()
             if isinstance(v, str)}
    return lambda name: bound.get(name, 2)


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
        lines, n = _alloc("_v0 = _ld(a)", "_v1 = _ld(b)",
                          "_v2 = (_v0 * _v1)", "_st(_v2, _v1)")
        assert n == 2
        assert lines == ["_r0 = _ld(a)", "_r1 = _ld(b)",
                         "_r0 = (_r0 * _r1)", "_st(_r0, _r1)"]

    def test_a_live_operand_keeps_its_slot(self):
        lines, n = _alloc("_v0 = _ld(a)", "_v1 = (_v0 * _v0)",
                          "_v2 = (_v1 + _v0)", "_st(_v2)")
        assert n == 2
        assert lines[1] == "_r1 = (_r0 * _r0)"

    def test_guarded_redefinition_keeps_its_slot(self):
        lines, n = _alloc("_v0 = _ld(a)", "_v1 = _ld(b)", "_v2 = (_v0 > _v1)",
                          "_em = _mand(_m, _v2)",
                          "_v0 = np.where(_em, (_v0 + _v1), _v0)",
                          "_st(_v0, _m)")
        assert n == 3
        assert lines[4] == "_r0 = np.where(_em, (_r0 + _r1), _r0)"
        assert lines[5] == "_st(_r0, _m)"

    def test_value_defined_and_never_read(self):
        """It still needs a slot for its own statement — and gives it
        straight back."""
        lines, n = _alloc("_v0 = _ld(a)", "_v1 = (_v0 * _v0)",
                          "_v2 = _ld(b)", "_st(_v2)")
        assert n == 1
        assert lines == ["_r0 = _ld(a)", "_r0 = (_r0 * _r0)",
                         "_r0 = _ld(b)", "_st(_r0)"]
        lines, n = _alloc("_v0 = _ld(a)", "_v1 = np.float32(1.0)",
                          "_st(_v0)")
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
        # one local per register class, as the translator spells them
        names = [f"_v{7 * 10 ** k}" for k in range(len(PTXType))]
        lines, n = _alloc(*(f"{nm} = _ld(a)" for nm in names),
                          "_st(" + ", ".join(names) + ")")
        assert n == len(names)
        assert not _VECTOR_LOCAL.search("\n".join(lines))

    def test_names_next_to_every_delimiter(self):
        lines, _ = _alloc("_v0 = _ld(a)", "_v1 = _ld(b)",
                          "_t = (~_v0) if _m is None else (_m & ~_v0)",
                          "_v2 = _Vw0[_v1 + _s3]", "_v3 = (-_v2)",
                          "_st(_v3,_v1)")
        assert lines[2:] == ["_t = (~_r0) if _m is None else (_m & ~_r0)",
                             "_r0 = _Vw0[_r1 + _s3]", "_r0 = (-_r0)",
                             "_st(_r0,_r1)"]

    def test_a_body_without_vector_locals_is_untouched(self):
        assert allocate_slots(_body("_m = None")) == (_body("_m = None"), 0)


# --- rename-only: the golden kernels -----------------------------------------

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


def test_allocation_is_a_pure_renaming(golden):
    """Raw and allocated bodies are the same text once every vector
    local is a placeholder — and the renaming is consistent: a slot
    changes hands only when its holder has been read for the last
    time (:func:`_replay` asserts it)."""
    for name, parsed in golden.items():
        t = _translated(parsed)
        allocated, n_slots = allocate_slots(t.lines)
        assert n_slots == t.n_slots
        assert len(allocated) == len(t.lines), name
        assert _normal_form(allocated, _SLOT) == \
            _normal_form(t.lines, _VECTOR_LOCAL), name
        assert not _VECTOR_LOCAL.search("\n".join(allocated)), name
        assert _replay(t.lines, allocated)[0] == n_slots, name


def test_translate_returns_the_allocated_body(golden):
    t = _Translator(golden["fused_3"])
    source = t.translate().split("\n")
    allocated = allocate_slots(t.lines)[0]
    assert source[-len(allocated) - 2:-2] == allocated


#: sha256 of the source the generator emits for ``TestByteIdentity``'s
#: kernels.  Re-recorded on purpose when the integer fold became the
#: one generator's: each digest is the one the folding ``cpu`` visitor
#: emitted before, so no ``cpu`` kernel's text moved; the text without
#: the fold, whose integer chains were materialized, is gone.
#: ``test_op_table.py`` and ``test_backend_parity.py`` hold the
#: results.
GOLDEN_SOURCE = {
    "eager_full": "9661abc357bd82b791d84aac92b428e47dc0b414b22c8339c5e4633f48f286a4",
    "eager_subset": "f51f25a3e8352bb00041c3369c3fea916449350b44cfe6685a87414d13a3ef6a",
    "eager_shift": "34deb31f26d6f00fc72525f46af7f60a02e1664930525392c20d5a0d2a5c647f",
    "fused_3": "88af38834a280c4b407b45589ff2f3112146d42e6aa285844ae3846178d7f27a",
    "fused_norm2": "0420d5febd0949fb98a6481c3b8d8a25a11eb47858846976e19516372c373410",
    "norm2": "5ed9923431cde4db043a54d142c6564ce3a728b6dd868a22dc932e19cf2fa4e3",
    "inner_subset": "375ee938b9537a96cf976a03919462fa20f94e69beb18fd444891c2b9b6f95d2",
}


def test_golden_generated_source_digests(golden):
    """The generator emits, for the golden-PTX kernels, the pinned
    text; and on no generated kernel (lint suite and face copies
    included) does it reduce a scalar at run time — their address
    chains are proven in range when the kernel is built — or form an
    address."""
    got = {name: hashlib.sha256(
               _Translator(golden[name]).translate().encode()).hexdigest()
           for name in GOLDEN_SOURCE}
    assert got == GOLDEN_SOURCE
    for name, parsed in golden.items():
        t = _Translator(parsed)
        source = t.translate()
        assert f"% {2**32}" not in source and f"% {2**64}" not in source, name
        assert not {"_ld", "_st"} & set(t.accesses.values()), name


# --- the allocator and ptx.liveness agree -------------------------------------

class TestLivenessCrossCheck:
    """``regs_per_thread`` drives occupancy and through it every
    modeled figure; the allocator is its second, independent witness.

    Relation: both count 32-bit slots of values that are bound and
    still to be read (:func:`_weights` gives a ``_v`` local at least
    its width).  The JIT holds fewer: a folded integer chain — an
    address, a site offset, a pointer — is never formed, or is one
    launch scalar outside the body, where liveness counts every
    register of it.  It holds more only at a value that is defined and
    never read — the JIT must hold a slot for it while its statement
    runs, liveness never counts it: ``held <= max_live +
    slots(dead definition)``.  ``regs_per_thread``, what the occupancy
    model charges, stays the liveness of the PTX.
    ``max_live_registers`` has a floor of 8.
    """

    def test_generated_kernels_peak_is_at_most_max_live(self, golden):
        for name, parsed in golden.items():
            t = _translated(parsed)
            _, held = _replay(t.lines, allocate_slots(t.lines)[0],
                              _weights(t))
            live = max_live_registers(parsed.instructions)
            assert max(8, held) <= live, name

    def test_an_unformed_address_needs_no_slot(self):
        """A store address formed first and used late: liveness holds
        it beside its base and the site offset (both read again by
        every later access), the JIT holds only the site offset, one
        ``gid * 8`` vector — the base is a launch scalar."""
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
        t = _translated(parsed)
        assert len(t.coalesced) == 5
        _, held = _replay(t.lines, allocate_slots(t.lines)[0], _weights(t))
        live = max_live_registers(parsed.instructions)
        # liveness: x, site, two loaded values and both addresses / the
        # third value; the JIT: gid * 8 and the three loaded values
        assert (live, held) == (12, 8)

    def test_wilson_kernel_peak_is_below_max_live(self, wilson):
        """Re-based on purpose: 249 slots and ``held == live`` while
        every integer register was formed; with address chains folded
        the peak is 27 slots lower (558/279 before the unparser's value
        memo covered a lone statement).  Re-based again when the Dslash
        began to project before the link multiply: the kernel reads
        half-spinor backward hops and multiplies U on two spin
        components, live/held/slots 498/444/222 before."""
        t = _translated(wilson.parsed)
        peak, held = _replay(t.lines, allocate_slots(t.lines)[0], _weights(t))
        live = max_live_registers(wilson.parsed.instructions)
        assert live == 312 and held == 298 and peak == t.n_slots == 149

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
        t = _translated(parsed)
        _, held = _replay(t.lines, allocate_slots(t.lines)[0], _weights(t))
        live = max_live_registers(parsed.instructions)
        # liveness: x + 4 loads; the JIT: the 4 loads + the dead f64 (x
        # is a launch scalar)
        assert (live, held) == (10, 10)


# --- random kernels: raw and allocated bodies run bitwise equal ---------------

_FLOAT_T = (PTXType.F32, PTXType.F64)
_INT_T = (PTXType.S32, PTXType.S64)
_NT = 16            # threads launched
_N = 11             # active sites: the bounds check bites
_SLOTS = 4          # 8-byte output slots per thread

_op = st.tuples(
    st.sampled_from(["add", "sub", "mul", "fma", "neg", "min", "cvt", "selp",
                     "guarded", "dead", "square"]),
    st.sampled_from(_FLOAT_T + _INT_T),
    st.tuples(*[st.integers(0, 1 << 16)] * 3))


def _random_kernel(ops, branch_at, guards):
    """A bounds-checked kernel over mixed-type values with one more
    forward branch (over a store) in the middle; ``guards`` adds
    fresh definitions under a guard."""
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
        elif guards:                         # "guarded": a fresh add
            v = kb.new_reg(a.type)
            kb.emit(Instruction("add", a.type, v, (a, kb._coerce(b, a.type)),
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
    t = _translated(parsed)
    allocated, n_slots = allocate_slots(t.lines)
    assert _normal_form(allocated, _SLOT) == \
        _normal_form(t.lines, _VECTOR_LOCAL)
    assert _replay(t.lines, allocated)[0] == n_slots
    raw = _run(_callable(t, t.lines), seed)
    assert np.array_equal(raw, _run(_callable(t, allocated), seed))


# --- the working set of a launch ----------------------------------------------

class _Wilson:
    """The 4^4 Wilson ``M`` kernel (the operator CG applies twice per
    ``M^+ M``; 1 690 instructions), built and launchable."""

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


@pytest.mark.parametrize("backend", ["sim", "cpu"])
def test_a_launch_holds_max_live_arrays(lat4, monkeypatch, backend):
    """Deterministic (no clock): NumPy reports its buffers to
    ``tracemalloc``, so the traced peak of one launch is the kernel's
    working set.  Before allocation it was one array per instruction
    (11.2 MiB without the integer fold, 3.5 MiB with it).  Both
    dispatch names run the one generator.

    The instruction count is re-based on purpose: 5 490 before
    addresses came uniform-first, 5 188 before the value memo covered
    a lone statement (2 736 of those were exact repeats of the
    projector's ``U·ψ`` components), 2 452 (222 slots) before the
    Dslash projected to half spinors ahead of the link multiply.

    The launch runs the callable built for its width, whose packs
    (DESIGN.md §12) hold ``k`` rows in one slot; the per-word callable
    of the same kernel runs beside it and is held to the slot count."""
    monkeypatch.setenv("REPRO_BACKEND", backend)
    w = _Wilson(lat4)
    assert w.ctx.stats.backend.mode == backend
    n_inst = len(w.parsed.instructions)
    assert n_inst == 1690
    t = _translated(w.parsed)
    packed = _Translator(w.parsed, w.lanes)
    packed.translate()
    assert packed.packs
    array = w.lanes * 8
    word = build_sim_kernel(w.parsed)
    kernel, peaks = w.entry.compiled.func, []

    def traced(*args):
        for f in (word, kernel):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            f(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(w.entry.compiled, "func", traced)
    tracemalloc.start()
    try:
        w.launch()
    finally:
        tracemalloc.stop()
    word_peak, peak = peaks
    # the slots, plus 32 arrays' worth for the prologue's lane vectors,
    # the masks and the right-hand side in flight
    assert word_peak <= (t.n_slots + 32) * array
    # packed: the most rows ever held at once, a pack counting its rows
    rows = _replay(packed.lines, allocate_slots(packed.lines)[0],
                   lambda name: packed._height.get(name, 1))[1]
    assert peak <= (rows + 32) * array
    assert max(peaks) < n_inst * array / 4
    code = word.__code__
    # the non-vector names: four arguments, one per prologue line (a
    # view per dtype, an _i per integer parameter and an _s per
    # distinct scalar offset are hoisted there), _em, _t, _x, a _pend
    # per label
    others = 4 + len(t._prologue()) + 3 + len(t.labels)
    assert code.co_nlocals <= t.n_slots + others
    assert code.co_nlocals < n_inst / 4
    assert t.n_slots == 149

    # the 4 096-lane arm: at 8^4 no f64 row packs (DESIGN.md §12), the
    # f64 slots hold storage — a later definition writes into the array
    # its slot holds — and a block load no store can change borrows
    # device memory.  The working set is the owned slots, with the same
    # 32 arrays of room; a borrowed load allocates nothing.
    big = _Wilson(Lattice((8, 8, 8, 8)))
    reg = _Translator(big.parsed, big.lanes)
    reg.translate()
    assert not reg.packs and reg.owned and reg.borrowed
    slot = {}
    allocate_slots(reg.lines, reg.owned, slot)
    owned = len({slot[name] for name in reg.owned})
    assert owned < reg.n_slots
    in_place = build_sim_kernel(big.parsed, big.lanes)
    big_peaks = []

    def traced_big(*args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        in_place(*args)
        big_peaks.append(tracemalloc.get_traced_memory()[1] - before)

    monkeypatch.setattr(big.entry.compiled, "func", traced_big)
    view = big.ctx.device._views["float64"]
    tracemalloc.start()
    try:
        big.launch()
        before = tracemalloc.get_traced_memory()[0]
        block = _RUNTIME["_ldv"](view, 8 * big.lanes, np.arange(
            big.lanes, dtype=np.int64) * 8, 3, None, True)
        borrowed = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    (big_peak,) = big_peaks
    assert big_peak <= (owned + 32) * big.lanes * 8
    assert np.shares_memory(block, view) and borrowed < 1024
