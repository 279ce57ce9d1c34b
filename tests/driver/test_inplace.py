"""The register file of the PTX -> NumPy generator (DESIGN.md §12).

At a launch width where the pack pass cannot pack a float type (f64 at
4 096 lanes), the slots of that type hold storage: the first
definition in a slot allocates and every later arithmetic one writes
into the array it holds, and a block load that no store can change
before its last read borrows device memory.  The contract is the pack
pass's: every launch below also runs the kernel's callable built for
its width and its per-word one (``lanes=None``) on identical copies of
device memory, and the memory must be byte-for-byte equal afterwards.
The hand-written kernels put a store between a load and its last
read, an fma's addend in the slot of its destination, a mask in front
of the arithmetic, and f32 packs beside f64 slots.
"""

import re

import numpy as np
import pytest

from repro.core.context import Context
from repro.driver.jitcompiler import _Translator
from repro.driver.parser import ParsedKernel
from repro.driver.packing import PACK_BYTES, PACK_MIN
from repro.memory.pool import DevicePool
from repro.ptx.builder import KernelBuilder
from repro.ptx.isa import PTXType
from repro.ptx.module import PTXModule
from repro.qcd.gauge import weak_gauge
from repro.qcd.solver import cg
from repro.qcd.wilson import WilsonOperator, WilsonParams
from repro.qdp.fields import latt_fermion
from repro.qdp.lattice import Lattice

from .test_pack import _run_both, install_parity

F32, F64 = PTXType.F32, PTXType.F64
LANES = 4096
#: device memory for an 8^4 fused CG (copied three times a launch)
POOL = 24 << 20


@pytest.fixture()
def parity(monkeypatch):
    """``parity(ctx)``: every launch on ``ctx`` runs bitwise against its
    per-word body first (``test_pack.install_parity``)."""
    return lambda ctx: install_parity(monkeypatch, ctx)


def _translated(parsed, lanes=LANES):
    t = _Translator(parsed, lanes)
    return t, t.translate()


def _in_place_lines(source):
    return [ln for ln in source.split("\n")
            if "out=" in ln or re.match(r"\s+_r\d+ [-+*/]= ", ln)]


def test_f64_does_not_pack_at_4096_lanes():
    """The width this file is about: an f64 row of 4 096 lanes leaves
    room for fewer than ``PACK_MIN`` rows, an f32 row for more."""
    assert PACK_BYTES // (LANES * 8) < PACK_MIN <= PACK_BYTES // (LANES * 4)


class TestParity:
    def test_cg_large_kernels(self, parity):
        """Every kernel of the 8^4 fused CG runs bitwise against its
        per-word body, with owned slots written in place and borrowed
        loads, and none of it packed."""
        lat = Lattice((8, 8, 8, 8))
        ctx = Context(fusion=True, pool_capacity=POOL)
        seen = parity(ctx)
        op = WilsonOperator(weak_gauge(lat, np.random.default_rng(5),
                                       eps=0.3, context=ctx),
                            WilsonParams(kappa=0.12))
        b = latt_fermion(lat, context=ctx)
        b.gaussian(np.random.default_rng(1))
        x, tmp = op.new_fermion(), op.new_fermion()

        def apply_op(dest, src):
            op.apply_mdagm(dest, src, tmp)
            dest.assign(dest + 0.1 * src)

        cg(apply_op, x, b, tol=0.0, max_iter=2)
        ctx.flush()
        assert len({name for name, _ in seen}) == 9
        assert not any(packs for _, packs in seen)
        for entry in ctx.module_cache.values():
            t, source = _translated(entry.compiled.parsed)
            assert t.owned and t.borrowed, t.parsed.name
            assert _in_place_lines(source), t.parsed.name
            assert set(t.owned.values()) == {8}

    def test_spill_sweep_ring(self, parity):
        """The axpy ring over more fields than fit: every statement
        pages its operands in, and each of the four shapes runs
        bitwise at 4 096 lanes."""
        lat = Lattice((8, 8, 8, 8))
        nbytes = lat.nsites * 24 * 8
        ctx = Context(pool_capacity=6 * nbytes + nbytes // 2)
        seen = parity(ctx)
        rng = np.random.default_rng(40)
        f = [latt_fermion(lat, context=ctx) for _ in range(12)]
        for fld in f:
            fld.from_numpy(rng.normal(size=(lat.nsites, 4, 3))
                           + 1j * rng.normal(size=(lat.nsites, 4, 3)))
        for i in range(12):
            a, b = f[(i + 4) % 12].ref(), f[(i + 8) % 12].ref()
            c = 0.05 * (i + 1)
            f[i].assign((a + c * b, a - c * b, c * a + b, c * (a - b))[i % 4])
            ctx.flush()
        assert ctx.field_cache.stats.spills > 0
        assert len({name for name, _ in seen}) == 4


# -- hand-written kernels in the generated shape --------------------------

def _kernel(name, body, types=(F64, F64), masked=False):
    """A kernel shaped like the statement generator's — ``p_lo``,
    ``p_n``, ``p_f<i>`` fields in the SoA layout of ``types[i]``, a
    canonical bounds check — whose ``body(ld, st, kb)`` emits the work
    through ``ld(f, w)`` and ``st(f, w, value)``.  ``masked`` puts a
    second forward branch (skipping a store of field 0) in front of
    the body, so the kernel leaves the canonical shape and runs
    masked.  Returns the builder's stream, as the JIT receives it."""
    kb = KernelBuilder(name)
    p_lo = kb.add_param("p_lo", PTXType.S32)
    p_n = kb.add_param("p_n", PTXType.S32)
    fields = [kb.add_param(f"p_f{i}", PTXType.U64, is_pointer=True)
              for i in range(len(types))]
    nsites, n = kb.ld_param(p_lo), kb.ld_param(p_n)
    bases = [kb.ld_param(p) for p in fields]
    gid = kb.global_thread_id()
    exit_lbl = kb.new_label("EXIT")
    kb.bra(exit_lbl, guard=kb.setp("ge", gid, n))
    planes = {t: kb.words_to_bytes(nsites, t.nbytes) for t in set(types)}
    sites = {t: kb.words_to_bytes(gid, t.nbytes) for t in set(types)}

    def addr(f, w):
        t = types[f]
        return kb.soa_address(bases[f], planes[t], w, sites[t])

    def ld(f, w):
        return kb.ld_global(addr(f, w), types[f])

    def st(f, w, value):
        kb.st_global(addr(f, w), value, types[f])

    if masked:
        skip = kb.new_label("SKIP")
        x = ld(0, 7)
        kb.bra(skip, guard=kb.setp("gt", x, kb.imm(0.0, types[0])))
        st(0, 7, kb.neg(x))
        kb.label(skip)
    body(ld, st, kb)
    kb.label(exit_lbl)
    kb.ret()
    module = PTXModule.from_builder(kb)
    return ParsedKernel(name, module.info.params, module.instructions,
                        templates=module.templates)


def _launch_both(parsed, types=(F64, F64), words=8, active=LANES):
    """Run ``parsed`` built for 4 096 lanes and per word over random
    fields of ``words`` planes, ``active`` of the lanes in bounds;
    returns the two pool images."""
    pool = DevicePool(4 << 20)
    rng = np.random.default_rng(21)
    params = {"p_lo": LANES, "p_n": active}
    for i, t in enumerate(types):
        dtype = np.float64 if t == F64 else np.float32
        params[f"p_f{i}"] = addr = pool.allocate(words * LANES * t.nbytes)
        pool.write(addr, rng.normal(size=words * LANES).astype(dtype))
    views = {v: pool.view(v) for v in ("float32", "float64", "int32")}
    return _run_both(parsed, views, pool.view(np.uint8), params, LANES, 128)


class TestBorrow:
    def test_a_load_read_after_a_store_to_its_word_is_copied(self):
        """Word 0 is loaded, stored over, and read again: its value must
        be the one loaded, so the load copies.  Word 2 is read for the
        last time before any store, so it borrows."""
        def body(ld, st, kb):
            x, z = ld(0, 0), ld(0, 2)
            w = kb.mul(z, z)
            st(0, 0, kb.mul(w, kb.imm(2.0, F64)))
            st(1, 0, kb.add(x, w))

        parsed = _kernel("store_between", body)
        packed, word = _launch_both(parsed)
        assert np.array_equal(packed, word)
        t, source = _translated(parsed)
        loads = re.findall(r"(_ld[cv])\(_Vw0", source)
        assert loads == ["_ldc", "_ldv"]          # word 0 copies, 2 borrows
        assert len(t.borrowed) == 1 and not t.borrowed & set(t.owned)

    def test_a_borrowed_slot_is_never_written_in_place(self):
        """Eight borrowed words die into products while field 1 is
        written only at the end: every product must allocate or reuse
        a product's array, never a borrowed view of field 0."""
        def body(ld, st, kb):
            x = [ld(0, w) for w in range(8)]
            y = [kb.mul(v, kb.imm(3.0, F64)) for v in x]
            s = y[0]
            for v in y[1:]:
                s = kb.add(s, v)
            for w in range(8):
                st(1, w, kb.sub(y[w], s))

        parsed = _kernel("borrow_then_products", body)
        packed, word = _launch_both(parsed)
        assert np.array_equal(packed, word)
        t, source = _translated(parsed)
        assert len(t.borrowed) == 8 and _in_place_lines(source)


class TestInPlace:
    def test_an_fma_whose_addend_gives_up_its_slot(self):
        """``u = x0*x2 + s`` where ``s`` dies at the fma and both factors
        live on: the destination takes the addend's slot, so the
        product must go to the scratch row first."""
        def body(ld, st, kb):
            x = [ld(0, w) for w in range(4)]
            s = kb.mul(x[0], x[1])
            t = kb.mul(x[2], x[3])
            u = kb.fma(x[0], x[2], s)
            v = kb.fma(x[1], x[3], t)
            st(0, 0, kb.imm(0.0, F64))   # read after this: factors copy
            for w, val in enumerate((u, v, *x)):
                st(1, w, val)

        parsed = _kernel("fma_addend_slot", body)
        packed, word = _launch_both(parsed)
        assert np.array_equal(packed, word)
        _, source = _translated(parsed)
        scratch = re.findall(r"np\.add\(_q8, (_r\d+), out=\1\)", source)
        assert len(scratch) == 2

    def test_a_masked_non_canonical_kernel(self):
        """A second forward branch leaves the canonical shape: lanes are
        masked, not retired, and the slots are owned from the start."""
        def body(ld, st, kb):
            x = [ld(0, w) for w in range(6)]
            y = [kb.fma(v, v, x[0]) for v in x]
            z = [kb.sub(kb.neg(a), b) for a, b in zip(y, y[1:])]
            for w, val in enumerate(z):
                st(1, w, kb.mul(val, val))

        parsed = _kernel("masked", body, masked=True)
        t, source = _translated(parsed)
        assert not t.canonical and t.owned
        assert "_m = (~_t)" in source and _in_place_lines(source)
        for active in (LANES, LANES - 77):
            packed, word = _launch_both(parsed, active=active)
            assert np.array_equal(packed, word)

    def test_mixed_precision(self):
        """f32 rows pack at 4 096 lanes while f64 goes in place."""
        def body(ld, st, kb):
            a = [ld(0, w) for w in range(4)]
            b = [ld(1, w) for w in range(4)]
            for w in range(4):
                with kb.template("twice", ((), (w,))):
                    st(2, w, kb.mul(a[w], kb.imm(2.0, F32)))
                wide = kb.mul(kb.cvt(a[w], F64), b[(w + 1) % 4])
                for _ in range(3):
                    wide = kb.fma(b[w], wide, kb.sub(wide, b[w]))
                st(3, w, wide)

        types = (F32, F64, F32, F64)
        parsed = _kernel("mixed", body, types=types)
        packed, word = _launch_both(parsed, types=types)
        assert np.array_equal(packed, word)
        t, source = _translated(parsed)
        assert {k for k, _ in t.packs} >= {"ld", "op"}
        assert set(t.owned.values()) == {8}
        assert _in_place_lines(source)


def test_unpacked_ops_keep_allocating():
    """``sin`` and friends are never written in place (nor packed):
    their NumPy functions are not correctly rounded."""
    parsed = _kernel("sines", lambda ld, st, kb: st(1, 0, kb.unary(
        "sin", kb.mul(ld(0, 0), ld(0, 1)))))
    packed, word = _launch_both(parsed)
    assert np.array_equal(packed, word)
    _, source = _translated(parsed)
    assert re.search(r"_r\d+ = np\.sin\(", source)


@pytest.mark.parametrize("lanes", [None, 256])
def test_other_widths_keep_their_text(lanes):
    """The per-word reference and packed bodies own nothing."""
    parsed = _kernel("axpy", lambda ld, st, kb: [
        st(1, w, kb.fma(ld(0, w), kb.imm(0.5, F64), ld(1, w)))
        for w in range(4)])
    t = _Translator(parsed, lanes)
    source = t.translate()
    assert not t.owned and "out=" not in source
