"""The pack pass of the PTX -> NumPy generator (DESIGN.md §12).

Built for a launch width, the generator merges the per-word statements
a kernel repeats into 2-D NumPy calls.  The contract is bitwise: every
launch below also runs the kernel's packed callable and its per-word
one (``lanes=None``) on identical copies of device memory, and the
memory must be byte-for-byte equal afterwards.  The hand-written
kernels put a store to a word before a load of it, and a load of a
word between stores to its field — the two orders a pack must not
change.
"""

import re
from collections import Counter

import numpy as np
import pytest

from repro.core.context import Context
from repro.core.reduction import innerProduct, norm2
from repro.driver.jitcompiler import (_gv, _gvp, _stp, _Translator,
                                      build_sim_kernel)
from repro.driver.parser import ParsedKernel, parse_ptx
from repro.driver.packing import PACK_BYTES, PACK_MIN
from repro.memory.pool import DevicePool
from repro.ptx.builder import KernelBuilder
from repro.ptx.isa import PTXType
from repro.ptx.module import PTXModule
from repro.qcd.clover import CloverTerm
from repro.qcd.dslash import WilsonDslash
from repro.qcd.gauge import weak_gauge
from repro.qcd.solver import cg
from repro.qcd.wilson import WilsonOperator, WilsonParams
from repro.qdp.fields import latt_fermion
from repro.qdp.lattice import Lattice

#: enough device memory for every case (copied three times a launch)
POOL = 8 << 20


def _packs(parsed, lanes):
    t = _Translator(parsed, lanes)
    t.translate()
    return t.packs


def _run_both(parsed, views_of, mem, params, nsites, block):
    """Run the packed and the per-word callable from the same memory;
    returns the two memory images (``mem`` is left as it was)."""
    before = mem.copy()
    images = []
    for lanes in (nsites, None):
        mem[:] = before
        with np.errstate(all="ignore"):
            build_sim_kernel(parsed, lanes)(views_of, params,
                                            -(-nsites // block), block)
        images.append(mem.copy())
    mem[:] = before
    return images


def install_parity(monkeypatch, ctx):
    """Every launch on ``ctx``'s device first runs the kernel built for
    its width and per word and asserts both leave the same memory;
    returns the list that collects the ``(kernel name, packs)`` of
    every launch."""
    seen = []
    dev = ctx.device
    real = dev.launch

    def spy(kernel, info, params, nsites, block_size, *args, **kw):
        packed, word = _run_both(kernel.parsed, dev._views,
                                 dev.pool._mem, params, nsites,
                                 block_size)
        assert np.array_equal(packed, word), kernel.name
        seen.append((kernel.name, _packs(kernel.parsed, nsites)))
        return real(kernel, info, params, nsites, block_size,
                    *args, **kw)

    monkeypatch.setattr(dev, "launch", spy)
    return seen


@pytest.fixture()
def parity(monkeypatch):
    """``parity(ctx)``: :func:`install_parity` on ``ctx``."""
    return lambda ctx: install_parity(monkeypatch, ctx)


@pytest.fixture()
def lat():
    return Lattice((4, 4, 4, 4))


def _gauge(lat, ctx, precision="f64"):
    return weak_gauge(lat, np.random.default_rng(5), eps=0.3,
                      precision=precision, context=ctx)


def _fermion(lat, ctx, seed, precision="f64"):
    f = latt_fermion(lat, precision, ctx)
    f.gaussian(np.random.default_rng(seed))
    return f


class TestParity:
    def test_fused_cg_groups(self, parity, lat):
        ctx = Context(fusion=True, pool_capacity=POOL)
        seen = parity(ctx)
        op = WilsonOperator(_gauge(lat, ctx), WilsonParams(kappa=0.12))
        b, x, tmp = _fermion(lat, ctx, 1), op.new_fermion(), op.new_fermion()

        def apply_op(dest, src):
            op.apply_mdagm(dest, src, tmp)
            dest.assign(dest + 0.1 * src)

        cg(apply_op, x, b, tol=0.0, max_iter=3)
        ctx.flush()
        fused = [p for name, p in seen if name.startswith("fus_")]
        assert fused and all(fused)
        # the x/r/p updates pack whole: loads, arithmetic and stores
        assert any({"ld", "op", "st"} <= {k for k, _ in p} for p in fused)

    def test_lone_wilson_dslash(self, parity, lat):
        ctx = Context(fusion=False, pool_capacity=POOL)
        seen = parity(ctx)
        dslash = WilsonDslash(_gauge(lat, ctx))
        out = dslash.new_fermion()
        dslash(out, _fermion(lat, ctx, 2))
        ctx.flush()
        kinds = {k for _, p in seen for k, _ in p}
        assert {"ld", "gv", "op"} <= kinds     # links, neighbours, products
        # SU(3)'s colour rows: three-member arithmetic packs
        assert ("op", 3) in {p for _, ps in seen for p in ps}

    def test_clover(self, parity, lat):
        ctx = Context(pool_capacity=POOL)
        with ctx:
            clover = CloverTerm(_gauge(lat, ctx), coeff=0.8)
            seen = parity(ctx)
            chi = latt_fermion(lat, context=ctx)
            clover.apply(chi, _fermion(lat, ctx, 3))
            ctx.flush()
        assert any(p for _, p in seen)

    def test_checkerboard_subset(self, parity, lat):
        ctx = Context(pool_capacity=POOL)
        seen = parity(ctx)
        x, y = _fermion(lat, ctx, 4), _fermion(lat, ctx, 5)
        out = latt_fermion(lat, context=ctx)
        out.assign(3.0 * x - y, subset=lat.even)
        ctx.flush()
        assert seen and all(p for _, p in seen)

    def test_mixed_precision(self, parity, lat):
        ctx = Context(pool_capacity=POOL)
        seen = parity(ctx)
        u32 = _gauge(lat, ctx, "f32")
        psi32, phi = _fermion(lat, ctx, 6, "f32"), _fermion(lat, ctx, 7)
        chi = latt_fermion(lat, context=ctx)
        chi.assign(u32[0] * psi32 + phi)
        ctx.flush()
        assert seen and all(p for _, p in seen)

    def test_reduction_tail(self, parity, lat):
        ctx = Context(pool_capacity=POOL)
        seen = parity(ctx)
        x, y = _fermion(lat, ctx, 8), _fermion(lat, ctx, 9)
        assert norm2(x, context=ctx) > 0
        innerProduct(x, y, context=ctx)
        assert [n for n, _ in seen if n.startswith("red_")]
        assert all(p for _, p in seen)

    def test_face_copy(self, monkeypatch):
        from repro.comm.overlap import DistributedWilsonDslash
        from repro.comm.vm import VirtualMachine
        from repro.qcd import su3
        from repro.qdp.typesys import color_matrix, fermion

        dims = (4, 4, 4, 8)
        vm = VirtualMachine(dims, (1, 1, 1, 2), pool_capacity=POOL)
        seen = []
        for ctx in vm.contexts:
            dev, real = ctx.device, ctx.device.launch

            def spy(kernel, info, params, nsites, block_size, *a,
                    _dev=dev, _real=real, **kw):
                packed, word = _run_both(kernel.parsed, _dev._views,
                                         _dev.pool._mem, params, nsites,
                                         block_size)
                assert np.array_equal(packed, word), kernel.name
                seen.append(kernel.name)
                return _real(kernel, info, params, nsites, block_size,
                             *a, **kw)

            monkeypatch.setattr(dev, "launch", spy)
        rng = np.random.default_rng(10)
        n = int(np.prod(dims))
        u = [vm.field(color_matrix(), name=f"u{mu}") for mu in range(4)]
        for umu in u:
            umu.from_global(su3.random_su3_near_unit(rng, n, 0.3))
        psi = vm.field(fermion(), name="psi")
        psi.from_global(rng.normal(size=(n, 4, 3))
                        + 1j * rng.normal(size=(n, 4, 3)))
        out = vm.field(fermion(), name="chi")
        DistributedWilsonDslash(vm, u).apply(out, psi, overlap=True)
        for ctx in vm.contexts:
            ctx.flush()
        assert any(s.startswith(("gather_", "scatter_")) for s in seen)


def _cg_small(ctx, lat):
    """``cg_small``'s statement stream: two iterations of the fused CG
    on ``M^+ M + 0.1`` at 4^4 (its nine kernels, named as there)."""
    op = WilsonOperator(_gauge(lat, ctx), WilsonParams(kappa=0.12))
    b, x, tmp = _fermion(lat, ctx, 1), op.new_fermion(), op.new_fermion()

    def apply_op(dest, src):
        op.apply_mdagm(dest, src, tmp)
        dest.assign(dest + 0.1 * src)

    cg(apply_op, x, b, tol=0.0, max_iter=2)
    ctx.flush()


class TestCensus:
    """What the templates the code generator declares make of
    ``cg_small``'s kernels at 256 lanes."""

    @pytest.fixture(scope="class")
    def kernels(self):
        ctx = Context(fusion=True, pool_capacity=POOL)
        _cg_small(ctx, Lattice((4, 4, 4, 4)))
        return {e.compiled.name: e.compiled
                for e in ctx.module_cache.values()}

    @staticmethod
    def _translated(parsed):
        t = _Translator(parsed, LANES)
        t.translate()
        return t

    @pytest.mark.parametrize("name, most", [("fus_284f", 120),
                                            ("eval_727b", 100)])
    def test_the_dslash_kernels_run_little_per_word(self, kernels, name,
                                                    most):
        """Per-word op locals (element-wise statements left binding a
        local of their own): 403 and 331 when packs were searched for
        after the fact."""
        (kernel,) = [k for n, k in kernels.items() if n.startswith(name)]
        t = self._translated(kernel.parsed)
        per_word = [st for st in t._stmts if st.op and st.dst is not None]
        assert len(per_word) <= most

    def test_half_the_packed_members_sit_in_packs_of_six(self, kernels):
        heights = [k for kernel in kernels.values()
                   for kind, k in self._translated(kernel.parsed).packs
                   if kind == "op"]
        members = sorted(k for k in heights for _ in range(k))
        assert members[len(members) // 2] >= 6

    def test_parsed_text_runs_per_word_and_bitwise(self, monkeypatch, lat):
        """Text that crosses a boundary carries no templates: its build
        packs nothing, and runs bitwise as the templated build."""
        ctx = Context(fusion=True, pool_capacity=POOL)
        dev, real, seen = ctx.device, ctx.device.launch, set()

        def spy(kernel, info, params, nsites, block_size, *a, **kw):
            if kernel.name not in seen:
                seen.add(kernel.name)
                parsed = parse_ptx(kernel.ptx_text)
                assert parsed.templates is None
                assert _packs(parsed, nsites) == []
                mem, before = dev.pool._mem, dev.pool._mem.copy()
                images = []
                for p in (kernel.parsed, parsed):
                    mem[:] = before
                    with np.errstate(all="ignore"):
                        build_sim_kernel(p, nsites)(
                            dev._views, params, -(-nsites // block_size),
                            block_size)
                    images.append(mem.copy())
                mem[:] = before
                assert np.array_equal(*images), kernel.name
            return real(kernel, info, params, nsites, block_size, *a, **kw)

        monkeypatch.setattr(dev, "launch", spy)
        _cg_small(ctx, lat)
        assert len(seen) == 9


class TestMergedArrays:
    def test_merged_blocks_are_scheduled_and_bitwise(self, parity, lat):
        """The blocks of one group write one array (``out=``), and the
        body is reordered so every reader follows its writers."""
        ctx = Context(fusion=False, pool_capacity=POOL)
        seen = parity(ctx)
        dslash = WilsonDslash(_gauge(lat, ctx))
        dslash(dslash.new_fermion(), _fermion(lat, ctx, 2))
        ctx.flush()
        merged = [name for name, _ in seen if "out=" in _Translator(
            next(e.compiled.parsed for e in ctx.module_cache.values()
                 if e.compiled.name == name), LANES).translate()]
        assert merged

    def test_fma_blocks_share_one_add(self, parity, lat):
        """The fma blocks of a link multiply each write their product
        into a merged array and the last adds every block's addend in
        one call, over more rows than its own product; bitwise."""
        ctx = Context(fusion=False, pool_capacity=POOL)
        parity(ctx)
        dslash = WilsonDslash(_gauge(lat, ctx))
        dslash(dslash.new_fermion(), _fermion(lat, ctx, 2))
        ctx.flush()
        joined = re.compile(r"np\.multiply\([^;]*, out=(_r\d+)\[(\d+):(\d+)\]\);"
                            r" np\.add\(\1(\[(\d+):(\d+)\])?, ")
        spans = [(m.group(2, 3), m.group(5, 6))
                 for e in ctx.module_cache.values()
                 for m in joined.finditer(
                     _Translator(e.compiled.parsed, LANES).translate())]
        assert any(c is None or int(d) - int(c) > int(b) - int(a)
                   for (a, b), (c, d) in spans)

    def test_without_an_order_the_kernel_packs_unmerged(self, monkeypatch,
                                                       lat):
        """Should the reads of merged arrays form a cycle, the kernel is
        packed again without merging, still bitwise."""
        from repro.driver.packing import PackPass
        monkeypatch.setattr(PackPass, "_schedule", lambda self, sub: False)
        ctx = Context(fusion=False, pool_capacity=POOL)
        seen = install_parity(monkeypatch, ctx)
        dslash = WilsonDslash(_gauge(lat, ctx))
        dslash(dslash.new_fermion(), _fermion(lat, ctx, 2))
        ctx.flush()
        for entry in ctx.module_cache.values():
            t = _Translator(entry.compiled.parsed, LANES)
            assert "out=" not in t.translate() and not t._merged
        assert all(packs for _, packs in seen)


class TestWhenToPack:
    def test_packs_form_at_256_lanes_and_none_at_4096(self, launch_spy,
                                                      lat):
        ctx = Context(pool_capacity=POOL)
        calls = launch_spy(ctx)
        op = WilsonOperator(_gauge(lat, ctx), WilsonParams(kappa=0.12))
        b, x, tmp = _fermion(lat, ctx, 1), op.new_fermion(), op.new_fermion()
        cg(lambda d, s: op.apply_mdagm(d, s, tmp), x, b, tol=0.0, max_iter=2)
        ctx.flush()
        kernels = {e.compiled.name: e.compiled.parsed
                   for e in ctx.module_cache.values()}
        assert {name for name, _, _ in calls} <= set(kernels)
        for name, parsed in kernels.items():
            assert _packs(parsed, 256), name
            assert not _packs(parsed, 4096), name
        # the budget: an f64 row of 4 096 lanes is 32 KiB
        assert PACK_BYTES // (4096 * 8) < PACK_MIN

    def test_a_packed_body_reads_all_it_computes(self, lat):
        """On every kernel of a fused CG at 256 lanes the prologue
        defines only scalars the body reads, and the body binds no
        local that nothing reads (a packed member's address product)."""
        ctx = Context(fusion=True, pool_capacity=POOL)
        op = WilsonOperator(_gauge(lat, ctx), WilsonParams(kappa=0.12))
        b, x, tmp = _fermion(lat, ctx, 1), op.new_fermion(), op.new_fermion()

        def apply_op(dest, src):
            op.apply_mdagm(dest, src, tmp)
            dest.assign(dest + 0.1 * src)

        cg(apply_op, x, b, tol=0.0, max_iter=2)
        ctx.flush()
        assert len(ctx.module_cache) == 9
        for entry in ctx.module_cache.values():
            t = _Translator(entry.compiled.parsed, lat.nsites)
            prologue, body = t.translate().split("    _pre = True\n")
            scalars = re.findall(r"^    (_s\d+) = ", prologue, re.M)
            assert scalars, entry.compiled.name
            for s in scalars:
                assert re.search(rf"\b{s}\b", body), (entry.compiled.name, s)
            names = re.findall(r"\b_v\d+\b", "\n".join(t.lines))
            dead = [n for n, c in Counter(names).items() if c == 1]
            assert not dead, (entry.compiled.name, dead)

    def test_no_lanes_no_packs(self, lat):
        ctx = Context(pool_capacity=POOL)
        x = _fermion(lat, ctx, 1)
        out = latt_fermion(lat, context=ctx)
        out.assign(2.0 * x)
        ctx.flush()
        (entry,) = ctx.module_cache.values()
        assert _packs(entry.compiled.parsed, None) == []
        assert _packs(entry.compiled.parsed, lat.nsites)

    def test_a_packed_kernel_checks_its_fields_are_distinct(self, lat):
        ctx = Context(pool_capacity=POOL)
        x, y = _fermion(lat, ctx, 1), _fermion(lat, ctx, 2)
        out = latt_fermion(lat, context=ctx)
        out.assign(x + y)
        ctx.flush()
        (entry,) = ctx.module_cache.values()
        func = build_sim_kernel(entry.compiled.parsed, lat.nsites)
        params = {"p_lo": lat.nsites, "p_n": lat.nsites,
                  "p_f0": 1 << 12, "p_f1": 1 << 12, "p_f2": 1 << 16}
        pool = DevicePool(1 << 20)
        views = {v: pool.view(v) for v in ("float64", "int32")}
        with pytest.raises(ValueError, match="same field"):
            func(views, params, lat.nsites // 128, 128)


# -- hand-written kernels in the generated shape -------------------------

F64 = PTXType.F64
LANES = 256


def _soa_kernel(name, body, nfields=2):
    """A kernel shaped like the statement generator's: ``p_lo``,
    ``p_n`` and ``p_f<i>`` fields in the SoA layout, a canonical bounds
    check; ``body(ld, st, kb)`` emits the work through ``ld(f, w)`` and
    ``st(f, w, value)``, declaring the templates it repeats
    (``kb.template(key, ((), (w,)))``) as the unparser does.  Returns
    the builder's stream, as the JIT receives it."""
    kb = KernelBuilder(name)
    p_lo = kb.add_param("p_lo", PTXType.S32)
    p_n = kb.add_param("p_n", PTXType.S32)
    fields = [kb.add_param(f"p_f{i}", PTXType.U64, is_pointer=True)
              for i in range(nfields)]
    nsites, n = kb.ld_param(p_lo), kb.ld_param(p_n)
    bases = [kb.ld_param(p) for p in fields]
    gid = kb.global_thread_id()
    exit_lbl = kb.new_label("EXIT")
    kb.bra(exit_lbl, guard=kb.setp("ge", gid, n))
    plane = kb.words_to_bytes(nsites, 8)
    site = kb.words_to_bytes(gid, 8)

    def ld(f, w):
        return kb.ld_global(kb.soa_address(bases[f], plane, w, site), F64)

    def st(f, w, value):
        kb.st_global(kb.soa_address(bases[f], plane, w, site), value, F64)

    body(ld, st, kb)
    kb.label(exit_lbl)
    kb.ret()
    module = PTXModule.from_builder(kb)
    return ParsedKernel(name, module.info.params, module.instructions,
                        templates=module.templates)


def _member(w):
    """Word ``w``'s member of a template over a colour vector."""
    return ((), (w,))


def _launch_both(parsed, words=8, nfields=2):
    """Run ``parsed`` packed and per word over ``nfields`` random fields
    of ``words`` planes; returns the two pool images."""
    pool = DevicePool(1 << 20)
    rng = np.random.default_rng(21)
    params = {"p_lo": LANES, "p_n": LANES}
    for i in range(nfields):
        params[f"p_f{i}"] = addr = pool.allocate(words * LANES * 8)
        pool.write(addr, rng.normal(size=words * LANES))
    views = {v: pool.view(v) for v in ("float64", "int32")}
    return _run_both(parsed, views, pool.view(np.uint8), params, LANES, 128)


class TestAliasing:
    def test_a_store_before_a_load_of_its_word(self):
        """Word 5 of field 0 is stored between the loads of words 0-3
        and 4-7: the load of word 5 must read the stored value, so the
        load group splits there — words 0-4 pack, and 5-7 form a second
        pack placed after the store."""
        def body(ld, st, kb):
            x = [ld(0, w) for w in range(4)]
            st(0, 5, kb.add(x[0], x[1]))
            x += [ld(0, w) for w in range(4, 8)]
            for w in range(8):
                with kb.template("twice", _member(w)):
                    y = kb.mul(x[w], kb.imm(2.0, F64))
                st(1, w, y)

        parsed = _soa_kernel("store_then_load", body)
        packed, word = _launch_both(parsed)
        assert np.array_equal(packed, word)
        assert [p for p in _packs(parsed, LANES) if p[0] == "ld"] == [
            ("ld", 5), ("ld", 3)]

    def test_a_load_between_stores_of_its_field(self):
        """Words 0-7 of field 1 are stored from one pack, and word 1 is
        loaded between the stores of words 3 and 4: the load must see
        the stored word, so no store may sink past it."""
        def body(ld, st, kb):
            x = [ld(0, w) for w in range(8)]
            y = []
            for w, v in enumerate(x):
                with kb.template("thrice", _member(w)):
                    y.append(kb.mul(v, kb.imm(3.0, F64)))
            for w in range(4):
                st(1, w, y[w])
            back = ld(1, 1)
            for w in range(4, 8):
                st(1, w, y[w])
            st(0, 0, back)

        parsed = _soa_kernel("load_between_stores", body)
        packed, word = _launch_both(parsed)
        assert np.array_equal(packed, word)
        assert ("st", 4) in _packs(parsed, LANES)   # two packs of four

    def test_a_load_before_a_store_to_its_word(self):
        """In-place update, word by word: each word is loaded, then
        stored; the load pack reads every word before any store."""
        def body(ld, st, kb):
            for w in range(8):
                a, b = ld(0, w), ld(1, w)
                with kb.template("sum", _member(w)):
                    c = kb.add(a, b)
                st(0, w, c)

        parsed = _soa_kernel("load_then_store", body)
        packed, word = _launch_both(parsed)
        assert np.array_equal(packed, word)
        assert {k for k, _ in _packs(parsed, LANES)} == {"ld", "op", "st"}

    def test_fused_axpy_then_update_through_it(self, parity, lat):
        """``x = x + a p; r = r - a x``: one fused kernel stores x and
        then reads the x it stored."""
        ctx = Context(fusion=True, pool_capacity=POOL)
        seen = parity(ctx)
        x, p, r = (_fermion(lat, ctx, s) for s in (11, 12, 13))
        x.assign(x + 0.25 * p)
        r.assign(r - 0.25 * x)
        ctx.flush()
        (name, packs), = seen
        assert name.startswith("fus_") and packs


def _scaled(kb, x):
    """``2 x_w`` for each word, declared as one template."""
    y = []
    for w, v in enumerate(x):
        with kb.template("twice", _member(w)):
            y.append(kb.mul(v, kb.imm(2.0, F64)))
    return y


class TestStoreRuns:
    @staticmethod
    def _body(load_between):
        """Field 1's words 0-6 take rows of two op packs over field 0's
        words 0-2, interleaved, and one per-word local, and word 7 a
        constant; with ``load_between`` word 2 of field 1 is read back
        after word 3 is stored and copied to field 0."""
        def body(ld, st, kb):
            x = [ld(0, w) for w in range(3)]
            y, z = _scaled(kb, x), []
            for w, v in enumerate(x):
                with kb.template("plus_one", _member(w)):
                    z.append(kb.add(v, kb.imm(1.0, F64)))
            vals = [y[0], z[0], y[1], z[1], y[2], z[2], kb.sub(x[0], x[1]),
                    kb.imm(0.5, F64)]
            for w, v in enumerate(vals):
                st(1, w, v)
                if load_between and w == 3:
                    st(0, 7, ld(1, 2))
        return body

    def test_values_from_two_packs_and_a_local_form_one_store(self):
        """The constant, which may be a launch scalar, keeps its own
        block store."""
        parsed = _soa_kernel("store_any_rows", self._body(False))
        packed, word = _launch_both(parsed)
        assert np.array_equal(packed, word)
        assert [p for p in _packs(parsed, LANES) if p[0] == "st"] == [
            ("st", 7)]
        source = _Translator(parsed, LANES).translate()
        assert source.count("_stp(") == 1 and source.count("_stc(") == 1

    def test_a_word_stored_twice_splits_the_run(self):
        """Word 1 of field 1 is stored, then stored again: the second
        value is the one memory must keep."""
        def body(ld, st, kb):
            x = [ld(0, w) for w in range(3)]
            y = _scaled(kb, x)
            for w in range(3):
                st(1, w, y[w])
            st(1, 1, x[2])
            for w in range(3):
                st(1, 3 + w, y[w])

        parsed = _soa_kernel("store_twice", body)
        packed, word = _launch_both(parsed)
        assert np.array_equal(packed, word)
        assert [p for p in _packs(parsed, LANES) if p[0] == "st"] == [
            ("st", 3), ("st", 3)]

    def test_a_load_of_the_field_between_members_splits_the_run(self):
        parsed = _soa_kernel("store_any_rows_split", self._body(True))
        packed, word = _launch_both(parsed)
        assert np.array_equal(packed, word)
        assert [p for p in _packs(parsed, LANES) if p[0] == "st"] == [
            ("st", 4), ("st", 3)]


class TestStoreParts:
    def test_parts_land_on_their_rows_by_block_and_row_by_row(self):
        """A store pack's parts — rows of packs at evenly stepped
        positions, a lone local — write what a tuple of their rows
        would, through the block and through the per-row fallback."""
        nt, lo = 8, 8
        a = np.arange(3 * nt, dtype=np.float64).reshape(3, nt) + 100
        b = -np.arange(2 * nt, dtype=np.float64).reshape(2, nt)
        v = np.full(nt, 7.0)
        want = np.stack([a[0], b[0], a[1], b[1], a[2], v])
        for pre in (True, False):
            view = np.zeros(6 * lo + 4)
            _stp(view, 2, lo, 6, 1, nt, pre, np.arange(nt),
                 ((0, 5, 2, a), (1, 4, 2, b), (5, 6, 1, v)), tuple(range(6)))
            assert np.array_equal(view[2:2 + 6 * lo].reshape(6, lo), want)


class TestSplitProducts:
    def test_a_running_sum_of_squares(self):
        """``s = x0*x0; s = x_w*x_w + s`` over six words: the addend
        differs per member, so the products pack as one (the ``mul``
        a row of it) and each fma keeps its add, bitwise per word."""
        def body(ld, st, kb):
            x = [ld(0, w) for w in range(6)]
            s = None
            for w, v in enumerate(x):
                with kb.template("norm2", _member(w)):
                    s = kb.mul(v, v) if s is None else kb.fma(v, v, s)
            st(1, 0, s)

        parsed = _soa_kernel("sum_of_squares", body)
        packed, word = _launch_both(parsed)
        assert np.array_equal(packed, word)
        assert _packs(parsed, LANES) == [("ld", 6), ("op", 6)]
        source = _Translator(parsed, LANES).translate()
        # one packed product, then five adds of its rows
        assert len(re.findall(r"\(\w+ \* \w+\)", source)) == 1
        assert len(re.findall(r"\(\w+\[\d\] \+ ", source)) == 5


class TestGather:
    def test_a_take_reads_the_words_of_the_literal_index(self):
        view = np.arange(8 * LANES, dtype=np.float64)
        gb = np.random.default_rng(4).permutation(LANES).astype(np.int64)
        for s in (0, 3 * LANES, 7 * LANES):
            assert np.array_equal(_gv(view, gb, s, None, 0), view[gb + s])

    @pytest.mark.parametrize("bad", [-1, -LANES])
    def test_a_negative_index_takes_the_literal_path(self, bad):
        """``view[s:].take`` would wrap a negative index from the end of
        the plane; the literal ``view[gb + s]`` reads word ``s + bad``."""
        view = np.arange(8 * LANES, dtype=np.float64)
        gb = np.arange(LANES, dtype=np.int64)
        gb[5] = bad
        got = _gv(view, gb, 2 * LANES, None, 0)
        assert np.array_equal(got, view[gb + 2 * LANES])
        assert got[5] == 2 * LANES + bad

    def test_an_index_past_the_view_raises_as_the_literal_one(self):
        view = np.arange(8 * LANES, dtype=np.float64)
        gb = np.arange(LANES, dtype=np.int64)
        gb[9] = 8 * LANES
        with pytest.raises(IndexError):
            _gv(view, gb, 0, None, 0)
        with pytest.raises(IndexError):
            view[gb]


class TestPackedGather:
    @pytest.mark.parametrize("bad", [None, -1, LANES, 3 * LANES])
    def test_take_along_planes_reads_the_flat_words(self, bad):
        """``_gvp`` gathers along the planes of one ``(k, lo)`` view only
        when every index lies in a plane; an index outside (negative,
        or into a later plane) reads the word the flat index names."""
        view = np.arange(8 * LANES, dtype=np.float64)
        gb = np.random.default_rng(3).permutation(LANES).astype(np.int64)
        if bad is not None:
            gb[7] = bad
        flat = view[np.arange(LANES, 4 * LANES, LANES)[:, None] + gb]
        got = _gvp(view, LANES, LANES, 3, gb)
        assert got.shape == (3, LANES) and np.array_equal(got, flat)
