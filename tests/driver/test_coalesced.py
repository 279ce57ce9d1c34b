"""Retired lanes and coalesced accesses: the exactness conditions.

The driver JIT drops the lanes that take the canonical bounds-check
exit and executes an access ``uniform + width * gid`` as one block
copy — when no mask is live, the surviving lanes are exactly gids
``0 .. c-1`` and the block lies inside the view.  Everything else
takes the literal gather/scatter path, which a kernel outside the
canonical shape (here: one extra label, so the mask machinery runs and
the launch's spare threads keep a mask live) still reaches for every
access.  Each case runs under both dispatch names and is compared
bitwise with that literal path.
"""

import collections

import numpy as np
import pytest

from repro.driver import JITCompileError, compile_ptx, jitcompiler
from repro.driver.jitcompiler import _Translator, build_sim_kernel
from repro.driver.parser import parse_ptx
from repro.llvm import compile_cpu_kernel
from repro.memory.pool import DevicePool
from repro.ptx.isa import Register

from .test_op_table import _VIEWS, _kernel

BUILD = {"sim": lambda text: build_sim_kernel(parse_ptx(text)),
         "cpu": compile_cpu_kernel}
BACKENDS = list(BUILD)

#: out[g] = x[g] * y[g] + z[g]: four coalescable accesses
AXPY = ["ld.global.f64 %fd20, [%ru5];",
        "ld.global.f64 %fd21, [%ru6];",
        "ld.global.f64 %fd22, [%ru7];",
        "fma.rn.f64 %fd23, %fd20, %fd21, %fd22;",
        "st.global.f64 [%ru8], %fd23;"]


def _masked(text):
    """The same kernel outside the canonical shape: a second label
    keeps the mask machinery, so spare threads mean a live mask."""
    assert text.count("$EXIT:\n") == 1
    return text.replace("$EXIT:\n", "$PAD:\n$EXIT:\n")


def _translated(text):
    t = _Translator(parse_ptx(text))
    t.translate()
    return t


def _accesses(text):
    """``{instruction text: coalesced?}`` for the global accesses."""
    t = _translated(text)
    insts = t.parsed.instructions
    return {i.render(): pos in t.coalesced for pos, i in enumerate(insts)
            if i.opcode in ("ld.global", "st.global")}


@pytest.fixture()
def literal_calls(monkeypatch):
    """Counts the accesses the coalesced helpers hand to the literal
    path at run time."""
    calls = []
    for name in ("_ld", "_st"):
        real = getattr(jitcompiler, name)
        monkeypatch.setattr(
            jitcompiler, name,
            lambda *a, _real=real, _name=name: (calls.append(_name),
                                                _real(*a))[1])
    return calls


def _inputs(sites):
    rng = np.random.default_rng(11)
    return {**{a: rng.normal(size=sites) for a in "xyz"},
            "out": np.full(sites, -1.0)}


def _launch(backend, text, n, grid, block, sites=None, params=None):
    """Run ``text`` over four buffers of ``sites`` 8-byte slots filled
    by :func:`_inputs`; returns them as float64 arrays, plus the whole
    pool under ``"image"``."""
    sites = sites or grid * block
    pool = DevicePool(1 << 16)
    addrs = {}
    for a, values in _inputs(sites).items():
        addrs[a] = pool.allocate(sites * 8)
        pool.write(addrs[a], values)
    bound = {"p_n": n, **{f"p_{a}": addr for a, addr in addrs.items()},
             **(params or {})}
    with np.errstate(all="ignore"):
        BUILD[backend](text)({v: pool.view(v) for v in _VIEWS}, bound,
                             grid, block)
    return {"image": pool.view(np.uint8).copy(),
            **{a: pool.read(addr, sites * 8, np.float64)
               for a, addr in addrs.items()}}


def _same(a, b):
    return np.array_equal(a["image"], b["image"])


@pytest.mark.parametrize("backend", BACKENDS)
class TestExactness:
    def test_prefix_survivors_take_the_block_path(self, backend,
                                                  literal_calls):
        text = _kernel("co_axpy", AXPY)
        assert all(_accesses(text).values())
        got = _launch(backend, text, n=100, grid=1, block=128)
        assert literal_calls == []
        ref = _launch(backend, _masked(text), n=100, grid=1, block=128)
        assert literal_calls.count("_ld") == 3 and "_st" in literal_calls
        assert _same(got, ref)
        assert np.array_equal(got["out"][:100], (
            got["x"] * got["y"] + got["z"])[:100])

    def test_a_load_is_a_copy(self, backend):
        """Load a word, overwrite it, then store the loaded register:
        the register must hold what was loaded."""
        lines = ["ld.global.f64 %fd20, [%ru5];",
                 "mov.f64 %fd21, 42.0;",
                 "st.global.f64 [%ru5], %fd21;",
                 "st.global.f64 [%ru8], %fd20;"]
        text = _kernel("co_copy", lines)
        assert all(_accesses(text).values())
        got = _launch(backend, text, n=12, grid=1, block=16)
        assert _same(got, _launch(backend, _masked(text), n=12, grid=1,
                                  block=16))
        x0 = _inputs(16)["x"]
        assert np.array_equal(got["x"], np.r_[np.full(12, 42.0), x0[12:]])
        assert np.array_equal(got["out"], np.r_[x0[:12], np.full(4, -1.0)])

    def test_odd_lanes_exit(self, backend, literal_calls):
        """A non-prefix exit predicate: survivors are retired exactly
        and every access takes the literal path."""
        text = _kernel("co_odd", AXPY).replace(
            "    setp.ge.s32 %p0, %r1, %r0;\n",
            "    and.s32 %r2, %r1, 1;\n    setp.eq.s32 %p0, %r2, 1;\n")
        assert all(_accesses(text).values())
        got = _launch(backend, text, n=0, grid=2, block=16)
        assert literal_calls.count("_ld") == 3 \
            and literal_calls.count("_st") == 1
        assert _same(got, _launch(backend, _masked(text), n=0, grid=2,
                                  block=16))
        out = got["out"]
        assert np.all(out[1::2] == -1.0) and not np.any(out[::2] == -1.0)

    def test_no_survivor_leaves_memory_untouched(self, backend,
                                                 literal_calls):
        text = _kernel("co_axpy", AXPY)
        before = _launch(backend, text.replace(
            "st.global.f64 [%ru8], %fd23;", ""), n=0, grid=1, block=32)
        got = _launch(backend, text, n=0, grid=1, block=32)
        assert _same(got, before) and literal_calls == []

    def test_block_size_does_not_change_the_bytes(self, backend):
        text = _kernel("co_axpy", AXPY)
        images = [_launch(backend, text, n=100, grid=grid, block=block,
                          sites=1024)
                  for grid, block in ((4, 32), (1, 128), (1, 1024))]
        assert _same(images[0], images[1]) and _same(images[0], images[2])
        assert _same(images[0], _launch(backend, _masked(text), n=100,
                                        grid=1, block=128, sites=1024))
        out = images[0]["out"]
        assert not np.any(out[:100] == -1.0) and np.all(out[100:] == -1.0)

    def test_a_uniform_half_the_cpu_fold_does_not_follow(self, backend,
                                                         literal_calls):
        """``and`` is not a ring operation, so the fold stops there: the
        base is materialized, the address formed and the store takes
        the literal path — to the same bytes."""
        lines = AXPY[:-1] + ["and.u64 %ru20, %ru3, 18446744073709551615;",
                             "add.u64 %ru21, %ru4, %ru20;",
                             "st.global.f64 [%ru21], %fd23;"]
        text = _kernel("co_and", lines)
        assert _accesses(text)["st.global.f64 [%ru21], %fd23;"] is False
        got = _launch(backend, text, n=10, grid=1, block=16)
        assert literal_calls == []
        assert _same(got, _launch(backend, _masked(text), n=10, grid=1,
                                  block=16))
        assert _same(got, _launch(backend, _kernel("co_axpy", AXPY), n=10,
                                  grid=1, block=16))

    def test_a_block_outside_the_view_raises_what_the_gather_raises(
            self, backend):
        text = _kernel("co_axpy", AXPY)
        beyond = {"p_out": (1 << 16) - 4 * 8}      # 4 slots left, 8 lanes
        for variant in (text, _masked(text)):
            with pytest.raises(IndexError):
                _launch(backend, variant, n=8, grid=1, block=8,
                        params=beyond)


class TestNotCoalesced:
    """The fold declines a block copy; the access is then a gather or
    scatter."""

    def _flags(self, name, lines):
        text = _kernel(name, lines)
        return _accesses(text), text

    def test_a_guarded_access(self):
        flags, _ = self._flags("no_guard", [
            "ld.global.f64 %fd20, [%ru5];",
            "setp.gt.f64 %p1, %fd20, 0.0;",
            "@%p1 st.global.f64 [%ru8], %fd20;"])
        assert flags == {"ld.global.f64 %fd20, [%ru5];": True,
                         "@%p1 st.global.f64 [%ru8], %fd20;": False}

    def test_a_stride_wider_than_the_access(self):
        """``cvt-u64-u32`` of the op table: 4-byte words at an 8-byte
        stride."""
        flags, _ = self._flags("no_stride", [
            "ld.global.u32 %u20, [%ru5];",
            "cvt.u64.u32 %ru20, %u20;",
            "st.global.u64 [%ru8], %ru20;"])
        assert flags == {"ld.global.u32 %u20, [%ru5];": False,
                         "st.global.u64 [%ru8], %ru20;": True}

    def test_a_register_assigned_twice(self, monkeypatch):
        """Outside the one language the JIT accepts: ``compile_ptx``
        rejects it in every ``REPRO_VERIFY`` mode, naming the register,
        so the fold never sees a chain that changes under it."""
        for twice, reg in (("add.u64 %ru8, %ru3, %ru4;", "%ru8"),  # address
                           ("mov.u64 %ru3, %ru2;", "%ru3"),     # uniform half
                           ("cvt.u64.s64 %ru4, %rd1;", "%ru4")):  # stride half
            text = _kernel("no_twice", [twice] + AXPY)
            for mode in ("off", "warn", "error"):
                monkeypatch.setenv("REPRO_VERIFY", mode)
                with pytest.raises(JITCompileError,
                                   match=rf"'no_twice'.*{reg} redefined"):
                    compile_ptx(text)

    def test_a_stride_that_could_wrap(self):
        """``gid * 2**30`` leaves ``u32`` within the launch bound: not
        an exact multiple of the thread id any more."""
        flags, _ = self._flags("no_wrap", [
            "mul.lo.u32 %u20, %u3, 1073741824;",
            "cvt.u64.u32 %ru20, %u20;",
            "shr.u64 %ru21, %ru20, 27;",
            "add.u64 %ru22, %ru3, %ru21;",
            "st.global.f64 [%ru22], 1.0;"])
        assert flags == {"st.global.f64 [%ru22], 1.0;": False}

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_declined_accesses_still_run_bitwise_equal(self, backend):
        lines = ["ld.global.f64 %fd20, [%ru5];",
                 "ld.global.f32 %f20, [%ru6];",
                 "cvt.f64.f32 %fd21, %f20;",
                 "add.f64 %fd22, %fd20, %fd21;",
                 "setp.gt.f64 %p1, %fd20, 0.0;",
                 "@%p1 st.global.f64 [%ru8], %fd22;"]
        text = _kernel("no_use_run", lines)
        assert list(_accesses(text).values()) == [True, False, False]
        assert _same(_launch(backend, text, n=9, grid=1, block=16),
                     _launch(backend, _masked(text), n=9, grid=1, block=16))


class TestCoalescedAnyway:
    """Shapes the fold coalesces that a recogniser of unformed
    addresses had to decline."""

    def test_an_address_with_one_other_use(self):
        """The other use gets its own value; the access still needs
        none."""
        text = _kernel("co_use", AXPY + ["add.u64 %ru20, %ru8, 8;",
                                         "st.global.u64 [%ru7], %ru20;"])
        flags = _accesses(text)
        assert flags.pop("st.global.u64 [%ru7], %ru20;") is True
        assert all(flags.values())
        assert not any(ln.strip().startswith("R")
                       for ln in _translated(text).lines)

    def test_one_address_for_two_widths(self):
        """Each access is judged by its own width: a 4-byte load at an
        8-byte stride is a gather."""
        text = _kernel("co_widths", ["ld.global.f64 %fd20, [%ru5];",
                                     "ld.global.f32 %f20, [%ru5];",
                                     "st.global.f64 [%ru8], %fd20;"])
        assert _accesses(text) == {"ld.global.f64 %fd20, [%ru5];": True,
                                   "ld.global.f32 %f20, [%ru5];": False,
                                   "st.global.f64 [%ru8], %fd20;": True}


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_statement_reading_its_destination(backend, monkeypatch, lat4):
    """``psi = u * psi``: every component of the product reads words
    the same kernel overwrites."""
    from repro.core.context import Context
    from repro.qcd import su3
    from repro.qdp.fields import latt_color_matrix, latt_fermion

    monkeypatch.setenv("REPRO_BACKEND", backend)
    ctx = Context()
    rng = np.random.default_rng(3)
    u = latt_color_matrix(lat4, context=ctx)
    u.from_numpy(su3.random_su3(rng, lat4.nsites))
    psi = latt_fermion(lat4, context=ctx)
    psi.gaussian(rng)
    u0, psi0 = u.to_numpy(), psi.to_numpy()
    psi.assign(u * psi)
    want = np.einsum("nab,nsb->nsa", u0, psi0)
    np.testing.assert_allclose(psi.to_numpy(), want, rtol=1e-13, atol=1e-13)
    assert ctx.stats.backend.mode == backend


# --- the recogniser against the abstract interpreter --------------------------

def _generated_kernels(monkeypatch):
    """``(name, parsed, env)`` of every kernel of the ``repro.lint``
    suite and of ``expr_zoo``'s whole expression pool, with the launch
    env each was verified under."""
    import warnings
    from pathlib import Path

    from repro.lint import _build_kernel_suite, _suite_modules

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ctx, lat, _ = _build_kernel_suite((2, 2, 2, 2))
        entries = [(m.name, c.parsed, env)
                   for m, c, env in _suite_modules(ctx, lat)]
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"))
        import workloads

        zoo = workloads.ExprZoo()
        inputs = zoo.generate(seed=0, smoke=True)
        inputs["names"] = workloads.ZOO_REQUIRED + workloads.ZOO_OPTIONAL
        state = zoo.bind(inputs)
        zoo.run(state)
        entries += [(e.module.name, e.compiled.parsed, e.env)
                    for e in state.ctx.module_cache.values()]
    return entries


def _pointer_of(parsed, addr):
    """The pointer parameters an address register is computed from —
    following its definitions, not through a load (a table read's own
    address is another access)."""
    defs = {i.dst.key: i for i in parsed.instructions if i.dst is not None}
    pointers = {p.name for p in parsed.params if p.is_pointer}
    found, todo, seen = set(), [addr], set()
    while todo:
        reg = todo.pop()
        if reg.key in seen:
            continue
        seen.add(reg.key)
        inst = defs[reg.key]
        if inst.opcode == "ld.param":
            found |= {inst.srcs[0].pname} & pointers
        elif inst.opcode != "ld.global":
            todo += [s for s in inst.srcs if isinstance(s, Register)]
    return found


def test_recogniser_agrees_with_absint(monkeypatch):
    """An independent witness: absint's facts per access under the
    recorded launch env.  Every access the generator coalesces must
    have ``stride_bytes == width`` there; on a kernel that reads no
    site table (where a unit stride can only come from ``gid`` itself,
    never from a table's content) the two sets are equal.  Every access
    indexed through a folded vector (``_gv``/``_pv``: the table-driven
    shift and subset accesses) is proven in bounds in the region of
    the pointer its address is formed from, and every access through a
    launch-uniform word (``_gs``/``_ps``) is uniform."""
    from repro.ptx.absint import analyze_module
    from repro.ptx.isa import KernelInfo, PTXType
    from repro.ptx.module import PTXModule

    from repro.ptx.absint import KernelEnv, MemRegion

    kernels = _generated_kernels(monkeypatch)
    assert len(kernels) >= 30
    # no generated kernel reads a launch-uniform word: one that does
    text = _kernel("uniform_word", ["ld.global.f64 %fd20, [%ru0];",
                                    "ld.global.f64 %fd21, [%ru5];",
                                    "add.f64 %fd22, %fd20, %fd21;",
                                    "st.global.f64 [%ru3], %fd22;"])
    regions = {f"p_{a}": MemRegion(f"p_{a}", 64) for a in "x y z out".split()}
    kernels.append(("uniform_word", parse_ptx(text),
                    KernelEnv(scalars={"p_n": 8}, regions=regions)))
    n_equal = 0
    helpers = collections.Counter()
    for name, parsed, env in kernels:
        module = PTXModule(
            info=KernelInfo(name=parsed.name, params=list(parsed.params)),
            instructions=list(parsed.instructions))
        facts = {a.pos: a for a in analyze_module(module, env=env).accesses}
        unit = {p for p, a in facts.items() if a.stride_bytes == a.width}
        tables = any(i.opcode == "ld.global" and i.type is PTXType.S32
                     for i in parsed.instructions)
        t = _Translator(parsed)
        t.translate()
        assert set(t.coalesced) <= unit, name
        if not tables:
            assert set(t.coalesced) == unit, name
            n_equal += 1
        for pos, helper in t.accesses.items():
            helpers[helper] += 1
            fact = facts[pos]
            if helper in ("_gv", "_pv"):
                (pointer,) = _pointer_of(parsed,
                                         parsed.instructions[pos].srcs[0])
                assert fact.verdict == "proven", (name, pos)
                assert fact.region == pointer, (name, pos)
            elif helper in ("_gs", "_ps"):
                assert fact.uniform, (name, pos)
    assert n_equal >= 15, n_equal    # the table-free kernels
    assert helpers["_gv"] > 0 and helpers["_pv"] > 0, helpers
    assert helpers["_gs"] > 0 and helpers["_ps"] > 0, helpers
