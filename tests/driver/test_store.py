"""The process-wide module table and kernel store, and their views.

One generated module per structural key and one artifact per distinct
PTX text per process; a context's module cache and its ``KernelCache``
are accounting views of them.  Everything modeled and every counter
follows the view's own history (so nothing depends on which test ran
first); only what is *built* depends on the table and the store.
"""

import warnings

import numpy as np
import pytest

from repro.core import context as context_mod, fusion
from repro.core.context import Context
from repro.core.expr import shift
from repro.core.reduction import innerProduct, norm2
from repro.driver import JITCompileError, KernelCache, clear_kernel_store
from repro.driver import backends, cache as cache_mod, jitcompiler
from repro.llvm import cputarget
from repro.ptx.absint import KernelEnv, MemRegion
from repro.ptx.liveness import max_live_registers
from repro.ptx.module import PTXModule
from repro.qdp.fields import latt_fermion
from repro.qdp.lattice import Lattice

N = 8

_PTX = """
.version 3.1
.target sm_35
.address_size 64

.visible .entry {name}(
    .param .u64 .ptr .global p_dst,
    .param .s32 p_n
)
{{
    .reg .pred %p<2>;
    .reg .s32 %r<2>;
    .reg .u32 %u<4>;
    .reg .u64 %ru<3>;
    .reg .s64 %rd<2>;
    .reg .f64 %fd<3>;

    ld.param.s32 %r0, [p_n];
    ld.param.u64 %ru0, [p_dst];
    mov.u32 %u0, %ctaid.x;
    mov.u32 %u1, %ntid.x;
    mov.u32 %u2, %tid.x;
    mad.lo.u32 %u3, %u0, %u1, %u2;
    cvt.s32.u32 %r1, %u3;
    setp.ge.s32 %p0, %r1, %r0;
    @%p0 bra $EXIT;
    cvt.s64.s32 %rd0, %r1;
    mul.lo.s64 %rd1, %rd0, {stride};
    cvt.u64.s64 %ru1, %rd1;
    add.u64 %ru2, %ru0, %ru1;
    ld.global.f64 %fd0, [%ru2];
    {body}
    st.global.f64 [%ru2], %fd1;
$EXIT:
    ret;
}}
"""

_DOUBLE = "mul.f64 %fd1, %fd0, 2.0;"


def _ptx(name, body=_DOUBLE, stride=8):
    return _PTX.format(name=name, body=body, stride=stride)


def _env(n, nbytes=N * 8):
    """Launch facts: ``n`` threads over a buffer of ``nbytes``."""
    return KernelEnv(scalars={"p_n": n},
                     regions={"p_dst": MemRegion("p_dst", nbytes)})


#: a buffer too small for even one element: every access is out of it
_TOO_SMALL = _env(N, nbytes=4)


class _Spy:
    """Counts calls of ``holder.name`` (and passes them through)."""

    def __init__(self, monkeypatch, holder, name):
        self.calls = 0
        original = getattr(holder, name)

        def spy(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(holder, name, spy)


@pytest.fixture()
def cold_store(monkeypatch):
    clear_kernel_store()
    for knob in ("REPRO_BACKEND", "REPRO_VERIFY"):
        monkeypatch.delenv(knob, raising=False)
    return monkeypatch


def _statements():
    """Eager, fused, subset, shifted and reduction kernels on a fresh
    context; returns everything a second context must reproduce."""
    ctx = Context()
    lat = Lattice((2, 2, 2, 4))
    rng = np.random.default_rng(11)
    a, b, c = (latt_fermion(lat, context=ctx) for _ in range(3))
    a.gaussian(rng)
    b.assign(2.0 * a)
    c.assign(b + a)
    ctx.flush()
    c.assign(shift(b.ref(), +1, 3), subset=lat.even)
    scalars = (norm2(c, context=ctx), innerProduct(a, c, context=ctx))
    return {
        "fields": (b.to_numpy().tobytes(), c.to_numpy().tobytes()),
        "scalars": scalars,
        **_accounts(ctx),
    }


def _accounts(ctx):
    """Every counter and the modeled clock of one context."""
    ks, be, st = ctx.kernel_cache.stats, ctx.stats.backend, ctx.stats
    return {
        "clock": ctx.device.clock,
        "cache": (ks.hits, ks.misses, ks.total_modeled_compile_seconds),
        "modules": (st.module_cache_hits, st.module_cache_misses,
                    st.modules_verified, st.kernels_generated),
        "backend": (be.mode, be.kernels, be.launches, be.fallbacks),
    }


def _generator_spies(monkeypatch):
    """The build steps a second context must not repeat."""
    return [_Spy(monkeypatch, fusion, "build_fused_kernel"),
            _Spy(monkeypatch, context_mod, "prepare_module"),
            _Spy(monkeypatch, PTXModule, "render")]


class TestSecondContext:
    def _spies(self, monkeypatch):
        return [_Spy(monkeypatch, jitcompiler, "parse_ptx"),
                _Spy(monkeypatch, jitcompiler, "run_passes"),
                _Spy(monkeypatch, jitcompiler._Translator, "translate"),
                *_generator_spies(monkeypatch)]

    @pytest.mark.parametrize("backend", ["sim", "cpu"])
    def test_builds_nothing_and_accounts_everything(self, cold_store,
                                                    backend):
        cold_store.setenv("REPRO_BACKEND", backend)
        spies = self._spies(cold_store)
        first = _statements()
        built = [s.calls for s in spies]
        kernels = first["cache"][1]
        assert kernels > 0 and first["modules"][1:3] == (kernels, kernels)
        # one parse, verification, translation, generation, SSA check
        # and render per kernel
        assert built == [kernels] * 6
        second = _statements()
        assert [s.calls for s in spies] == built
        assert second == first

    def test_counters_do_not_depend_on_order(self, cold_store):
        warm_second = (_statements(), _statements())[1]
        clear_kernel_store()
        assert _statements() == warm_second

    def test_clearing_a_view_keeps_the_store(self, cold_store):
        view = KernelCache()
        view.get_or_compile(_ptx("st_view"))
        view.clear()
        parse = _Spy(cold_store, jitcompiler, "parse_ptx")
        _, was_cached = view.get_or_compile(_ptx("st_view"))
        assert not was_cached and view.stats.misses == 2
        assert parse.calls == 0


def _dslash_2rank():
    """One distributed Wilson dslash on a fresh 2-rank machine."""
    from repro.comm import DistributedWilsonDslash, VirtualMachine
    from repro.qdp.typesys import color_matrix, fermion

    rng = np.random.default_rng(5)
    vm = VirtualMachine((2, 2, 2, 4), (1, 1, 1, 2))
    ud = [vm.field(color_matrix()) for _ in range(4)]
    for umu in ud:
        umu.from_global(rng.normal(size=(32, 3, 3)) + 0j)
    psid = vm.field(fermion())
    psid.from_global(rng.normal(size=(32, 4, 3)) + 0j)
    out = vm.field(fermion())
    DistributedWilsonDslash(vm, ud).apply(out, psid)
    return vm, out.to_global().tobytes()


def test_second_rank_generates_nothing(cold_store):
    """Rank 1 takes every module rank 0 generated (halo face copies
    included), and both ranks account exactly as on a cold store."""
    generated = []
    build_kernel = Context.build_kernel

    def spy(ctx, key, generate, *args, **kwargs):
        def counted():
            generated.append(ctx)
            return generate()
        return build_kernel(ctx, key, counted, *args, **kwargs)

    cold_store.setattr(Context, "build_kernel", spy)
    cold_vm, cold = _dslash_2rank()
    rank0, rank1 = cold_vm.contexts
    assert generated and all(ctx is rank0 for ctx in generated)
    n_faces = len(cold_vm.face_kernels[0]._modules)
    assert n_faces and len(generated) == (rank0.stats.module_cache_misses
                                          + n_faces)
    assert rank1.stats.modules_verified == rank0.stats.modules_verified
    warm_vm, warm = _dslash_2rank()
    assert len(generated) == rank0.stats.module_cache_misses + n_faces
    assert warm == cold
    assert ([_accounts(c) for c in warm_vm.contexts]
            == [_accounts(c) for c in cold_vm.contexts])


def test_the_key_determines_the_code(cold_store):
    """A structural key names one kernel text whoever generates it:
    rebuilt from nothing, by other contexts over other fields and
    another lattice, the table holds the same bytes under every key."""
    from repro.lint import _build_kernel_suite, _suite_modules

    def table(dims):
        _statements()
        ctx, lat, _ = _build_kernel_suite(dims)
        _suite_modules(ctx, lat)
        return {key: text for key, (_, text) in cache_mod._MODULES.items()}

    first = table((2, 2, 2, 2))
    assert any(key.startswith("face:") for key in first)
    clear_kernel_store()
    assert table((2, 2, 2, 4)) == first


class TestEnvMemo:
    def test_new_env_reruns_the_passes_without_reparsing(self, cold_store):
        text = _ptx("st_env")
        parse = _Spy(cold_store, jitcompiler, "parse_ptx")
        passes = _Spy(cold_store, jitcompiler, "run_passes")
        KernelCache().get_or_compile(text, env=_env(N))
        KernelCache().get_or_compile(text, env=_env(N))
        assert (parse.calls, passes.calls) == (1, 1)
        KernelCache().get_or_compile(text, env=_env(N - 1))
        assert (parse.calls, passes.calls) == (1, 2)

    def test_out_of_bounds_env_raises_on_a_cached_artifact(self, cold_store):
        text = _ptx("st_oob")
        view = KernelCache()
        view.get_or_compile(text, env=_env(N))
        for v in (view, KernelCache()):     # view hit and store hit
            with pytest.raises(JITCompileError,
                               match="st_oob.*out-of-bounds"):
                v.get_or_compile(text, env=_TOO_SMALL)
        # the memoised verdict is enforced, not recomputed
        passes = _Spy(cold_store, jitcompiler, "run_passes")
        with pytest.raises(JITCompileError, match="out-of-bounds"):
            KernelCache().get_or_compile(text, env=_TOO_SMALL)
        assert passes.calls == 0

    def test_built_under_off_is_verified_by_a_later_context(self, cold_store):
        # %fd1 defined twice: an ssa-structure error the translator runs
        text = _ptx("st_off", body=_DOUBLE + "\n    " + _DOUBLE)
        passes = _Spy(cold_store, jitcompiler, "run_passes")
        cold_store.setenv("REPRO_VERIFY", "off")
        view = KernelCache()
        view.get_or_compile(text)
        assert passes.calls == 0
        cold_store.setenv("REPRO_VERIFY", "error")
        for v in (view, KernelCache()):
            with pytest.raises(JITCompileError, match="st_off.*redefined"):
                v.get_or_compile(text)
        assert passes.calls == 1

    def test_warning_replayed_once_per_view(self, cold_store):
        # 16-byte stride over 8-byte elements: a coalescing warning
        # that holds for any launch (no env needed to see it)
        text = _ptx("st_warn", stride=16)
        passes = _Spy(cold_store, jitcompiler, "run_passes")
        for _ in range(2):
            view = KernelCache()
            with pytest.warns(RuntimeWarning, match="uncoalesced"):
                view.get_or_compile(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                view.get_or_compile(text)
        assert passes.calls == 1


class TestBackends:
    def test_knob_flip_builds_the_missing_callable_once(self, cold_store):
        text = _ptx("st_flip")
        cpu = _Spy(cold_store, cputarget, "compile_cpu_kernel")
        sim = _Spy(cold_store, backends, "build_sim_kernel")
        view = KernelCache()
        kernel, _ = view.get_or_compile(text)
        assert (kernel.backend, sim.calls, cpu.calls) == ("sim", 1, 0)
        cold_store.setenv("REPRO_BACKEND", "cpu")
        # a view reads the knob when it is created: its handle stays
        assert view.get_or_compile(text)[0] is kernel
        assert (kernel.backend, sim.calls, cpu.calls) == ("sim", 1, 0)
        # views created after the flip share one new build
        other, _ = KernelCache().get_or_compile(text)
        assert (other.backend, sim.calls, cpu.calls) == ("cpu", 1, 1)
        third, _ = KernelCache().get_or_compile(text)
        assert (third.backend, sim.calls, cpu.calls) == ("cpu", 1, 1)
        assert third.func is other.func
        assert other.artifact is kernel.artifact

    def test_cpu_translates_sim_only_on_fallback(self, cold_store):
        cold_store.setenv("REPRO_BACKEND", "cpu")
        sim = _Spy(cold_store, backends, "build_sim_kernel")
        view = KernelCache()
        view.get_or_compile(_ptx("st_cpu"))
        assert sim.calls == 0 and view.backend.kernels == {"cpu": 1}
        # a guarded arithmetic op is outside the cpu subset
        guarded = ("setp.gt.f64 %p1, %fd0, 0.0;\n    " + _DOUBLE
                   + "\n    @%p1 add.f64 %fd2, %fd1, %fd0;")
        with pytest.warns(RuntimeWarning, match="falling back to 'sim'"):
            kernel, _ = view.get_or_compile(_ptx("st_guard", body=guarded))
        assert kernel.backend == "sim" and sim.calls == 1
        assert view.backend.kernels == {"cpu": 1, "sim": 1}
        # another view: counted again, built (and warned) no more
        other = KernelCache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            other.get_or_compile(_ptx("st_guard", body=guarded))
        assert other.backend.fallbacks == 1 and sim.calls == 1

    def test_bare_compile_ptx_result_launches_through_sim(self, cold_store):
        cold_store.setenv("REPRO_BACKEND", "cpu")
        kernel = jitcompiler.compile_ptx(_ptx("st_bare"))
        views = {"float64": np.ones(N)}
        kernel(views, {"p_dst": 0, "p_n": N}, 1, N)
        assert kernel.backend == "sim"
        assert np.array_equal(views["float64"], np.full(N, 2.0))
        assert cache_mod._STORE == {}     # compile_ptx stores nothing


def test_regs_per_thread_is_the_liveness_footprint(cold_store):
    """The occupancy model and every modeled launch cost hang on it."""
    from repro.lint import _build_kernel_suite, _suite_modules

    ctx, lat, _ = _build_kernel_suite((2, 2, 2, 2))
    suite = _suite_modules(ctx, lat)
    assert len(suite) >= 6
    for _, compiled, _ in suite:
        live = max_live_registers(compiled.parsed.instructions)
        assert compiled.regs_per_thread == max(min(live, 255), 8)


def test_serving_is_unchanged_by_a_warm_store(cold_store):
    """One view shared by all tenants: cross-tenant hits and every
    modeled clock are the same on a cold and on a warm store."""
    from repro.serve import Server, cg_diag_workload

    def serve():
        srv = Server(policy="fifo")
        tenants = [srv.tenant(name) for name in ("alice", "bob")]
        for seed, t in enumerate(tenants):
            srv.submit(t, cg_diag_workload(dims=(2, 2, 2, 4), seed=seed,
                                           max_iter=6))
        srv.drain()
        kc = srv.kernel_cache
        return (kc.cross_tenant_hits, kc.hits_by_tenant,
                kc.misses_by_tenant, kc.stats.misses, srv.device.clock,
                [(t.stats.jit_hits, t.stats.jit_misses,
                  t.stats.jit_shared_hits, t.stats.service_s)
                 for t in tenants])

    cold = serve()
    assert cold[0] > 0 and cold[2] == {"alice": cold[3]}
    assert serve() == cold
