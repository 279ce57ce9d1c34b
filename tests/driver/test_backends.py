"""Tests for the execution-backend dispatch knob.

A kernel cache reads the ``REPRO_BACKEND`` knob once, when it is
created; ``sim`` and ``cpu`` are two dispatch names of one callable per
kernel, built by the first view that dispatches it
(``cpu`` through :func:`repro.llvm.cputarget.compile_cpu_kernel`).
"""

import warnings

import numpy as np
import pytest

from repro.diagnostics import backend_mode
from repro.driver.cache import KernelCache, clear_kernel_store
from repro.llvm import code_cache_stats, cputarget

_PTX = """
.version 3.1
.target sm_35
.address_size 64

.visible .entry scale_{n}(
    .param .u64 .ptr .global p_dst,
    .param .s32 p_n
)
{{
    .reg .pred %p<1>;
    .reg .s32 %r<2>;
    .reg .u32 %u<4>;
    .reg .u64 %ru<3>;
    .reg .s64 %rd<2>;
    .reg .f64 %fd<2>;

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
    mul.lo.s64 %rd1, %rd0, 8;
    cvt.u64.s64 %ru1, %rd1;
    add.u64 %ru2, %ru0, %ru1;
    ld.global.f64 %fd0, [%ru2];
    mul.f64 %fd1, %fd0, 2.0;
    st.global.f64 [%ru2], %fd1;
$EXIT:
    ret;
}}
"""


def _ptx(n=0):
    return _PTX.format(n=n)


@pytest.fixture()
def knob(monkeypatch):
    """Set REPRO_BACKEND for the test, reset warn-once state and start
    from a cold store (a kernel is built once per process)."""

    def set_mode(value):
        monkeypatch.setenv("REPRO_BACKEND", value)

    from repro import diagnostics

    monkeypatch.setattr(diagnostics, "_warned", set())
    clear_kernel_store()
    return set_mode


class TestKnob:
    def test_default_is_sim(self, knob, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert backend_mode() == "sim"

    def test_accepted_values(self, knob):
        for value in ("sim", "cpu"):
            knob(value)
            assert backend_mode() == value

    def test_bad_value_falls_back_with_one_warning(self, knob):
        knob("gpu")
        with pytest.warns(RuntimeWarning, match="REPRO_BACKEND"):
            assert backend_mode() == "sim"
        # warn once per distinct value, not per resolution
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert backend_mode() == "sim"

    def test_knob_is_read_once_at_cache_construction(self, knob,
                                                     monkeypatch):
        """Like the fusion knob: per object, not per
        lookup.  A view keeps the mode it resolved; the next cache sees
        the new value."""
        cpu = _spy_cpu_builds(monkeypatch)
        knob("sim")
        cache = KernelCache()
        kernel, _ = cache.get_or_compile(_ptx(3))
        knob("cpu")
        kernel2, cached = cache.get_or_compile(_ptx(3))
        assert cached and kernel2 is kernel
        cache.get_or_compile(_ptx(11))     # a miss of the same view
        assert cache.backend.mode == "sim" and cpu == []
        fresh = KernelCache()
        assert fresh.backend.mode == "cpu"
        fresh.get_or_compile(_ptx(13))
        assert cpu == ["scale_13"]

    def test_cache_hit_does_not_consult_the_knob(self, knob, monkeypatch):
        knob("cpu")
        cache = KernelCache()
        cache.get_or_compile(_ptx(12))
        monkeypatch.setattr("repro.driver.cache.backend_mode", None)
        monkeypatch.setattr("repro.driver.cache.select_backend", None)
        assert cache.get_or_compile(_ptx(12))[1]


def _spy_cpu_builds(monkeypatch):
    """The names of the kernels built through the ``cpu`` entry point."""
    calls = []
    original = cputarget.compile_cpu_kernel

    def spy(ptx_text, parsed=None, *lanes):
        calls.append(parsed.name)
        return original(ptx_text, parsed, *lanes)

    monkeypatch.setattr(cputarget, "compile_cpu_kernel", spy)
    return calls


class TestDispatch:
    def test_sim_mode_runs_the_driver_translation(self, knob, monkeypatch):
        cpu = _spy_cpu_builds(monkeypatch)
        knob("sim")
        cache = KernelCache()
        kernel, _ = cache.get_or_compile(_ptx(1))
        assert kernel.func is not None and cpu == []
        assert cache.backend.mode == "sim"

    def test_cpu_mode_attaches_compiled_callable(self, knob, monkeypatch):
        cpu = _spy_cpu_builds(monkeypatch)
        knob("cpu")
        cache = KernelCache()
        kernel, _ = cache.get_or_compile(_ptx(2))
        assert kernel.func is not None and cpu == [kernel.name]
        assert cache.backend.mode == "cpu"
        assert cache.backend.fallbacks == 0

    def test_launch_accounting(self, knob):
        """A launch runs the built callable and builds nothing."""
        knob("cpu")
        cache = KernelCache()
        kernel, _ = cache.get_or_compile(_ptx(4))
        stats = code_cache_stats()
        built = (stats.hits, stats.misses)
        views = {"float64": np.ones(8), "uint64": np.zeros(0, np.uint64)}
        kernel(views, {"p_dst": 0, "p_n": 4}, 1, 4)
        assert np.array_equal(views["float64"],
                              [2, 2, 2, 2, 1, 1, 1, 1])
        assert (stats.hits, stats.misses) == built


class TestCompiledKernelCache:
    def test_keyed_on_ptx_text(self, knob):
        knob("cpu")
        stats = code_cache_stats()
        hits, misses = stats.hits, stats.misses
        cache = KernelCache()
        cache.get_or_compile(_ptx(7))
        assert (stats.hits, stats.misses) == (hits, misses + 1)
        # a second kernel cache (another context) reuses the compile
        other = KernelCache()
        other.get_or_compile(_ptx(7))
        assert (stats.hits, stats.misses) == (hits + 1, misses + 1)
        assert stats.n_kernels == stats.misses
        assert code_cache_stats() is stats      # live, not a snapshot

    def test_distinct_ptx_compiles_separately(self, knob):
        knob("cpu")
        stats = code_cache_stats()
        misses, seconds = stats.misses, stats.total_compile_seconds
        cache = KernelCache()
        cache.get_or_compile(_ptx(8))
        cache.get_or_compile(_ptx(9))
        assert stats.misses == misses + 2
        assert stats.total_compile_seconds > seconds


class TestBackendStats:
    def test_fresh_context_stats_backend_is_live(self):
        """``KernelCache`` defines ``__len__``, so an empty cache is
        falsy: a reference to ``ctx.stats.backend`` taken before the
        first build must still be the cache's live counters."""
        from repro.core.context import Context

        ctx = Context()
        assert len(ctx.kernel_cache) == 0
        assert ctx.stats.backend is ctx.kernel_cache.backend
