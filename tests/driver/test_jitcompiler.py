"""Tests for the driver JIT: semantics of compiled PTX.

These run hand-written PTX through the full compile-and-execute path
against a raw device pool — independent of the expression layer."""

import warnings

import numpy as np
import pytest

from repro.driver import JITCompileError, KernelCache, compile_ptx, modeled_jit_time
from repro.memory.pool import ALIGNMENT, DevicePool


def _views(pool):
    return {n: pool.view(n) for n in
            ("float32", "float64", "int32", "int64", "uint32", "uint64")}


def _wrap(body, params, name="k", regs=None):
    regs = regs or {"s32": 8, "u32": 8, "s64": 8, "u64": 8,
                    "f32": 8, "f64": 8, "pred": 4}
    plines = ",\n".join(f"    .param .{t}{' .ptr .global' if ptr else ''} {n}"
                        for n, t, ptr in params)
    rlines = "\n".join(
        f"    .reg .{t} %{p}<{c}>;" for t, p, c in
        (("s32", "r", regs["s32"]), ("u32", "u", regs["u32"]),
         ("s64", "rd", regs["s64"]), ("u64", "ru", regs["u64"]),
         ("f32", "f", regs["f32"]), ("f64", "fd", regs["f64"]),
         ("pred", "p", regs["pred"])))
    return (f".version 3.1\n.target sm_35\n.address_size 64\n\n"
            f".visible .entry {name}(\n{plines}\n)\n{{\n{rlines}\n\n"
            f"{body}\n}}\n")


class TestArithmeticSemantics:
    def test_guarded_tail_not_stored(self):
        """Threads beyond p_n must not write."""
        body = """
    ld.param.s32 %r0, [p_n];
    ld.param.u64 %ru0, [p_x];
    mov.u32 %u0, %ctaid.x;
    mov.u32 %u1, %ntid.x;
    mov.u32 %u2, %tid.x;
    mad.lo.u32 %u3, %u0, %u1, %u2;
    cvt.s32.u32 %r1, %u3;
    setp.ge.s32 %p0, %r1, %r0;
    @%p0 bra $OUT;
    cvt.s64.s32 %rd0, %r1;
    mul.lo.s64 %rd1, %rd0, 8;
    cvt.u64.s64 %ru1, %rd1;
    add.u64 %ru2, %ru0, %ru1;
    mov.f64 %fd0, 7.0;
    st.global.f64 [%ru2], %fd0;
$OUT:
    ret;
"""
        text = _wrap(body, [("p_n", "s32", False), ("p_x", "u64", True)])
        k = compile_ptx(text)
        pool = DevicePool(1 << 20)
        n = 100
        addr = pool.allocate((n + 64) * 8)
        pool.write(addr, np.zeros(n + 64))
        k(_views(pool), {"p_n": n, "p_x": addr}, grid_dim=2, block_dim=64)
        out = pool.read(addr, (n + 64) * 8, np.float64)
        assert np.all(out[:n] == 7.0)
        assert np.all(out[n:] == 0.0), "out-of-bounds threads stored!"

    def test_selp(self):
        body = """
    ld.param.u64 %ru0, [p_x];
    mov.u32 %u2, %tid.x;
    cvt.s32.u32 %r0, %u2;
    setp.lt.s32 %p0, %r0, 4;
    mov.f32 %f0, 1.5;
    mov.f32 %f1, -2.5;
    selp.f32 %f2, %f0, %f1, %p0;
    cvt.s64.s32 %rd0, %r0;
    mul.lo.s64 %rd1, %rd0, 4;
    cvt.u64.s64 %ru1, %rd1;
    add.u64 %ru2, %ru0, %ru1;
    st.global.f32 [%ru2], %f2;
    ret;
"""
        text = _wrap(body, [("p_x", "u64", True)])
        k = compile_ptx(text)
        pool = DevicePool(1 << 16)
        addr = pool.allocate(8 * 4)
        k(_views(pool), {"p_x": addr}, grid_dim=1, block_dim=8)
        out = pool.read(addr, 8 * 4, np.float32)
        assert np.allclose(out, [1.5] * 4 + [-2.5] * 4)

    @pytest.mark.parametrize("op,expect", [
        ("add.f64 %fd2, %fd0, %fd1;", 5.5),
        ("sub.f64 %fd2, %fd0, %fd1;", 0.5),
        ("mul.f64 %fd2, %fd0, %fd1;", 7.5),
        ("div.rn.f64 %fd2, %fd0, %fd1;", 1.2),
        ("min.f64 %fd2, %fd0, %fd1;", 2.5),
        ("max.f64 %fd2, %fd0, %fd1;", 3.0),
    ])
    def test_binary_ops(self, op, expect):
        body = f"""
    ld.param.u64 %ru0, [p_x];
    mov.f64 %fd0, 3.0;
    mov.f64 %fd1, 2.5;
    {op}
    st.global.f64 [%ru0], %fd2;
    ret;
"""
        text = _wrap(body, [("p_x", "u64", True)])
        k = compile_ptx(text)
        pool = DevicePool(1 << 16)
        addr = pool.allocate(8)
        k(_views(pool), {"p_x": addr}, grid_dim=1, block_dim=1)
        assert pool.read(addr, 8, np.float64)[0] == pytest.approx(expect)

    @pytest.mark.parametrize("op,expect", [
        ("sqrt.rn.f64 %fd1, %fd0;", 1.5),
        ("rsqrt.approx.f64 %fd1, %fd0;", 1 / 1.5),
        ("rcp.rn.f64 %fd1, %fd0;", 1 / 2.25),
        ("neg.f64 %fd1, %fd0;", -2.25),
        ("abs.f64 %fd1, %fd0;", 2.25),
    ])
    def test_unary_ops(self, op, expect):
        body = f"""
    ld.param.u64 %ru0, [p_x];
    mov.f64 %fd0, 2.25;
    {op}
    st.global.f64 [%ru0], %fd1;
    ret;
"""
        text = _wrap(body, [("p_x", "u64", True)])
        k = compile_ptx(text)
        pool = DevicePool(1 << 16)
        addr = pool.allocate(8)
        k(_views(pool), {"p_x": addr}, grid_dim=1, block_dim=1)
        assert pool.read(addr, 8, np.float64)[0] == pytest.approx(expect)

    def test_cvt_truncates_toward_zero(self):
        body = """
    ld.param.u64 %ru0, [p_x];
    mov.f64 %fd0, -2.7;
    cvt.rzi.s32.f64 %r0, %fd0;
    cvt.f64.s32 %fd1, %r0;
    st.global.f64 [%ru0], %fd1;
    ret;
"""
        text = _wrap(body, [("p_x", "u64", True)])
        k = compile_ptx(text)
        pool = DevicePool(1 << 16)
        addr = pool.allocate(8)
        k(_views(pool), {"p_x": addr}, grid_dim=1, block_dim=1)
        assert pool.read(addr, 8, np.float64)[0] == -2.0

    def test_unsupported_opcode_rejected(self):
        body = """
    ld.param.u64 %ru0, [p_x];
    ret;
"""
        text = _wrap(body, [("p_x", "u64", True)]).replace(
            "ld.param.u64 %ru0, [p_x];", "vote.ballot.b32 %r0, %p0;")
        with pytest.raises(JITCompileError):
            compile_ptx(text)

    def test_register_count_from_liveness(self):
        body = """
    ld.param.u64 %ru0, [p_x];
    ld.global.f64 %fd0, [%ru0];
    st.global.f64 [%ru0], %fd0;
    ret;
"""
        text = _wrap(body, [("p_x", "u64", True)])
        k = compile_ptx(text)
        assert 8 <= k.regs_per_thread <= 255


class TestKernelCache:
    def test_cache_hit(self):
        body = """
    ld.param.u64 %ru0, [p_x];
    ret;
"""
        text = _wrap(body, [("p_x", "u64", True)], name="cached")
        cache = KernelCache()
        k1, was1 = cache.get_or_compile(text)
        k2, was2 = cache.get_or_compile(text)
        assert not was1 and was2
        assert k1 is k2
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_distinct_text_distinct_kernels(self):
        a = _wrap("    ld.param.u64 %ru0, [p_x];\n    ret;",
                  [("p_x", "u64", True)], name="ka")
        b = a.replace("ka", "kb")
        cache = KernelCache()
        cache.get_or_compile(a)
        cache.get_or_compile(b)
        assert len(cache) == 2

    def test_modeled_jit_time_in_paper_band(self):
        """Paper Sec. III-D: 0.05 - 0.22 s per compute kernel."""
        for n_instructions in (20, 100, 300, 500):
            t = modeled_jit_time(n_instructions)
            assert 0.05 <= t <= 0.25


class TestGuardedLoad:
    def test_guarded_off_lanes_keep_old_value(self):
        """A guarded ld.global into a fresh register, merged through
        ``selp`` with the value defined before it: guarded-off lanes
        get the old value, never the word ``_ld`` reads from the
        pool's safe address for them (here ``x[0]``, 1.0)."""
        body = """
    ld.param.u64 %ru0, [p_x];
    ld.param.u64 %ru1, [p_y];
    mov.u32 %u0, %tid.x;
    cvt.s32.u32 %r0, %u0;
    setp.lt.s32 %p0, %r0, 2;
    cvt.s64.s32 %rd0, %r0;
    mul.lo.s64 %rd1, %rd0, 8;
    cvt.u64.s64 %ru2, %rd1;
    add.u64 %ru4, %ru0, %ru2;
    add.u64 %ru5, %ru1, %ru2;
    mov.f64 %fd0, 7.0;
    @%p0 ld.global.f64 %fd1, [%ru4];
    selp.f64 %fd2, %fd1, %fd0, %p0;
    st.global.f64 [%ru5], %fd2;
    ret;
"""
        text = _wrap(body, [("p_x", "u64", True), ("p_y", "u64", True)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            k = compile_ptx(text)
        pool = DevicePool(1 << 16)
        x = pool.allocate(4 * 8)
        y = pool.allocate(4 * 8)
        pool.write(x, np.array([1.0, 2.0, 3.0, 4.0]))
        assert pool.view("float64")[ALIGNMENT // 8] == 1.0   # the safe word
        k(_views(pool), {"p_x": x, "p_y": y}, grid_dim=1, block_dim=4)
        assert np.array_equal(pool.read(y, 4 * 8, np.float64),
                              [1.0, 2.0, 7.0, 7.0])


class TestStraightLinePrecondition:
    """The generated body is straight-line Python: every statement
    runs once, top to bottom (it is what licenses the JIT's slot
    allocation).  PTX that needs more is a typed error at build time,
    never a wrong launch."""

    #: a 4-trip accumulate: a device stores 10.0
    ACCUMULATE = """
    ld.param.u64 %ru0, [p_x];
    mov.f64 %fd0, 0.0;
    mov.s32 %r1, 0;
$LOOP:
    add.f64 %fd0, %fd0, 2.5;
    add.s32 %r1, %r1, 1;
    setp.lt.s32 %p1, %r1, 4;
    @%p1 bra $LOOP;
    st.global.f64 [%ru0], %fd0;
    ret;
"""
    #: the same trip count carried through memory: structurally valid
    #: SSA, so the verifier has nothing to say in any mode
    THROUGH_MEMORY = """
    ld.param.u64 %ru0, [p_x];
$AGAIN:
    ld.global.f64 %fd1, [%ru0];
    add.f64 %fd2, %fd1, 2.5;
    st.global.f64 [%ru0], %fd2;
    setp.lt.f64 %p1, %fd2, 10.0;
    @%p1 bra $AGAIN;
    ret;
"""
    FORWARD = """
    ld.param.u64 %ru0, [p_x];
    ld.global.f64 %fd1, [%ru0];
    setp.lt.f64 %p1, %fd1, 0.0;
    @%p1 bra $SKIP;
    add.f64 %fd2, %fd1, 2.5;
    st.global.f64 [%ru0], %fd2;
$SKIP:
    ret;
"""

    @staticmethod
    def _launch(text):
        """Through a kernel cache, as every launch path does."""
        pool = DevicePool(1 << 16)
        addr = pool.allocate(8)
        pool.write(addr, np.array([2.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            kernel, _ = KernelCache().get_or_compile(text)
            kernel(_views(pool), {"p_x": addr}, grid_dim=1, block_dim=1)
        return pool.read(addr, 8, np.float64)[0]

    @pytest.mark.parametrize("backend", ["sim", "cpu"])
    @pytest.mark.parametrize("mode", ["off", "warn", "error"])
    def test_backward_branch_is_a_typed_error(self, monkeypatch, mode, backend):
        monkeypatch.setenv("REPRO_VERIFY", mode)
        monkeypatch.setenv("REPRO_BACKEND", backend)
        text = _wrap(self.ACCUMULATE, [("p_x", "u64", True)], name="accum")
        # the back edge is found before the redefinitions of %fd0, %r1
        with pytest.raises(JITCompileError, match=r"'accum'.*'\$LOOP'"):
            self._launch(text)
        text = _wrap(self.THROUGH_MEMORY, [("p_x", "u64", True)], name="thru")
        with pytest.raises(JITCompileError, match=r"'thru'.*'\$AGAIN'"):
            self._launch(text)

    #: a jump back that forms no cycle: the block it reaches ends in
    #: ``ret``, so a device would run it once — still not forward
    BACK_TO_RET = """
    ld.param.u64 %ru0, [p_x];
    bra $FWD;
$DONE:
    ret;
$FWD:
    mov.f64 %fd0, 1.0;
    st.global.f64 [%ru0], %fd0;
    bra $DONE;
"""
    #: one register defined twice
    REDEFINED = """
    ld.param.u64 %ru0, [p_x];
    mov.f64 %fd0, 1.0;
    add.f64 %fd0, %fd0, 1.0;
    st.global.f64 [%ru0], %fd0;
    ret;
"""
    #: one register read and never defined
    DANGLING = """
    ld.param.u64 %ru0, [p_x];
    add.f64 %fd1, %fd0, 1.0;
    st.global.f64 [%ru0], %fd1;
    ret;
"""
    #: a read in a block nothing reaches, before its definition: the
    #: JIT translates that block too
    UNREACHABLE_READ = """
    ld.param.u64 %ru0, [p_x];
    bra $L;
    add.f64 %fd1, %fd0, 1.0;
    st.global.f64 [%ru0], %fd1;
$L:
    mov.f64 %fd0, 2.0;
    st.global.f64 [%ru0], %fd0;
    ret;
"""
    #: the contract's cases: (PTX, what the error names)
    OUTSIDE = {"accumulate": (ACCUMULATE, r"backward branch to '\$LOOP'"),
               "through_memory": (THROUGH_MEMORY,
                                  r"backward branch to '\$AGAIN'"),
               "back_to_ret": (BACK_TO_RET, r"backward branch to '\$DONE'"),
               "redefined": (REDEFINED, "register %fd0 redefined"),
               "dangling": (DANGLING, "register %fd0 with no definition"),
               "unreachable_read": (UNREACHABLE_READ,
                                    "%fd0 does not dominate its use")}

    @pytest.mark.parametrize("case", OUTSIDE)
    @pytest.mark.parametrize("entry", ["compile_ptx", "get_or_compile"])
    @pytest.mark.parametrize("mode", ["off", "warn", "error"])
    def test_the_contract_is_checked_at_compile_time(self, monkeypatch, mode,
                                                     entry, case):
        """Forward branches only, every register defined once and read
        where its definition dominates: checked where a stream enters
        the JIT, in every ``REPRO_VERIFY`` mode, before any launch."""
        monkeypatch.setenv("REPRO_VERIFY", mode)
        body, names = self.OUTSIDE[case]
        text = _wrap(body, [("p_x", "u64", True)], name=case)
        compile_text = (compile_ptx if entry == "compile_ptx"
                        else KernelCache().get_or_compile)
        with pytest.raises(JITCompileError, match=f"'{case}'.*{names}"):
            compile_text(text)

    @pytest.mark.parametrize("backend", ["sim", "cpu"])
    def test_forward_branch_still_runs(self, monkeypatch, backend):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        text = _wrap(self.FORWARD, [("p_x", "u64", True)], name="fwd")
        assert self._launch(text) == 5.0

    def test_read_before_definition_is_a_typed_error(self, monkeypatch):
        """With slots reused it would read whatever the slot last
        held; the unallocated body raised a ``NameError``."""
        monkeypatch.setenv("REPRO_VERIFY", "off")
        body = """
    ld.param.u64 %ru0, [p_x];
    add.f64 %fd1, %fd0, 1.0;
    st.global.f64 [%ru0], %fd1;
    ret;
"""
        text = _wrap(body, [("p_x", "u64", True)], name="undef")
        with pytest.raises(JITCompileError, match=r"'undef'.*%fd0"):
            self._launch(text)


class TestAccessOfATypeWithNoDeviceView:
    """``ld.global.pred`` parses and builds; device memory has 4- and
    8-byte views only.  It used to die with a bare ``KeyError: 1`` from
    inside the first launch."""

    BODIES = {
        "ld": """
    ld.param.u64 %ru0, [p_x];
    ld.global.pred %p0, [%ru0];
    ret;
""",
        "st": """
    ld.param.u64 %ru0, [p_x];
    setp.eq.u64 %p0, %ru0, 0;
    st.global.pred [%ru0], %p0;
    ret;
"""}

    @pytest.mark.parametrize("kind", BODIES)
    def test_error_mode_rejects_it_at_compile_ptx(self, monkeypatch, kind):
        monkeypatch.setenv("REPRO_VERIFY", "error")
        text = _wrap(self.BODIES[kind], [("p_x", "u64", True)], name="nov")
        with pytest.raises(JITCompileError,
                           match=rf"operands \[nov\].*{kind}\.global\.pred"):
            compile_ptx(text)

    @pytest.mark.parametrize("kind", BODIES)
    def test_the_verifier_names_it_in_warn_mode(self, monkeypatch, kind):
        monkeypatch.setenv("REPRO_VERIFY", "warn")
        text = _wrap(self.BODIES[kind], [("p_x", "u64", True)], name="nov")
        with pytest.warns(RuntimeWarning,
                          match=r"error: operands \[nov\]: global access "
                                r"of type \.pred"):
            compile_ptx(text)

    @pytest.mark.parametrize("backend", ["sim", "cpu"])
    @pytest.mark.parametrize("mode", ["warn", "off"])
    @pytest.mark.parametrize("kind", BODIES)
    def test_the_translator_names_it_at_first_dispatch(
            self, monkeypatch, kind, mode, backend):
        monkeypatch.setenv("REPRO_VERIFY", mode)
        monkeypatch.setenv("REPRO_BACKEND", backend)
        text = _wrap(self.BODIES[kind], [("p_x", "u64", True)], name="nov")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(
                    JITCompileError,
                    match=rf"'nov': '{kind}\.global\.pred .*no device view"):
                KernelCache().get_or_compile(text)
            kernel = compile_ptx(text)        # a bare handle: first launch
        pool = DevicePool(1 << 16)
        with pytest.raises(JITCompileError, match="no device view"):
            kernel(_views(pool), {"p_x": pool.allocate(8)}, grid_dim=1,
                   block_dim=4)
