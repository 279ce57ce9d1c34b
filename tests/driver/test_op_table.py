"""One op table, two visitors: ``sim`` and ``cpu`` agree bitwise.

The reference translator (``driver.jitcompiler._Translator``) owns the
only copy of the PTX -> NumPy op tables; the ``cpu`` generator is a
subclass walking the same instructions.  For every opcode in those
tables x every value type, a hand-written kernel applying that one
instruction (inside the generators' bounds-check scaffold) must leave
device memory bitwise equal under both, with no fallback — including
the opcodes generated kernels never emit.  Integer opcodes run twice:
on operands loaded from memory (plain vectors) and on a gid-derived
operand with an immediate (the ``cpu`` visitor's folded linear forms).
"""

import numpy as np
import pytest

from repro.driver.cache import KernelCache
from repro.driver.jitcompiler import _BIN_PY, _CMP_PY, _UN_PY
from repro.llvm import TranspileError, compile_cpu_kernel
from repro.memory.pool import DevicePool
from repro.ptx.isa import NUMPY_DTYPES, PTXType

_VIEWS = ("float32", "float64", "int32", "int64", "uint32", "uint64")
_PFX = {"f32": "f", "f64": "fd", "s32": "r", "s64": "rd", "u32": "u",
        "u64": "ru", "pred": "p"}
FLOATS = ("f32", "f64")
INTS = ("s32", "s64", "u32", "u64")
N = 8           # elements; launched with 16 threads so the guard bites

_INT_ONLY = {"mul.lo", "and", "or", "xor", "shl", "shr", "not"}
_FLOAT_ONLY = set(_UN_PY) - {"neg", "abs", "not"}


def _types_of(op):
    if op in _INT_ONLY:
        return INTS
    if op in _FLOAT_ONLY:
        return FLOATS
    return FLOATS + INTS


def _mnemonic(op, t):
    if op in ("sqrt", "rcp") or (op == "div" and t in FLOATS):
        return f"{op}.rn.{t}"
    if op in ("rsqrt", "sin", "cos", "ex2", "lg2"):
        return f"{op}.approx.{t}"
    return f"{op}.{t}"


def _reg(t, i):
    return f"%{_PFX[t]}{20 + i}"


_SCAFFOLD = """
    ld.param.s32 %r0, [p_n];
    ld.param.u64 %ru0, [p_x];
    ld.param.u64 %ru1, [p_y];
    ld.param.u64 %ru2, [p_z];
    ld.param.u64 %ru3, [p_out];
    mov.u32 %u0, %ctaid.x;
    mov.u32 %u1, %ntid.x;
    mov.u32 %u2, %tid.x;
    mad.lo.u32 %u3, %u0, %u1, %u2;
    cvt.s32.u32 %r1, %u3;
    setp.ge.s32 %p0, %r1, %r0;
    @%p0 bra $EXIT;
    cvt.s64.s32 %rd0, %r1;
    mul.lo.s64 %rd1, %rd0, 8;
    cvt.u64.s64 %ru4, %rd1;
    add.u64 %ru5, %ru0, %ru4;
    add.u64 %ru6, %ru1, %ru4;
    add.u64 %ru7, %ru2, %ru4;
    add.u64 %ru8, %ru3, %ru4;
"""


def _kernel(name, lines):
    regs = "\n".join(f"    .reg .{t} %{p}<32>;" for t, p in _PFX.items())
    params = ",\n".join(
        ["    .param .s32 p_n"]
        + [f"    .param .u64 .ptr .global p_{a}" for a in "x y z out".split()])
    body = "\n".join("    " + ln for ln in lines)
    return (f".version 3.1\n.target sm_35\n.address_size 64\n\n"
            f".visible .entry {name}(\n{params}\n)\n{{\n{regs}\n{_SCAFFOLD}"
            f"{body}\n$EXIT:\n    ret;\n}}\n")


def _case(op, t, src_t=None, cmp=None, folded=False):
    """Kernel text applying one ``op`` of type ``t``; its result is
    stored to ``p_out`` (predicates through a ``selp.s32``)."""
    in_t = src_t or t
    x, y, z, r = _reg(in_t, 0), _reg(in_t, 1), _reg(in_t, 2), _reg(t, 3)
    if folded:
        # x is linear in the global thread id, y an immediate
        head = [f"mov.{in_t} {x}, %r1;" if in_t == "s32"
                else f"cvt.{in_t}.s32 {x}, %r1;"]
        y, z = "2", "5"
    else:
        head = [f"ld.global.{in_t} {x}, [%ru5];",
                f"ld.global.{in_t} {y}, [%ru6];",
                f"ld.global.{in_t} {z}, [%ru7];"]
    out_t = t
    if op == "setp":
        body = [f"setp.{cmp}.{t} %p1, {x}, {y};", "selp.s32 %r9, 1, 0, %p1;"]
        r, out_t = "%r9", "s32"
    elif op == "selp":
        body = [f"setp.lt.{t} %p1, {x}, {y};", f"selp.{t} {r}, {x}, {z}, %p1;"]
    elif op == "cvt":
        rzi = ".rzi" if t in INTS and src_t in FLOATS else ""
        body = [f"cvt{rzi}.{t}.{src_t} {r}, {x};"]
    elif op == "mov":
        body = [f"mov.{t} {r}, {x};"]
    elif op in ("fma", "mad.lo"):
        mn = f"fma.rn.{t}" if op == "fma" else f"mad.lo.{t}"
        body = [f"{mn} {r}, {x}, {y}, {z};"]
    elif op in _UN_PY:
        body = [f"{_mnemonic(op, t)} {r}, {x};"]
    else:
        body = [f"{_mnemonic(op, t)} {r}, {x}, {y};"]
    tag = f"{op}_{cmp or ''}_{t}_{src_t or ''}_{'lin' if folded else 'mem'}"
    name = "op_" + tag.replace(".", "_")
    return _kernel(name, head + body + [f"st.global.{out_t} [%ru8], {r};"])


def _cases():
    """(op, type, cvt source type, setp comparison, folded operands)"""
    for op in list(_BIN_PY) + ["div"] + list(_UN_PY):
        for t in _types_of(op):
            yield (op, t, None, None, False)
            if t in INTS:
                yield (op, t, None, None, True)
    for t in FLOATS:
        yield ("fma", t, None, None, False)
    for t in INTS:
        yield ("mad.lo", t, None, None, False)
        yield ("mad.lo", t, None, None, True)
    for t in FLOATS + INTS:
        yield ("selp", t, None, None, False)
        yield ("mov", t, None, None, False)
        for cmp in _CMP_PY:
            yield ("setp", t, None, cmp, False)
        for src in FLOATS + INTS:
            yield ("cvt", t, src, None, False)


def _fill(pool, addr, t, values):
    """One value per 8-byte slot (the scaffold's stride)."""
    dtype = np.dtype(NUMPY_DTYPES[PTXType(t)])
    vals = np.asarray(values, np.float64)
    if t.startswith("u"):
        vals = np.abs(vals)
    slots = np.zeros(N, np.uint64)
    slots.view(dtype)[::8 // dtype.itemsize] = vals.astype(dtype)
    pool.write(addr, slots)


def _run(text, in_t, backend):
    pool = DevicePool(1 << 16)
    addrs = {a: pool.allocate(N * 8) for a in "x y z out".split()}
    _fill(pool, addrs["x"], in_t, [-3.7, -1.5, -1, 0.25, 1.5, 2.5, 5, 100])
    _fill(pool, addrs["y"], in_t, [1, 2, 3, 1, 2, 3, 1, 2])
    _fill(pool, addrs["z"], in_t, [4, -5, 6, -7, 8, -9, 10, -11])
    cache = KernelCache()
    kernel, _ = cache.get_or_compile(text)
    assert kernel.backend == backend and cache.backend.fallbacks == 0
    params = {"p_n": N, **{f"p_{a}": addr for a, addr in addrs.items()}}
    with np.errstate(all="ignore"):
        kernel({n: pool.view(n) for n in _VIEWS}, params, 1, 16)
    return pool.view(np.uint8).copy()


@pytest.mark.parametrize("case", list(_cases()), ids=lambda c: "-".join(
    str(f) for f in c if f not in (None, False)))
def test_sim_and_cpu_bitwise_equal(case, monkeypatch):
    op, t, src_t = case[:3]
    text = _case(*case)
    monkeypatch.setenv("REPRO_BACKEND", "sim")
    ref = _run(text, src_t or t, "sim")
    monkeypatch.setenv("REPRO_BACKEND", "cpu")
    got = _run(text, src_t or t, "cpu")
    assert np.array_equal(ref, got), f"{op}.{t}: cpu != sim"


#: integer chains whose fold must reproduce a wrap: ``cpu`` keeps a
#: form modulo 2**64 and takes the register's own value wherever its
#: width shows (a widening ``cvt``, materialization)
WRAPS = {
    "u32_wraps_then_widens": [
        "mul.lo.u32 %u20, %u3, 1073741824;",
        "cvt.u64.u32 %ru20, %u20;",
        "st.global.u64 [%ru8], %ru20;"],
    "uniform_s32_wraps_then_widens": [
        "mul.lo.s32 %r20, %r0, 1073741824;",
        "cvt.s64.s32 %rd20, %r20;",
        "st.global.s64 [%ru8], %rd20;"],
    "narrow_then_widen": [
        "mul.lo.u64 %ru20, %ru4, 1073741824;",
        "cvt.u32.u64 %u20, %ru20;",
        "cvt.u64.u32 %ru21, %u20;",
        "st.global.u64 [%ru8], %ru21;"],
    "coefficient_beyond_int64": [
        "mul.lo.u64 %ru20, %ru4, 18446744073709551615;",
        "st.global.u64 [%ru8], %ru20;"],
    "uniform_beyond_int64": [
        "mul.lo.u64 %ru20, %ru0, 18446744073709551615;",
        "mul.lo.u64 %ru21, %ru20, 4611686018427387904;",
        "st.global.u64 [%ru8], %ru21;"],
    "uniform_negative_as_unsigned": [
        "sub.u64 %ru20, %ru0, %ru1;",
        "st.global.u64 [%ru8], %ru20;"],
    # in range: these pass through the widening cvt unmaterialized
    "in_range_widens_signed": [
        "sub.s32 %r20, %r1, 5;",
        "cvt.s64.s32 %rd20, %r20;",
        "st.global.s64 [%ru8], %rd20;"],
    "in_range_widens_unsigned": [
        "sub.s32 %r20, %r1, 5;",
        "cvt.u64.s32 %ru20, %r20;",
        "st.global.u64 [%ru8], %ru20;"],
}


@pytest.mark.parametrize("name", list(WRAPS))
def test_folded_integer_wraps_bitwise_equal(name, monkeypatch):
    text = _kernel("wrap_" + name, WRAPS[name])
    monkeypatch.setenv("REPRO_BACKEND", "sim")
    ref = _run(text, "u64", "sim")
    monkeypatch.setenv("REPRO_BACKEND", "cpu")
    got = _run(text, "u64", "cpu")
    assert np.array_equal(ref, got), f"{name}: cpu != sim"


class TestSubset:
    """Outside the cpu subset the build raises ``TranspileError`` and
    the launch still completes through ``sim``."""

    GUARDED = ["ld.global.f64 %fd20, [%ru5];",
               "setp.gt.f64 %p1, %fd20, 0.0;",
               "mov.f64 %fd21, 1.0;",
               "mul.f64 %fd23, %fd20, 2.0;",
               "@%p1 add.f64 %fd24, %fd23, %fd21;",
               "st.global.f64 [%ru8], %fd23;"]
    TWICE = ["ld.global.f64 %fd20, [%ru5];",
             "mul.f64 %fd23, %fd20, 2.0;",
             "mul.f64 %fd23, %fd23, 2.0;",
             "st.global.f64 [%ru8], %fd23;"]

    def _falls_back(self, monkeypatch, name, lines, match, scale):
        text = _kernel(name, lines)
        with pytest.raises(TranspileError, match=match):
            compile_cpu_kernel(text)
        monkeypatch.setenv("REPRO_BACKEND", "cpu")
        pool = DevicePool(1 << 16)
        addrs = {a: pool.allocate(N * 8) for a in "x y z out".split()}
        x = np.arange(1.0, N + 1)
        pool.write(addrs["x"], x)
        cache = KernelCache()
        with pytest.warns(RuntimeWarning, match="falling back to 'sim'"):
            kernel, _ = cache.get_or_compile(text)
        assert kernel.backend == "sim" and cache.backend.fallbacks == 1
        params = {"p_n": N, **{f"p_{a}": addr for a, addr in addrs.items()}}
        kernel({n: pool.view(n) for n in _VIEWS}, params, 1, 16)
        assert np.array_equal(pool.read(addrs["out"], N * 8, np.float64),
                              scale * x)

    def test_guarded_arithmetic(self, monkeypatch):
        self._falls_back(monkeypatch, "sub_guarded", self.GUARDED,
                         "guarded 'add'", 2.0)

    def test_register_assigned_twice(self, monkeypatch):
        # an ssa-structure error under the default REPRO_VERIFY; in
        # warn mode sim translates it and cpu must still decline
        monkeypatch.setenv("REPRO_VERIFY", "warn")
        self._falls_back(monkeypatch, "sub_twice", self.TWICE,
                         "assigned twice", 4.0)
