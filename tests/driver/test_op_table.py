"""One op table, one generator, checked against NumPy.

The driver JIT's generator (``driver.jitcompiler._Translator``) owns
the only copy of the PTX -> NumPy op tables.  For every opcode in
those tables x every value type, a hand-written kernel applying that
one instruction (inside the generators' bounds-check scaffold) must
leave device memory bitwise equal to a reference the test computes
with NumPy from the same inputs — under both dispatch names (``sim``,
``cpu``) and with no fallback, including the opcodes generated kernels
never emit.  Integer opcodes run twice: on operands loaded from memory
(plain vectors) and on a gid-derived operand with an immediate (the
generator's folded linear forms).
"""

import warnings

import numpy as np
import pytest

from repro.driver.cache import KernelCache
from repro.driver.jitcompiler import (_BIN_PY, _CMP_PY, _UN_PY, JITCompileError,
                                      _Lin, _Translator, compile_ptx)
from repro.driver.parser import parse_ptx
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


def _dtype(t):
    return np.dtype(NUMPY_DTYPES[PTXType(t)])


#: what the scaffold's three input buffers hold, one value per slot
INPUTS = {"x": [-3.7, -1.5, -1, 0.25, 1.5, 2.5, 5, 100],
          "y": [1, 2, 3, 1, 2, 3, 1, 2],
          "z": [4, -5, 6, -7, 8, -9, 10, -11]}


def _values(t, values):
    """``values`` as the ``t`` words a load of that type reads."""
    vals = np.asarray(values, np.float64)
    if t.startswith("u"):
        vals = np.abs(vals)
    return vals.astype(_dtype(t))


def _fill(pool, addr, t, words):
    """One ``t`` word per 8-byte slot (the scaffold's stride)."""
    dtype = _dtype(t)
    slots = np.zeros(len(words), np.uint64)
    slots.view(dtype)[::8 // dtype.itemsize] = np.asarray(words).astype(dtype)
    pool.write(addr, slots)


def _pool(in_t, out=None):
    """The scaffold's four buffers, filled; ``out``: ``(type, values)``
    written to ``p_out`` the way the kernel stores them."""
    pool = DevicePool(1 << 16)
    addrs = {a: pool.allocate(N * 8) for a in "x y z out".split()}
    for a, values in INPUTS.items():
        _fill(pool, addrs[a], in_t, _values(in_t, values))
    if out is not None:
        _fill(pool, addrs["out"], *out)
    return pool, addrs


def _run(text, in_t, backend):
    """The pool image after one launch of ``text`` (16 threads, 8
    sites) through a kernel cache dispatching to ``backend``."""
    pool, addrs = _pool(in_t)
    cache = KernelCache()
    kernel, _ = cache.get_or_compile(text)
    assert cache.backend.mode == backend and cache.backend.fallbacks == 0
    params = {"p_n": N, **{f"p_{a}": addr for a, addr in addrs.items()}}
    with np.errstate(all="ignore"):
        kernel({n: pool.view(n) for n in _VIEWS}, params, 1, 16)
    return pool.view(np.uint8).copy()


def _expected(in_t, out_t, values):
    return _pool(in_t, (out_t, values))[0].view(np.uint8).copy()


#: the NumPy meaning of every binary and unary op of the op tables
_NUMPY = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply,
    "mul.lo": np.multiply, "min": np.minimum, "max": np.maximum,
    "and": np.bitwise_and, "or": np.bitwise_or, "xor": np.bitwise_xor,
    "shl": np.left_shift, "shr": np.right_shift, "rem": np.fmod,
    "neg": np.negative, "abs": np.abs, "not": np.invert, "sqrt": np.sqrt,
    "rsqrt": lambda a: 1.0 / np.sqrt(a), "rcp": lambda a: 1.0 / a,
    "sin": np.sin, "cos": np.cos, "ex2": np.exp2, "lg2": np.log2,
    "floor": np.floor, "ceil": np.ceil, "trunc": np.trunc, "round": np.rint,
}
_CMP_NP = {"eq": np.equal, "ne": np.not_equal, "lt": np.less,
           "le": np.less_equal, "gt": np.greater, "ge": np.greater_equal}


def _reference(op, t, src_t=None, cmp=None, folded=False):
    """``(stored type, stored values)`` of :func:`_case`'s kernel,
    computed with NumPy on the inputs the launch binds."""
    in_t = src_t or t
    dt = _dtype(in_t).type
    if folded:
        x, y, z = np.arange(N).astype(dt), dt(2), dt(5)
    else:
        x, y, z = (_values(in_t, INPUTS[a]) for a in "xyz")
    with np.errstate(all="ignore"):
        if op == "setp":
            return "s32", np.where(_CMP_NP[cmp](x, y), 1, 0)
        if op == "selp":
            r = np.where(x < y, x, z)
        elif op == "cvt":
            if t in INTS and src_t in FLOATS:
                x = np.trunc(x)
            r = x.astype(_dtype(t))
        elif op == "mov":
            r = x
        elif op in ("fma", "mad.lo"):
            r = x * y + z
        elif op == "div" and t in INTS:
            r = np.trunc(x.astype(np.float64) / np.float64(y)).astype(dt)
        elif op == "div":
            r = x / y
        elif op in _UN_PY:
            r = _NUMPY[op](x)
        else:
            r = _NUMPY[op](x, y)
    return t, r


@pytest.mark.parametrize("case", list(_cases()), ids=lambda c: "-".join(
    str(f) for f in c if f not in (None, False)))
def test_sim_and_cpu_bitwise_equal(case, monkeypatch):
    """Under either dispatch name, the image NumPy computes."""
    op, t, src_t = case[:3]
    text = _case(*case)
    want = _expected(src_t or t, *_reference(*case))
    for backend in ("sim", "cpu"):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        got = _run(text, src_t or t, backend)
        assert np.array_equal(want, got), f"{op}.{t} under {backend}"


def _gid(dtype):
    return np.arange(N).astype(dtype)


#: integer chains whose fold must reproduce a wrap: a form stands for
#: its register modulo 2**64, and the register's own value is taken
#: wherever its width shows (a widening ``cvt``, materialization).
#: name -> (kernel lines, (stored type, NumPy values of the stored
#: register given the buffer addresses))
WRAPS = {
    "u32_wraps_then_widens": ([
        "mul.lo.u32 %u20, %u3, 1073741824;",
        "cvt.u64.u32 %ru20, %u20;",
        "st.global.u64 [%ru8], %ru20;"],
        lambda p: ("u64", (_gid(np.uint32) * np.uint32(2**30))
                   .astype(np.uint64))),
    "uniform_s32_wraps_then_widens": ([
        "mul.lo.s32 %r20, %r0, 1073741824;",
        "cvt.s64.s32 %rd20, %r20;",
        "st.global.s64 [%ru8], %rd20;"],
        lambda p: ("s64", (np.full(N, N, np.int32) * np.int32(2**30))
                   .astype(np.int64))),
    "narrow_then_widen": ([
        "mul.lo.u64 %ru20, %ru4, 1073741824;",
        "cvt.u32.u64 %u20, %ru20;",
        "cvt.u64.u32 %ru21, %u20;",
        "st.global.u64 [%ru8], %ru21;"],
        lambda p: ("u64", (_gid(np.uint64) * np.uint64(8 * 2**30))
                   .astype(np.uint32).astype(np.uint64))),
    "coefficient_beyond_int64": ([
        "mul.lo.u64 %ru20, %ru4, 18446744073709551615;",
        "st.global.u64 [%ru8], %ru20;"],
        lambda p: ("u64", _gid(np.uint64) * np.uint64(8)
                   * np.uint64(2**64 - 1))),
    "uniform_beyond_int64": ([
        "mul.lo.u64 %ru20, %ru0, 18446744073709551615;",
        "mul.lo.u64 %ru21, %ru20, 4611686018427387904;",
        "st.global.u64 [%ru8], %ru21;"],
        lambda p: ("u64", np.full(N, p["x"], np.uint64)
                   * np.uint64(2**64 - 1) * np.uint64(2**62))),
    "uniform_negative_as_unsigned": ([
        "sub.u64 %ru20, %ru0, %ru1;",
        "st.global.u64 [%ru8], %ru20;"],
        lambda p: ("u64", np.full(N, p["x"], np.uint64)
                   - np.uint64(p["y"]))),
    # in range: these pass through the widening cvt unmaterialized
    "in_range_widens_signed": ([
        "sub.s32 %r20, %r1, 5;",
        "cvt.s64.s32 %rd20, %r20;",
        "st.global.s64 [%ru8], %rd20;"],
        lambda p: ("s64", (_gid(np.int32) - np.int32(5)).astype(np.int64))),
    "in_range_widens_unsigned": ([
        "sub.s32 %r20, %r1, 5;",
        "cvt.u64.s32 %ru20, %r20;",
        "st.global.u64 [%ru8], %ru20;"],
        lambda p: ("u64", (_gid(np.int32) - np.int32(5)).astype(np.uint64))),
}


@pytest.mark.parametrize("name", list(WRAPS))
def test_folded_integer_wraps_bitwise_equal(name, monkeypatch):
    lines, reference = WRAPS[name]
    text = _kernel("wrap_" + name, lines)
    with np.errstate(all="ignore"):
        want = _expected("u64", *reference(_pool("u64")[1]))
    for backend in ("sim", "cpu"):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        got = _run(text, "u64", backend)
        assert np.array_equal(want, got), f"{name} under {backend}"


class TestSubset:
    """There is no subset gate: a guarded arithmetic op builds under the
    ``cpu`` name with no fallback and computes what the PTX says; a
    register assigned twice is outside the language the JIT accepts."""

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

    def _runs(self, monkeypatch, name, lines, scale):
        text = _kernel(name, lines)
        monkeypatch.setenv("REPRO_BACKEND", "cpu")
        pool = DevicePool(1 << 16)
        addrs = {a: pool.allocate(N * 8) for a in "x y z out".split()}
        x = np.arange(1.0, N + 1)
        pool.write(addrs["x"], x)
        cache = KernelCache()
        kernel, _ = cache.get_or_compile(text)
        assert cache.backend.mode == "cpu" and cache.backend.fallbacks == 0
        params = {"p_n": N, **{f"p_{a}": addr for a, addr in addrs.items()}}
        kernel({n: pool.view(n) for n in _VIEWS}, params, 1, 16)
        assert np.array_equal(pool.read(addrs["out"], N * 8, np.float64),
                              scale * x)

    def test_guarded_arithmetic(self, monkeypatch):
        self._runs(monkeypatch, "sub_guarded", self.GUARDED, 2.0)

    def test_register_assigned_twice(self, monkeypatch):
        for mode in ("off", "warn", "error"):
            monkeypatch.setenv("REPRO_VERIFY", mode)
            with pytest.raises(JITCompileError,
                               match="'sub_twice'.*%fd23 redefined"):
                self._runs(monkeypatch, "sub_twice", self.TWICE, 4.0)


#: a ``u64`` address register defined twice, each definition read, and
#: an address offset redefined by a guarded ``mad.lo``
REBOUND = ["ld.global.f64 %fd20, [%ru5];",
           "setp.gt.f64 %p1, %fd20, 0.0;",
           "add.u64 %ru20, %ru1, %ru4;",
           "ld.global.f64 %fd21, [%ru20];",
           "add.u64 %ru20, %ru2, %ru4;",
           "ld.global.f64 %fd22, [%ru20];",
           "mul.lo.s64 %rd20, %rd0, 8;",
           "@%p1 mad.lo.s64 %rd20, %rd0, 8, 64;",
           "cvt.u64.s64 %ru21, %rd20;",
           "add.u64 %ru22, %ru1, %ru21;",
           "ld.global.f64 %fd23, [%ru22];",
           "add.f64 %fd24, %fd21, %fd22;",
           "add.f64 %fd25, %fd24, %fd23;",
           "st.global.f64 [%ru8], %fd25;"]

#: the same reads in SSA: the guarded offset is a fresh definition
#: merged through ``selp``, so lanes whose x is positive read ``y``
#: eight slots further on (``%fd26``: defined once, under a guard,
#: never read)
GUARDED_ONCE = ["ld.global.f64 %fd20, [%ru5];",
                "setp.gt.f64 %p1, %fd20, 0.0;",
                "add.u64 %ru20, %ru1, %ru4;",
                "ld.global.f64 %fd21, [%ru20];",
                "add.u64 %ru23, %ru2, %ru4;",
                "ld.global.f64 %fd22, [%ru23];",
                "mul.lo.s64 %rd20, %rd0, 8;",
                "@%p1 mad.lo.s64 %rd21, %rd0, 8, 64;",
                "selp.s64 %rd22, %rd21, %rd20, %p1;",
                "cvt.u64.s64 %ru21, %rd22;",
                "add.u64 %ru22, %ru1, %ru21;",
                "ld.global.f64 %fd23, [%ru22];",
                "add.f64 %fd24, %fd21, %fd22;",
                "add.f64 %fd25, %fd24, %fd23;",
                "st.global.f64 [%ru8], %fd25;",
                "@%p1 mov.f64 %fd26, %fd25;"]


@pytest.mark.parametrize("mode", ["off", "warn", "error"])
def test_rebound_registers_are_rejected_in_every_mode(mode, monkeypatch):
    """Each redefinition is named by ``compile_ptx``, whatever
    ``REPRO_VERIFY`` says: nothing outside SSA reaches the translator."""
    monkeypatch.setenv("REPRO_VERIFY", mode)
    text = _kernel("rebound", REBOUND)
    for reg in ("%ru20", "%rd20"):
        with pytest.raises(JITCompileError, match=f"'rebound'.*{reg} redefined"):
            compile_ptx(text)
    with pytest.raises(JITCompileError, match="'rebound'"):
        KernelCache().get_or_compile(text)


@pytest.mark.parametrize("backend", ["sim", "cpu"])
def test_a_guarded_single_definition_binds_like_any_other(backend,
                                                          monkeypatch):
    """A register defined once under a guard is folded and shared like
    every other (PTX leaves its guard-off lanes undefined); the
    ``selp`` merge gives each lane the definition the PTX says."""
    monkeypatch.setenv("REPRO_BACKEND", backend)
    rng = np.random.default_rng(4)
    x, y, z = rng.normal(size=N), rng.normal(size=2 * N), rng.normal(size=N)
    pool = DevicePool(1 << 16)
    addrs = {"x": pool.allocate(N * 8), "y": pool.allocate(2 * N * 8),
             "z": pool.allocate(N * 8), "out": pool.allocate(N * 8)}
    for a, values in (("x", x), ("y", y), ("z", z)):
        pool.write(addrs[a], values)
    want = pool.view(np.uint8).copy()
    g = np.arange(N)
    out = (y[:N] + z) + y[np.where(x > 0, g + 8, g)]
    want[addrs["out"]:addrs["out"] + N * 8] = out.view(np.uint8)
    text = _kernel("guarded_once", GUARDED_ONCE)
    t = _Translator(parse_ptx(text))
    t.translate()
    assert t.sym[("s64", 21)] == _Lin(8, "64", 64, 64, None)
    assert ("f64", 26) in t.sym
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cache = KernelCache()
        kernel, _ = cache.get_or_compile(text)
    assert cache.backend.mode == backend and cache.backend.fallbacks == 0
    params = {"p_n": N, **{f"p_{a}": addr for a, addr in addrs.items()}}
    kernel({n: pool.view(n) for n in _VIEWS}, params, 1, 16)
    assert 0 < np.count_nonzero(x > 0) < N
    assert np.array_equal(pool.view(np.uint8), want)
