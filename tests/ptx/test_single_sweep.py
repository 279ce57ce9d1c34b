"""The analysis half of the build path visits each instruction once.

On the forward-branch-only CFGs the generators emit, dataflow, the
abstract interpreter and liveness finish in one sweep, facts are
recorded during that sweep, and the JIT's verification point builds
one CFG per parsed stream.  Cyclic hand-written kernels keep the
iterate-to-fixpoint path.  The golden values and digests below were
computed at the commit before the one-sweep change; nothing here may
drift from them.
"""

import hashlib
import os
import sys
import warnings
from contextlib import contextmanager

import pytest

from repro.driver.jitcompiler import compile_ptx
from repro.driver.parser import parse_ptx
from repro.ptx import KernelBuilder, PTXModule, PTXType
from repro.ptx import absint, liveness
from repro.ptx.absint import KernelEnv, MemRegion, analyze_module
from repro.ptx.cfg import build_cfg, solve
from repro.ptx.isa import Register
from repro.ptx.liveness import max_live_registers
from repro.ptx.verifier import _DefinedRegisters, run_passes

DIMS = (2, 2, 2, 2)


# --- kernels ----------------------------------------------------------------

def _acyclic():
    """The generators' shape: bounds early-exit, then straight line."""
    kb = KernelBuilder("acyclic")
    pn = kb.add_param("p_n", PTXType.S32)
    px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
    n = kb.ld_param(pn)
    x = kb.ld_param(px)
    gid = kb.global_thread_id()
    oob = kb.setp("ge", gid, n)
    kb.bra("$EXIT", guard=oob)
    off = kb.mul(kb.cvt(gid, PTXType.S64), kb.imm(8, PTXType.S64))
    addr = kb.add(x, kb.cvt(off, PTXType.U64))
    v = kb.ld_global(addr, PTXType.F64)
    kb.st_global(addr, kb.add(v, v), PTXType.F64)
    kb.label("$EXIT")
    kb.ret()
    return PTXModule.from_builder(kb)


def _float_loop():
    """``tests/ptx/test_cfg.py::_loop``: a one-block counted loop."""
    kb = KernelBuilder("loop")
    x = kb.mov(kb.imm(0.0, PTXType.F32))
    kb.label("$LOOP")
    x = kb.add(x, kb.imm(1.0, PTXType.F32))
    p = kb.setp("lt", x, kb.imm(100.0, PTXType.F32))
    kb.bra("$LOOP", guard=p)
    kb.ret()
    return PTXModule.from_builder(kb)


def _wrap(name, params, regs, body):
    return (".version 3.1\n.target sm_35\n.address_size 64\n\n"
            f".visible .entry {name}(\n" + ",\n".join(params) + "\n)\n{\n"
            + "".join(f"    .reg {r};\n" for r in regs)
            + "".join(f"    {ln}\n" for ln in body) + "}\n")


def _indexed_loop() -> str:
    """A counted loop indexing region ``p`` by its counter: the back
    edge's ``%r1 < 10`` refinement is what bounds the address."""
    return _wrap(
        "loopi", [".param .u64 .ptr .global p"],
        [".f64 %fd<2>", ".u64 %ru<3>", ".s64 %rd<3>", ".s32 %r<2>",
         ".pred %p<2>"],
        ["ld.param.u64 %ru0, [p];",
         "mov.s32 %r1, 0;",
         "$LOOP:",
         "cvt.s64.s32 %rd1, %r1;",
         "mul.lo.s64 %rd2, %rd1, 8;",
         "cvt.u64.s64 %ru1, %rd2;",
         "add.u64 %ru2, %ru0, %ru1;",
         "ld.global.f64 %fd1, [%ru2];",
         "add.s32 %r1, %r1, 1;",
         "setp.lt.s32 %p1, %r1, 10;",
         "@%p1 bra $LOOP;",
         "ret;"])


def _loop_with_diamond() -> str:
    """A loop whose body forks and joins: several blocks on the cycle."""
    return _wrap(
        "loopd", [".param .u64 .ptr .global p", ".param .s32 p_n"],
        [".f64 %fd<4>", ".u64 %ru<3>", ".s32 %r<4>", ".pred %p<3>"],
        ["ld.param.u64 %ru0, [p];",
         "ld.param.s32 %r0, [p_n];",
         "mov.s32 %r1, 0;",
         "mov.f64 %fd0, 0.0;",
         "$HEAD:",
         "setp.lt.s32 %p1, %r1, 2;",
         "@%p1 bra $LOW;",
         "add.f64 %fd0, %fd0, 2.0;",
         "bra $JOIN;",
         "$LOW:",
         "ld.global.f64 %fd1, [%ru0];",
         "add.f64 %fd0, %fd0, %fd1;",
         "$JOIN:",
         "add.s32 %r1, %r1, 1;",
         "setp.lt.s32 %p2, %r1, %r0;",
         "@%p2 bra $HEAD;",
         "st.global.f64 [%ru0], %fd0;",
         "ret;"])


def _module_of(ptx_text: str) -> PTXModule:
    from repro.ptx.isa import KernelInfo

    parsed = parse_ptx(ptx_text)
    return PTXModule(info=KernelInfo(name=parsed.name,
                                     params=list(parsed.params)),
                     instructions=list(parsed.instructions))


# --- what is compared -------------------------------------------------------

def _fact_sheet(analysis, diagnostics):
    """Every field of a :class:`KernelAnalysis` and of the pipeline's
    diagnostics, minus the kernel name."""
    return (
        [(a.pos, a.opcode, a.width, a.region, a.offset, a.stride_bytes,
          a.uniform, a.verdict, a.transactions, a.ideal_transactions)
         for a in analysis.accesses],
        [(b.pos, b.uniform, b.benign_exit) for b in analysis.branches],
        analysis.max_live_regs,
        [(d.severity.label, d.pass_name, d.message, d.location)
         for d in diagnostics])


def _digest(sheet) -> str:
    return hashlib.sha256(repr(sheet).encode()).hexdigest()[:16]


def _sorted_facts(facts: dict) -> dict:
    return {b: sorted(f) for b, f in sorted(facts.items())}


@contextmanager
def _knobs(**values):
    """Pin ``REPRO_*`` knobs the suite's kernel population depends on."""
    old = {k: os.environ.get(k) for k in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for k, v in old.items():
            if v is None:
                del os.environ[k]
            else:
                os.environ[k] = v


@pytest.fixture(scope="module")
def suite():
    """The seven ``repro.lint`` suite kernels."""
    from repro.lint import _build_kernel_suite, _suite_modules

    with _knobs(REPRO_FUSION="on"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ctx, lat, _ = _build_kernel_suite(DIMS)
        return _suite_modules(ctx, lat)


# --- one visit per instruction ----------------------------------------------

def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOneVisit:
    def test_absint_interprets_each_instruction_once(self, monkeypatch):
        module = _acyclic()
        calls = _counting(monkeypatch, absint._Interp, "eval_inst")
        analyze_module(module, env=KernelEnv(
            scalars={"p_n": 64}, regions={"p_x": MemRegion("p_x", 512)}))
        body = [i for i in module.instructions
                if i.opcode not in ("label", "bra", "ret")]
        assert len(calls) == len(body)

    def test_liveness_scans_each_block_once(self, monkeypatch):
        module = _acyclic()
        cfg = build_cfg(list(module.instructions))
        calls = _counting(monkeypatch, liveness, "_scan_backward")
        max_live_registers(list(module.instructions))
        assert len(calls) == len(cfg.reachable())

    def test_acyclic_dataflow_is_one_sweep(self):
        module = _acyclic()
        cfg = build_cfg(list(module.instructions))
        assert cfg.is_acyclic
        transfers = []

        class Counted(_DefinedRegisters):
            def transfer(self, block, instructions, fact):
                transfers.append(block.index)
                return super().transfer(block, instructions, fact)

        solve(cfg, Counted())
        assert sorted(transfers) == sorted(cfg.reachable())

    def test_the_jit_builds_one_cfg_per_stream(self, monkeypatch):
        text = _acyclic().render()
        calls = []

        def counted(instructions):
            calls.append(len(instructions))
            return build_cfg(instructions)

        # every module that imported the function by name holds a copy
        for name, mod in list(sys.modules.items()):
            if name.startswith("repro.") and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is build_cfg:
                        monkeypatch.setattr(mod, attr, counted)
        with _knobs(REPRO_VERIFY="error"):
            compile_ptx(text)
        assert len(calls) == 1

    def test_operand_identity_is_precomputed(self):
        r = Register(PTXType.F64, 12)
        assert r.key == ("f64", 12) and r.slots == 2
        assert Register(PTXType.PRED, 0).slots == 1
        assert r == Register(PTXType.F64, 12)
        parsed = parse_ptx(_acyclic().render())
        seen = {}
        for inst in parsed.instructions:
            for op in (inst.dst, inst.guard, *inst.srcs):
                if isinstance(op, Register):
                    assert seen.setdefault(op.key, op) is op


# --- cyclic kernels keep the fixpoint ----------------------------------------

class TestCyclicGolden:
    def test_float_loop(self):
        module = _float_loop()
        cfg = build_cfg(list(module.instructions))
        assert not cfg.is_acyclic
        live_out, live_in = solve(cfg, liveness._Liveness())
        assert _sorted_facts(live_out) == GOLDEN["float_loop.live_out"]
        assert _sorted_facts(live_in) == GOLDEN["float_loop.live_in"]
        defined_in, _ = solve(cfg, _DefinedRegisters())
        assert _sorted_facts(defined_in) == GOLDEN["float_loop.defined_in"]
        assert max_live_registers(list(module.instructions)) == \
            GOLDEN["float_loop.max_live"]
        analysis = analyze_module(module)
        assert _fact_sheet(analysis, run_passes(module, analysis=analysis)) \
            == GOLDEN["float_loop.sheet"]

    @pytest.mark.parametrize("name,text,env", [
        ("indexed_loop", _indexed_loop(),
         KernelEnv(regions={"p": MemRegion("p", 600)})),
        ("loop_with_diamond", _loop_with_diamond(),
         KernelEnv(scalars={"p_n": 5},
                   regions={"p": MemRegion("p", 64)})),
    ])
    def test_handwritten_loops(self, name, text, env):
        module = _module_of(text)
        cfg = build_cfg(list(module.instructions))
        assert not cfg.is_acyclic
        live_out, _ = solve(cfg, liveness._Liveness())
        assert _sorted_facts(live_out) == GOLDEN[name + ".live_out"]
        analysis = analyze_module(module, env=env)
        sheet = _fact_sheet(analysis,
                            run_passes(module, env=env, analysis=analysis))
        assert sheet == GOLDEN[name + ".sheet"]


# --- the suite: same facts, same diagnostics, same text ----------------------

class TestSuiteGolden:
    """The seven ``suite.verify`` digests were re-recorded on purpose
    when every SoA address began to come from
    ``KernelBuilder.soa_address`` (PR 23): each access has one integer
    instruction less in front of it, so the instruction *positions* in
    the fact sheets moved.  Compared field by field at that commit,
    every other entry — region, offset range, stride, uniformity,
    verdict, transactions, branch classification, ``max_live_regs``
    and the diagnostics — was identical to the parent's."""

    def test_fact_sheets_match_the_parent(self, suite):
        digests = []
        for module, _, env in suite:
            assert build_cfg(list(module.instructions)).is_acyclic
            analysis = analyze_module(module, env=env)
            diagnostics = run_passes(module, env=env, analysis=analysis)
            digests.append(_digest(_fact_sheet(analysis, diagnostics)))
        assert digests == GOLDEN["suite.verify"]

    def test_text_round_trip_is_field_by_field(self, suite):
        for module, _, _ in suite:
            parsed = parse_ptx(module.render()).instructions
            assert len(parsed) == len(module.instructions)
            for got, want in zip(parsed, module.instructions):
                assert (got.opcode, got.type, got.dst, got.cmp,
                        got.src_type, got.label, got.guard,
                        got.guard_negated) == \
                    (want.opcode, want.type, want.dst, want.cmp,
                     want.src_type, want.label, want.guard,
                     want.guard_negated), want.render()
                assert len(got.srcs) == len(want.srcs)
                for g, w in zip(got.srcs, want.srcs):
                    if isinstance(w, Register):
                        assert g == w
                    else:       # immediates, specials, parameter refs
                        assert g.name == w.name, want.render()


#: computed at the parent commit (see the module docstring)
GOLDEN = {'float_loop.live_out': {0: [('f32', 0)], 1: [('f32', 0)], 2: []},
 'float_loop.live_in': {0: [], 1: [('f32', 0)], 2: []},
 'float_loop.defined_in': {0: [],
                           1: [('f32', 0)],
                           2: [('f32', 0), ('f32', 1), ('pred', 0)]},
 'float_loop.max_live': 8,
 'float_loop.sheet': ([], [(4, True, False)], 8, []),
 'indexed_loop.live_out': {0: [('s32', 1), ('u64', 0)],
                           1: [('s32', 1), ('u64', 0)],
                           2: []},
 'indexed_loop.sheet': ([(7,
                          'ld.global',
                          8,
                          'p',
                          (0.0, 72.0),
                          None,
                          False,
                          'proven',
                          None,
                          2)],
                        [(10, False, True)],
                        8,
                        [('error',
                          'ssa-structure',
                          'register %r1 redefined (first definition at '
                          'instruction 1)',
                          'add.s32 %r1, %r1, 1;')]),
 'loop_with_diamond.live_out': {0: [('f64', 0),
                                    ('s32', 0),
                                    ('s32', 1),
                                    ('u64', 0)],
                                1: [('f64', 0),
                                    ('s32', 0),
                                    ('s32', 1),
                                    ('u64', 0)],
                                2: [('f64', 0),
                                    ('s32', 0),
                                    ('s32', 1),
                                    ('u64', 0)],
                                3: [('f64', 0),
                                    ('s32', 0),
                                    ('s32', 1),
                                    ('u64', 0)],
                                4: [('f64', 0),
                                    ('s32', 0),
                                    ('s32', 1),
                                    ('u64', 0)],
                                5: []},
 'loop_with_diamond.sheet': ([(10,
                               'ld.global',
                               8,
                               'p',
                               (0.0, 0.0),
                               0.0,
                               True,
                               'proven',
                               1.0,
                               2),
                              (16,
                               'st.global',
                               8,
                               'p',
                               (0.0, 0.0),
                               0.0,
                               True,
                               'proven',
                               1.0,
                               2)],
                             [(6, False, False),
                              (8, True, False),
                              (15, False, False)],
                             8,
                             [('error',
                               'ssa-structure',
                               'register %fd0 redefined (first definition at '
                               'instruction 3)',
                               'add.f64 %fd0, %fd0, 2.0;'),
                              ('error',
                               'ssa-structure',
                               'register %fd0 redefined (first definition at '
                               'instruction 3)',
                               'add.f64 %fd0, %fd0, %fd1;'),
                              ('error',
                               'ssa-structure',
                               'register %r1 redefined (first definition at '
                               'instruction 2)',
                               'add.s32 %r1, %r1, 1;'),
                              ('warning',
                               'divergence',
                               'branch on thread-varying predicate diverges '
                               'the warp (both sides execute serially)',
                               '@%p1 bra $LOW;'),
                              ('warning',
                               'divergence',
                               'branch on thread-varying predicate diverges '
                               'the warp (both sides execute serially)',
                               '@%p2 bra $HEAD;')]),
 'suite.verify': ['04375f0f7717012e',
                  '3232be9d4baa5229',
                  '5fdcc4dbb7309299',
                  '96e4baee2e3477d7',
                  '4fbf91b7761e9628',
                  'cfb890431e3d5729',
                  'fa6935182c16250f']}
