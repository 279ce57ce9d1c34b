"""Pipeline-level properties: round-trip identity, opt-mode acceptance.

The two tentpole gates live here: ``REPRO_IR=verify`` must be bitwise
identical to ``off``, and ``REPRO_IR=opt`` must keep every generated
kernel absint-*proven* in bounds (no heuristic fallbacks) while
reducing the suite's total liveness-based register footprint.
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.diagnostics import fusion_mode
from repro.ir import pipeline
from repro.ir.pipeline import IRStats, prepare_module
from repro.ir.ssa import SSAFunction
from repro.ptx.builder import KernelBuilder
from repro.ptx.isa import Immediate, Instruction, PTXType, Register
from repro.ptx.module import PTXModule

DIMS = (2, 2, 2, 4)


@contextmanager
def _ir_env(mode):
    old = os.environ.get("REPRO_IR")
    os.environ["REPRO_IR"] = mode
    try:
        yield
    finally:
        if old is None:
            del os.environ["REPRO_IR"]
        else:
            os.environ["REPRO_IR"] = old


def _build_suite(mode):
    from repro.lint import _build_kernel_suite, _suite_modules

    with _ir_env(mode):
        ctx, lat, _ = _build_kernel_suite(DIMS)
        modules = _suite_modules(ctx, lat)
    return ctx, modules


@pytest.fixture(scope="module")
def verify_suite():
    return _build_suite("verify")


@pytest.fixture(scope="module")
def opt_suite():
    return _build_suite("opt")


def _simple_module():
    kb = KernelBuilder("simple")
    pn = kb.add_param("p_n", PTXType.S32)
    px = kb.add_param("p_x", PTXType.U64, is_pointer=True)
    n = kb.ld_param(pn)
    x = kb.ld_param(px)
    gid = kb.global_thread_id()
    oob = kb.setp("ge", gid, n)
    kb.bra("$EXIT", guard=oob)
    v = kb.ld_global(x, PTXType.F64)
    kb.st_global(x, kb.add(v, v), PTXType.F64)
    kb.label("$EXIT")
    kb.ret()
    return PTXModule.from_builder(kb)


class TestVerifyRoundTrip:
    def test_every_suite_kernel_roundtrips_bitwise(self, verify_suite):
        """Eager, fused, reduction and halo kernels all survive the
        lower-to-IR / raise-to-module round trip byte-for-byte."""
        _, modules = verify_suite
        names = set()
        for module, _, _ in modules:
            names.add(module.name)
            fn = SSAFunction.from_module(module)
            assert fn.to_module(info=module.info).render() == \
                module.render(), module.name
        # REPRO_FUSION=off builds the same statements one by one
        family = "fus_" if fusion_mode() == "on" else "eval_"
        assert any(n.startswith(family) for n in names)
        assert any(n.startswith("red_") for n in names)
        assert any(n.startswith("gather_w") for n in names)
        assert any(n.startswith("scatter_w") for n in names)

    def test_verify_returns_the_original_module_object(self):
        m = _simple_module()
        assert prepare_module(m, mode="off") is m
        assert prepare_module(m, mode="verify") is m

    def test_verify_counts_modules(self):
        stats = IRStats()
        prepare_module(_simple_module(), stats=stats, mode="verify")
        assert stats.mode == "verify"
        assert stats.modules_verified == 1
        assert stats.modules_optimized == 0


class TestOptAcceptance:
    def test_every_access_stays_proven(self, opt_suite):
        """Optimized streams must not degrade the bounds proof: all
        accesses *proven*, zero heuristic fallbacks."""
        from repro.ptx.absint import analyze_module

        _, modules = opt_suite
        checked = 0
        for module, _, env in modules:
            analysis = analyze_module(module, env)
            for access in analysis.accesses:
                assert access.verdict == "proven", \
                    f"{module.name}: {access.verdict}"
                checked += 1
        assert checked > 0

    def test_total_register_footprint_shrinks(self, opt_suite):
        ctx, _ = opt_suite
        ir = ctx.stats.ir
        assert ir.mode == "opt"
        assert ir.modules_optimized > 0
        assert ir.pressure_reverts == 0
        assert ir.live_regs_after < ir.live_regs_before
        assert ir.live_regs_saved > 0

    def test_per_pass_stats_accumulate(self, opt_suite):
        ctx, _ = opt_suite
        passes = ctx.stats.ir.passes
        assert set(passes) == set(pipeline.DEFAULT_PIPELINE)
        for counters in passes.values():
            assert "registers_saved" in counters


class TestOptEndToEnd:
    def _compute(self, mode):
        """One dslash + clover application and two reductions on a
        fixed seed, under a fresh context."""
        from repro.core.context import Context
        from repro.core.reduction import innerProduct, norm2
        from repro.qcd.cloverop import CloverOperator, CloverParams
        from repro.qcd.dslash import WilsonDslash
        from repro.qcd.gauge import weak_gauge
        from repro.qdp.fields import latt_fermion
        from repro.qdp.lattice import Lattice

        with _ir_env(mode):
            ctx = Context(autotune=False)
            lat = Lattice(DIMS)
            rng = np.random.default_rng(11)
            u = weak_gauge(lat, rng, eps=0.3, context=ctx)
            psi = latt_fermion(lat, context=ctx)
            psi.gaussian(rng)
            dest = latt_fermion(lat, context=ctx)
            WilsonDslash(u)(dest, psi)
            clov = CloverOperator(u, CloverParams(kappa=0.12,
                                                  clover_coeff=1.0))
            out = latt_fermion(lat, context=ctx)
            clov.apply(out, dest)
            n2 = norm2(out, context=ctx)
            ip = innerProduct(out, psi, context=ctx)
            return out.to_numpy().copy(), n2, ip

    def test_field_results_bitwise_identical_off_vs_opt(self):
        """The passes are value-preserving: optimized kernels must
        give byte-identical fields and scalars, not merely close."""
        base_field, base_n2, base_ip = self._compute("off")
        for mode in ("verify", "opt"):
            field, n2, ip = self._compute(mode)
            assert field.tobytes() == base_field.tobytes(), mode
            assert n2 == base_n2, mode
            assert ip == base_ip, mode


class TestPressureGate:
    def test_pressure_raising_pipeline_is_reverted(self, monkeypatch):
        """If the composed passes ever raised a kernel's liveness
        footprint, the gate returns the original module untouched."""
        def bloat(fn):
            """Pin 8 fresh f64 values (16 slots — well past the
            8-slot liveness floor) across the whole kernel."""
            insts = list(fn.instructions)
            for i in range(8):
                t = Register(PTXType.F64, 9000 + i)
                u = Register(PTXType.F64, 9100 + i)
                insts.insert(0, Instruction(
                    "mov", PTXType.F64, t, (Immediate(PTXType.F64, 1.0),)))
                insts.insert(len(insts) - 1, Instruction(
                    "add", PTXType.F64, u, (t, t)))
            return insts, {"bloated": 8}

        monkeypatch.delenv("REPRO_IR_PASSES", raising=False)
        monkeypatch.setattr(pipeline, "PASSES", {"bloat": bloat})
        monkeypatch.setattr(pipeline, "DEFAULT_PIPELINE", ("bloat",))
        m = _simple_module()
        stats = IRStats()
        assert prepare_module(m, stats=stats, mode="opt") is m
        assert stats.pressure_reverts == 1
        assert stats.modules_optimized == 0
        assert stats.live_regs_after == 0    # nothing accumulated
