"""``prepare_module``: the SSA check on the kernel build path.

It returns the module object it was given (so rendered text and
resource metadata cannot drift) and raises on a stream that is not
SSA — whatever ``REPRO_VERIFY`` says, because it is the only
structural check that runs when the verifier is off.  The build path
runs it once per structural key and counts it in every context.
"""

import pytest

from repro.diagnostics import fusion_mode
from repro.ir.pipeline import prepare_module
from repro.ir.verify import IRVerificationError
from repro.ptx.builder import KernelBuilder
from repro.ptx.isa import Immediate, Instruction, PTXType, Register
from repro.ptx.module import PTXModule

DIMS = (2, 2, 2, 4)


@pytest.fixture(scope="module")
def suite():
    from repro.lint import _build_kernel_suite, _suite_modules

    ctx, lat, _ = _build_kernel_suite(DIMS)
    return ctx, _suite_modules(ctx, lat)


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


def _twice_assigned():
    a = Register(PTXType.F64, 0)
    kb = KernelBuilder("twice")
    kb.emit(Instruction("mov", PTXType.F64, a, (Immediate(PTXType.F64, 1.0),)))
    kb.emit(Instruction("mov", PTXType.F64, a, (Immediate(PTXType.F64, 2.0),)))
    kb.ret()
    return PTXModule.from_builder(kb)


def _dangling():
    kb = KernelBuilder("dangling")
    ghost = Register(PTXType.F64, 9)
    kb.emit(Instruction("add", PTXType.F64, kb.new_reg(PTXType.F64),
                        (ghost, ghost)))
    kb.ret()
    return PTXModule.from_builder(kb)


class TestVerifyRoundTrip:
    def test_every_suite_kernel_roundtrips_bitwise(self, suite):
        """Eager or fused, reduction and halo kernels all pass the
        check and come back as the object that went in, so the text
        that reaches the driver is the text the generator built."""
        ctx, modules = suite
        names = set()
        for module, _, _ in modules:
            names.add(module.name)
            text = module.render()
            assert prepare_module(module) is module
            assert module.render() == text, module.name
        assert ctx.stats.modules_verified == len(modules)
        # REPRO_FUSION=off builds the same statements one by one
        family = "fus_" if fusion_mode() == "on" else "eval_"
        assert any(n.startswith(family) for n in names)
        assert any(n.startswith("red_") for n in names)
        assert any(n.startswith("gather_w") for n in names)
        assert any(n.startswith("scatter_w") for n in names)

    def test_verify_returns_the_original_module_object(self):
        m = _simple_module()
        assert prepare_module(m) is m

    def test_verify_counts_modules(self, monkeypatch):
        """Each context counts a module it takes through the build path,
        though the check itself runs once per structural key."""
        from repro.core import context as context_mod
        from repro.core.context import Context
        from repro.driver import clear_kernel_store

        clear_kernel_store()
        checks = []
        monkeypatch.setattr(context_mod, "prepare_module",
                            lambda m: checks.append(m) or prepare_module(m))
        contexts = [Context(autotune=False) for _ in range(2)]
        for ctx in contexts:
            ctx.build_kernel("simple", _simple_module)
        assert [c.stats.modules_verified for c in contexts] == [1, 1]
        assert len(checks) == 1


class TestRejectsNonSSA:
    """The check does not depend on ``REPRO_VERIFY``: with the verifier
    off it is all that stands between a generator bug and the JIT."""

    @pytest.mark.parametrize("verify", ["off", "warn", "error"])
    @pytest.mark.parametrize("build,message", [
        (_twice_assigned, "redefined"),
        (_dangling, "no definition"),
    ])
    def test_raises_under_every_verify_mode(self, monkeypatch, verify,
                                            build, message):
        monkeypatch.setenv("REPRO_VERIFY", verify)
        with pytest.raises(IRVerificationError, match=message):
            prepare_module(build())

    @pytest.mark.parametrize("verify", ["off", "warn", "error"])
    def test_build_path_raises_before_the_jit(self, monkeypatch, verify):
        """Through ``Context.build_kernel``, the surface every
        generator uses: nothing is rendered, compiled or charged."""
        from repro.core.context import Context

        monkeypatch.setenv("REPRO_VERIFY", verify)
        ctx = Context(autotune=False)
        with pytest.raises(IRVerificationError, match="redefined"):
            ctx.build_kernel("twice", _twice_assigned)
        assert ctx.stats.kernels_generated == 0
        assert ctx.stats.modules_verified == 0
        assert ctx.kernel_cache.stats.misses == 0
